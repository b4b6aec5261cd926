//! Crash-consistency acceptance (PR 8): for *every* kill point of a
//! journaled run — after each committed epoch record, the same point with
//! a torn trailing line, and mid-epoch at simulated times between
//! barriers — crashing and resuming from the journal must reproduce the
//! uninterrupted run byte-for-byte: the final `RunReport`, the regenerated
//! journal text, the execution trace, the metrics export, and (PR 9) the
//! per-epoch `EpochSnapshot` metrics stream. Covered on
//! the plain, faulty, adaptive, and repairing executor paths, plus a
//! proptest over random fault seeds.

use hetero_match::apps::synth;
use hetero_match::matchmaker::{
    Analyzer, AppDescriptor, ExecutionConfig, ExecutionFlow, JournalError, JournalSink, RunSpec,
    Strategy,
};
use hetero_match::platform::{
    DeviceId, FaultSchedule, KillSchedule, Platform, RetryPolicy, SimTime,
};
use hetero_match::runtime::{AdaptConfig, HealthConfig, ReplanConfig};
use hetero_match::runtime::{MetricsObserver, MultiObserver, SnapshotObserver, TraceObserver};
use proptest::prelude::*;

/// SK-Loop over several taskwait barriers: enough epochs for the kill
/// sweep to cross real state (placements, fault counters, RNG cursors).
fn app() -> AppDescriptor {
    synth::single_kernel(
        "crash",
        1 << 18,
        4096.0,
        ExecutionFlow::Loop { iterations: 5 },
        true,
    )
}

/// Run `spec` journaled and uninterrupted, then re-run it under every kill
/// point and assert the resumed run is byte-identical across all four
/// exports. `twin` is the unjournaled sibling entry point's report — the
/// journal must be a pure observer.
fn sweep(
    platform: &Platform,
    analyzer: &Analyzer,
    desc: &AppDescriptor,
    config: ExecutionConfig,
    spec: &RunSpec,
    twin: Option<&hetero_match::runtime::RunReport>,
) {
    let mut sink = JournalSink::record();
    let mut tobs = TraceObserver::new();
    let mut mobs = MetricsObserver::new(platform, "crash-resume");
    let mut snap = SnapshotObserver::new(platform, "crash-resume");
    let report = {
        let mut multi = MultiObserver::new()
            .with(&mut tobs)
            .with(&mut mobs)
            .with(&mut snap);
        analyzer
            .run(desc, config, spec, &mut multi, Some(&mut sink))
            .unwrap()
    };
    let digest = serde_json::to_string(&report).unwrap();
    if let Some(twin) = twin {
        assert_eq!(
            serde_json::to_string(twin).unwrap(),
            digest,
            "journaling must not perturb the run"
        );
    }
    let full_text = sink.text();
    let full_trace = serde_json::to_string(tobs.trace()).unwrap();
    let full_metrics = mobs.registry().to_json();
    let full_stream = snap.stream();
    let records = sink.records();
    assert!(
        records >= 2,
        "the app must span several epochs (got {records})"
    );

    // Kill points: every committed-record prefix, clean and torn, plus
    // simulated times spread across the run (mid-epoch deaths).
    let mut kills: Vec<KillSchedule> = Vec::new();
    for k in 0..records {
        kills.push(KillSchedule::after_records(k));
        kills.push(KillSchedule::after_records(k).torn());
    }
    for i in 1..6u64 {
        kills.push(KillSchedule::at_time(SimTime::from_nanos(
            report.makespan.as_nanos() * i / 6,
        )));
    }

    for (i, kill) in kills.into_iter().enumerate() {
        let mut sink = JournalSink::record_with_kill(kill);
        match analyzer.simulate_journaled(desc, config, spec, &mut sink) {
            Err(JournalError::Killed { .. }) => {}
            // A time kill can land after the final flush — the complete
            // journal must still resume cleanly.
            Ok(_) => {}
            Err(e) => panic!("kill point {i}: unexpected journal error: {e}"),
        }
        let mut tobs = TraceObserver::new();
        let mut mobs = MetricsObserver::new(platform, "crash-resume");
        let mut snap = SnapshotObserver::new(platform, "crash-resume");
        let (resumed, resumed_text) = {
            let mut multi = MultiObserver::new()
                .with(&mut tobs)
                .with(&mut mobs)
                .with(&mut snap);
            analyzer
                .resume_observed(&sink.text(), &mut multi)
                .unwrap_or_else(|e| panic!("kill point {i}: resume failed: {e}"))
        };
        assert_eq!(
            serde_json::to_string(&resumed).unwrap(),
            digest,
            "kill point {i}: resumed report diverges"
        );
        assert_eq!(
            resumed_text, full_text,
            "kill point {i}: regenerated journal diverges"
        );
        assert_eq!(
            serde_json::to_string(tobs.trace()).unwrap(),
            full_trace,
            "kill point {i}: resumed trace diverges"
        );
        assert_eq!(
            mobs.registry().to_json(),
            full_metrics,
            "kill point {i}: resumed metrics export diverges"
        );
        assert_eq!(
            snap.stream(),
            full_stream,
            "kill point {i}: resumed metrics stream diverges"
        );
    }
}

#[test]
fn every_kill_point_resumes_identically_on_the_plain_path() {
    let platform = Platform::icpp15();
    let analyzer = Analyzer::new(&platform);
    let desc = app();
    let config = ExecutionConfig::Strategy(Strategy::SpSingle);
    let twin = analyzer.simulate(&desc, config);
    sweep(
        &platform,
        &analyzer,
        &desc,
        config,
        &RunSpec::plain(),
        Some(&twin),
    );
}

#[test]
fn every_kill_point_resumes_identically_under_a_dynamic_scheduler() {
    // DP-Perf's warm-up pass runs unjournaled (it is a pure function of
    // the inputs), so resume must regenerate it before replaying records.
    let platform = Platform::icpp15();
    let analyzer = Analyzer::new(&platform);
    let desc = app();
    let config = ExecutionConfig::Strategy(Strategy::DpPerf);
    let twin = analyzer.simulate(&desc, config);
    sweep(
        &platform,
        &analyzer,
        &desc,
        config,
        &RunSpec::plain(),
        Some(&twin),
    );
}

#[test]
fn every_kill_point_resumes_identically_under_faults() {
    let platform = Platform::icpp15();
    let analyzer = Analyzer::new(&platform);
    let desc = app();
    let config = ExecutionConfig::Strategy(Strategy::SpSingle);
    let schedule = FaultSchedule::new(29).with_flaky(
        DeviceId(1),
        0.25,
        SimTime::ZERO,
        SimTime::from_millis(500),
    );
    let twin = analyzer.simulate_faulty(&desc, config, &schedule, RetryPolicy::default());
    assert!(
        twin.faults.task_faults > 0,
        "the flaky window must actually fault"
    );
    sweep(
        &platform,
        &analyzer,
        &desc,
        config,
        &RunSpec::faulty(schedule),
        Some(&twin),
    );
}

#[test]
fn every_kill_point_resumes_identically_across_adaptation() {
    let platform = Platform::icpp15();
    let analyzer = Analyzer::new(&platform);
    let desc = app();
    let config = ExecutionConfig::Strategy(Strategy::SpSingle);
    let schedule =
        FaultSchedule::new(42).with_profile_perturb(DeviceId(1), 0.5, SimTime::ZERO, SimTime::MAX);
    let health = HealthConfig::disabled();
    let adapt = AdaptConfig::enabled_default();
    let twin = analyzer.simulate_adaptive(
        &desc,
        config,
        &schedule,
        RetryPolicy::default(),
        &health,
        &adapt,
    );
    assert!(
        twin.adapt.repartitions >= 1,
        "the misprediction must trigger repartitioning: {:?}",
        twin.adapt
    );
    sweep(
        &platform,
        &analyzer,
        &desc,
        config,
        &RunSpec::adaptive(schedule, health, adapt),
        Some(&twin),
    );
}

#[test]
fn every_kill_point_resumes_identically_across_plan_repair() {
    // On the 2-device preset failover-to-host is exactly the naive
    // fallback, so the no-regression guard counts no replan; the 3-device
    // preset gives the repair a real survivor set to re-solve over.
    let platform = Platform::icpp15_with_phi();
    let analyzer = Analyzer::new(&platform);
    let desc = app();
    let config = ExecutionConfig::Strategy(Strategy::SpSingle);
    let schedule = FaultSchedule::new(7).with_dropout(DeviceId(1), SimTime::from_micros(400));
    let health = HealthConfig::disabled();
    let adapt = AdaptConfig::disabled();
    let replan = ReplanConfig::enabled_default();
    let twin = analyzer
        .simulate_repairing(
            &desc,
            config,
            &schedule,
            RetryPolicy::default(),
            &health,
            &adapt,
            &replan,
        )
        .unwrap();
    assert!(
        twin.adapt.replans >= 1,
        "the dropout must trigger plan repair: {:?}",
        twin.adapt
    );
    sweep(
        &platform,
        &analyzer,
        &desc,
        config,
        &RunSpec::repairing(schedule, health, adapt, replan),
        Some(&twin),
    );
}

/// A complete journaled plain run: (journal text, report digest).
fn complete_journal() -> (String, String) {
    let platform = Platform::icpp15();
    let analyzer = Analyzer::new(&platform);
    let desc = app();
    let config = ExecutionConfig::Strategy(Strategy::SpSingle);
    let mut sink = JournalSink::record();
    let report = analyzer
        .simulate_journaled(&desc, config, &RunSpec::plain(), &mut sink)
        .unwrap();
    (sink.text(), serde_json::to_string(&report).unwrap())
}

#[test]
fn salvage_recovers_a_corrupt_middle_line() {
    let (full_text, digest) = complete_journal();
    let lines: Vec<&str> = full_text.split_inclusive('\n').collect();
    assert!(
        lines.len() >= 4,
        "want several records, got {}",
        lines.len()
    );
    // Break the envelope of a middle record (journal line 4) without
    // changing its length: strict load must refuse the whole journal,
    // salvage must keep the two records before it.
    let target = 3;
    let corrupt: String = lines
        .iter()
        .enumerate()
        .map(|(i, l)| {
            if i == target {
                l.replacen("\"body\"", "\"b0dy\"", 1)
            } else {
                (*l).to_string()
            }
        })
        .collect();
    assert_eq!(corrupt.len(), full_text.len());
    assert!(matches!(
        hetero_match::matchmaker::RunJournal::load(&corrupt),
        Err(JournalError::CorruptLine { line: 4 })
    ));
    let (journal, salvage) = hetero_match::matchmaker::RunJournal::load_salvaged(&corrupt).unwrap();
    let salvage = salvage.expect("a cut must be reported");
    assert_eq!(salvage.first_bad_line, 4);
    assert_eq!(salvage.discarded_lines, lines.len() - target);
    assert!(salvage.reason.contains("integrity envelope"), "{salvage}");
    assert_eq!(journal.record_count(), target - 1);
    assert!(
        journal.torn_discarded,
        "a cut prefix resumes like a torn one"
    );

    // Salvaged resume must regenerate the uninterrupted run exactly.
    let platform = Platform::icpp15();
    let analyzer = Analyzer::new(&platform);
    let (resumed, resumed_text, report) = analyzer
        .resume_salvaged(&corrupt, &mut hetero_match::runtime::NullObserver)
        .unwrap();
    assert_eq!(serde_json::to_string(&resumed).unwrap(), digest);
    assert_eq!(resumed_text, full_text);
    assert_eq!(report.expect("a cut must be reported").first_bad_line, 4);
}

#[test]
fn salvage_stops_at_a_non_sequential_epoch() {
    let (full_text, digest) = complete_journal();
    let mut lines: Vec<String> = full_text
        .split_inclusive('\n')
        .map(str::to_string)
        .collect();
    assert!(lines.len() >= 4);
    // Swap two middle records: both lines still pass their hash check,
    // but the epoch sequence breaks at the first swapped line.
    lines.swap(2, 3);
    let corrupt: String = lines.concat();
    assert!(matches!(
        hetero_match::matchmaker::RunJournal::load(&corrupt),
        Err(JournalError::NonSequentialEpoch {
            line: 3,
            found: 2,
            expected: 1,
        })
    ));
    let (journal, salvage) = hetero_match::matchmaker::RunJournal::load_salvaged(&corrupt).unwrap();
    let salvage = salvage.expect("a cut must be reported");
    assert_eq!(salvage.first_bad_line, 3);
    assert_eq!(journal.record_count(), 1);

    let platform = Platform::icpp15();
    let analyzer = Analyzer::new(&platform);
    let (resumed, resumed_text, _) = analyzer
        .resume_salvaged(&corrupt, &mut hetero_match::runtime::NullObserver)
        .unwrap();
    assert_eq!(serde_json::to_string(&resumed).unwrap(), digest);
    assert_eq!(resumed_text, full_text);
}

#[test]
fn salvage_of_a_clean_journal_reports_nothing() {
    let (full_text, _) = complete_journal();
    let strict = hetero_match::matchmaker::RunJournal::load(&full_text).unwrap();
    let (salvaged, report) =
        hetero_match::matchmaker::RunJournal::load_salvaged(&full_text).unwrap();
    assert!(report.is_none());
    assert_eq!(salvaged, strict);
    // Nothing-to-salvage journals still fail typed: the header is the
    // trust anchor salvage cannot reconstruct.
    assert!(matches!(
        hetero_match::matchmaker::RunJournal::load_salvaged(""),
        Err(JournalError::Empty)
    ));
    assert!(matches!(
        hetero_match::matchmaker::RunJournal::load_salvaged("not a journal\n"),
        Err(JournalError::MissingHeader)
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any seeded mix of transient faults and profile misprediction stays
    /// crash-consistent at every kill point.
    #[test]
    fn random_fault_mixes_stay_crash_consistent(
        seed in 0u64..1_000,
        fault_prob in 0.05f64..0.3,
        factor in prop_oneof![0.3f64..0.8, 1.3f64..2.5],
    ) {
        let platform = Platform::icpp15();
        let analyzer = Analyzer::new(&platform);
        let desc = app();
        let config = ExecutionConfig::Strategy(Strategy::SpSingle);
        let schedule = FaultSchedule::new(seed)
            .with_flaky(DeviceId(1), fault_prob, SimTime::ZERO, SimTime::from_millis(100))
            .with_profile_perturb(DeviceId(0), factor, SimTime::ZERO, SimTime::MAX);
        sweep(
            &platform,
            &analyzer,
            &desc,
            config,
            &RunSpec::adaptive(schedule, HealthConfig::disabled(), AdaptConfig::enabled_default()),
            None,
        );
    }
}
