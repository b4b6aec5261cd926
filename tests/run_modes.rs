//! Every run mode pinned byte for byte. The five checked-in fuzz-corpus
//! scenarios each run every configuration the analyzer compares (both
//! baselines plus the Table I ranking) under six run specs — plain,
//! faulty, resilient, the mispredicted baseline, adaptive and repairing —
//! three ways: unobserved, under a `MetricsObserver`, and journaled with a
//! `SnapshotObserver`; each journal is then resumed. The report digests,
//! registry JSON, journal text, snapshot stream and resumed journal text
//! are hashed together, so any change to what a run does or exports in any
//! mode moves the hash.

use std::path::PathBuf;

use hetero_match::matchmaker::{load_corpus, Analyzer, JournalSink, RunSpec};
use hetero_match::platform::{fnv1a_64, FaultSchedule};
use hetero_match::runtime::{
    report_digest, AdaptConfig, HealthConfig, MetricsObserver, NullObserver, Observer,
    ReplanConfig, RunReport, SnapshotObserver,
};

/// The hash the suite recorded through the per-mode entry points that
/// `Analyzer::run` replaced; the single entry point must reproduce it.
const PINNED: u64 = 0x03d3_2a1c_cd65_6f39;

fn specs(schedule: &FaultSchedule) -> [RunSpec; 6] {
    let health = HealthConfig::monitored();
    [
        RunSpec::plain(),
        RunSpec::faulty(schedule.clone()),
        RunSpec::resilient(schedule.clone(), health),
        RunSpec::adaptive(schedule.clone(), health, AdaptConfig::disabled()),
        RunSpec::adaptive(schedule.clone(), health, AdaptConfig::enabled_default()),
        RunSpec::repairing(
            schedule.clone(),
            health,
            AdaptConfig::disabled(),
            ReplanConfig::enabled_default(),
        ),
    ]
}

/// An unjournaled run's digest; a repairing run that gave up digests as its
/// error, which is all the per-mode entry points used to return.
fn digest(report: &RunReport) -> String {
    match &report.adapt.replan_error {
        Some(e) => format!("replan error: {e}"),
        None => report_digest(report),
    }
}

#[test]
fn every_run_mode_matches_the_pinned_bytes() {
    let corpus = load_corpus(&PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fuzz_corpus"));
    assert_eq!(corpus.len(), 5, "the pin covers the five seed scenarios");
    let mut text = String::new();
    for (_, entry) in &corpus {
        let sc = &entry.scenario;
        let platform = sc.platform.build();
        let analyzer = Analyzer::new(&platform);
        let desc = &sc.descriptor;
        for config in analyzer.candidates(desc) {
            let label = config.to_string();
            for spec in specs(&sc.schedule) {
                let what = format!("{} under {label} ({:?})", sc.name, spec.mode);
                let run = |obs: &mut dyn Observer, journal: Option<&mut JournalSink>| {
                    analyzer
                        .run(desc, config, &spec, obs, journal)
                        .unwrap_or_else(|e| panic!("{what}: run failed: {e}"))
                };

                text.push_str(&digest(&run(&mut NullObserver, None)));

                let mut metrics = MetricsObserver::new(&platform, &label);
                text.push_str(&digest(&run(&mut metrics, None)));
                text.push_str(&metrics.registry().to_json());

                let mut snap = SnapshotObserver::new(&platform, &label);
                let mut sink = JournalSink::record();
                let report = run(&mut snap, Some(&mut sink));
                let journal = sink.text();
                text.push_str(&report_digest(&report));
                text.push_str(&journal);
                text.push_str(&snap.stream());

                let (resumed, resumed_text) = analyzer
                    .resume(&journal)
                    .unwrap_or_else(|e| panic!("{what}: resume failed: {e}"));
                text.push_str(&report_digest(&resumed));
                text.push_str(&resumed_text);
            }
        }
    }
    let hash = fnv1a_64(text.as_bytes());
    assert_eq!(hash, PINNED, "run-mode bytes moved: got {hash:#018x}");
}
