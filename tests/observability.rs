//! The observability layer end to end: blame attribution balances its books
//! on every strategy/app pair of the repro corpus, observers never perturb
//! the simulation, exports are byte-deterministic, kernel-rate profiles
//! survive persistence, causal span trees tile device capacity against the
//! blame identity, and streamed metrics deltas fold back to the end-of-run
//! registry on every execution path.

use std::path::PathBuf;

use hetero_match::apps::{paper_apps, synth};
use hetero_match::matchmaker::{
    load_corpus, Analyzer, ExecutionConfig, ExecutionFlow, JournalSink, Planner, ProfileStore,
    RunSpec, Scenario, Strategy,
};
use hetero_match::platform::{
    fnv1a_64, DeviceId, FaultRng, FaultSchedule, Platform, RetryPolicy, SimTime,
};
use hetero_match::runtime::{
    fold_stream, simulate, simulate_observed, AdaptConfig, CriticalPath, HealthConfig,
    MetricsObserver, MetricsRegistry, MultiObserver, NullObserver, PinnedScheduler, ReplanConfig,
    SpanTree, TimeBreakdown, TraceObserver,
};
use proptest::prelude::*;

/// Acceptance criterion: for every application in the repro corpus and
/// every execution configuration the analyzer would compare (both
/// baselines plus the full Table I ranking), the blame components sum to
/// `makespan × slots` on each device.
#[test]
fn breakdown_components_sum_to_makespan_for_whole_corpus() {
    let platform = Platform::icpp15();
    let analyzer = Analyzer::new(&platform);
    for desc in paper_apps() {
        for (config, report) in analyzer.compare_all(&desc) {
            assert!(
                report.breakdown.identity_holds(),
                "{} under {config}: blame books must balance",
                desc.name
            );
            assert_eq!(report.breakdown.makespan, report.makespan);
            for (d, b) in report.breakdown.per_device.iter().enumerate() {
                assert_eq!(
                    b.accounted(),
                    report.makespan * b.slots,
                    "{} under {config}, device {d}: components must sum to makespan × slots",
                    desc.name
                );
            }
        }
    }
}

/// The identity also holds under faults: dropped capacity lands in `dead`,
/// retries in `fault_loss`, and the books still balance for every ranked
/// configuration.
#[test]
fn breakdown_identity_holds_under_faults() {
    let platform = Platform::icpp15();
    let analyzer = Analyzer::new(&platform);
    let desc = synth::single_kernel(
        "faulty-blame",
        1 << 18,
        8192.0,
        ExecutionFlow::Loop { iterations: 4 },
        true,
    );
    let schedule = FaultSchedule::new(99)
        .with_dropout(DeviceId(1), SimTime::from_millis(2))
        .with_task_faults(None, 0.05, SimTime::ZERO, SimTime::MAX)
        .with_transfer_faults(0.05, SimTime::ZERO, SimTime::MAX);
    for e in analyzer.rank_by_degradation(&desc, &RunSpec::faulty(schedule)) {
        assert!(e.healthy.breakdown.identity_holds(), "{}", e.config);
        assert!(e.faulty.breakdown.identity_holds(), "{}", e.config);
        assert!(e.resilience_overhead() >= SimTime::ZERO);
    }
}

/// Observers are strictly observational: a [`NullObserver`] run, an
/// observed run with active sinks, and a traced run all produce the same
/// report (makespan, counters, and breakdown).
#[test]
fn observers_do_not_perturb_the_simulation() {
    let platform = Platform::icpp15();
    let desc = synth::single_kernel(
        "observed",
        1 << 18,
        4096.0,
        ExecutionFlow::Loop { iterations: 3 },
        true,
    );
    let program = Planner::new(&platform)
        .plan(&desc, ExecutionConfig::Strategy(Strategy::SpSingle))
        .program;
    let plain = simulate(&program, &platform, &mut PinnedScheduler);
    let mut null = NullObserver;
    let nulled = simulate_observed(&program, &platform, &mut PinnedScheduler, &mut null);
    let mut traced = TraceObserver::new();
    let traced_report = simulate_observed(&program, &platform, &mut PinnedScheduler, &mut traced);
    let trace = traced.into_trace();
    let mut metrics = MetricsObserver::new(&platform, "SP-Single");
    let mut tracer = TraceObserver::new();
    let multi_report = {
        let mut multi = MultiObserver::new().with(&mut metrics).with(&mut tracer);
        simulate_observed(&program, &platform, &mut PinnedScheduler, &mut multi)
    };
    for other in [&nulled, &traced_report, &multi_report] {
        assert_eq!(other.makespan, plain.makespan);
        assert_eq!(other.counters, plain.counters);
        assert_eq!(other.breakdown, plain.breakdown);
    }
    // The fanned-out trace is the trace.
    assert_eq!(tracer.trace().events.len(), trace.events.len());
    assert_eq!(tracer.trace().events, trace.events);
    // And the critical path it extracts ends at the makespan.
    let path = CriticalPath::from_trace(&trace);
    assert_eq!(path.end(), plain.makespan);
}

/// Golden-file style determinism: two identical runs render byte-identical
/// Prometheus text, metrics JSON, and Chrome-trace JSON.
#[test]
fn exports_are_byte_deterministic_across_replays() {
    let platform = Platform::icpp15();
    let desc = synth::single_kernel(
        "export-twice",
        1 << 18,
        4096.0,
        ExecutionFlow::Loop { iterations: 2 },
        true,
    );
    let program = Planner::new(&platform)
        .plan(&desc, ExecutionConfig::Strategy(Strategy::SpSingle))
        .program;
    let run = || {
        let mut metrics = MetricsObserver::new(&platform, "SP-Single");
        let mut tracer = TraceObserver::new();
        {
            let mut multi = MultiObserver::new().with(&mut metrics).with(&mut tracer);
            simulate_observed(&program, &platform, &mut PinnedScheduler, &mut multi);
        }
        let registry = metrics.into_registry();
        (
            registry.to_prometheus(),
            registry.to_json(),
            tracer.into_trace().to_chrome_json(&platform),
        )
    };
    let (prom1, json1, chrome1) = run();
    let (prom2, json2, chrome2) = run();
    assert_eq!(prom1, prom2);
    assert_eq!(json1, json2);
    assert_eq!(chrome1, chrome2);
    assert!(prom1.contains("# TYPE hm_makespan_seconds gauge"));
    assert!(chrome1.contains("\"ph\": \"C\""), "counter track present");
}

/// Serde round-trips for the new boundary types.
#[test]
fn observability_types_roundtrip_through_json() {
    let platform = Platform::icpp15();
    let desc = synth::single_kernel("roundtrip", 1 << 18, 4096.0, ExecutionFlow::Sequence, false);
    let program = Planner::new(&platform)
        .plan(&desc, ExecutionConfig::Strategy(Strategy::SpSingle))
        .program;
    let mut metrics = MetricsObserver::new(&platform, "SP-Single");
    let report = simulate_observed(&program, &platform, &mut PinnedScheduler, &mut metrics);

    let json = serde_json::to_string(&report.breakdown).unwrap();
    let back: TimeBreakdown = serde_json::from_str(&json).unwrap();
    assert_eq!(back, report.breakdown);

    let registry = metrics.into_registry();
    let back: MetricsRegistry = serde_json::from_str(&registry.to_json()).unwrap();
    assert_eq!(back, registry);
}

/// Profile persistence: recorded kernel rates survive a save/load cycle,
/// and a planner seeded from the loaded store plans exactly like the
/// planner that probed them.
#[test]
fn profiles_persist_and_reproduce_plans() {
    let platform = Platform::icpp15();
    let desc = synth::single_kernel("profiled", 1 << 19, 8192.0, ExecutionFlow::Sequence, false);
    let probing = Planner::new(&platform);
    let store = probing.record_profiles(&desc);
    assert_eq!(store.len(), desc.kernels.len());

    let path = std::env::temp_dir().join("hetero-match-obs-test-profile.json");
    store.save(&path).unwrap();
    let loaded = ProfileStore::load(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(loaded, store);

    let mut seeded = Planner::new(&platform);
    seeded.profiles = Some(loaded);
    let config = ExecutionConfig::Strategy(Strategy::SpSingle);
    let probed_plan = probing.plan(&desc, config);
    let seeded_plan = seeded.plan(&desc, config);
    let a = simulate(&probed_plan.program, &platform, &mut PinnedScheduler);
    let b = simulate(&seeded_plan.program, &platform, &mut PinnedScheduler);
    assert_eq!(
        a.makespan, b.makespan,
        "seeded planner must replan identically"
    );
    assert_eq!(a.counters, b.counters);
}

/// Acceptance criterion (PR 9): the causal span tree's per-kind durations
/// exactly tile `makespan × slots` against the blame identity — `task`
/// slot time equals the sum of the active blame components, and `dead` and
/// `idle` match the blame books — for every app/config pair of the repro
/// corpus.
#[test]
fn span_tree_tiles_capacity_against_blame_for_whole_corpus() {
    let platform = Platform::icpp15();
    let analyzer = Analyzer::new(&platform);
    for desc in paper_apps() {
        for (config, _) in analyzer.compare_all(&desc) {
            let mut tobs = TraceObserver::new();
            let report = analyzer
                .run(&desc, config, &RunSpec::plain(), &mut tobs, None)
                .unwrap();
            let tree = SpanTree::from_trace(tobs.trace(), &platform);
            assert_eq!(tree.end, report.makespan, "{} under {config}", desc.name);
            for (d, s) in tree.device_span_seconds().iter().enumerate() {
                let b = &report.breakdown.per_device[d];
                assert_eq!(
                    s.task + s.dead + s.idle,
                    report.makespan * b.slots,
                    "{} under {config}, device {d}: span kinds must tile capacity",
                    desc.name
                );
                assert_eq!(
                    s.task,
                    b.active(),
                    "{} under {config}, device {d}: task spans must equal active blame",
                    desc.name
                );
                assert_eq!(s.dead, b.dead, "{} under {config}, device {d}", desc.name);
                assert_eq!(s.idle, b.idle, "{} under {config}, device {d}", desc.name);
            }
        }
    }
}

/// Span tiling also survives faults: a dropout leaves its post-death
/// capacity in `dead`, retries stretch task slots, and the three span
/// kinds still tile `makespan × slots` exactly as the blame books do.
#[test]
fn span_tree_tiles_capacity_under_faults() {
    let platform = Platform::icpp15_with_phi();
    let analyzer = Analyzer::new(&platform);
    let desc = synth::single_kernel(
        "span-faulty",
        1 << 18,
        4096.0,
        ExecutionFlow::Loop { iterations: 4 },
        true,
    );
    let config = ExecutionConfig::Strategy(Strategy::SpSingle);
    let schedule = FaultSchedule::new(7)
        .with_flaky(DeviceId(2), 0.2, SimTime::ZERO, SimTime::from_millis(1))
        .with_dropout(DeviceId(1), SimTime::from_micros(400));
    let mut tobs = TraceObserver::new();
    let mut sink = JournalSink::record();
    let report = analyzer
        .run(
            &desc,
            config,
            &RunSpec::faulty(schedule),
            &mut tobs,
            Some(&mut sink),
        )
        .unwrap();
    assert!(report.faults.task_faults > 0 || report.faults.device_dropouts > 0);
    let tree = SpanTree::from_trace(tobs.trace(), &platform);
    for (d, s) in tree.device_span_seconds().iter().enumerate() {
        let b = &report.breakdown.per_device[d];
        assert_eq!(
            s.task + s.dead + s.idle,
            report.makespan * b.slots,
            "device {d}: span kinds must tile capacity under faults"
        );
        assert_eq!(s.task, b.active(), "device {d}");
        assert_eq!(s.dead, b.dead, "device {d}");
        assert_eq!(s.idle, b.idle, "device {d}");
    }
    // The dropout shows up as a causal child of its epoch.
    let folded = tree.to_folded();
    assert!(!folded.is_empty());
}

/// The flow-arrow export draws on the Chrome exporter's own slices: on
/// every checked-in fuzz-corpus scenario and a few generated ones, under
/// all five run modes, each arrow's `f` end shares `pid`, `tid` and `ts`
/// with an `"X"` slice, and the document minus its `s`/`f` events is
/// byte-for-byte the plain Chrome export.
#[test]
fn flow_arrows_land_on_exported_slices() {
    let corpus = load_corpus(&PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fuzz_corpus"));
    let scenarios: Vec<Scenario> = corpus
        .into_iter()
        .map(|(_, entry)| entry.scenario)
        .chain((0..8).map(|i| Scenario::generate(FaultRng::new(0xF10 + i).next_u64())))
        .collect();
    let mut arrows = 0;
    for sc in &scenarios {
        let platform = sc.platform.build();
        let analyzer = Analyzer::new(&platform);
        let health = HealthConfig::monitored();
        let specs = [
            RunSpec::plain(),
            RunSpec::faulty(sc.schedule.clone()),
            RunSpec::resilient(sc.schedule.clone(), health),
            RunSpec::adaptive(sc.schedule.clone(), health, AdaptConfig::enabled_default()),
            RunSpec::repairing(
                sc.schedule.clone(),
                health,
                AdaptConfig::disabled(),
                ReplanConfig::enabled_default(),
            ),
        ];
        for spec in specs {
            let what = format!("{} ({:?})", sc.name, spec.mode);
            let mut tobs = TraceObserver::new();
            analyzer
                .run(&sc.descriptor, sc.config, &spec, &mut tobs, None)
                .unwrap_or_else(|e| panic!("{what}: run failed: {e}"));
            let trace = tobs.trace();
            let flows: serde_json::Value =
                serde_json::from_str(&trace.to_chrome_json_with_flows(&platform)).unwrap();
            let (ends, slices): (Vec<_>, Vec<_>) = flows
                .as_array()
                .unwrap()
                .iter()
                .partition(|e| matches!(e["ph"].as_str(), Some("s" | "f")));
            for f in ends.iter().filter(|e| e["ph"].as_str() == Some("f")) {
                arrows += 1;
                assert!(
                    slices.iter().any(|x| x["ph"].as_str() == Some("X")
                        && x["pid"] == f["pid"]
                        && x["tid"] == f["tid"]
                        && x["ts"] == f["ts"]),
                    "{what}: arrow {} lands on no rendered slice",
                    f["name"].as_str().unwrap_or("?")
                );
            }
            assert_eq!(
                serde_json::to_string_pretty(&slices).unwrap(),
                trace.to_chrome_json(&platform),
                "{what}: the flows document minus its arrows must be the Chrome export"
            );
        }
    }
    assert!(arrows > 0, "the scenarios must exercise flow arrows");
}

/// Acceptance criterion (PR 9): folding the streamed `EpochSnapshot`
/// deltas reproduces the end-of-run registry byte-for-byte on all five
/// journaled execution paths.
#[test]
fn stream_fold_equivalence_across_all_run_modes() {
    let platform = Platform::icpp15_with_phi();
    let analyzer = Analyzer::new(&platform);
    let desc = synth::single_kernel(
        "stream-modes",
        1 << 18,
        4096.0,
        ExecutionFlow::Loop { iterations: 4 },
        true,
    );
    let config = ExecutionConfig::Strategy(Strategy::SpSingle);
    let schedule = || {
        FaultSchedule::new(29)
            .with_flaky(DeviceId(2), 0.2, SimTime::ZERO, SimTime::from_millis(1))
            .with_dropout(DeviceId(1), SimTime::from_micros(400))
    };
    let specs = [
        ("plain", RunSpec::plain()),
        ("faulty", RunSpec::faulty(schedule())),
        (
            "resilient",
            RunSpec::resilient(schedule(), HealthConfig::monitored()),
        ),
        (
            "adaptive",
            RunSpec::adaptive(
                schedule(),
                HealthConfig::monitored(),
                AdaptConfig::enabled_default(),
            ),
        ),
        (
            "repairing",
            RunSpec::repairing(
                schedule(),
                HealthConfig::disabled(),
                AdaptConfig::disabled(),
                ReplanConfig::enabled_default(),
            ),
        ),
    ];
    for (what, spec) in specs {
        let (_, obs) = analyzer
            .simulate_streamed(&desc, config, &spec)
            .unwrap_or_else(|e| panic!("{what}: streamed run failed: {e}"));
        assert!(
            obs.lines().len() >= 2,
            "{what}: expected per-epoch lines plus the run-end line"
        );
        let folded = fold_stream(&obs.stream())
            .unwrap_or_else(|e| panic!("{what}: stream does not fold: {e}"));
        assert_eq!(
            folded.to_json(),
            obs.registry().to_json(),
            "{what}: folded stream must reproduce the registry byte-for-byte"
        );
        // The stream itself is byte-deterministic across replays.
        let (_, again) = analyzer.simulate_streamed(&desc, config, &spec).unwrap();
        assert_eq!(obs.stream(), again.stream(), "{what}: stream must replay");
    }
}

/// The observer's exported bytes are pinned: every paper variant under
/// SP-Unified and DP-Perf on the ICPP'15 platform, streamed, with the
/// snapshot stream, the registry JSON and the Prometheus text of each run
/// concatenated and hashed. Any change to a metric name, label, value, line
/// order or float rendering moves the hash; an optimization of the observer
/// must leave it where it is.
#[test]
fn observed_exports_match_the_pinned_bytes() {
    const PINNED: u64 = 0x5405_6ce7_e950_4c4a;
    let platform = Platform::icpp15();
    let analyzer = Analyzer::new(&platform);
    let mut text = String::new();
    for desc in bench::experiments::paper_variants() {
        for strategy in [Strategy::SpUnified, Strategy::DpPerf] {
            let (_, obs) = analyzer
                .simulate_streamed(
                    &desc,
                    ExecutionConfig::Strategy(strategy),
                    &RunSpec::plain(),
                )
                .unwrap_or_else(|e| panic!("{} under {strategy:?}: {e}", desc.name));
            text.push_str(&obs.stream());
            text.push_str(&obs.registry().to_json());
            text.push_str(&obs.registry().to_prometheus());
        }
    }
    let hash = fnv1a_64(text.as_bytes());
    assert_eq!(
        hash, PINNED,
        "observer export bytes moved: got {hash:#018x}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property: the blame identity holds for arbitrary synthetic
    /// applications across flows, intensities and strategies — including
    /// under seeded task faults.
    #[test]
    fn breakdown_identity_is_universal(
        log_items in 14u32..19,
        flops in 64.0f64..16384.0,
        iterations in 1u32..4,
        strategy in prop_oneof![
            Just(Strategy::SpSingle),
            Just(Strategy::DpDep),
            Just(Strategy::DpPerf),
        ],
        seed in 0u64..1024,
    ) {
        let platform = Platform::icpp15();
        let analyzer = Analyzer::new(&platform);
        let flow = if iterations == 1 {
            ExecutionFlow::Sequence
        } else {
            ExecutionFlow::Loop { iterations }
        };
        let desc = synth::single_kernel("prop", 1u64 << log_items, flops, flow, iterations > 1);
        let config = ExecutionConfig::Strategy(strategy);
        let healthy = analyzer.simulate(&desc, config);
        prop_assert!(healthy.breakdown.identity_holds());
        prop_assert_eq!(healthy.breakdown.makespan, healthy.makespan);
        let schedule =
            FaultSchedule::new(seed).with_task_faults(None, 0.1, SimTime::ZERO, SimTime::MAX);
        let faulty = analyzer.simulate_resilient(
            &desc,
            config,
            &schedule,
            RetryPolicy::default(),
            &HealthConfig::disabled(),
        );
        prop_assert!(faulty.breakdown.identity_holds());
    }

    /// Property: span-kind durations tile `makespan × slots` against the
    /// blame identity for any repro-corpus app under any suitable
    /// strategy, fault-free or seeded-faulty.
    #[test]
    fn span_tiling_matches_blame_identity(
        app_idx in 0usize..64,
        strategy in prop_oneof![
            Just(Strategy::SpSingle),
            Just(Strategy::DpDep),
            Just(Strategy::DpPerf),
        ],
        fault_prob in prop_oneof![Just(0.0f64), 0.05f64..0.2],
        seed in 0u64..1024,
    ) {
        let platform = Platform::icpp15();
        let analyzer = Analyzer::new(&platform);
        let corpus = paper_apps();
        let desc = &corpus[app_idx % corpus.len()];
        let config = ExecutionConfig::Strategy(strategy);
        if analyzer.planner().try_plan(desc, config).is_err() {
            // Not every strategy suits every corpus app (e.g. SP-Single
            // targets single-kernel applications) — nothing to check.
            return Ok(());
        }
        let mut tobs = TraceObserver::new();
        let spec = if fault_prob == 0.0 {
            RunSpec::plain()
        } else {
            RunSpec::faulty(
                FaultSchedule::new(seed)
                    .with_task_faults(None, fault_prob, SimTime::ZERO, SimTime::MAX),
            )
        };
        let report = analyzer.run(desc, config, &spec, &mut tobs, None).unwrap();
        let tree = SpanTree::from_trace(tobs.trace(), &platform);
        for (d, s) in tree.device_span_seconds().iter().enumerate() {
            let b = &report.breakdown.per_device[d];
            prop_assert_eq!(s.task + s.dead + s.idle, report.makespan * b.slots);
            prop_assert_eq!(s.task, b.active());
            prop_assert_eq!(s.dead, b.dead);
            prop_assert_eq!(s.idle, b.idle);
        }
    }
}
