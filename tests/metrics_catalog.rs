//! The metrics catalog (`docs/METRICS.md`) is bidirectionally complete: a
//! scenario battery covering every emission site must emit exactly the
//! documented `hm_*` series — nothing undocumented goes out, and nothing
//! documented is dead. Adding a metric without its catalog row (or the
//! other way round) fails here.

use std::collections::BTreeSet;

use hetero_match::apps::synth;
use hetero_match::matchmaker::{
    encode_request, run_load, Analyzer, Arrival, ChaosSchedule, ExecutionConfig, ExecutionFlow,
    LoadConfig, PlanService, RunSpec, ServiceConfig, Strategy, STREAM_STRATEGY_LABEL,
};
use hetero_match::platform::{DeviceId, FaultSchedule, Platform, SimTime};
use hetero_match::runtime::{
    AdaptConfig, HealthConfig, MetricsRegistry, ReplanConfig, SpanTree, TraceObserver,
};

/// Every series name a registry holds (base names, labels stripped).
fn emitted(registry: &MetricsRegistry) -> BTreeSet<String> {
    registry.iter().map(|(_, s)| s.name.clone()).collect()
}

/// Every `hm_*` name documented in a catalog table row.
fn documented() -> BTreeSet<String> {
    let text = include_str!("../docs/METRICS.md");
    let mut names = BTreeSet::new();
    for line in text.lines() {
        let Some(rest) = line.strip_prefix("| `hm_") else {
            continue;
        };
        let name = rest.split('`').next().expect("split yields a head");
        names.insert(format!("hm_{name}"));
    }
    names
}

#[test]
fn catalog_matches_emitted_series_in_both_directions() {
    let platform = Platform::icpp15_with_phi();
    let analyzer = Analyzer::new(&platform);
    let desc = synth::single_kernel(
        "catalog",
        1 << 18,
        4096.0,
        ExecutionFlow::Loop { iterations: 6 },
        true,
    );
    let config = ExecutionConfig::Strategy(Strategy::SpSingle);

    let mut all: BTreeSet<String> = BTreeSet::new();

    // Faulty resilient run: task faults, retries, a failover and a heavy
    // flaky window that trips the circuit breaker (quarantine seconds),
    // plus the per-event, per-epoch and run-end families.
    let breaker = FaultSchedule::new(11)
        .with_flaky(DeviceId(1), 1.0, SimTime::ZERO, SimTime::from_millis(200))
        .with_transfer_faults(0.05, SimTime::ZERO, SimTime::MAX);
    let (report, obs) = analyzer
        .simulate_streamed(
            &desc,
            ExecutionConfig::Strategy(Strategy::SpVaried),
            &RunSpec::resilient(breaker, HealthConfig::monitored()),
        )
        .expect("resilient streamed run");
    assert!(
        !report.health.quarantine.is_empty(),
        "battery must quarantine a device so hm_quarantine_seconds is exercised"
    );
    all.extend(emitted(obs.registry()));

    // Repairing run with a dropout: device death, survivor re-plan
    // (hm_adapt_total) and the degraded-mode counters.
    let dropout = FaultSchedule::new(7)
        .with_flaky(DeviceId(2), 0.2, SimTime::ZERO, SimTime::from_millis(1))
        .with_dropout(DeviceId(1), SimTime::from_micros(400));
    let (report, obs) = analyzer
        .simulate_streamed(
            &desc,
            config,
            &RunSpec::repairing(
                dropout,
                HealthConfig::disabled(),
                AdaptConfig::disabled(),
                ReplanConfig::enabled_default(),
            ),
        )
        .expect("repairing streamed run");
    assert!(report.faults.device_dropouts > 0);
    all.extend(emitted(obs.registry()));

    // Span profile: lift a traced fault-free run into a span tree and
    // export hm_span_seconds.
    let mut tobs = TraceObserver::new();
    analyzer
        .run(&desc, config, &RunSpec::plain(), &mut tobs, None)
        .expect("traced fault-free run");
    let tree = SpanTree::from_trace(tobs.trace(), &platform);
    let mut registry = MetricsRegistry::new();
    tree.export_metrics(&mut registry, STREAM_STRATEGY_LABEL);
    all.extend(emitted(&registry));

    // Planning-service battery: a seeded burst-chaos load saturates the
    // pool (requests, admission verdicts incl. degraded serves, cache
    // hits/misses, queue depth/wait, latency), and a directed tight-budget
    // volley against a single worker fires hm_service_deadline_miss_total.
    let load = LoadConfig {
        requests: 500,
        seed: 42,
        ..LoadConfig::default()
    };
    let span = hetero_match::platform::SimTime::from_micros(load.requests * load.mean_gap_us);
    let out = run_load(
        &platform,
        &ServiceConfig::default(),
        &load,
        &ChaosSchedule::burst(42, 10, span),
    );
    all.extend(emitted(&out.registry));

    let tight = ServiceConfig {
        workers: 1,
        rate_limit: None,
        default_deadline_us: Some(300),
        base_solve_us: 200,
        per_kernel_solve_us: 0,
        ..ServiceConfig::default()
    };
    let mut svc = PlanService::new(&platform, tight, ChaosSchedule::calm(0));
    let arrivals: Vec<Arrival> = (0..4)
        .map(|i| Arrival {
            at: SimTime::from_micros(1),
            client: "catalog".into(),
            bytes: encode_request(&hetero_match::matchmaker::PlanRequest {
                id: i,
                client: "catalog".into(),
                app: hetero_match::matchmaker::template_app(i),
                config: None,
                what_if: true,
                deadline_us: None,
            }),
        })
        .collect();
    let outcomes = svc.run(&arrivals);
    assert!(
        outcomes
            .iter()
            .any(|o| matches!(o.result, Err(ref e) if e.verdict().starts_with("deadline"))),
        "battery must miss a deadline so hm_service_deadline_miss_total is exercised"
    );
    all.extend(emitted(svc.registry()));

    let catalog = documented();
    assert!(!catalog.is_empty(), "docs/METRICS.md catalog parsed empty");

    let undocumented: Vec<_> = all.difference(&catalog).collect();
    assert!(
        undocumented.is_empty(),
        "series emitted but missing from docs/METRICS.md: {undocumented:?}"
    );
    let dead: Vec<_> = catalog.difference(&all).collect();
    assert!(
        dead.is_empty(),
        "series documented in docs/METRICS.md but never emitted by the battery: {dead:?}"
    );
}
