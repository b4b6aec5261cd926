//! Correlated fault domains, link degradation, and de-escalation.
//!
//! PR 1–3 faults were independent: each window, dropout or throttle acted
//! alone. Real platforms fail in *groups* — accelerators behind one PCIe
//! switch, devices on one power rail — and real links renegotiate lane
//! widths mid-run. This example walks the correlated fault model:
//!
//! 1. a **fault domain** ("pcie-switch-0" holding the GPU and the
//!    coprocessor): a transient fault in one member conditionally opens an
//!    elevated-fault window on its siblings, from a dedicated RNG stream;
//! 2. **link degradation**: a bandwidth collapse on the host↔GPU link
//!    re-prices every transfer while the window is open — and flips the
//!    robustness ranking of the paper's transfer-dominated BlackScholes;
//! 3. a **fault trace**: the run's effective schedule (input events plus
//!    every synthesized sibling window) exported as JSON and replayed
//!    byte-identically with conditional triggering disabled;
//! 4. **de-escalation**: an escalated run (SP-Single → DP-Perf) observes
//!    calm barriers after the disturbance closes and returns to a
//!    rebalanced static plan, never losing to staying dynamic.
//!
//! ```sh
//! cargo run --release --example correlated_faults
//! ```

use hetero_match::apps::{blackscholes, synth};
use hetero_match::matchmaker::{Analyzer, ExecutionConfig, ExecutionFlow, RunSpec, Strategy};
use hetero_match::platform::{DeviceId, FaultSchedule, FaultTrace, Platform, RetryPolicy, SimTime};
use hetero_match::runtime::{AdaptConfig, HealthConfig, TraceEvent, TraceObserver};

fn main() {
    // --- 1. Correlated fault domain: one sick device infects its rack ----
    // GPU and coprocessor share "pcie-switch-0". A base transient-fault
    // window sits on the GPU only; every GPU fault then has a 90% chance
    // (per sibling, from a dedicated RNG stream) of opening a 0.35-prob
    // fault window on the coprocessor for 5 ms.
    let platform = Platform::icpp15_with_phi();
    let analyzer = Analyzer::new(&platform);
    let desc = synth::single_kernel(
        "switch-storm",
        1 << 20,
        16384.0,
        ExecutionFlow::Loop { iterations: 6 },
        true,
    );
    let config = ExecutionConfig::Strategy(Strategy::DpPerf);
    let policy = RetryPolicy::default();
    let gpu = DeviceId(1);
    let phi = DeviceId(2);
    let base = FaultSchedule::new(11).with_task_faults(
        Some(gpu),
        0.20,
        SimTime::ZERO,
        SimTime::from_millis(40),
    );
    let independent = base.clone().with_domain(
        "pcie-switch-0",
        vec![gpu, phi],
        0.0, // triggering disabled: the domain is inert
        0.35,
        SimTime::from_millis(5),
    );
    let correlated = base.with_domain(
        "pcie-switch-0",
        vec![gpu, phi],
        0.9,
        0.35,
        SimTime::from_millis(5),
    );
    let solo = analyzer.simulate_faulty(&desc, config, &independent, policy);
    let storm = analyzer.simulate_faulty(&desc, config, &correlated, policy);
    println!("1. fault domain \"pcie-switch-0\" = {{GPU, Phi}}, GPU fault window 0-40ms:");
    println!(
        "   independent faults   : {}  ({} task fault(s), 0 triggers)",
        solo.makespan, solo.faults.task_faults
    );
    println!(
        "   correlated faults    : {}  ({} task fault(s), {} sibling window(s) opened)",
        storm.makespan, storm.faults.task_faults, storm.faults.correlated_triggers
    );
    assert_eq!(solo.faults.correlated_triggers, 0);
    assert!(storm.faults.correlated_triggers > 0, "triggers must fire");
    assert_eq!(
        storm.synthesized_faults.len() as u64,
        storm.faults.correlated_triggers,
        "every trigger is recorded as a synthesized event"
    );
    assert!(
        storm.faults.task_faults > solo.faults.task_faults,
        "sibling windows must cost extra faults"
    );

    // --- 2. Link degradation flips the robustness winner -----------------
    // BlackScholes is the paper's transfer-dominated app (wire time ≈ 37×
    // kernel time on the GPU). Collapse the host↔GPU link to 10% of its
    // bandwidth for the whole run: every strategy that ships options to
    // the GPU now pays 10× wire time, and the degradation ranking flips
    // away from the GPU-leaning winner.
    let bs = blackscholes::descriptor(1 << 21);
    let healthy_rank = analyzer.rank_by_degradation(&bs, &RunSpec::faulty(FaultSchedule::new(3)));
    let degraded =
        FaultSchedule::new(3).with_link_degrade(gpu, 0.10, 1.0, SimTime::ZERO, SimTime::MAX);
    let degraded_rank = analyzer.rank_by_degradation(&bs, &RunSpec::faulty(degraded));
    println!("\n2. BlackScholes, host<->GPU link at 10% bandwidth all run:");
    println!(
        "   {:<12} {:>12} {:>12} {:>8}",
        "config", "healthy", "degraded", "ratio"
    );
    for e in &degraded_rank {
        println!(
            "   {:<12} {:>12} {:>12} {:>7.2}x",
            e.config.to_string(),
            e.healthy.makespan.to_string(),
            e.faulty.makespan.to_string(),
            e.degradation()
        );
    }
    let healthy_winner = healthy_rank[0].config;
    let degraded_winner = degraded_rank[0].config;
    println!("   robustness winner    : {healthy_winner} (healthy link) -> {degraded_winner} (degraded link)");
    assert_ne!(
        healthy_winner, degraded_winner,
        "a collapsed link must change the most robust configuration"
    );

    // --- 3. Fault traces: record, serialize, replay byte-identically ------
    // The correlated run above is stochastic *within* the run (the trigger
    // draws), but its effective schedule is recordable: input events plus
    // synthesized sibling windows. Round-trip it through JSON and replay
    // with conditional triggering disabled — same makespan, same faults,
    // zero live triggers.
    let (recorded, trace) = analyzer.record_fault_trace(&desc, config, &correlated, policy);
    let json = trace.to_json();
    let parsed = FaultTrace::from_json(&json).expect("trace JSON round-trips");
    let replayed = analyzer.simulate_faulty(&desc, config, &parsed.replay_schedule(), policy);
    println!(
        "\n3. fault trace: {} byte(s) of JSON, {} synthesized event(s):",
        json.len(),
        trace.synthesized.len()
    );
    println!("   recorded run         : {}", recorded.makespan);
    println!("   replayed run         : {}", replayed.makespan);
    assert_eq!(recorded.makespan, storm.makespan, "recording is a pure tap");
    assert_eq!(replayed.makespan, recorded.makespan);
    assert_eq!(replayed.breakdown, recorded.breakdown);
    assert_eq!(replayed.faults.task_faults, recorded.faults.task_faults);
    assert_eq!(
        replayed.faults.correlated_triggers, 0,
        "replay bakes the windows in; nothing triggers live"
    );
    println!("   replay               : identical makespan, blame and fault counts ✓");

    // --- 4. De-escalation: SP-Single -> DP-Perf -> SP-Single -------------
    // A stale profile makes the planner see the GPU at 2% of its real
    // speed, so the static plan drowns the CPU tail in work the GPU could
    // swallow. Repartitioning is disabled; the plan escalates to DP-Perf
    // after one missed correction, and the dynamic scheduler re-routes the
    // epoch onto the GPU. ProfilePerturb is a *planning* disturbance — no
    // fault window is ever open at run time — so once the escalated epochs
    // run calm, the controller rebalances the remaining epochs and
    // reinstates the static plan (with a no-regression guard).
    let platform2 = Platform::icpp15();
    let analyzer2 = Analyzer::new(&platform2);
    let desc2 = synth::single_kernel(
        "reinstate",
        1 << 20,
        65536.0,
        ExecutionFlow::Loop { iterations: 12 },
        true,
    );
    let sp = ExecutionConfig::Strategy(Strategy::SpSingle);
    let stale =
        FaultSchedule::new(42).with_profile_perturb(DeviceId(1), 0.02, SimTime::ZERO, SimTime::MAX);
    let health = HealthConfig::disabled();
    let stay_dynamic = AdaptConfig {
        repartition: false,
        max_resolves: 1,
        reinstate_after: 0,
        ..AdaptConfig::enabled_default()
    };
    let reinstate = AdaptConfig {
        reinstate_after: 2,
        ..stay_dynamic
    };
    let escalated_only =
        analyzer2.simulate_adaptive(&desc2, sp, &stale, policy, &health, &stay_dynamic);
    let mut tobs = TraceObserver::new();
    let deescalated = analyzer2
        .run(
            &desc2,
            sp,
            &RunSpec::adaptive(stale, health, reinstate),
            &mut tobs,
            None,
        )
        .expect("an unjournaled run cannot fail");
    let escalated_at = deescalated.adapt.escalated_at_epoch.expect("must escalate");
    let reinstated_at = deescalated
        .adapt
        .reinstated_at_epoch
        .expect("must reinstate");
    println!("\n4. planner saw the GPU at 2% speed (SP-Single, 12 epochs):");
    println!(
        "   escalated            : epoch {escalated_at} barrier, {} task(s) to DP-Perf",
        deescalated.adapt.escalated_tasks
    );
    println!("   reinstated           : epoch {reinstated_at} barrier, after 2 calm epoch(s)");
    println!(
        "   stay-dynamic         : {}\n   de-escalated         : {}",
        escalated_only.makespan, deescalated.makespan
    );
    assert!(deescalated.adapt.escalated && deescalated.adapt.reinstated);
    assert!(reinstated_at > escalated_at);
    let events: Vec<&TraceEvent> = tobs
        .trace()
        .events
        .iter()
        .filter(|e| {
            matches!(
                e,
                TraceEvent::StrategyEscalated { .. } | TraceEvent::StrategyReinstated { .. }
            )
        })
        .collect();
    for e in &events {
        match e {
            TraceEvent::StrategyEscalated { epoch, at } => {
                println!("   trace                : ESCALATE  epoch {epoch} at {at}");
            }
            TraceEvent::StrategyReinstated { epoch, at } => {
                println!("   trace                : REINSTATE epoch {epoch} at {at}");
            }
            _ => unreachable!(),
        }
    }
    assert!(
        events
            .iter()
            .any(|e| matches!(e, TraceEvent::StrategyReinstated { .. })),
        "reinstatement must be visible in the trace"
    );
    assert!(
        deescalated.makespan <= escalated_only.makespan,
        "the no-regression guard: de-escalating never loses to staying escalated"
    );
    assert!(deescalated.breakdown.identity_holds());
    println!("   guard                : de-escalated run is no worse than staying dynamic ✓");
}
