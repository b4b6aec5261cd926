//! Correlated fault domains, link degradation, and disturbance-aware
//! de-escalation: the PR-5 invariants.
//!
//! - a recorded [`FaultTrace`] replays the run byte-identically with
//!   conditional triggering disabled, over arbitrary seeds and trigger
//!   probabilities;
//! - the blame identity (`compute + transfer + link_degraded + … ==
//!   makespan × slots`) survives arbitrary `LinkDegrade` windows, and a
//!   degraded link never makes a pinned plan faster;
//! - de-escalation never loses to staying escalated (the no-regression
//!   guard), and an open disturbance window blocks reinstatement.

use hetero_match::apps::synth;
use hetero_match::matchmaker::{Analyzer, ExecutionConfig, ExecutionFlow, RunSpec, Strategy};
use hetero_match::platform::{DeviceId, FaultSchedule, FaultTrace, Platform, RetryPolicy, SimTime};
use hetero_match::runtime::{AdaptConfig, HealthConfig, TraceEvent, TraceObserver};
use proptest::prelude::*;

const GPU: DeviceId = DeviceId(1);

/// A transfer-carrying loop app: SP-Single emits one pinned GPU chunk and a
/// CPU tail per epoch, so both sides fault, transfer, and show up in blame.
fn loop_app(name: &str, iterations: u32) -> hetero_match::matchmaker::AppDescriptor {
    synth::single_kernel(
        name,
        1 << 18,
        8192.0,
        ExecutionFlow::Loop { iterations },
        true,
    )
}

/// The stale-profile planning disturbance of the de-escalation scenario:
/// the planner sees the GPU at `factor` of its real speed, drowns the CPU
/// tail, and the plan escalates once re-solves are exhausted.
fn stale_profile(factor: f64) -> FaultSchedule {
    FaultSchedule::new(42).with_profile_perturb(GPU, factor, SimTime::ZERO, SimTime::MAX)
}

fn stay_escalated() -> AdaptConfig {
    AdaptConfig {
        repartition: false,
        max_resolves: 1,
        reinstate_after: 0,
        ..AdaptConfig::enabled_default()
    }
}

fn reinstate_after(calm: u32) -> AdaptConfig {
    AdaptConfig {
        reinstate_after: calm,
        ..stay_escalated()
    }
}

#[test]
fn deescalation_runs_the_full_lifecycle_and_is_visible_in_the_trace() {
    let platform = Platform::icpp15();
    let analyzer = Analyzer::new(&platform);
    let desc = loop_app("lifecycle", 10);
    let sp = ExecutionConfig::Strategy(Strategy::SpSingle);
    let health = HealthConfig::disabled();
    // A real fault window that has *closed* by escalation time rides along
    // with the stale profile: reinstatement must wait for calm, not for a
    // fault-free schedule.
    let schedule = stale_profile(0.02).with_task_faults(
        Some(GPU),
        0.2,
        SimTime::ZERO,
        SimTime::from_millis(5),
    );

    let mut tobs = TraceObserver::new();
    let spec = RunSpec::adaptive(schedule, health, reinstate_after(2));
    let report = analyzer.run(&desc, sp, &spec, &mut tobs, None).unwrap();
    let escalated_at = report.adapt.escalated_at_epoch.expect("must escalate");
    let reinstated_at = report.adapt.reinstated_at_epoch.expect("must reinstate");
    assert!(report.adapt.escalated && report.adapt.reinstated);
    assert!(reinstated_at > escalated_at);
    assert!(report.breakdown.identity_holds());

    // Both transitions appear in the trace, in order.
    let mut saw_escalate = None;
    let mut saw_reinstate = None;
    for e in &tobs.trace().events {
        match e {
            TraceEvent::StrategyEscalated { epoch, .. } => saw_escalate = Some(*epoch),
            TraceEvent::StrategyReinstated { epoch, .. } => saw_reinstate = Some(*epoch),
            _ => {}
        }
    }
    assert_eq!(saw_escalate, Some(escalated_at));
    assert_eq!(saw_reinstate, Some(reinstated_at));
}

#[test]
fn open_disturbance_window_blocks_reinstatement() {
    let platform = Platform::icpp15();
    let analyzer = Analyzer::new(&platform);
    let desc = loop_app("blocked", 10);
    let sp = ExecutionConfig::Strategy(Strategy::SpSingle);
    let policy = RetryPolicy::default();
    let health = HealthConfig::disabled();
    // Identical stale profile, but the fault window never closes: however
    // calm the skew runs, the platform is not quiet, so the controller
    // must stay escalated to the end.
    let schedule =
        stale_profile(0.02).with_task_faults(Some(GPU), 0.01, SimTime::ZERO, SimTime::MAX);

    let report =
        analyzer.simulate_adaptive(&desc, sp, &schedule, policy, &health, &reinstate_after(2));
    assert!(report.adapt.escalated, "the stale plan must still escalate");
    assert!(
        !report.adapt.reinstated && report.adapt.reinstated_at_epoch.is_none(),
        "an open fault window must block reinstatement"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Recording a correlated run and replaying its trace — triggers baked
    /// in as ordinary windowed events, conditional triggering disabled —
    /// reproduces the run byte-identically, and the JSON form re-renders
    /// to identical bytes.
    #[test]
    fn correlated_schedules_replay_deterministically(
        seed in 0u64..500,
        fault_prob in 0.05f64..0.5,
        trigger_prob in 0.3f64..1.0,
        window_ms in 1u64..10,
    ) {
        let platform = Platform::icpp15();
        let analyzer = Analyzer::new(&platform);
        let desc = loop_app("replay", 3);
        let config = ExecutionConfig::Strategy(Strategy::SpSingle);
        let policy = RetryPolicy::default();
        let schedule = FaultSchedule::new(seed)
            .with_task_faults(Some(GPU), fault_prob, SimTime::ZERO, SimTime::from_millis(20))
            .with_domain(
                "switch",
                vec![DeviceId(0), GPU],
                trigger_prob,
                0.5,
                SimTime::from_millis(window_ms),
            );

        let (recorded, trace) = analyzer.record_fault_trace(&desc, config, &schedule, policy);
        prop_assert_eq!(
            trace.synthesized.len() as u64,
            recorded.faults.correlated_triggers
        );

        let json = trace.to_json();
        let parsed = FaultTrace::from_json(&json).unwrap();
        prop_assert_eq!(&parsed, &trace);
        prop_assert_eq!(parsed.to_json(), json);

        let replayed =
            analyzer.simulate_faulty(&desc, config, &parsed.replay_schedule(), policy);
        prop_assert_eq!(replayed.makespan, recorded.makespan);
        prop_assert_eq!(replayed.breakdown, recorded.breakdown);
        prop_assert_eq!(replayed.faults.task_faults, recorded.faults.task_faults);
        prop_assert_eq!(replayed.faults.failovers, recorded.faults.failovers);
        prop_assert_eq!(replayed.faults.correlated_triggers, 0);
    }

    /// The blame identity holds under arbitrary `LinkDegrade` windows, the
    /// degradation shows up in the `link_degraded` component, and a
    /// degraded link never makes the pinned plan faster.
    #[test]
    fn blame_identity_holds_under_link_degradation(
        bw_factor in 0.05f64..0.9,
        lat_factor in 1.0f64..8.0,
        until_ms in prop_oneof![Just(u64::MAX), 1u64..50],
    ) {
        let platform = Platform::icpp15();
        let analyzer = Analyzer::new(&platform);
        let desc = loop_app("degraded-link", 4);
        let config = ExecutionConfig::Strategy(Strategy::SpSingle);
        let policy = RetryPolicy::default();
        let until = if until_ms == u64::MAX {
            SimTime::MAX
        } else {
            SimTime::from_millis(until_ms)
        };
        let schedule = FaultSchedule::new(5)
            .with_link_degrade(GPU, bw_factor, lat_factor, SimTime::ZERO, until);

        let healthy = analyzer.simulate_faulty(&desc, config, &FaultSchedule::new(5), policy);
        let degraded = analyzer.simulate_faulty(&desc, config, &schedule, policy);

        prop_assert!(degraded.breakdown.identity_holds());
        prop_assert!(degraded.makespan >= healthy.makespan);
        let slowdown: SimTime = degraded
            .breakdown
            .per_device
            .iter()
            .map(|b| b.link_degraded)
            .sum();
        prop_assert!(
            slowdown > SimTime::ZERO,
            "a window open at t=0 must charge link_degraded time"
        );
        // The healthy run's wire is nominal: nothing to blame on the link.
        let nominal: SimTime = healthy
            .breakdown
            .per_device
            .iter()
            .map(|b| b.link_degraded)
            .sum();
        prop_assert_eq!(nominal, SimTime::ZERO);
    }

    /// The reinstatement no-regression guard: handing the remaining epochs
    /// back to the static plan never loses to staying escalated, for any
    /// misprediction severity — including ones where calm is never reached
    /// and the two runs coincide.
    #[test]
    fn deescalation_never_loses_to_staying_escalated(
        factor in 0.02f64..0.5,
        calm in 1u32..4,
    ) {
        let platform = Platform::icpp15();
        let analyzer = Analyzer::new(&platform);
        let desc = loop_app("no-regression", 10);
        let sp = ExecutionConfig::Strategy(Strategy::SpSingle);
        let policy = RetryPolicy::default();
        let health = HealthConfig::disabled();
        let schedule = stale_profile(factor);

        let stayed =
            analyzer.simulate_adaptive(&desc, sp, &schedule, policy, &health, &stay_escalated());
        let deescalated = analyzer.simulate_adaptive(
            &desc,
            sp,
            &schedule,
            policy,
            &health,
            &reinstate_after(calm),
        );

        prop_assert!(
            deescalated.makespan <= stayed.makespan,
            "reinstating ({}) must not lose to staying escalated ({})",
            deescalated.makespan,
            stayed.makespan
        );
        if deescalated.adapt.reinstated {
            let esc = deescalated.adapt.escalated_at_epoch.unwrap();
            let rei = deescalated.adapt.reinstated_at_epoch.unwrap();
            prop_assert!(rei > esc);
        } else {
            // No reinstatement → the two configurations ran identically.
            prop_assert_eq!(deescalated.makespan, stayed.makespan);
        }
        prop_assert!(deescalated.breakdown.identity_holds());
    }
}
