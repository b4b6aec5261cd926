//! Resilient execution under injected faults: retry exhaustion, device
//! dropout, epoch checkpointing, safe mode, and seeded replay.
//!
//! Companion to `failure_injection.rs` (which covers *performance*
//! degradation); these tests cover *correctness under failure* — every run
//! must terminate with every item processed exactly once, and identical
//! fault schedules must replay identical executions.

use hetero_match::matchmaker::{Analyzer, ExecutionConfig, Planner, Scenario, Strategy};
use hetero_match::platform::{
    DeviceId, Efficiency, FaultSchedule, KernelProfile, Platform, Precision, RetryPolicy, SimTime,
};
use hetero_match::runtime::{
    check_blame_identity, check_identical, simulate, simulate_spec, Access, AdaptConfig, AdaptPlan,
    BreakerConfig, HealthConfig, NullObserver, Observer, OracleKind, PinnedScheduler, Program,
    Region, ReplanConfig, RunReport, RunSpec, TaskId, Trace, TraceEvent, TraceObserver,
    VerificationPolicy, WatchdogConfig,
};
use proptest::prelude::*;

fn compute_app(n: u64) -> hetero_match::matchmaker::AppDescriptor {
    hetero_match::apps::synth::single_kernel(
        "resilient",
        n,
        65536.0,
        hetero_match::matchmaker::ExecutionFlow::Sequence,
        false,
    )
}

fn sp_single_program(platform: &Platform, n: u64) -> Program {
    Planner::new(platform)
        .plan(
            &compute_app(n),
            ExecutionConfig::Strategy(Strategy::SpSingle),
        )
        .program
}

/// A pinned `program` run with the layers `spec` declares.
fn run_observed(
    program: &Program,
    platform: &Platform,
    spec: &RunSpec,
    plan: Option<AdaptPlan>,
    obs: &mut dyn Observer,
) -> RunReport {
    simulate_spec(
        program,
        platform,
        &mut PinnedScheduler,
        spec,
        plan,
        obs,
        None,
    )
    .expect("an unjournaled run cannot fail")
}

fn run(program: &Program, platform: &Platform, spec: &RunSpec) -> RunReport {
    run_observed(program, platform, spec, None, &mut NullObserver)
}

fn traced(program: &Program, platform: &Platform, spec: &RunSpec) -> (RunReport, Trace) {
    let mut obs = TraceObserver::new();
    let report = run_observed(program, platform, spec, None, &mut obs);
    (report, obs.into_trace())
}

/// The repairing spec every repair test runs: plan repair on, adaptation
/// off, so repair is the only layer above `health`.
fn repairing(schedule: FaultSchedule, health: HealthConfig) -> RunSpec {
    RunSpec::repairing(
        schedule,
        health,
        AdaptConfig::disabled(),
        ReplanConfig::enabled_default(),
    )
}

fn total_items(r: &RunReport) -> u64 {
    r.counters.devices.iter().map(|c| c.items).sum()
}

/// A compute-bound kernel whose effective rate is identical on
/// `Platform::test_small`'s GPU and on one of its CPU slots (both
/// 25 Gflop/s), so a hedge or verification replica costs exactly what the
/// unthrottled primary would have.
fn balanced_profile(flops_per_item: f64) -> KernelProfile {
    KernelProfile {
        flops_per_item,
        bytes_per_item: 0.0,
        fixed_flops: 0.0,
        fixed_bytes: 0.0,
        precision: Precision::Single,
        cpu_efficiency: Efficiency {
            compute: 1.0,
            bandwidth: 1.0,
        },
        // 400 Gflop/s peak x 0.0625 = 25 Gflop/s effective.
        gpu_efficiency: Efficiency {
            compute: 0.0625,
            bandwidth: 1.0,
        },
    }
}

/// Straggler hedging only: no verification, no breaker, so the comparison
/// against the fail-stop executor isolates the watchdog.
fn hedging_only() -> HealthConfig {
    HealthConfig {
        watchdog: Some(WatchdogConfig {
            slack: 1.5,
            hedging: true,
        }),
        ..HealthConfig::disabled()
    }
}

#[test]
fn retry_exhaustion_fails_over_to_survivor() {
    let platform = Platform::icpp15();
    let n = 1u64 << 18;
    let program = sp_single_program(&platform, n);

    // Every attempt on the GPU fails; the CPU is healthy. GPU-bound tasks
    // exhaust their retries and must fail over.
    let schedule = FaultSchedule::new(11).with_task_faults(
        Some(DeviceId(1)),
        1.0,
        SimTime::ZERO,
        SimTime::MAX,
    );
    let report = run(&program, &platform, &RunSpec::faulty(schedule));

    assert_eq!(total_items(&report), n, "every item processed exactly once");
    assert_eq!(
        report.counters.devices[1].items, 0,
        "nothing can complete on the faulting GPU"
    );
    assert_eq!(report.counters.devices[0].items, n);
    assert!(report.faults.failovers >= 1, "{:?}", report.faults);
    // Each failed-over task burned a full retry budget first.
    assert!(report.faults.task_faults >= u64::from(RetryPolicy::default().max_attempts));
    assert!(report.faults.task_retries >= 1);
    assert!(report.faults.backoff_time > SimTime::ZERO);
    assert_eq!(report.faults.safe_mode_tasks, 0, "the CPU side is healthy");

    // The healthy run is strictly faster, and a healthy report carries
    // all-zero fault counters.
    let healthy = simulate(&program, &platform, &mut PinnedScheduler);
    assert!(report.makespan > healthy.makespan);
    assert_eq!(healthy.faults, Default::default());
}

#[test]
fn all_device_faults_end_in_safe_mode() {
    let platform = Platform::icpp15();
    let n = 1u64 << 16;
    let program = sp_single_program(&platform, n);

    // Every attempt fails on *every* device: after one failover the retry
    // budget runs out with nowhere left to go, and safe mode must step in
    // to guarantee termination.
    let schedule = FaultSchedule::new(12).with_task_faults(None, 1.0, SimTime::ZERO, SimTime::MAX);
    let report = run(&program, &platform, &RunSpec::faulty(schedule));

    assert_eq!(total_items(&report), n);
    assert!(report.faults.safe_mode_tasks >= 1, "{:?}", report.faults);
    assert!(report.faults.failovers >= 1);
}

#[test]
fn gpu_dropout_mid_run_completes_on_cpu() {
    let platform = Platform::icpp15();
    let n = 1u64 << 18;
    let program = sp_single_program(&platform, n);
    let healthy = simulate(&program, &platform, &mut PinnedScheduler);

    // The GPU dies halfway through the healthy makespan, taking its
    // in-flight partition with it.
    let at = SimTime::from_secs_f64(healthy.makespan.as_secs_f64() / 2.0);
    let schedule = FaultSchedule::new(13).with_dropout(DeviceId(1), at);
    let faulty = RunSpec::faulty(schedule);
    let report = run(&program, &platform, &faulty);

    assert_eq!(report.faults.device_dropouts, 1);
    assert_eq!(total_items(&report), n, "no item lost, none double-counted");
    assert_eq!(
        report.counters.devices[1].items, 0,
        "the single epoch never committed, so all GPU work re-ran on the CPU"
    );
    assert_eq!(report.counters.devices[0].items, n);
    assert!(
        report.makespan > healthy.makespan,
        "failover cannot be free: {} vs {}",
        report.makespan,
        healthy.makespan
    );
    // Identical schedule, identical replay.
    let again = run(&program, &platform, &faulty);
    assert_eq!(again.makespan, report.makespan);
    assert_eq!(again.faults, report.faults);
}

#[test]
fn committed_epochs_survive_dropout() {
    // Two taskwait-separated epochs, each with one GPU and one CPU task.
    // The GPU dies during epoch 2: epoch 1 reached its barrier (a
    // committed checkpoint) and must keep its GPU attribution; only epoch
    // 2's GPU work re-executes.
    let platform = Platform::icpp15();
    let build = || {
        let mut b = Program::builder();
        let x = b.buffer("x", 4000, 8);
        let k = b.kernel("k", KernelProfile::compute_only(100_000.0));
        b.submit_pinned(
            k,
            1000,
            vec![Access::read_write(Region::new(x, 0, 1000))],
            DeviceId(1),
        );
        b.submit_pinned(
            k,
            1000,
            vec![Access::read_write(Region::new(x, 1000, 2000))],
            DeviceId(0),
        );
        b.taskwait();
        b.submit_pinned(
            k,
            1000,
            vec![Access::read_write(Region::new(x, 2000, 3000))],
            DeviceId(1),
        );
        b.submit_pinned(
            k,
            1000,
            vec![Access::read_write(Region::new(x, 3000, 4000))],
            DeviceId(0),
        );
        b.build()
    };
    let program = build();
    let (healthy, trace) = traced(&program, &platform, &RunSpec::plain());

    // Drop the GPU midway between epoch 1's commit (its flush completing)
    // and the end of the run — i.e. somewhere inside epoch 2.
    let epoch1_committed = trace
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Flush { epoch: 0, end, .. } => Some(*end),
            _ => None,
        })
        .next()
        .expect("epoch 1 must flush");
    let at = SimTime::from_secs_f64(
        (epoch1_committed.as_secs_f64() + healthy.makespan.as_secs_f64()) / 2.0,
    );
    let schedule = FaultSchedule::new(14).with_dropout(DeviceId(1), at);
    let report = run(&program, &platform, &RunSpec::faulty(schedule));

    assert_eq!(report.faults.device_dropouts, 1);
    assert_eq!(total_items(&report), 4000);
    assert_eq!(
        report.counters.devices[1].items, 1000,
        "epoch 1's GPU work is checkpointed and keeps its attribution"
    );
    assert_eq!(report.counters.devices[0].items, 3000);
}

#[test]
fn dropout_with_inflight_consumer_of_reset_producer() {
    // RAW chain across devices: a fast GPU producer finishes, then its
    // slow CPU consumer reads the result and runs long; the GPU drops out
    // while the consumer is still in flight. The producer must re-execute
    // (its output lived in the dead memory), while the consumer's standing
    // result is left alone — and the producer's re-completion must not
    // corrupt the consumer's dependence count (regression: underflow of
    // `remaining_preds` panicked in debug builds).
    let platform = Platform::icpp15();
    let mut b = Program::builder();
    let x = b.buffer("x", 2000, 8);
    let fast = b.kernel("fast", KernelProfile::compute_only(10_000.0));
    let slow = b.kernel("slow", KernelProfile::compute_only(50_000_000.0));
    b.submit_pinned(
        fast,
        1000,
        vec![Access::read_write(Region::new(x, 0, 1000))],
        DeviceId(1),
    );
    b.submit_pinned(
        slow,
        1000,
        vec![
            Access::read(Region::new(x, 0, 1000)),
            Access::write(Region::new(x, 1000, 2000)),
        ],
        DeviceId(0),
    );
    let program = b.build();

    let (healthy, trace) = traced(&program, &platform, &RunSpec::plain());
    let task_ends: Vec<SimTime> = trace
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Task { end, .. } => Some(*end),
            _ => None,
        })
        .collect();
    let producer_end = *task_ends.iter().min().expect("two tasks ran");
    let consumer_end = *task_ends.iter().max().expect("two tasks ran");
    assert!(producer_end < consumer_end);
    // Strictly after the producer committed its (uncheckpointed) result,
    // strictly while the consumer is running.
    let at =
        SimTime::from_secs_f64((producer_end.as_secs_f64() + consumer_end.as_secs_f64()) / 2.0);
    let schedule = FaultSchedule::new(15).with_dropout(DeviceId(1), at);
    let faulty = RunSpec::faulty(schedule);
    let report = run(&program, &platform, &faulty);

    assert_eq!(report.faults.device_dropouts, 1);
    assert_eq!(report.faults.reexecutions, 1, "{:?}", report.faults);
    assert_eq!(
        total_items(&report),
        2000,
        "no item lost, none double-counted"
    );
    assert_eq!(
        report.counters.devices[1].items, 0,
        "the producer's GPU attribution is discarded with its re-execution"
    );
    assert_eq!(report.counters.devices[0].items, 2000);
    assert!(report.makespan >= healthy.makespan);
    // Identical schedule, identical replay.
    let again = run(&program, &platform, &faulty);
    assert_eq!(again.makespan, report.makespan);
    assert_eq!(again.faults, report.faults);
}

#[test]
fn throttle_ramp_lengthens_makespan_end_to_end() {
    let platform = Platform::icpp15();
    let n = 1u64 << 18;
    let program = sp_single_program(&platform, n);
    let healthy = simulate(&program, &platform, &mut PinnedScheduler);

    // The GPU ramps from full speed toward 8x slower across twice the
    // healthy makespan: early tasks barely notice, late tasks crawl.
    let until = SimTime::from_secs_f64(2.0 * healthy.makespan.as_secs_f64());
    let schedule =
        FaultSchedule::new(31).with_throttle(DeviceId(1), SimTime::ZERO, until, 1.0, 8.0);
    let faulty = RunSpec::faulty(schedule);
    let report = run(&program, &platform, &faulty);

    assert_eq!(total_items(&report), n, "throttling never loses work");
    assert!(
        report.makespan > healthy.makespan,
        "a ramped straggler must lengthen the makespan: {} vs {}",
        report.makespan,
        healthy.makespan
    );
    assert_eq!(report.faults.task_faults, 0, "throttling is not a fault");

    // A steeper ramp is strictly worse.
    let steeper =
        FaultSchedule::new(31).with_throttle(DeviceId(1), SimTime::ZERO, until, 1.0, 16.0);
    let worse = run(&program, &platform, &RunSpec::faulty(steeper));
    assert!(worse.makespan > report.makespan);

    // Identical schedule, identical replay.
    let again = run(&program, &platform, &faulty);
    assert_eq!(again.makespan, report.makespan);
}

#[test]
fn hedging_beats_fail_stop_executor_on_mid_run_straggler() {
    let platform = Platform::test_small();
    let per_task = 1u64 << 16;
    // Four serialized tasks pinned to the single-slot GPU; the CPU's four
    // slots sit idle, ready to absorb hedges.
    let mut b = Program::builder();
    let x = b.buffer("x", 4 * per_task, 4);
    let k = b.kernel("k", balanced_profile(400_000.0));
    for i in 0..4 {
        b.submit_pinned(
            k,
            per_task,
            vec![Access::read_write(Region::new(
                x,
                i * per_task,
                (i + 1) * per_task,
            ))],
            DeviceId(1),
        );
    }
    let program = b.build();
    let healthy = simulate(&program, &platform, &mut PinnedScheduler);

    // The GPU throttles 4x from mid-run onward: every attempt still
    // succeeds, so the fail-stop executor never reacts.
    let mid = SimTime::from_secs_f64(healthy.makespan.as_secs_f64() / 2.0);
    let schedule = FaultSchedule::new(41).with_throttle(DeviceId(1), mid, SimTime::MAX, 4.0, 4.0);

    let fail_stop = run(&program, &platform, &RunSpec::faulty(schedule.clone()));
    let hedging = RunSpec::resilient(schedule, hedging_only());
    let (hedged, trace) = traced(&program, &platform, &hedging);

    assert_eq!(total_items(&fail_stop), 4 * per_task);
    assert_eq!(total_items(&hedged), 4 * per_task);
    assert_eq!(fail_stop.health.hedges_issued, 0);
    assert!(hedged.health.hedges_issued >= 1, "{:?}", hedged.health);
    assert!(hedged.health.hedges_won >= 1, "{:?}", hedged.health);
    assert!(hedged.health.time_hedged > SimTime::ZERO);
    assert!(
        hedged.makespan < fail_stop.makespan,
        "hedging around the straggler must beat the fail-stop executor: {} vs {}",
        hedged.makespan,
        fail_stop.makespan
    );
    assert!(
        hedged.makespan > healthy.makespan,
        "hedging is not free: the straggled prefix still costs time"
    );
    // Won hedges re-attribute the straggler's work to the CPU.
    assert!(hedged.counters.devices[0].items >= per_task);
    assert!(trace
        .events
        .iter()
        .any(|e| matches!(e, TraceEvent::HedgeLaunched { .. })));
    assert!(trace
        .events
        .iter()
        .any(|e| matches!(e, TraceEvent::HedgeWon { .. })));

    // Identical schedule, identical replay.
    let again = run(&program, &platform, &hedging);
    assert_eq!(again.makespan, hedged.makespan);
    assert_eq!(again.health, hedged.health);
}

#[test]
fn dup_check_detects_silent_corruption_and_recommits_clean() {
    let platform = Platform::test_small();
    let per_task = 1000u64;
    // Two taskwait-separated epochs, each with two GPU and two CPU tasks.
    let mut b = Program::builder();
    let x = b.buffer("x", 8 * per_task, 4);
    let k = b.kernel("k", balanced_profile(2500.0));
    for epoch in 0..2u64 {
        for i in 0..4u64 {
            let j = epoch * 4 + i;
            b.submit_pinned(
                k,
                per_task,
                vec![Access::read_write(Region::new(
                    x,
                    j * per_task,
                    (j + 1) * per_task,
                ))],
                DeviceId(if i < 2 { 1 } else { 0 }),
            );
        }
        if epoch == 0 {
            b.taskwait();
        }
    }
    let program = b.build();

    // Every successful GPU attempt silently corrupts its output.
    let schedule = FaultSchedule::new(51).with_silent_corruption(
        DeviceId(1),
        1.0,
        SimTime::ZERO,
        SimTime::MAX,
    );

    // Fail-stop baseline: nothing ever faults, so the corruption commits
    // silently — the run "succeeds" with wrong results.
    let silent = run(&program, &platform, &RunSpec::faulty(schedule.clone()));
    assert_eq!(silent.health.corruptions_detected, 0);
    assert!(silent.health.corruptions_injected >= 1);
    assert!(silent.health.corrupt_committed >= 1, "{:?}", silent.health);
    assert_eq!(silent.faults.task_faults, 0, "SDC is not a fail-stop fault");

    // DupCheck re-executes every task on a peer at the barrier, catches the
    // mismatch, rolls the epoch back, and (after the per-epoch rollback
    // budget) re-runs it with injection suppressed — the SDC analog of safe
    // mode — so the final commit is clean.
    let verified = HealthConfig {
        verification: VerificationPolicy::DupCheck { sample_rate: 1.0 },
        ..HealthConfig::disabled()
    };
    let checking = RunSpec::resilient(schedule, verified);
    let checked = run(&program, &platform, &checking);
    assert!(
        checked.health.corruptions_detected >= 1,
        "{:?}",
        checked.health
    );
    assert!(checked.health.epoch_rollbacks >= 1, "{:?}", checked.health);
    assert_eq!(
        checked.health.corrupt_committed, 0,
        "every epoch must re-commit clean: {:?}",
        checked.health
    );
    assert!(checked.health.tasks_verified >= 1);
    assert!(checked.health.time_verifying > SimTime::ZERO);
    assert!(checked.health.corruptions_detected <= checked.health.corruptions_injected);
    assert_eq!(
        total_items(&checked),
        8 * per_task,
        "rollback re-runs must not double-count items"
    );
    assert!(
        checked.makespan > silent.makespan,
        "verification and rollback cost simulated time"
    );

    // Identical schedule, identical replay.
    let again = run(&program, &platform, &checking);
    assert_eq!(again.makespan, checked.makespan);
    assert_eq!(again.health, checked.health);
}

#[test]
fn circuit_breaker_quarantines_flaky_gpu_and_recloses_after_probe() {
    let platform = Platform::test_small();
    let per_task = 1000u64;
    // Epoch 1: 8 GPU-pinned tasks (the first three each burn a full retry
    // budget on the flaky GPU — three consecutive exhaustions trip the
    // breaker — and the rest drain to the CPU) plus 16 CPU-pinned tasks
    // that keep the barrier far enough out for the cool-down to elapse
    // first. Epoch 2: 4 GPU-pinned tasks that arrive half-open — one goes
    // through as the probe.
    let mut b = Program::builder();
    let x = b.buffer("x", 28 * per_task, 4);
    let k = b.kernel("k", balanced_profile(2500.0));
    let mut next = 0u64;
    let region = |next: &mut u64| {
        let r = Region::new(x, *next * per_task, (*next + 1) * per_task);
        *next += 1;
        r
    };
    for _ in 0..8 {
        b.submit_pinned(
            k,
            per_task,
            vec![Access::read_write(region(&mut next))],
            DeviceId(1),
        );
    }
    for _ in 0..16 {
        b.submit_pinned(
            k,
            per_task,
            vec![Access::read_write(region(&mut next))],
            DeviceId(0),
        );
    }
    b.taskwait();
    for _ in 0..4 {
        b.submit_pinned(
            k,
            per_task,
            vec![Access::read_write(region(&mut next))],
            DeviceId(1),
        );
    }
    let program = b.build();

    // The GPU is flaky (every attempt fails) for the first millisecond —
    // long enough for three 100us-per-attempt retry storms — then recovers
    // for good, well before the half-open probe dispatches at the epoch
    // barrier.
    let schedule =
        FaultSchedule::new(61).with_flaky(DeviceId(1), 1.0, SimTime::ZERO, SimTime::from_millis(1));
    let health = HealthConfig {
        breaker: Some(BreakerConfig {
            trip_after: 3,
            cooldown: SimTime::from_micros(150),
        }),
        ..HealthConfig::disabled()
    };
    let spec = RunSpec::resilient(schedule, health);
    let report = run(&program, &platform, &spec);

    assert_eq!(total_items(&report), 28 * per_task);
    assert!(report.faults.task_faults >= 3, "{:?}", report.faults);
    assert_eq!(report.health.circuit_opens, 1, "{:?}", report.health);
    assert!(report.health.probes >= 1);
    assert_eq!(
        report.health.circuit_closes, 1,
        "a clean probe after the flaky window must re-close the circuit: {:?}",
        report.health
    );
    assert_eq!(report.health.quarantine.len(), 1);
    assert_eq!(report.health.quarantine[0].dev, DeviceId(1));
    assert!(report.health.quarantine[0].until.is_some());
    assert!(
        report.faults.failovers >= 7,
        "the quarantined queue drains to the CPU: {:?}",
        report.faults
    );
    assert!(
        report.counters.devices[1].items >= per_task,
        "the re-closed GPU must be readmitted to useful work"
    );
    assert!(
        report.health.scores[1] < 1.0,
        "the flaky window leaves a scar on the EWMA score: {:?}",
        report.health.scores
    );

    // Identical schedule, identical replay.
    let again = run(&program, &platform, &spec);
    assert_eq!(again.makespan, report.makespan);
    assert_eq!(again.health, report.health);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Determinism: the same seed and schedule replay a byte-identical
    /// `RunReport` — makespan, counters, fault counters, everything.
    #[test]
    fn same_seed_replays_byte_identical_reports(seed in 0u64..1_000) {
        let platform = Platform::test_small();
        let program = sp_single_program(&platform, 1 << 14);
        let schedule = FaultSchedule::new(seed)
            .with_task_faults(None, 0.3, SimTime::ZERO, SimTime::MAX)
            .with_transfer_faults(0.3, SimTime::ZERO, SimTime::MAX)
            .with_throttle(
                DeviceId(1),
                SimTime::ZERO,
                SimTime::from_millis(1),
                1.0,
                4.0,
            );
        let faulty = RunSpec::faulty(schedule);
        let a = run(&program, &platform, &faulty);
        let b = run(&program, &platform, &faulty);
        prop_assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
        prop_assert_eq!(total_items(&a), 1 << 14);
    }

    /// Any valid gray-failure schedule terminates under full monitoring
    /// with every item processed, never reports more detected corruptions
    /// than were injected, and replays byte-identical reports *and traces*
    /// from the same seed.
    #[test]
    fn gray_schedules_terminate_and_replay_byte_identical(
        seed in 0u64..1_000,
        corrupt_prob in 0.0f64..=1.0,
        flaky_prob in 0.0f64..=0.8,
        end_factor in 1.0f64..8.0,
        until_us in 1u64..2_000,
    ) {
        let platform = Platform::test_small();
        let program = sp_single_program(&platform, 1 << 14);
        let until = SimTime::from_micros(until_us);
        let schedule = FaultSchedule::new(seed)
            .with_throttle(DeviceId(1), SimTime::ZERO, until, 1.0, end_factor)
            .with_flaky(DeviceId(1), flaky_prob, SimTime::ZERO, until)
            .with_silent_corruption(DeviceId(1), corrupt_prob, SimTime::ZERO, until);
        prop_assert!(schedule.validate().is_ok());
        let health = HealthConfig::monitored();
        let spec = RunSpec::resilient(schedule, health);
        let (a, ta) = traced(&program, &platform, &spec);
        prop_assert_eq!(total_items(&a), 1 << 14);
        prop_assert!(a.makespan > SimTime::ZERO);
        prop_assert!(a.health.corruptions_detected <= a.health.corruptions_injected);
        let (b, tb) = traced(&program, &platform, &spec);
        prop_assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
        prop_assert_eq!(
            serde_json::to_string(&ta).unwrap(),
            serde_json::to_string(&tb).unwrap()
        );
    }
}

/// A device that dies *while quarantined* must not confuse the breaker:
/// the circuit stays open (no reclose, no healing readmission), the run
/// still completes every item on the survivors, and the open quarantine
/// span is closed at the makespan.
#[test]
fn death_while_quarantined_keeps_circuit_open() {
    let platform = Platform::test_small();
    let per_task = 1000u64;
    // Same shape as the breaker-reclose test: epoch 1 trips the breaker
    // with three consecutive retry exhaustions on the flaky GPU; epoch 2
    // arrives while the device is quarantined.
    let mut b = Program::builder();
    let x = b.buffer("x", 28 * per_task, 4);
    let k = b.kernel("k", balanced_profile(2500.0));
    let mut next = 0u64;
    let region = |next: &mut u64| {
        let r = Region::new(x, *next * per_task, (*next + 1) * per_task);
        *next += 1;
        r
    };
    for _ in 0..8 {
        b.submit_pinned(
            k,
            per_task,
            vec![Access::read_write(region(&mut next))],
            DeviceId(1),
        );
    }
    for _ in 0..16 {
        b.submit_pinned(
            k,
            per_task,
            vec![Access::read_write(region(&mut next))],
            DeviceId(0),
        );
    }
    b.taskwait();
    for _ in 0..4 {
        b.submit_pinned(
            k,
            per_task,
            vec![Access::read_write(region(&mut next))],
            DeviceId(1),
        );
    }
    let program = b.build();

    // Flaky for the first millisecond — two ~330us retry storms trip the
    // breaker around 660us — then the quarantined device dies outright at
    // 800us. The cool-down is far longer than the run: without the dropout
    // the circuit would stay half-open-pending; with it there is nothing
    // left to probe.
    let schedule = FaultSchedule::new(61)
        .with_flaky(DeviceId(1), 1.0, SimTime::ZERO, SimTime::from_millis(1))
        .with_dropout(DeviceId(1), SimTime::from_micros(800));
    let health = HealthConfig {
        breaker: Some(BreakerConfig {
            trip_after: 2,
            cooldown: SimTime::from_millis(50),
        }),
        ..HealthConfig::disabled()
    };
    let spec = repairing(schedule, health);
    let report = run(&program, &platform, &spec);

    assert_eq!(total_items(&report), 28 * per_task);
    assert_eq!(report.health.circuit_opens, 1, "{:?}", report.health);
    assert_eq!(
        report.health.circuit_closes, 0,
        "death during quarantine must not reclose the circuit: {:?}",
        report.health
    );
    assert_eq!(
        report.adapt.readmissions, 0,
        "no healing re-plan may readmit a dead device: {:?}",
        report.adapt
    );
    assert_eq!(report.health.quarantine.len(), 1);
    let span = &report.health.quarantine[0];
    assert_eq!(span.dev, DeviceId(1));
    assert!(
        span.from <= SimTime::from_micros(800),
        "the breaker tripped before the dropout: {span:?}"
    );
    assert_eq!(
        span.until,
        Some(report.makespan),
        "an open quarantine closes at run end: {span:?}"
    );
    assert_eq!(
        report.counters.devices[1].items, 0,
        "nothing may commit on the dead quarantined device"
    );

    // Identical schedule, identical replay.
    let again = run(&program, &platform, &spec);
    assert_eq!(again.makespan, report.makespan);
    assert_eq!(again.health, report.health);
    assert_eq!(again.adapt, report.adapt);
}

/// Fuzz-found scenarios where the health layer lost track of a task or a
/// device: each must complete under monitored health, keep every device's
/// blame summing to its capacity, and replay identically.
#[test]
fn fuzz_found_health_layer_scenarios_complete_and_balance() {
    let cases = [
        (
            0xac9c_8652_633e_984c_u64,
            "the peer of a winning hedge dies before the hedge finishes",
        ),
        (
            0x8e22_7be4_2e85_c148,
            "a device dies while its circuit is half-open",
        ),
        (
            0x3fad_b6bd_e928_5e98,
            "a device dies inside the verification booked on it",
        ),
        (
            0x200e_50c8_0377_6e6a,
            "a hedge wins before the primary's sampled fault time",
        ),
    ];
    for (seed, what) in cases {
        let sc = Scenario::generate(seed);
        let platform = sc.platform.build();
        let analyzer = Analyzer::new(&platform);
        let spec = RunSpec::resilient(sc.schedule.clone(), HealthConfig::monitored());
        let run = || {
            analyzer
                .run(&sc.descriptor, sc.config, &spec, &mut NullObserver, None)
                .unwrap_or_else(|e| panic!("{seed:#x} ({what}): {e}"))
        };
        let first = run();
        check_blame_identity(&first).unwrap_or_else(|v| panic!("{seed:#x} ({what}): {v}"));
        check_identical(OracleKind::DoubleRunDeterminism, what, &first, &run())
            .unwrap_or_else(|v| panic!("{seed:#x} ({what}): {v}"));
    }
}

/// A retry exhaustion that trips the breaker in a repairing run: the
/// aborted task fails over by the retry policy, and the repair the trip
/// triggers leaves it alone as it leaves all in-flight work. Here the GPU
/// fails every attempt and its one chunk is the only GPU work, so nothing
/// is queued for the repair to move: no repair is counted and no chunk
/// pays the `replan` overhead.
#[test]
fn a_failover_the_breaker_trip_repairs_around_is_not_a_repair_move() {
    let platform = Platform::icpp15_with_phi();
    let desc = compute_app(1 << 16);
    let planner = Planner::new(&platform);
    let config = ExecutionConfig::Strategy(Strategy::SpSingle);
    let plan = planner.plan(&desc, config);
    let gpu_chunks: Vec<TaskId> = plan
        .program
        .tasks()
        .iter()
        .filter(|(_, t)| t.pinned == Some(DeviceId(1)))
        .map(|&(id, _)| id)
        .collect();
    assert_eq!(gpu_chunks.len(), 1, "the setup needs exactly one GPU chunk");
    let schedule = FaultSchedule::new(7).with_flaky(
        DeviceId(1),
        1.0,
        SimTime::ZERO,
        SimTime::from_secs_f64(1.0),
    );
    let health = HealthConfig {
        breaker: Some(BreakerConfig {
            trip_after: 1,
            cooldown: SimTime::from_secs_f64(1.0),
        }),
        ..HealthConfig::disabled()
    };
    let mut tobs = TraceObserver::new();
    let report = run_observed(
        &plan.program,
        &platform,
        &repairing(schedule, health),
        planner.adapt_plan(&desc, config),
        &mut tobs,
    );
    let trace = tobs.into_trace();
    let failovers: Vec<(TaskId, DeviceId, DeviceId)> = trace
        .events
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::Failover { task, from, to, .. } => Some((task, from, to)),
            _ => None,
        })
        .collect();
    assert_eq!(failovers, vec![(gpu_chunks[0], DeviceId(1), DeviceId(0))]);
    assert_eq!(report.health.circuit_opens, 1);
    assert!(
        !trace
            .events
            .iter()
            .any(|e| matches!(e, TraceEvent::PlanRepaired { .. })),
        "the failover is no repair move"
    );
    assert_eq!(report.adapt.replans, 0, "{:?}", report.adapt);
    for (d, b) in report.breakdown.per_device.iter().enumerate() {
        assert_eq!(b.replan, SimTime::ZERO, "device {d} was charged a re-plan");
    }
    check_blame_identity(&report).unwrap();
    assert_eq!(total_items(&report), 1 << 16);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// With plan repair active, no task is ever dispatched to a dead
    /// device, and dispatches to a quarantined (Open-breaker) device are
    /// at most the breaker's own half-open probes — across random
    /// dropout-plus-flaky schedules on the three-device preset.
    #[test]
    fn repair_never_dispatches_to_dead_or_quarantined(
        seed in 0u64..10_000,
        drop_us in 20u64..400,
        flaky_prob in 0.0f64..=1.0,
        drop_dev in 1usize..=2,
    ) {
        let platform = Platform::icpp15_with_phi();
        let desc = compute_app(1 << 16);
        let planner = Planner::new(&platform);
        let config = ExecutionConfig::Strategy(Strategy::SpSingle);
        let plan = planner.plan(&desc, config);
        let flaky_dev = if drop_dev == 1 { 2 } else { 1 };
        let schedule = FaultSchedule::new(seed)
            .with_dropout(DeviceId(drop_dev), SimTime::from_micros(drop_us))
            .with_flaky(
                DeviceId(flaky_dev),
                flaky_prob,
                SimTime::ZERO,
                SimTime::from_micros(300),
            );
        let health = HealthConfig {
            breaker: Some(BreakerConfig {
                trip_after: 2,
                cooldown: SimTime::from_micros(100),
            }),
            ..HealthConfig::disabled()
        };
        let mut tobs = TraceObserver::new();
        let report = run_observed(
            &plan.program,
            &platform,
            &repairing(schedule, health),
            planner.adapt_plan(&desc, config),
            &mut tobs,
        );
        let trace = tobs.into_trace();
        let ndev = platform.devices.len();
        let mut death: Vec<Option<SimTime>> = vec![None; ndev];
        let mut open_at: Vec<Option<SimTime>> = vec![None; ndev];
        let mut windows: Vec<(usize, SimTime, SimTime)> = Vec::new();
        let mut dispatches: Vec<(usize, SimTime)> = Vec::new();
        for ev in &trace.events {
            match ev {
                TraceEvent::DeviceDropout { dev, at } => death[dev.0] = Some(*at),
                TraceEvent::CircuitOpen { dev, at } => open_at[dev.0] = Some(*at),
                TraceEvent::CircuitClose { dev, at } => {
                    if let Some(from) = open_at[dev.0].take() {
                        windows.push((dev.0, from, *at));
                    }
                }
                TraceEvent::Task { dev, start, .. } => dispatches.push((dev.0, *start)),
                _ => {}
            }
        }
        for (d, from) in open_at.iter().enumerate() {
            if let Some(from) = from {
                windows.push((d, *from, SimTime::MAX));
            }
        }
        for &(d, start) in &dispatches {
            if let Some(at) = death[d] {
                prop_assert!(
                    start <= at,
                    "task dispatched to device {d} at {start} after its death at {at}"
                );
            }
        }
        let quarantined_dispatches = dispatches
            .iter()
            .filter(|&&(d, start)| {
                windows
                    .iter()
                    .any(|&(wd, from, until)| wd == d && from < start && start < until)
            })
            .count() as u64;
        prop_assert!(
            quarantined_dispatches <= report.health.probes,
            "{quarantined_dispatches} dispatches inside quarantine windows, \
             but only {} half-open probes",
            report.health.probes
        );
        prop_assert_eq!(total_items(&report), 1 << 16);
    }
}
