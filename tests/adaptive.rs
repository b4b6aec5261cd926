//! End-to-end acceptance for adaptive repartitioning (PR 3).
//!
//! A seeded `ProfilePerturb` halves the planner's GPU-throughput estimate:
//! the static SP-Single plan under-offloads, and the run is imbalanced at
//! every taskwait barrier while execution proceeds at the platform's true
//! rates. The adaptive controller must (a) detect the skew, (b) rebalance
//! the remaining chunks with the calibrated device model and recover most
//! of the makespan gap versus the oracle (unskewed) plan, (c) escalate to
//! DP-Perf *only* when corrections are exhausted, and (d) replay
//! byte-identically from the same seed. With adaptation off and no
//! perturbation, the adaptive entry point must be byte-identical to the
//! resilient executor.

use hetero_match::apps::synth;
use hetero_match::matchmaker::{
    run_oracles, AccessPattern, Analyzer, AppDescriptor, BufferSpec, ExecutionConfig,
    ExecutionFlow, InjectedBreak, KernelSpec, Planner, RunSpec, Scenario, Strategy, SyncPolicy,
};
use hetero_match::platform::{
    DeviceId, Efficiency, FaultSchedule, KernelProfile, Platform, Precision, RetryPolicy, SimTime,
};
use hetero_match::runtime::{
    simulate_spec, Access, AccessMode, AdaptConfig, AdaptPlan, HealthConfig, NullObserver,
    PinnedScheduler, Program, Region, ReplanConfig, TaskId, TraceEvent, TraceObserver,
};
use proptest::prelude::*;

/// SK-Loop: 8 iterations of a compute-heavy kernel with a taskwait between
/// iterations, so the controller gets 7 barriers to observe and correct.
fn app() -> AppDescriptor {
    synth::single_kernel(
        "adaptive",
        1 << 20,
        65536.0,
        ExecutionFlow::Loop { iterations: 8 },
        true,
    )
}

/// The planner-visible GPU rate is halved for the whole run; true
/// execution rates are untouched (that is the point of `ProfilePerturb`).
fn halved_gpu_profile(seed: u64) -> FaultSchedule {
    FaultSchedule::new(seed).with_profile_perturb(DeviceId(1), 0.5, SimTime::ZERO, SimTime::MAX)
}

const CONFIG: ExecutionConfig = ExecutionConfig::Strategy(Strategy::SpSingle);

#[test]
fn misprediction_hurts_and_repartitioning_recovers_the_gap() {
    let platform = Platform::icpp15();
    let analyzer = Analyzer::new(&platform);
    let desc = app();
    let schedule = halved_gpu_profile(42);
    let policy = RetryPolicy::default();
    let health = HealthConfig::disabled();

    // Oracle: the faithful plan. The perturbation only skews profiling, so
    // executing the unskewed plan under the schedule costs nothing.
    let oracle = analyzer.simulate_resilient(&desc, CONFIG, &schedule, policy, &health);
    assert_eq!(oracle.makespan, analyzer.simulate(&desc, CONFIG).makespan);

    // Mispredicted baseline: the skewed plan, no mitigation.
    let mis = analyzer.simulate_adaptive(
        &desc,
        CONFIG,
        &schedule,
        policy,
        &health,
        &AdaptConfig::disabled(),
    );
    assert!(
        mis.makespan > oracle.makespan,
        "halving the planner's GPU estimate must cost makespan \
         (mis {:?} vs oracle {:?})",
        mis.makespan,
        oracle.makespan
    );

    // Adaptive run: detect, rebalance, re-pin.
    let mut tobs = TraceObserver::new();
    let adaptive = analyzer
        .run(
            &desc,
            CONFIG,
            &RunSpec::adaptive(schedule.clone(), health, AdaptConfig::enabled_default()),
            &mut tobs,
            None,
        )
        .unwrap();
    assert!(adaptive.adapt.imbalances_detected >= 1);
    assert!(adaptive.adapt.repartitions >= 1, "{:?}", adaptive.adapt);
    assert!(adaptive.adapt.items_moved > 0);
    // Re-solving fixed the balance, so escalation never became legal.
    assert!(!adaptive.adapt.escalated, "{:?}", adaptive.adapt);
    assert!(adaptive.adapt.final_skew < adaptive.adapt.max_skew);

    let gap = mis.makespan.as_secs_f64() - oracle.makespan.as_secs_f64();
    let recovered = mis.makespan.as_secs_f64() - adaptive.makespan.as_secs_f64();
    assert!(
        recovered >= 0.6 * gap,
        "adaptation must recover >= 60% of the misprediction gap \
         (recovered {:.3e} of {:.3e}s, {:.0}%)",
        recovered,
        gap,
        100.0 * recovered / gap
    );

    let epochs = analyzer.planner().plan(&desc, CONFIG).program.epochs();
    let checked = assert_repartitioned_matches_next_epoch(&platform, &epochs, &tobs);
    assert_eq!(checked, adaptive.adapt.repartitions);
}

/// `Repartitioned` reports the split the next epoch actually ran with:
/// its accelerator and host items equal what that epoch's tasks ran.
/// Returns how many events were checked.
fn assert_repartitioned_matches_next_epoch(
    platform: &Platform,
    epochs: &[Vec<TaskId>],
    tobs: &TraceObserver,
) -> u64 {
    let events = &tobs.trace().events;
    let mut checked = 0u64;
    for e in events {
        let TraceEvent::Repartitioned {
            epoch,
            gpu_items,
            cpu_items,
            ..
        } = e
        else {
            continue;
        };
        let (mut ran_gpu, mut ran_cpu) = (0u64, 0u64);
        for ev in events {
            if let TraceEvent::Task {
                task, dev, items, ..
            } = ev
            {
                if epochs[epoch + 1].contains(task) {
                    if platform.device(*dev).mem_space.is_host() {
                        ran_cpu += items;
                    } else {
                        ran_gpu += items;
                    }
                }
            }
        }
        assert_eq!(
            (*gpu_items, *cpu_items),
            (ran_gpu, ran_cpu),
            "epoch {epoch}"
        );
        checked += 1;
    }
    checked
}

/// Six epochs of equal chunks pinned 12 / 4 / 4 to the CPU, GPU and Phi of
/// `Platform::icpp15_with_phi`.
fn three_device_program() -> Program {
    let items = 1u64 << 14;
    let per_device = [12usize, 4, 4];
    let epochs = 6u64;
    let chunks = per_device.iter().sum::<usize>() as u64 * epochs;
    let mut b = Program::builder();
    let x = b.buffer("x", chunks * items, 4);
    let k = b.kernel(
        "k",
        KernelProfile {
            flops_per_item: 4096.0,
            bytes_per_item: 0.0,
            fixed_flops: 0.0,
            fixed_bytes: 0.0,
            precision: Precision::Single,
            cpu_efficiency: Efficiency {
                compute: 0.5,
                bandwidth: 1.0,
            },
            gpu_efficiency: Efficiency {
                compute: 0.1,
                bandwidth: 1.0,
            },
        },
    );
    let mut next = 0u64;
    for _ in 0..epochs {
        for (dev, &n) in per_device.iter().enumerate() {
            for _ in 0..n {
                let region = Region::new(x, next * items, (next + 1) * items);
                b.submit_pinned(k, items, vec![Access::read_write(region)], DeviceId(dev));
                next += 1;
            }
        }
        b.taskwait();
    }
    b.build()
}

/// A repairing run re-pins chunks twice: plan repair spreads the dead
/// GPU's chunks over the CPU and the Phi, then a throttled CPU makes a
/// later barrier rebalance move chunks again — repaired ones included.
/// The binder must run the rebalance's placement, not the repair's, so
/// `Repartitioned` still reports the split the next epoch runs with.
#[test]
fn repartitioned_reports_the_applied_split_after_plan_repair() {
    let platform = Platform::icpp15_with_phi();
    let program = three_device_program();
    let healthy = simulate_spec(
        &program,
        &platform,
        &mut PinnedScheduler,
        &RunSpec::resilient(FaultSchedule::new(3), HealthConfig::disabled()),
        None,
        &mut NullObserver,
        None,
    )
    .unwrap();
    let at = |share: f64| SimTime::from_secs_f64(healthy.makespan.as_secs_f64() * share);
    let schedule = FaultSchedule::new(3)
        .with_dropout(DeviceId(1), at(0.05))
        .with_throttle(DeviceId(0), at(0.3), SimTime::MAX, 4.0, 4.0);
    let spec = RunSpec::repairing(
        schedule,
        HealthConfig::disabled(),
        AdaptConfig {
            escalation: false,
            ..AdaptConfig::enabled_default()
        },
        ReplanConfig::enabled_default(),
    );
    let mut tobs = TraceObserver::new();
    let report = simulate_spec(
        &program,
        &platform,
        &mut PinnedScheduler,
        &spec,
        Some(AdaptPlan),
        &mut tobs,
        None,
    )
    .unwrap();
    assert_eq!(report.adapt.replans, 1, "{:?}", report.adapt);
    let events = &tobs.trace().events;
    let repaired_at = events
        .iter()
        .position(|e| matches!(e, TraceEvent::PlanRepaired { .. }))
        .expect("the GPU's death is repaired");
    assert!(
        events[repaired_at..]
            .iter()
            .any(|e| matches!(e, TraceEvent::Repartitioned { .. })),
        "a barrier rebalance follows the repair: {:?}",
        report.adapt
    );
    let checked = assert_repartitioned_matches_next_epoch(&platform, &program.epochs(), &tobs);
    assert_eq!(checked, report.adapt.repartitions);
}

#[test]
fn escalation_fires_only_when_resolves_are_exhausted() {
    let platform = Platform::icpp15();
    let analyzer = Analyzer::new(&platform);
    let desc = app();
    let schedule = halved_gpu_profile(42);
    let policy = RetryPolicy::default();
    let health = HealthConfig::disabled();

    // Repartitioning disabled: every trigger burns a "re-solve" that
    // cannot help, so after `max_resolves` misses the plan escalates.
    let cfg = AdaptConfig {
        repartition: false,
        max_resolves: 1,
        ..AdaptConfig::enabled_default()
    };
    let escalated = analyzer.simulate_adaptive(&desc, CONFIG, &schedule, policy, &health, &cfg);
    assert!(escalated.adapt.escalated, "{:?}", escalated.adapt);
    assert_eq!(escalated.adapt.repartitions, 0);
    assert!(escalated.adapt.escalated_at_epoch.is_some());
    assert!(escalated.adapt.escalated_tasks > 0);

    // The escalated DP-Perf (seeded from the run's own observations)
    // still beats riding the mispredicted plan to the end.
    let mis = analyzer.simulate_adaptive(
        &desc,
        CONFIG,
        &schedule,
        policy,
        &health,
        &AdaptConfig::disabled(),
    );
    assert!(
        escalated.makespan < mis.makespan,
        "escalated {:?} vs mispredicted {:?}",
        escalated.makespan,
        mis.makespan
    );

    // Plenty of re-solve budget with working repartitioning: the balance
    // target is met again before the budget runs out, so no escalation.
    let repaired = analyzer.simulate_adaptive(
        &desc,
        CONFIG,
        &schedule,
        policy,
        &health,
        &AdaptConfig::enabled_default(),
    );
    assert!(!repaired.adapt.escalated);
}

#[test]
fn adaptive_runs_replay_byte_identically() {
    let platform = Platform::icpp15();
    let analyzer = Analyzer::new(&platform);
    let desc = app();
    let policy = RetryPolicy::default();
    let health = HealthConfig::disabled();
    for cfg in [
        AdaptConfig::enabled_default(),
        AdaptConfig {
            repartition: false,
            max_resolves: 1,
            ..AdaptConfig::enabled_default()
        },
    ] {
        let a = analyzer.simulate_adaptive(
            &desc,
            CONFIG,
            &halved_gpu_profile(42),
            policy,
            &health,
            &cfg,
        );
        let b = analyzer.simulate_adaptive(
            &desc,
            CONFIG,
            &halved_gpu_profile(42),
            policy,
            &health,
            &cfg,
        );
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "same seed must replay the identical run ({cfg:?})"
        );
    }
}

#[test]
fn disabled_adaptation_without_perturbation_matches_resilient_exactly() {
    let platform = Platform::icpp15();
    let analyzer = Analyzer::new(&platform);
    let desc = app();
    let schedule = FaultSchedule::new(7); // no events at all
    let policy = RetryPolicy::default();
    let health = HealthConfig::disabled();

    let resilient = analyzer.simulate_resilient(&desc, CONFIG, &schedule, policy, &health);
    let adaptive_off = analyzer.simulate_adaptive(
        &desc,
        CONFIG,
        &schedule,
        policy,
        &health,
        &AdaptConfig::disabled(),
    );
    assert_eq!(
        serde_json::to_string(&resilient).unwrap(),
        serde_json::to_string(&adaptive_off).unwrap(),
        "adaptation off + no perturbation must be byte-identical to the resilient path"
    );

    // A well-predicted plan stays balanced: the controller observes but
    // never escalates.
    let adaptive_on = analyzer.simulate_adaptive(
        &desc,
        CONFIG,
        &schedule,
        policy,
        &health,
        &AdaptConfig::enabled_default(),
    );
    assert!(adaptive_on.adapt.barriers_observed > 0);
    assert!(!adaptive_on.adapt.escalated);
}

#[test]
fn degradation_ranking_with_adaptation_is_deterministic_and_complete() {
    let platform = Platform::icpp15();
    let analyzer = Analyzer::new(&platform);
    let desc = app();
    let spec = RunSpec::adaptive(
        halved_gpu_profile(42),
        HealthConfig::disabled(),
        AdaptConfig::enabled_default(),
    );

    let entries = analyzer.rank_by_degradation(&desc, &spec);
    // Baselines + the SK-Loop ranking (SP-Single, DP-Perf, DP-Dep).
    assert_eq!(entries.len(), 5);
    assert!(entries
        .iter()
        .any(|e| e.config == ExecutionConfig::Strategy(Strategy::SpSingle)));
    // Sorted by degradation, most robust first.
    for w in entries.windows(2) {
        assert!(w[0].degradation() <= w[1].degradation() + 1e-12);
    }
    // The single-device baselines never consulted the mispredicted model.
    for e in &entries {
        if matches!(
            e.config,
            ExecutionConfig::OnlyCpu | ExecutionConfig::OnlyGpu
        ) {
            assert!((e.degradation() - 1.0).abs() < 1e-9, "{}", e.config);
        }
    }
    let again = analyzer.rank_by_degradation(&desc, &spec);
    for (a, b) in entries.iter().zip(&again) {
        assert_eq!(a.config, b.config);
        assert_eq!(a.faulty.makespan, b.faulty.makespan);
    }
}

/// MK-Loop with two kernels of *opposite* device affinity over the same
/// buffer: `gpu_leaning` is compute-dense and efficient on the GPU,
/// `cpu_leaning` runs its best on the host. SP-Varied gives each kernel
/// its own split; what the adaptation controller must preserve.
fn opposed_affinity_app() -> AppDescriptor {
    let n = 1u64 << 20;
    let profile = |cpu: f64, gpu: f64| KernelProfile {
        flops_per_item: 65536.0,
        bytes_per_item: 8.0,
        fixed_flops: 0.0,
        fixed_bytes: 0.0,
        precision: Precision::Single,
        cpu_efficiency: Efficiency {
            compute: cpu,
            bandwidth: 0.6,
        },
        gpu_efficiency: Efficiency {
            compute: gpu,
            bandwidth: 0.7,
        },
    };
    AppDescriptor {
        name: "opposed".into(),
        buffers: vec![BufferSpec {
            name: "data".into(),
            items: n,
            item_bytes: 8,
        }],
        kernels: vec![
            KernelSpec {
                name: "gpu_leaning".into(),
                profile: profile(0.15, 0.45),
                domain: n,
                accesses: vec![AccessPattern::part(0, AccessMode::InOut)],
                weights: None,
            },
            KernelSpec {
                name: "cpu_leaning".into(),
                profile: profile(0.60, 0.02),
                domain: n,
                accesses: vec![AccessPattern::part(0, AccessMode::InOut)],
                weights: None,
            },
        ],
        flow: ExecutionFlow::Loop { iterations: 4 },
        sync: SyncPolicy::FULL,
    }
}

/// SP-Varied adaptation on opposed affinities. Every SP-Varied epoch runs
/// one kernel, and the rebalancer prices each chunk with its own kernel's
/// device model scaled by the device's calibration. A whole-application
/// aggregate rate would say "the GPU is slow" even when only one kernel
/// is, and drag the GPU-friendly epochs toward the host. Facing the same
/// mispredicted profile, the single rebalancing path must fire, beat the
/// mispredicted plan, and recover at least a third of the gap to the
/// unskewed plan.
#[test]
fn sp_varied_adaptation_resolves_each_kernel_not_the_sp_single_projection() {
    let platform = Platform::icpp15();
    let desc = opposed_affinity_app();
    let config = ExecutionConfig::Strategy(Strategy::SpVaried);
    // The planner profiled a perturbed platform: its GPU estimate is half
    // the true rate, so every kernel's static split under-offloads.
    let mut planner = Planner::new(&platform);
    planner.profile_skew = (1.0, 0.5);
    let plan = planner.plan(&desc, config);
    let gpu_items: Vec<u64> = plan
        .kernel_configs
        .iter()
        .map(|s| {
            s.as_ref()
                .expect("SP-Varied splits every kernel")
                .gpu_items(1 << 20)
        })
        .collect();
    assert_ne!(
        gpu_items[0], gpu_items[1],
        "opposite affinities must produce different splits"
    );
    let adapt_plan = planner
        .adapt_plan(&desc, config)
        .expect("SP-Varied on a hybrid app yields an adapt plan");

    // Execution itself is fault-free: the error lives in the profile.
    let schedule = FaultSchedule::new(3);
    let health = HealthConfig::disabled();
    let adapt = AdaptConfig {
        escalation: false,
        ..AdaptConfig::enabled_default()
    };
    let run = |cfg: &AdaptConfig| {
        let spec = RunSpec::adaptive(schedule.clone(), health, *cfg);
        simulate_spec(
            &plan.program,
            &platform,
            &mut PinnedScheduler,
            &spec,
            Some(adapt_plan),
            &mut NullObserver,
            None,
        )
        .unwrap()
    };

    let mis = run(&AdaptConfig::disabled());
    let varied = run(&adapt);
    let unskewed = Analyzer::new(&platform).simulate(&desc, config);

    assert!(
        varied.adapt.repartitions >= 1,
        "the rebalancer must fire: {:?}",
        varied.adapt
    );
    assert!(
        varied.makespan < mis.makespan,
        "adaptation must recover misprediction (adaptive {:?} vs mispredicted {:?})",
        varied.makespan,
        mis.makespan
    );
    let gap = mis.makespan.as_secs_f64() - unskewed.makespan.as_secs_f64();
    let recovered = mis.makespan.as_secs_f64() - varied.makespan.as_secs_f64();
    assert!(
        recovered >= gap / 3.0,
        "adaptation must recover >= 1/3 of the gap to the unskewed plan \
         (adaptive {:?}, mispredicted {:?}, unskewed {:?})",
        varied.makespan,
        mis.makespan,
        unskewed.makespan
    );

    // Byte-determinism: same seed, same run.
    let again = run(&adapt);
    assert_eq!(
        serde_json::to_string(&varied).unwrap(),
        serde_json::to_string(&again).unwrap()
    );
}

/// Fuzz-found regression: SP-Varied over several kernels on a 1-thread CPU
/// plus a GPU. Pricing chunks at raw observed items/sec made adaptation
/// lose to the mispredicted plan here (adaptive 748.97us vs mispredicted
/// 548.80us on the adaptive-never-loses oracle). Every oracle must hold on
/// the scenario.
#[test]
fn fuzz_found_sp_varied_loss_stays_fixed() {
    let scenario = Scenario::generate(0xa6b8_97d8_d30e_ac80);
    let violations = run_oracles(&scenario, &InjectedBreak::NONE);
    assert!(violations.is_empty(), "{violations:?}");
}

/// Mid-run drift (scenario 3 of `examples/adaptive_rebalance.rs`): the plan
/// was solved from a faithful profile, then the CPU throttles 2.5x from
/// half the healthy makespan on. The rebalancer's calibration must see
/// the drift in the closing epoch, not only in the cumulative books that
/// still average in the healthy first half, and recover at least 2/3 of
/// the gap between riding the stale plan and the healthy run.
#[test]
fn drift_rebalancing_recovers_two_thirds_of_the_throttle_gap() {
    let platform = Platform::icpp15();
    let analyzer = Analyzer::new(&platform);
    let desc = app();
    let policy = RetryPolicy::default();
    let health = HealthConfig::disabled();

    let healthy =
        analyzer.simulate_resilient(&desc, CONFIG, &FaultSchedule::new(7), policy, &health);
    let mid = SimTime::from_secs_f64(healthy.makespan.as_secs_f64() / 2.0);
    let drift = FaultSchedule::new(7).with_throttle(DeviceId(0), mid, SimTime::MAX, 2.5, 2.5);
    let blind = analyzer.simulate_adaptive(
        &desc,
        CONFIG,
        &drift,
        policy,
        &health,
        &AdaptConfig::disabled(),
    );
    let adaptive = analyzer.simulate_adaptive(
        &desc,
        CONFIG,
        &drift,
        policy,
        &health,
        &AdaptConfig::enabled_default(),
    );
    assert!(adaptive.adapt.repartitions >= 1, "{:?}", adaptive.adapt);
    let gap = blind.makespan.as_secs_f64() - healthy.makespan.as_secs_f64();
    let recovered = blind.makespan.as_secs_f64() - adaptive.makespan.as_secs_f64();
    assert!(
        recovered >= 2.0 / 3.0 * gap,
        "adaptation must recover >= 2/3 of the drift gap \
         (adaptive {:?}, blind {:?}, healthy {:?}: {:.1}%)",
        adaptive.makespan,
        blind.makespan,
        healthy.makespan,
        100.0 * recovered / gap
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The controller never oscillates: every corrective action consumes a
    /// fresh imbalance trigger, so actions are bounded by detections, which
    /// are bounded by the program's barriers — on any seeded mix of
    /// profile misprediction and mid-run throttling. And the whole run is
    /// a pure function of the seed.
    #[test]
    fn controller_actions_are_bounded_and_deterministic(
        seed in 0u64..1_000,
        factor in prop_oneof![0.25f64..0.8, 1.25f64..4.0],
        ramp in any::<bool>(),
    ) {
        let platform = Platform::icpp15();
        let analyzer = Analyzer::new(&platform);
        let desc = app();
        let mut schedule = FaultSchedule::new(seed)
            .with_profile_perturb(DeviceId(1), factor, SimTime::ZERO, SimTime::MAX);
        if ramp {
            schedule = schedule.with_throttle(
                DeviceId(0),
                SimTime::ZERO,
                SimTime::from_millis(200),
                1.0,
                2.0,
            );
        }
        let policy = RetryPolicy::default();
        let health = HealthConfig::disabled();
        let adapt = AdaptConfig::enabled_default();

        let r = analyzer.simulate_adaptive(&desc, CONFIG, &schedule, policy, &health, &adapt);
        // 8 epochs: 7 taskwait barriers plus the end-of-program flush.
        prop_assert!(r.adapt.barriers_observed <= 8);
        prop_assert!(r.adapt.imbalances_detected <= r.adapt.barriers_observed);
        let actions = r.adapt.repartitions + u64::from(r.adapt.escalated);
        prop_assert!(
            actions <= r.adapt.imbalances_detected,
            "{} actions from {} detections: {:?}",
            actions, r.adapt.imbalances_detected, r.adapt
        );
        prop_assert_eq!(r.adapt.escalated, r.adapt.escalated_at_epoch.is_some());
        prop_assert!(r.adapt.final_skew <= r.adapt.max_skew);

        let r2 = analyzer.simulate_adaptive(&desc, CONFIG, &schedule, policy, &health, &adapt);
        prop_assert_eq!(
            serde_json::to_string(&r).unwrap(),
            serde_json::to_string(&r2).unwrap()
        );
    }

    /// With escalation off, every correction passes the no-regression
    /// guard, so adaptation never loses to riding the mispredicted plan.
    #[test]
    fn repartitioning_never_loses_to_the_mispredicted_plan(
        seed in 0u64..1_000,
        factor in prop_oneof![0.3f64..0.85, 1.2f64..3.0],
    ) {
        let platform = Platform::icpp15();
        let analyzer = Analyzer::new(&platform);
        let desc = app();
        let schedule = FaultSchedule::new(seed)
            .with_profile_perturb(DeviceId(1), factor, SimTime::ZERO, SimTime::MAX);
        let policy = RetryPolicy::default();
        let health = HealthConfig::disabled();

        let mis = analyzer.simulate_adaptive(
            &desc, CONFIG, &schedule, policy, &health, &AdaptConfig::disabled(),
        );
        let cfg = AdaptConfig { escalation: false, ..AdaptConfig::enabled_default() };
        let adaptive = analyzer.simulate_adaptive(&desc, CONFIG, &schedule, policy, &health, &cfg);
        prop_assert!(
            adaptive.makespan.as_secs_f64() <= mis.makespan.as_secs_f64() * (1.0 + 1e-9),
            "adaptive {:?} worse than mispredicted {:?} (factor {}, {:?})",
            adaptive.makespan, mis.makespan, factor, adaptive.adapt
        );
    }
}
