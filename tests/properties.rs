//! Property-based tests (proptest) over the core invariants, spanning the
//! solver, planner, dependence analysis, coherence, and executor.

use hetero_match::glinda::{solve, PartitionProblem, TransferModel};
use hetero_match::matchmaker::{
    classify, ratio_to_counts, AppClass, ExecutionConfig, Planner, Strategy as PartStrategy,
};
use hetero_match::platform::{DeviceId, KernelProfile, Platform, SimTime};
use hetero_match::runtime::{
    simulate, split_even, Access, DepScheduler, PerfScheduler, PinnedScheduler, Program, Region,
    TaskGraph, TaskId,
};
use proptest::prelude::*;

fn arb_problem() -> impl proptest::strategy::Strategy<Value = PartitionProblem> {
    (
        1u64..2_000_000,
        1e3f64..1e9,
        1e3f64..1e10,
        0.0f64..64.0,
        0.0f64..64.0,
        0.0f64..1e7,
        1e6f64..1e11,
        prop_oneof![Just(1u64), Just(32u64), Just(64u64)],
    )
        .prop_map(
            |(items, cpu, gpu, h2d, d2h, fixed, bw, gran)| PartitionProblem {
                items,
                cpu_rate: cpu,
                gpu_rate: gpu,
                transfer: TransferModel {
                    h2d_bytes_per_item: h2d,
                    d2h_bytes_per_item: d2h,
                    fixed_bytes: fixed,
                },
                link_bandwidth: bw,
                gpu_granularity: gran,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn solver_split_conserves_items_and_bounds_beta(p in arb_problem()) {
        let s = solve(&p);
        prop_assert_eq!(s.gpu_items + s.cpu_items, p.items);
        prop_assert!((0.0..=1.0).contains(&s.beta));
        prop_assert!(s.predicted_time.is_finite());
        prop_assert!(s.predicted_time >= 0.0);
    }

    #[test]
    fn solver_never_beats_exhaustive_granule_sweep(
        mut p in arb_problem(),
        small_items in 1u64..100_000,
    ) {
        // The rounded solution must be optimal among granule multiples
        // (checked on problems small enough to sweep).
        p.items = small_items;
        let s = solve(&p);
        let g = p.gpu_granularity.max(1);
        let mut ng = 0;
        let mut best = f64::INFINITY;
        while ng <= p.items {
            best = best.min(p.hybrid_time(ng));
            ng += g;
        }
        best = best.min(p.hybrid_time(p.items));
        prop_assert!(
            s.predicted_time <= best * (1.0 + 1e-9) + 1e-12,
            "solver {} vs sweep {}", s.predicted_time, best
        );
    }

    #[test]
    fn beta_monotone_in_gpu_rate(p in arb_problem(), factor in 1.1f64..16.0) {
        let s1 = solve(&p);
        let mut faster = p;
        faster.gpu_rate *= factor;
        let s2 = solve(&faster);
        prop_assert!(s2.beta >= s1.beta - 1e-12);
    }

    #[test]
    fn ratio_conversion_is_sound(beta in 0.0f64..=1.0, m in 1u64..512) {
        let (g, c) = ratio_to_counts(beta, m);
        prop_assert_eq!(g + c, m);
        let realized = g as f64 / m as f64;
        prop_assert!((realized - beta).abs() <= 0.5 / m as f64 + 1e-12);
    }

    #[test]
    fn split_even_partitions_exactly(items in 0u64..1_000_000, parts in 1u64..1000) {
        let chunks = split_even(items, parts);
        let total: u64 = chunks.iter().map(|(s, e)| e - s).sum();
        prop_assert_eq!(total, items);
        let mut cursor = 0;
        for &(s, e) in &chunks {
            prop_assert_eq!(s, cursor);
            prop_assert!(e > s);
            cursor = e;
        }
        // Balance: sizes differ by at most 1.
        if let (Some(max), Some(min)) = (
            chunks.iter().map(|(s, e)| e - s).max(),
            chunks.iter().map(|(s, e)| e - s).min(),
        ) {
            prop_assert!(max - min <= 1);
        }
    }
}

/// A random task program over a handful of buffers: tasks read/write random
/// regions; taskwaits sprinkled in.
fn arb_program() -> impl proptest::strategy::Strategy<Value = Program> {
    let task = (
        0usize..3,                                    // buffer
        0u64..900,                                    // start
        1u64..100,                                    // len
        prop_oneof![Just(0u8), Just(1u8), Just(2u8)], // mode
        any::<bool>(),                                // pinned to cpu?
        prop_oneof![Just(0u8), Just(1u8), Just(2u8)], // pin choice: none/cpu/gpu
    );
    proptest::collection::vec((task, any::<bool>()), 1..60).prop_map(|specs| {
        let mut b = Program::builder();
        let bufs = [
            b.buffer("b0", 1000, 4),
            b.buffer("b1", 1000, 8),
            b.buffer("b2", 1000, 4),
        ];
        let k = b.kernel("k", KernelProfile::compute_only(1e5));
        for ((buf, start, len, mode, _, pin), wait) in specs {
            let region = Region::new(bufs[buf], start, (start + len).min(1000));
            let access = match mode {
                0 => Access::read(region),
                1 => Access::write(region),
                _ => Access::read_write(region),
            };
            let items = region.len();
            match pin {
                0 => {
                    b.submit_dynamic(k, items, vec![access]);
                }
                1 => {
                    b.submit_pinned(k, items, vec![access], DeviceId(0));
                }
                _ => {
                    b.submit_pinned(k, items, vec![access], DeviceId(1));
                }
            }
            if wait {
                b.taskwait();
            }
        }
        b.build()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dependence_edges_point_backwards_and_are_acyclic(p in arb_program()) {
        let g = TaskGraph::build(&p);
        for t in (0..g.len()).map(TaskId) {
            for pr in g.preds(t) {
                prop_assert!(pr.0 < t.0, "edge {} -> {} points forward", pr.0, t.0);
            }
        }
        // Symmetric succ/pred consistency.
        for t in (0..g.len()).map(TaskId) {
            for s in g.succs(t) {
                prop_assert!(g.preds(*s).contains(&t));
            }
        }
    }

    #[test]
    fn simulation_completes_and_conserves_items(p in arb_program()) {
        let platform = Platform::test_small();
        let submitted: u64 = p.tasks().iter().map(|(_, t)| t.items).sum();
        for sched_kind in 0..3 {
            let report = match sched_kind {
                0 => {
                    // Pinned scheduler needs all tasks pinned; pin the free ones.
                    let mut pp = p.clone();
                    for op in &mut pp.ops {
                        if let hetero_match::runtime::Op::Submit(t) = op {
                            t.pinned.get_or_insert(DeviceId(0));
                        }
                    }
                    simulate(&pp, &platform, &mut PinnedScheduler)
                }
                1 => {
                    let mut s = DepScheduler::new(&platform);
                    simulate(&p, &platform, &mut s)
                }
                _ => {
                    let mut s = PerfScheduler::new(&platform);
                    simulate(&p, &platform, &mut s)
                }
            };
            let processed: u64 = report.counters.devices.iter().map(|d| d.items).sum();
            prop_assert_eq!(processed, submitted);
            let tasks: u64 = report.counters.devices.iter().map(|d| d.tasks).sum();
            prop_assert_eq!(tasks as usize, p.task_count());
        }
    }

    #[test]
    fn simulation_is_deterministic(p in arb_program()) {
        let platform = Platform::test_small();
        let r1 = {
            let mut s = DepScheduler::new(&platform);
            simulate(&p, &platform, &mut s)
        };
        let r2 = {
            let mut s = DepScheduler::new(&platform);
            simulate(&p, &platform, &mut s)
        };
        prop_assert_eq!(r1.makespan, r2.makespan);
        prop_assert_eq!(r1.counters, r2.counters);
    }

    #[test]
    fn makespan_bounded_by_critical_path_and_serial_time(p in arb_program()) {
        let platform = Platform::test_small();
        let mut s = DepScheduler::new(&platform);
        let report = simulate(&p, &platform, &mut s);
        // Lower bound: the largest single-task busy time is on some slot.
        // Upper bound: everything serialised on the slowest device plus all
        // transfer time plus overheads (loose but must hold).
        let total_busy: SimTime = report.counters.devices.iter().map(|d| d.busy).sum();
        prop_assert!(report.makespan <= total_busy + report.counters.transfers.time + SimTime::from_millis(1));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn planner_conserves_domain_for_every_strategy(
        n in 1_000u64..2_000_000,
        kernels in 1usize..4,
        iterations in 1u32..4,
        sync in any::<bool>(),
    ) {
        let desc = hetero_match::apps::synth::multi_kernel(
            "prop",
            n,
            kernels,
            256.0,
            if iterations > 1 {
                hetero_match::matchmaker::ExecutionFlow::Loop { iterations }
            } else {
                hetero_match::matchmaker::ExecutionFlow::Sequence
            },
            sync,
        );
        let class = classify(&desc);
        let platform = Platform::icpp15();
        let planner = Planner::new(&platform);
        let mut configs = vec![ExecutionConfig::OnlyCpu, ExecutionConfig::OnlyGpu];
        configs.extend(
            PartStrategy::ALL.iter().filter(|s| s.applicable(class)).map(|&s| ExecutionConfig::Strategy(s)),
        );
        for config in configs {
            let plan = planner.plan(&desc, config);
            plan.program.validate().unwrap();
            let invocations = desc.kernels.len() as u64 * iterations as u64;
            let total: u64 = plan.program.tasks().iter().map(|(_, t)| t.items).sum();
            prop_assert_eq!(total, n * invocations, "config {}", config);
        }
    }

    #[test]
    fn classifier_is_total_and_stable(nk in 1usize..6, flow_kind in 0u8..3, iters in 1u32..5) {
        let flow = match flow_kind {
            0 => hetero_match::matchmaker::ExecutionFlow::Sequence,
            1 => hetero_match::matchmaker::ExecutionFlow::Loop { iterations: iters },
            _ => hetero_match::matchmaker::ExecutionFlow::Dag {
                edges: (1..nk).map(|i| (0, i)).collect(),
            },
        };
        let desc = hetero_match::apps::synth::multi_kernel(
            "prop", 1024, nk, 16.0,
            flow.clone(), false,
        );
        let c1 = classify(&desc);
        let c2 = classify(&desc);
        prop_assert_eq!(c1, c2);
        prop_assert!(AppClass::ALL.contains(&c1));
        // Ranking is non-empty and every entry applicable.
        let ranking = hetero_match::matchmaker::ranking(c1, hetero_match::matchmaker::SyncMode::WithoutSync);
        prop_assert!(!ranking.is_empty());
        for s in ranking {
            prop_assert!(s.applicable(c1));
        }
    }
}
