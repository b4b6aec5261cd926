//! The scenario fuzzing harness (DESIGN.md §8.5, PROPERTY-TESTS.md).
//!
//! Every hand-written test in this repository exercises a scenario someone
//! thought of. This module generates the ones nobody thought of: a
//! seed-deterministic [`Scenario`] bundles a random application DAG, a
//! random platform, a random-but-valid fault schedule and an execution
//! config; [`run_oracles`] checks the full invariant bank against it
//! (differential native execution, the blame identity, the adaptive
//! no-regression guarantees, double-run and trace-replay determinism);
//! [`shrink`] greedily minimizes any failing scenario to a small
//! reproducer; and the corpus functions persist failures as JSON under
//! `tests/fuzz_corpus/`, where `tests/fuzz_corpus.rs` replays them as
//! ordinary regression tests.
//!
//! Everything is deterministic: `Scenario::generate(seed)` is a pure
//! function of `seed`, oracle verdicts are pure functions of the scenario,
//! and the campaign summary renders byte-identically across runs — which
//! is itself one of the invariants CI checks.

use crate::descriptor::{AccessPattern, BufferSpec, ExecutionFlow, KernelSpec, SyncPolicy};
use crate::{classify, Analyzer, AppDescriptor, ExecutionConfig, Planner, Strategy};
use hetero_platform::fuzz::{
    chance, gen_fault_schedule, gen_platform_spec, pick, range_f64, PlatformSpec,
};
use hetero_platform::{
    DeviceKind, Efficiency, FaultEvent, FaultRng, FaultSchedule, FaultTrace, KernelProfile,
    Precision, RetryPolicy, SimTime,
};
use hetero_runtime::{
    check_blame_identity, check_identical, run_native, AccessMode, AdaptConfig, BufferId,
    ExecOrder, HealthConfig, HostBuffers, KernelFn, OracleKind, OracleViolation, ReplanConfig,
    TimeBreakdown,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};

/// One generated fuzz scenario: everything needed to reproduce a run. The
/// whole struct serializes to JSON (that is the corpus format), so the
/// platform is stored as a [`PlatformSpec`] and rebuilt on use.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Scenario {
    /// The generator seed this scenario was derived from.
    pub seed: u64,
    /// Human-readable name (`fuzz-<seed>` for generated scenarios).
    pub name: String,
    /// The platform, in buildable/serializable form.
    pub platform: PlatformSpec,
    /// The generated application.
    pub descriptor: AppDescriptor,
    /// The generated fault schedule (valid for `platform`).
    pub schedule: FaultSchedule,
    /// The execution configuration under test.
    pub config: ExecutionConfig,
}

impl Scenario {
    /// Generate the scenario for `seed`: platform, app DAG and config come
    /// straight off the seed's RNG stream; the fault schedule's windows are
    /// sized against the scenario's own healthy makespan so faults land
    /// *inside* the run instead of after it.
    pub fn generate(seed: u64) -> Scenario {
        let mut rng = FaultRng::new(seed);
        let platform_spec = gen_platform_spec(&mut rng);
        let descriptor = gen_descriptor(&mut rng);
        let config = gen_config(&mut rng, &descriptor);
        let platform = platform_spec.build();
        let healthy = Analyzer::new(&platform).simulate(&descriptor, config);
        let horizon = healthy.makespan.max(SimTime::from_micros(10));
        let schedule = gen_fault_schedule(&mut rng, &platform, horizon);
        Scenario {
            seed,
            name: format!("fuzz-{seed:016x}"),
            platform: platform_spec,
            descriptor,
            schedule,
            config,
        }
    }

    /// Whether the scenario is internally consistent: the descriptor
    /// validates, the schedule validates against the platform, and the
    /// config is applicable to the app's class. The shrinker discards any
    /// mutation that breaks this.
    pub fn is_valid(&self) -> bool {
        if self.platform.accels.is_empty() || self.descriptor.validate().is_err() {
            return false;
        }
        if self.schedule.validate_for(&self.platform.build()).is_err() {
            return false;
        }
        match self.config {
            ExecutionConfig::Strategy(s) => s.applicable(classify(&self.descriptor)),
            _ => true,
        }
    }

    /// Total task-instance count of one planned run — the "tasks" a shrunk
    /// reproducer is measured in.
    pub fn task_count(&self) -> usize {
        let platform = self.platform.build();
        let planner = Planner::new(&platform);
        planner
            .plan(&self.descriptor, self.config)
            .program
            .task_count()
    }
}

// ---------------------------------------------------------------------------
// Application generator
// ---------------------------------------------------------------------------

/// Generate a random app descriptor: 1–4 kernels over a shared domain of
/// 256–4096 items, wired as a chain (`Sequence`/`Loop`) or a fork–join
/// `Dag`; buffer `k+1` is written by kernel `k` (Out or InOut), buffer 0 is
/// the input. Item width is 4 or 8 bytes, one kernel may carry per-item
/// weights (the imbalanced-workload path), and the sync policy is drawn at
/// random. The shape mirrors the SK/MK structure of the paper's corpus at
/// fuzz-friendly sizes.
pub fn gen_descriptor(rng: &mut FaultRng) -> AppDescriptor {
    let nk = 1 + pick(rng, 4);
    let domain = 1u64 << (8 + pick(rng, 5)); // 256, 512, …, 4096
    let item_bytes = [4u64, 8][pick(rng, 2)];
    let buffers: Vec<BufferSpec> = (0..=nk)
        .map(|b| BufferSpec {
            name: format!("b{b}"),
            items: domain,
            item_bytes,
        })
        .collect();

    // Flow: chains iterate or run once; a fork–join DAG needs ≥ 3 kernels.
    let flow = match pick(rng, if nk >= 3 { 3 } else { 2 }) {
        0 => ExecutionFlow::Sequence,
        1 => ExecutionFlow::Loop {
            iterations: 2 + pick(rng, 3) as u32,
        },
        _ => {
            let mut edges = Vec::new();
            for mid in 1..nk - 1 {
                edges.push((0, mid));
                edges.push((mid, nk - 1));
            }
            ExecutionFlow::Dag { edges }
        }
    };
    let is_dag = matches!(flow, ExecutionFlow::Dag { .. });

    let mut kernels = Vec::with_capacity(nk);
    for k in 0..nk {
        // Reads: chain position k (or the fork/join buffers for a DAG);
        // writes: buffer k+1.
        let mut accesses = Vec::new();
        if is_dag && k == nk - 1 {
            for mid in 1..nk - 1 {
                accesses.push(AccessPattern::part(mid + 1, AccessMode::In));
            }
        } else if is_dag && k > 0 {
            accesses.push(AccessPattern::part(1, AccessMode::In));
        } else {
            accesses.push(AccessPattern::part(k, AccessMode::In));
            if k > 0 && chance(rng, 0.3) {
                accesses.push(AccessPattern::part(0, AccessMode::In));
            }
        }
        let wmode = if chance(rng, 0.5) {
            AccessMode::Out
        } else {
            AccessMode::InOut
        };
        accesses.push(AccessPattern::part(k + 1, wmode));

        let reads = accesses.len() as f64; // every access moves item_bytes
        kernels.push(KernelSpec {
            name: format!("k{k}"),
            profile: KernelProfile {
                flops_per_item: range_f64(rng, 50.0, 5000.0),
                bytes_per_item: item_bytes as f64 * reads,
                fixed_flops: 0.0,
                fixed_bytes: 0.0,
                precision: Precision::Single,
                cpu_efficiency: Efficiency::uniform(range_f64(rng, 0.2, 0.7)),
                gpu_efficiency: Efficiency::uniform(range_f64(rng, 0.3, 0.8)),
            },
            domain,
            accesses,
            weights: None,
        });
    }

    // One kernel may be imbalanced (kept small so corpus JSON stays small).
    if domain <= 512 && chance(rng, 0.25) {
        let k = pick(rng, nk);
        kernels[k].weights = Some(
            (0..domain)
                .map(|_| range_f64(rng, 0.1, 4.0) as f32)
                .collect(),
        );
    }

    AppDescriptor {
        name: "fuzz-app".into(),
        buffers,
        kernels,
        flow,
        sync: SyncPolicy {
            between_kernels: chance(rng, 0.4),
            between_iterations: chance(rng, 0.6),
        },
    }
}

/// Pick a random execution config applicable to `desc` (both baselines,
/// every applicable strategy, and the §V static→dynamic conversion).
pub fn gen_config(rng: &mut FaultRng, desc: &AppDescriptor) -> ExecutionConfig {
    let class = classify(desc);
    let mut pool = vec![
        ExecutionConfig::OnlyCpu,
        ExecutionConfig::OnlyGpu,
        ExecutionConfig::ConvertedStatic,
    ];
    pool.extend(
        Strategy::ALL
            .iter()
            .filter(|s| s.applicable(class))
            .map(|&s| ExecutionConfig::Strategy(s)),
    );
    pool[pick(rng, pool.len())]
}

// ---------------------------------------------------------------------------
// Native kernels for the differential oracle
// ---------------------------------------------------------------------------

/// Build executable host kernels for a *generated* descriptor. Each kernel
/// computes, for every item `i` of its written buffer's span:
/// `out[i] = c·(Σ inputs[i] [+ out[i] if InOut]) + c + (i mod 97)/8`,
/// replicated across the item's floats with a per-float offset. The op is
/// per-item pure (reads only aligned item `i`), so any partitioning in any
/// execution order must produce identical results — that is exactly the
/// property the differential oracle checks.
pub fn native_kernels(desc: &AppDescriptor) -> Vec<KernelFn<'static>> {
    desc.kernels
        .iter()
        .enumerate()
        .map(|(k, spec)| {
            let ins: Vec<usize> = spec
                .accesses
                .iter()
                .filter(|a| a.mode().reads())
                .map(|a| a.buffer())
                .collect();
            let outs: Vec<usize> = spec
                .accesses
                .iter()
                .filter(|a| a.mode().writes())
                .map(|a| a.buffer())
                .collect();
            // Per-kernel coefficient; < 0.5 keeps chained values bounded.
            let c = 0.25 + 0.03125 * (k % 8) as f32;
            let f: KernelFn<'static> = Box::new(move |hb: &HostBuffers, task| {
                for &o in &outs {
                    let span = task
                        .accesses
                        .iter()
                        .find(|a| a.region.buffer == BufferId(o) && a.mode.writes())
                        .expect("task writes its kernel's output buffer")
                        .region
                        .span;
                    let (s, e) = (span.start as usize, span.end as usize);
                    // Gather input sums first: `get`/`get_mut` on the same
                    // buffer would alias, so the InOut self-read happens
                    // against the mutable borrow below.
                    let mut sums = vec![0f32; e - s];
                    for &ib in ins.iter().filter(|&&ib| ib != o) {
                        let fpi = hb.floats_per_item(BufferId(ib));
                        let buf = hb.get(BufferId(ib));
                        for (i, acc) in sums.iter_mut().enumerate() {
                            *acc += buf[(s + i) * fpi];
                        }
                    }
                    let self_in = ins.contains(&o);
                    let fpo = hb.floats_per_item(BufferId(o));
                    let mut out = hb.get_mut(BufferId(o));
                    for i in s..e {
                        let mut acc = sums[i - s];
                        if self_in {
                            acc += out[i * fpo];
                        }
                        let v = c * acc + c + 0.125 * ((i % 97) as f32);
                        for j in 0..fpo {
                            out[i * fpo + j] = v + j as f32 * 0.25;
                        }
                    }
                }
            });
            f
        })
        .collect()
}

/// Deterministic initial contents for every buffer: exact-in-f32 values so
/// the differential comparison starts from identical bits everywhere.
pub fn native_init(hb: &HostBuffers, n_buffers: usize) {
    for b in 0..n_buffers {
        let mut v = hb.get_mut(BufferId(b));
        for (x, slot) in v.iter_mut().enumerate() {
            *slot = 1.0 + (x % 61) as f32 * 0.015625;
        }
    }
}

// ---------------------------------------------------------------------------
// The oracle bank
// ---------------------------------------------------------------------------

/// Deliberate invariant breaks for self-testing the harness: the fuzzer
/// must be able to catch a bug planted in its own pipeline, and the
/// shrinker-soundness proptest shrinks against these. `NONE` for real
/// fuzzing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct InjectedBreak {
    /// Zero the largest blame component before the identity check —
    /// simulates an executor path that forgets to account a category.
    pub skip_blame_component: bool,
    /// Perturb the second run's makespan before the double-run comparison —
    /// simulates hidden nondeterminism.
    pub break_double_run: bool,
    /// Perturb the first resumed report's makespan before the crash–resume
    /// comparison — simulates a resume that reconstructs the wrong state.
    pub break_resume: bool,
    /// Drop the final run-end snapshot line before folding the metrics
    /// stream — simulates an observer that loses a delta, so the folded
    /// registry misses the run-end-only series.
    pub break_stream_fold: bool,
    /// Drop the last terminal outcome before the shed-or-serve check —
    /// simulates a service that silently loses a request under overload.
    pub break_service: bool,
    /// Panic inside the bank, before its first simulated run — simulates
    /// an executor that crashes on an internal assert.
    pub panic_in_bank: bool,
}

impl InjectedBreak {
    /// No injected breaks (real fuzzing).
    pub const NONE: InjectedBreak = InjectedBreak {
        skip_blame_component: false,
        break_double_run: false,
        break_resume: false,
        break_stream_fold: false,
        break_service: false,
        panic_in_bank: false,
    };
}

/// Zero the largest component in the breakdown (used by
/// [`InjectedBreak::skip_blame_component`]). Returns `false` if every
/// component is already zero.
fn zero_largest_component(bd: &mut TimeBreakdown) -> bool {
    let mut best: Option<(usize, &'static str, SimTime)> = None;
    for (d, b) in bd.per_device.iter().enumerate() {
        for (name, v) in b.components() {
            if best.is_none_or(|(_, _, bv)| v > bv) {
                best = Some((d, name, v));
            }
        }
    }
    let Some((d, name, v)) = best else {
        return false;
    };
    if v == SimTime::ZERO {
        return false;
    }
    let b = &mut bd.per_device[d];
    match name {
        "compute" => b.compute = SimTime::ZERO,
        "transfer" => b.transfer = SimTime::ZERO,
        "link_degraded" => b.link_degraded = SimTime::ZERO,
        "scheduling" => b.scheduling = SimTime::ZERO,
        "adaptation" => b.adaptation = SimTime::ZERO,
        "replan" => b.replan = SimTime::ZERO,
        "fault_loss" => b.fault_loss = SimTime::ZERO,
        "hedge_waste" => b.hedge_waste = SimTime::ZERO,
        "rollback" => b.rollback = SimTime::ZERO,
        "verify" => b.verify = SimTime::ZERO,
        "dead" => b.dead = SimTime::ZERO,
        "idle" => b.idle = SimTime::ZERO,
        _ => unreachable!("components() names are exhaustive"),
    }
    true
}

/// The static-hybrid strategies the adaptive controller can actually
/// correct (it rebalances their pinned chunks; dynamic strategies have
/// none).
fn is_static_hybrid(config: ExecutionConfig) -> bool {
    matches!(
        config,
        ExecutionConfig::Strategy(Strategy::SpSingle)
            | ExecutionConfig::Strategy(Strategy::SpUnified)
            | ExecutionConfig::Strategy(Strategy::SpVaried)
    )
}

/// Run the full oracle bank on `scenario`, returning every violation plus
/// per-oracle check counts (for the campaign summary). A panic propagates;
/// [`run_oracles`] and [`fuzz_campaign`] catch it as a `no-panic`
/// violation.
pub fn run_oracles_counted(
    scenario: &Scenario,
    inject: &InjectedBreak,
) -> (Vec<OracleViolation>, BTreeMap<&'static str, u64>) {
    let mut violations = Vec::new();
    let mut checks: BTreeMap<&'static str, u64> = BTreeMap::new();
    let count = |k: OracleKind, checks: &mut BTreeMap<&'static str, u64>| {
        *checks.entry(k.name()).or_insert(0) += 1;
    };
    let platform = scenario.platform.build();
    let analyzer = Analyzer::new(&platform);
    let planner = Planner::new(&platform);
    let desc = &scenario.descriptor;
    let config = scenario.config;
    let policy = RetryPolicy::default();

    // (a) Differential: simulated plan lowerings execute natively to the
    // same result as the whole-domain reference, in both execution orders.
    count(OracleKind::Differential, &mut checks);
    {
        let kernels = native_kernels(desc);
        let run = |config: ExecutionConfig, order: ExecOrder| -> Vec<Vec<f32>> {
            let plan = planner.plan(desc, config);
            let hb = HostBuffers::for_program(&plan.program);
            native_init(&hb, desc.buffers.len());
            run_native(&plan.program, &kernels, &hb, order);
            (0..desc.buffers.len())
                .map(|b| hb.snapshot(BufferId(b)))
                .collect()
        };
        let reference = run(ExecutionConfig::OnlyGpu, ExecOrder::Submission);
        'orders: for order in [ExecOrder::Submission, ExecOrder::ReadyLifo] {
            let got = run(config, order);
            for (b, (g, w)) in got.iter().zip(&reference).enumerate() {
                for (i, (x, y)) in g.iter().zip(w).enumerate() {
                    if (x - y).abs() > 1e-4 * y.abs().max(1.0) {
                        violations.push(OracleViolation::new(
                            OracleKind::Differential,
                            format!(
                                "{config} ({order:?}): buffer {b} item {i}: {x} vs reference {y}"
                            ),
                        ));
                        break 'orders;
                    }
                }
            }
        }
    }

    if inject.panic_in_bank {
        panic!("planted panic inside the oracle bank");
    }

    // (b) Blame identity on the healthy and the faulty path, plus
    // (d) double-run determinism of the faulty path.
    let faulty = analyzer.simulate_faulty(desc, config, &scenario.schedule, policy);
    {
        count(OracleKind::BlameIdentity, &mut checks);
        let healthy = analyzer.simulate(desc, config);
        if let Err(v) = check_blame_identity(&healthy) {
            violations.push(v);
        }
        count(OracleKind::BlameIdentity, &mut checks);
        let mut blamed = faulty.clone();
        if inject.skip_blame_component {
            zero_largest_component(&mut blamed.breakdown);
        }
        if let Err(v) = check_blame_identity(&blamed) {
            violations.push(v);
        }

        count(OracleKind::DoubleRunDeterminism, &mut checks);
        let mut second = analyzer.simulate_faulty(desc, config, &scenario.schedule, policy);
        if inject.break_double_run {
            second.makespan += SimTime::from_nanos(1);
        }
        if let Err(v) = check_identical(
            OracleKind::DoubleRunDeterminism,
            "faulty double run",
            &faulty,
            &second,
        ) {
            violations.push(v);
        }
    }

    // (d) FaultTrace record/replay determinism: the disturbance the faulty
    // run recorded, replayed with triggering disabled, reproduces the run.
    count(OracleKind::ReplayDeterminism, &mut checks);
    {
        let trace = FaultTrace::new(scenario.schedule.clone(), faulty.synthesized_faults.clone());
        match FaultTrace::from_json(&trace.to_json()) {
            Err(e) => violations.push(OracleViolation::new(
                OracleKind::ReplayDeterminism,
                format!("trace JSON round-trip failed: {e}"),
            )),
            Ok(parsed) if parsed != trace => violations.push(OracleViolation::new(
                OracleKind::ReplayDeterminism,
                "trace JSON round-trip changed the trace",
            )),
            Ok(parsed) => {
                let replayed =
                    analyzer.simulate_faulty(desc, config, &parsed.replay_schedule(), policy);
                if replayed.makespan != faulty.makespan
                    || replayed.breakdown != faulty.breakdown
                    || replayed.faults.task_faults != faulty.faults.task_faults
                    || replayed.faults.failovers != faulty.faults.failovers
                {
                    violations.push(OracleViolation::new(
                        OracleKind::ReplayDeterminism,
                        format!(
                            "replay diverged: makespan {} vs {}, task_faults {} vs {}",
                            replayed.makespan,
                            faulty.makespan,
                            replayed.faults.task_faults,
                            faulty.faults.task_faults
                        ),
                    ));
                } else if replayed.faults.correlated_triggers != 0 {
                    violations.push(OracleViolation::new(
                        OracleKind::ReplayDeterminism,
                        "replay re-triggered correlated faults",
                    ));
                }
            }
        }
    }

    // (c) Adaptive no-regression oracles, on the ProfilePerturb-only slice
    // of the schedule (the misprediction envelope PR 3/5 prove the
    // guarantees for) and only for static hybrid strategies — the only
    // plans the controller can rebalance.
    // The perturbation windows are normalized to whole-run span: the
    // misprediction planner samples `profile_factor` at t=0 (a window that
    // opens later never mispredicts the plan), and the no-regression
    // theorems are stated for a *persistently* wrong profile, not one that
    // flickers mid-run.
    let perturb: Vec<FaultEvent> = scenario
        .schedule
        .events
        .iter()
        .filter_map(|e| match e {
            FaultEvent::ProfilePerturb { dev, factor, .. } => Some(FaultEvent::ProfilePerturb {
                dev: *dev,
                factor: *factor,
                from: SimTime::ZERO,
                until: SimTime::MAX,
            }),
            _ => None,
        })
        .collect();
    if !perturb.is_empty() && is_static_hybrid(config) {
        let pschedule = FaultSchedule {
            seed: scenario.schedule.seed,
            events: perturb.clone(),
            domains: Vec::new(),
            synthesized_after: None,
        };
        let health = HealthConfig::disabled();

        count(OracleKind::AdaptiveNeverLoses, &mut checks);
        let mis = analyzer.simulate_adaptive(
            desc,
            config,
            &pschedule,
            policy,
            &health,
            &AdaptConfig::disabled(),
        );
        let adaptive = analyzer.simulate_adaptive(
            desc,
            config,
            &pschedule,
            policy,
            &health,
            &AdaptConfig {
                escalation: false,
                ..AdaptConfig::enabled_default()
            },
        );
        if adaptive.makespan.as_secs_f64() > mis.makespan.as_secs_f64() * (1.0 + 1e-9) {
            violations.push(OracleViolation::new(
                OracleKind::AdaptiveNeverLoses,
                format!(
                    "adaptive {} > mispredicted {}",
                    adaptive.makespan, mis.makespan
                ),
            ));
        }
        if let Err(v) = check_blame_identity(&adaptive) {
            violations.push(v);
        }

        // De-escalation is proven for *severely* under-estimated devices
        // (the stale profile drowns a device; see `correlated_faults.rs`):
        // gate on every factor ≤ 0.5. Mild skews (0.5..1.0) can make the
        // reinstated static plan and the escalated one trade places within
        // noise, which is outside the guarantee.
        let underestimated = perturb.iter().all(|e| match e {
            FaultEvent::ProfilePerturb { factor, .. } => *factor <= 0.5,
            _ => true,
        });
        if underestimated {
            count(OracleKind::DeescalationNeverLoses, &mut checks);
            let stay = AdaptConfig {
                repartition: false,
                max_resolves: 1,
                reinstate_after: 0,
                ..AdaptConfig::enabled_default()
            };
            let stayed =
                analyzer.simulate_adaptive(desc, config, &pschedule, policy, &health, &stay);
            let deescalated = analyzer.simulate_adaptive(
                desc,
                config,
                &pschedule,
                policy,
                &health,
                &AdaptConfig {
                    reinstate_after: 2,
                    ..stay
                },
            );
            if deescalated.makespan.as_secs_f64() > stayed.makespan.as_secs_f64() * (1.0 + 1e-9) {
                violations.push(OracleViolation::new(
                    OracleKind::DeescalationNeverLoses,
                    format!(
                        "de-escalated {} > stayed escalated {}",
                        deescalated.makespan, stayed.makespan
                    ),
                ));
            }
        }
    }

    // The permanent-dropout slice of the schedule, kept only for static
    // hybrid strategies: oracles (e) and (f) run their repairing runs on it.
    let dropouts: Vec<FaultEvent> = scenario
        .schedule
        .events
        .iter()
        .filter(|e| matches!(e, FaultEvent::DeviceDropout { .. }))
        .cloned()
        .collect();
    let dschedule = (!dropouts.is_empty() && is_static_hybrid(config)).then(|| FaultSchedule {
        seed: scenario.schedule.seed,
        events: dropouts,
        domains: Vec::new(),
        synthesized_after: None,
    });

    // (e) Plan repair never loses to naive host failover, on the
    // permanent-dropout slice (the envelope PR 7 proves the guard for:
    // repair applies a rebinding only when the model predicts it strictly
    // beats the chunk-by-chunk failover of the same wave) and only for
    // static hybrid strategies — dynamic chunks are re-placed by the
    // scheduler and repair leaves them alone.
    if let Some(dschedule) = &dschedule {
        let health = HealthConfig::disabled();
        count(OracleKind::RepairNeverLoses, &mut checks);
        let naive = analyzer.simulate_resilient(desc, config, dschedule, policy, &health);
        // Adaptation stays off so the only delta between the runs is the
        // repair subsystem itself.
        // The repair subsystem giving up (budget exhausted, nothing to
        // re-plan onto) is the documented fall-back to naive failover, not
        // a regression — the guarantee covers applied repairs (the `Ok`s).
        if let Ok(repaired) = analyzer.simulate_repairing(
            desc,
            config,
            dschedule,
            policy,
            &health,
            &AdaptConfig::disabled(),
            &ReplanConfig::enabled_default(),
        ) {
            if repaired.makespan.as_secs_f64() > naive.makespan.as_secs_f64() * (1.0 + 1e-9) {
                violations.push(OracleViolation::new(
                    OracleKind::RepairNeverLoses,
                    format!(
                        "repaired {} > naive failover {}",
                        repaired.makespan, naive.makespan
                    ),
                ));
            }
            if let Err(v) = check_blame_identity(&repaired) {
                violations.push(v);
            }
        }
    }

    // (f) Crash–resume equivalence: a journaled run must be byte-identical
    // to its unjournaled twin, and for every kill point — after each
    // committed record (the last one additionally torn) plus one mid-run
    // time kill — crash + resume must reproduce the uninterrupted run's
    // report *and* regenerate the identical journal text. Checked on the
    // faulty path always, and on the repairing path when the schedule
    // carries a permanent dropout (crash × plan-repair).
    {
        use hetero_platform::KillSchedule;
        use hetero_runtime::RunSpec;
        use hetero_runtime::{JournalError, JournalSink, RunReport};

        let check_crash = |spec: &RunSpec,
                           what: &str,
                           twin: Option<&RunReport>,
                           violations: &mut Vec<OracleViolation>,
                           checks: &mut BTreeMap<&'static str, u64>| {
            *checks
                .entry(OracleKind::CrashResumeEquivalence.name())
                .or_insert(0) += 1;
            let mut full = JournalSink::record();
            let reference = match analyzer.simulate_journaled(desc, config, spec, &mut full) {
                Ok(r) => r,
                Err(e) => {
                    violations.push(OracleViolation::new(
                        OracleKind::CrashResumeEquivalence,
                        format!("{what}: uninterrupted journaled run failed: {e}"),
                    ));
                    return;
                }
            };
            if let Some(twin) = twin {
                if let Err(v) = check_identical(
                    OracleKind::CrashResumeEquivalence,
                    &format!("{what}: journaled vs unjournaled"),
                    twin,
                    &reference,
                ) {
                    violations.push(v);
                    return;
                }
            }
            let full_text = full.text();
            let records = full.records();
            let mut kills: Vec<(String, KillSchedule)> = (0..records)
                .map(|k| {
                    (
                        format!("killed after {k} records"),
                        KillSchedule::after_records(k),
                    )
                })
                .collect();
            if records > 0 {
                kills.push((
                    format!("killed torn after {} records", records - 1),
                    KillSchedule::after_records(records - 1).torn(),
                ));
            }
            kills.push((
                "killed mid-run".into(),
                KillSchedule::at_time(reference.makespan / 2),
            ));
            for (i, (label, kill)) in kills.into_iter().enumerate() {
                let mut sink = JournalSink::record_with_kill(kill);
                match analyzer.simulate_journaled(desc, config, spec, &mut sink) {
                    Err(JournalError::Killed { .. }) => {}
                    // A kill point past the end of the run never fires; the
                    // complete journal must still resume cleanly below.
                    Ok(_) => {}
                    Err(e) => {
                        violations.push(OracleViolation::new(
                            OracleKind::CrashResumeEquivalence,
                            format!("{what} ({label}): journaled run failed: {e}"),
                        ));
                        continue;
                    }
                }
                match analyzer.resume(&sink.text()) {
                    Err(e) => violations.push(OracleViolation::new(
                        OracleKind::CrashResumeEquivalence,
                        format!("{what} ({label}): resume failed: {e}"),
                    )),
                    Ok((mut resumed, resumed_text)) => {
                        if inject.break_resume && i == 0 {
                            resumed.makespan += SimTime::from_nanos(1);
                        }
                        if let Err(v) = check_identical(
                            OracleKind::CrashResumeEquivalence,
                            &format!("{what} ({label})"),
                            &reference,
                            &resumed,
                        ) {
                            violations.push(v);
                        } else if resumed_text != full_text {
                            violations.push(OracleViolation::new(
                                OracleKind::CrashResumeEquivalence,
                                format!("{what} ({label}): regenerated journal text diverges"),
                            ));
                        }
                    }
                }
            }
        };

        check_crash(
            &RunSpec::faulty(scenario.schedule.clone()),
            "faulty",
            Some(&faulty),
            &mut violations,
            &mut checks,
        );
        if let Some(dschedule) = dschedule {
            check_crash(
                &RunSpec::repairing(
                    dschedule,
                    HealthConfig::disabled(),
                    AdaptConfig::disabled(),
                    ReplanConfig::enabled_default(),
                ),
                "repairing",
                None,
                &mut violations,
                &mut checks,
            );
        }
    }

    // (g) Stream-fold equivalence: folding the per-epoch `EpochSnapshot`
    // delta stream emitted by a `SnapshotObserver` reproduces the
    // end-of-run `MetricsRegistry` JSON byte-for-byte, on every execution
    // path this scenario can exercise (plain, faulty, resilient always;
    // adaptive and repairing for static hybrid configs, where the
    // controller and re-planner apply). The runs with the health layer on
    // (resilient and up) are also held to the blame identity: no other
    // oracle runs hedging, verification and the breaker.
    {
        use hetero_runtime::fold_stream;
        use hetero_runtime::{RunMode, RunSpec};

        let mut first_stream_check = true;
        let mut check_stream =
            |spec: &RunSpec,
             what: &str,
             violations: &mut Vec<OracleViolation>,
             checks: &mut BTreeMap<&'static str, u64>| {
                *checks
                    .entry(OracleKind::StreamFoldEquivalence.name())
                    .or_insert(0) += 1;
                let break_here = inject.break_stream_fold && first_stream_check;
                first_stream_check = false;
                match analyzer.simulate_streamed(desc, config, spec) {
                    Err(e) => violations.push(OracleViolation::new(
                        OracleKind::StreamFoldEquivalence,
                        format!("{what}: streamed run failed: {e}"),
                    )),
                    Ok((report, obs)) => {
                        if !matches!(spec.mode, RunMode::Plain | RunMode::Faulty) {
                            *checks.entry(OracleKind::BlameIdentity.name()).or_insert(0) += 1;
                            if let Err(v) = check_blame_identity(&report) {
                                violations.push(v);
                            }
                        }
                        let mut stream = obs.stream();
                        if break_here {
                            // Lose the final (run-end) delta line.
                            let cut = stream
                                .trim_end_matches('\n')
                                .rfind('\n')
                                .map(|i| i + 1)
                                .unwrap_or(0);
                            stream.truncate(cut);
                        }
                        match fold_stream(&stream) {
                            Err(e) => violations.push(OracleViolation::new(
                                OracleKind::StreamFoldEquivalence,
                                format!("{what}: stream does not fold: {e}"),
                            )),
                            Ok(folded) => {
                                let (fa, fb) = (folded.to_json(), obs.registry().to_json());
                                if fa != fb {
                                    let at = fa
                                        .bytes()
                                        .zip(fb.bytes())
                                        .position(|(x, y)| x != y)
                                        .unwrap_or_else(|| fa.len().min(fb.len()));
                                    let lo = at.saturating_sub(40);
                                    violations.push(OracleViolation::new(
                                        OracleKind::StreamFoldEquivalence,
                                        format!(
                                            "{what}: folded stream diverges from the end-of-run \
                                         registry at byte {at}: fold ..{:?}.. vs registry \
                                         ..{:?}..",
                                            &fa[lo..fa.len().min(at + 40)],
                                            &fb[lo..fb.len().min(at + 40)],
                                        ),
                                    ));
                                }
                            }
                        }
                    }
                }
            };

        check_stream(&RunSpec::plain(), "plain", &mut violations, &mut checks);
        check_stream(
            &RunSpec::faulty(scenario.schedule.clone()),
            "faulty",
            &mut violations,
            &mut checks,
        );
        check_stream(
            &RunSpec::resilient(scenario.schedule.clone(), HealthConfig::monitored()),
            "resilient",
            &mut violations,
            &mut checks,
        );
        if is_static_hybrid(config) {
            check_stream(
                &RunSpec::adaptive(
                    scenario.schedule.clone(),
                    HealthConfig::monitored(),
                    AdaptConfig::enabled_default(),
                ),
                "adaptive",
                &mut violations,
                &mut checks,
            );
            check_stream(
                &RunSpec::repairing(
                    scenario.schedule.clone(),
                    HealthConfig::monitored(),
                    AdaptConfig::disabled(),
                    ReplanConfig::enabled_default(),
                ),
                "repairing",
                &mut violations,
                &mut checks,
            );
        }
    }

    // (h) Shed-or-serve: a small chaos-burst service load seeded from the
    // scenario's fault seed, run twice on the scenario's platform. Every
    // arrival must get exactly one terminal response, in arrival order,
    // never before it arrived — and the two same-seed runs must agree
    // byte-for-byte on both the responses and the metrics registry.
    count(OracleKind::ShedOrServe, &mut checks);
    {
        use crate::service::{
            check_shed_or_serve, encode_response, generate_load, ChaosSchedule, LoadConfig,
            PlanService, ServiceConfig,
        };
        let seed = scenario.schedule.seed;
        let load = LoadConfig {
            requests: 48,
            seed,
            ..LoadConfig::default()
        };
        let span = SimTime::from_micros(load.requests * load.mean_gap_us);
        let chaos = ChaosSchedule::burst(seed, 10, span);
        let arrivals = generate_load(&load, &chaos);
        // A deliberately tight pool so the burst actually queues and sheds.
        let svc_cfg = ServiceConfig {
            workers: 2,
            queue_capacity: 8,
            degrade_depth: 4,
            ..ServiceConfig::default()
        };
        let mut s1 = PlanService::new(&platform, svc_cfg.clone(), chaos.clone());
        let mut o1 = s1.run(&arrivals);
        if inject.break_service {
            o1.pop();
        }
        if let Err(v) = check_shed_or_serve(arrivals.len(), &o1) {
            violations.push(v);
        }
        let mut s2 = PlanService::new(&platform, svc_cfg, chaos);
        let o2 = s2.run(&arrivals);
        let wire = |outs: &[crate::service::ServiceOutcome]| {
            outs.iter()
                .map(|o| encode_response(&o.result))
                .collect::<Vec<_>>()
                .join("\n")
        };
        if wire(&o1) != wire(&o2) {
            violations.push(OracleViolation::new(
                OracleKind::ShedOrServe,
                "same-seed service runs answered differently",
            ));
        } else if s1.registry().to_json() != s2.registry().to_json() {
            violations.push(OracleViolation::new(
                OracleKind::ShedOrServe,
                "same-seed service runs exported different metrics",
            ));
        }
    }

    (violations, checks)
}

/// [`run_oracles_counted`] under `catch_unwind`: a panic anywhere in the
/// bank becomes one [`OracleKind::NoPanic`] violation carrying the panic
/// message, with no check counts.
fn run_bank(
    scenario: &Scenario,
    inject: &InjectedBreak,
) -> (Vec<OracleViolation>, BTreeMap<&'static str, u64>) {
    std::panic::catch_unwind(AssertUnwindSafe(|| run_oracles_counted(scenario, inject)))
        .unwrap_or_else(|payload| {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic with a non-string payload".to_string());
            (
                vec![OracleViolation::new(OracleKind::NoPanic, message)],
                BTreeMap::new(),
            )
        })
}

/// The oracle bank's violations on `scenario`, a panic included (the
/// shrinker's predicate).
pub fn run_oracles(scenario: &Scenario, inject: &InjectedBreak) -> Vec<OracleViolation> {
    run_bank(scenario, inject).0
}

/// The result of fuzzing one seed — also the return type of
/// [`Analyzer::fuzz_one`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FuzzOutcome {
    /// The generated scenario.
    pub scenario: Scenario,
    /// Oracle violations (empty = the seed passes).
    pub violations: Vec<OracleViolation>,
}

/// Generate and check a single seed.
pub fn run_seed(seed: u64, inject: &InjectedBreak) -> FuzzOutcome {
    let scenario = Scenario::generate(seed);
    let violations = run_oracles(&scenario, inject);
    FuzzOutcome {
        scenario,
        violations,
    }
}

impl Analyzer<'_> {
    /// Fuzz a single seed: generate the scenario (its own platform, app,
    /// schedule and config) and run the full oracle bank. The entry point
    /// behind `matchmake fuzz`; see `matchmaker::fuzz` for the campaign
    /// driver, the shrinker and the corpus.
    pub fn fuzz_one(seed: u64) -> FuzzOutcome {
        run_seed(seed, &InjectedBreak::NONE)
    }
}

// ---------------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------------

/// All one-step simplifications of `scenario`, most aggressive first. The
/// shrinker accepts a candidate only if it remains valid and still fails
/// the same oracle.
fn candidates(cur: &Scenario) -> Vec<Scenario> {
    let mut out = Vec::new();
    let push = |out: &mut Vec<Scenario>, f: &dyn Fn(&mut Scenario)| {
        let mut c = cur.clone();
        f(&mut c);
        out.push(c);
    };

    // Drop the whole disturbance, then individual events.
    if !cur.schedule.events.is_empty() || !cur.schedule.domains.is_empty() {
        push(&mut out, &|c| {
            c.schedule.events.clear();
            c.schedule.domains.clear();
        });
    }
    for i in 0..cur.schedule.events.len() {
        push(&mut out, &|c| {
            c.schedule.events.remove(i);
        });
    }

    // Drop the last accelerator. Any event or domain naming a removed
    // device goes with it (a domain below two members dissolves, taking
    // its outage events along).
    if cur.platform.accels.len() >= 2 {
        push(&mut out, &|c| {
            c.platform.accels.pop();
            let n = c.platform.device_count();
            let names_removed = |e: &FaultEvent| match e {
                FaultEvent::TaskFaults { dev: Some(d), .. }
                | FaultEvent::DeviceDropout { dev: d, .. }
                | FaultEvent::ThrottleRamp { dev: d, .. }
                | FaultEvent::SilentCorruption { dev: d, .. }
                | FaultEvent::Flaky { dev: d, .. }
                | FaultEvent::ProfilePerturb { dev: d, .. }
                | FaultEvent::LinkDegrade { dev: d, .. } => d.0 >= n,
                _ => false,
            };
            c.schedule.events.retain(|e| !names_removed(e));
            for d in &mut c.schedule.domains {
                d.members.retain(|m| m.0 < n);
            }
            if c.schedule.domains.iter().any(|d| d.members.len() < 2) {
                c.schedule.domains.clear();
                c.schedule
                    .events
                    .retain(|e| !matches!(e, FaultEvent::DomainOutage { .. }));
            }
        });
    }

    // Shrink the CPU to one core / one thread. The planner sizes the task
    // pool from the CPU's thread count (2× for static configs, 8× for the
    // dynamic strategies), so the reproducer's task count falls with it.
    if !matches!(
        cur.platform.cpu.kind,
        DeviceKind::Cpu {
            cores: 1,
            threads: 1
        }
    ) {
        push(&mut out, &|c| {
            c.platform.cpu.kind = DeviceKind::Cpu {
                cores: 1,
                threads: 1,
            };
        });
    }

    // Swap to the simplest config: Only-CPU plans just 2×threads tasks and
    // exercises none of the partitioning machinery.
    if cur.config != ExecutionConfig::OnlyCpu {
        push(&mut out, &|c| {
            c.config = ExecutionConfig::OnlyCpu;
        });
    }

    // Remove one kernel (and its buffer stays as plain initial data).
    if cur.descriptor.kernels.len() >= 2 {
        for k in 0..cur.descriptor.kernels.len() {
            push(&mut out, &|c| {
                let nk = c.descriptor.kernels.len();
                c.descriptor.kernels.remove(k);
                // Rewire chain reads: any In access pointing at removed
                // kernel's output keeps reading the (now initial) buffer —
                // still valid. DAG edges need reindexing.
                if let ExecutionFlow::Dag { edges } = &mut c.descriptor.flow {
                    edges.retain(|&(a, b)| a != k && b != k);
                    for e in edges.iter_mut() {
                        if e.0 > k {
                            e.0 -= 1;
                        }
                        if e.1 > k {
                            e.1 -= 1;
                        }
                    }
                    if nk - 1 < 3 || edges.is_empty() {
                        c.descriptor.flow = ExecutionFlow::Sequence;
                    }
                }
                // Shift every access past the removed kernel's output
                // buffer down by one, and drop that buffer.
                let removed_buf = k + 1;
                c.descriptor.buffers.remove(removed_buf);
                for kk in &mut c.descriptor.kernels {
                    kk.accesses.retain(|a| a.buffer() != removed_buf);
                    for a in &mut kk.accesses {
                        let (AccessPattern::Partitioned { buffer, .. }
                        | AccessPattern::Full { buffer, .. }) = a;
                        if *buffer > removed_buf {
                            *buffer -= 1;
                        }
                    }
                }
                // A kernel must still write something; if its write access
                // was dropped, re-point it at the last buffer.
                let last = c.descriptor.buffers.len() - 1;
                for kk in &mut c.descriptor.kernels {
                    if !kk.accesses.iter().any(|a| a.mode().writes()) {
                        kk.accesses.push(AccessPattern::part(last, AccessMode::Out));
                    }
                }
            });
        }
    }

    // Halve the domain (and buffers with it).
    if cur.descriptor.kernels.iter().any(|k| k.domain > 64) {
        push(&mut out, &|c| {
            for k in &mut c.descriptor.kernels {
                k.domain = (k.domain / 2).max(64);
                if let Some(w) = &mut k.weights {
                    w.truncate(k.domain as usize);
                }
            }
            let dom = c.descriptor.kernels.iter().map(|k| k.domain).max().unwrap();
            for b in &mut c.descriptor.buffers {
                b.items = dom;
            }
        });
    }

    // Drop weights, halve loop iterations, drop sync.
    if cur.descriptor.kernels.iter().any(|k| k.weights.is_some()) {
        push(&mut out, &|c| {
            for k in &mut c.descriptor.kernels {
                k.weights = None;
            }
        });
    }
    if let ExecutionFlow::Loop { iterations } = cur.descriptor.flow {
        if iterations > 1 {
            push(&mut out, &|c| {
                c.descriptor.flow = ExecutionFlow::Loop {
                    iterations: (iterations / 2).max(1),
                };
            });
        }
    }
    if cur.descriptor.sync.any() {
        push(&mut out, &|c| {
            c.descriptor.sync = SyncPolicy::NONE;
        });
    }

    out
}

/// Greedily shrink a failing scenario: repeatedly apply the first
/// simplification (drop fault events, drop devices, drop kernels, halve
/// sizes…) under which the scenario stays valid and `fails` still reports
/// the `target` oracle, until a fixpoint or `max_attempts` candidate
/// evaluations. Returns the shrunk scenario and the number of evaluations
/// spent.
pub fn shrink(
    scenario: &Scenario,
    target: OracleKind,
    max_attempts: usize,
    fails: &dyn Fn(&Scenario) -> Vec<OracleViolation>,
) -> (Scenario, usize) {
    let mut cur = scenario.clone();
    let mut attempts = 0;
    'outer: loop {
        for cand in candidates(&cur) {
            if attempts >= max_attempts {
                break 'outer;
            }
            if !cand.is_valid() {
                continue;
            }
            attempts += 1;
            if fails(&cand).iter().any(|v| v.oracle == target) {
                cur = cand;
                continue 'outer;
            }
        }
        break;
    }
    (cur, attempts)
}

// ---------------------------------------------------------------------------
// Corpus persistence
// ---------------------------------------------------------------------------

/// One archived scenario: a shrunk fuzz failure (after the underlying bug
/// is fixed, it documents the regression) or a hand-picked interesting
/// scenario. `tests/fuzz_corpus.rs` replays every entry and requires the
/// full oracle bank to pass.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CorpusEntry {
    /// What this scenario is / was (shown in test failures).
    pub description: String,
    /// The oracle the scenario originally failed (`None` for hand-seeded
    /// interesting scenarios).
    pub oracle: Option<OracleKind>,
    /// The scenario itself.
    pub scenario: Scenario,
}

/// Canonical corpus file name for a failure: `fuzz-<oracle>-<seed>.json`.
pub fn corpus_file_name(oracle: OracleKind, seed: u64) -> String {
    format!("fuzz-{}-{seed:016x}.json", oracle.name())
}

/// Write a corpus entry as pretty JSON into `dir` (created if missing),
/// returning the path.
pub fn save_corpus_entry(dir: &Path, name: &str, entry: &CorpusEntry) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    let mut json = serde_json::to_string_pretty(entry).expect("corpus entries serialize");
    json.push('\n');
    std::fs::write(&path, json)?;
    Ok(path)
}

/// Load every `*.json` corpus entry under `dir`, sorted by file name (so
/// replay order is deterministic). A missing directory is an empty corpus.
pub fn load_corpus(dir: &Path) -> Vec<(PathBuf, CorpusEntry)> {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut paths: Vec<PathBuf> = rd
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(&p)
                .unwrap_or_else(|e| panic!("corpus entry {}: {e}", p.display()));
            let entry: CorpusEntry = serde_json::from_str(&text)
                .unwrap_or_else(|e| panic!("corpus entry {}: {e}", p.display()));
            (p, entry)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Campaign driver
// ---------------------------------------------------------------------------

/// Configuration of a fuzz campaign (`matchmake fuzz`).
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Number of seeds to fuzz.
    pub iters: u64,
    /// Base seed; iteration `i` fuzzes `splitmix(base_seed + i)`.
    pub base_seed: u64,
    /// Shrink failures to minimal reproducers.
    pub shrink: bool,
    /// Where to persist failing scenarios (`None` = don't persist).
    pub corpus: Option<PathBuf>,
    /// Deliberate invariant breaks (harness self-test).
    pub inject: InjectedBreak,
    /// Stop the campaign after this many failures (0 = unlimited).
    pub max_failures: usize,
}

impl FuzzConfig {
    /// A campaign over `iters` seeds from `base_seed`, no shrinking, no
    /// corpus, no injection, stopping after 5 failures.
    pub fn new(iters: u64, base_seed: u64) -> Self {
        FuzzConfig {
            iters,
            base_seed,
            shrink: false,
            corpus: None,
            inject: InjectedBreak::NONE,
            max_failures: 5,
        }
    }
}

/// One recorded campaign failure.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FuzzFailure {
    /// The failing seed.
    pub seed: u64,
    /// The first violated oracle (the shrink target).
    pub oracle: OracleKind,
    /// The original violation detail.
    pub detail: String,
    /// Kernel count of the (shrunk) reproducer.
    pub kernels: usize,
    /// Device count of the (shrunk) reproducer.
    pub devices: usize,
    /// Task-instance count of the (shrunk) reproducer's plan.
    pub tasks: usize,
    /// Corpus file the reproducer was written to, if any.
    pub corpus_file: Option<String>,
}

/// The deterministic result of a fuzz campaign. [`FuzzReport::summary`]
/// renders byte-identically for identical configs — CI diffs two runs.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FuzzReport {
    /// Seeds fuzzed (may be fewer than requested if `max_failures` hit).
    pub scenarios: u64,
    /// Requested iteration count.
    pub iters: u64,
    /// The campaign base seed.
    pub base_seed: u64,
    /// Oracle-check counts by oracle name.
    pub checks: BTreeMap<String, u64>,
    /// Every failure, in seed order.
    pub failures: Vec<FuzzFailure>,
}

impl FuzzReport {
    /// Render the deterministic campaign summary.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "fuzz campaign: iters={} base_seed={:#x} scenarios={}\n",
            self.iters, self.base_seed, self.scenarios
        );
        out.push_str("checks:");
        for (name, n) in &self.checks {
            out.push_str(&format!(" {name}={n}"));
        }
        out.push('\n');
        out.push_str(&format!("failures: {}\n", self.failures.len()));
        for (i, f) in self.failures.iter().enumerate() {
            out.push_str(&format!(
                "failure[{i}]: seed={:#018x} oracle={} kernels={} devices={} tasks={}{}\n  {}\n",
                f.seed,
                f.oracle,
                f.kernels,
                f.devices,
                f.tasks,
                f.corpus_file
                    .as_deref()
                    .map(|p| format!(" corpus={p}"))
                    .unwrap_or_default(),
                f.detail,
            ));
        }
        out
    }
}

/// Run a fuzz campaign: generate + check `iters` seeds, optionally shrink
/// each failure to a minimal reproducer and persist it to the corpus.
pub fn fuzz_campaign(cfg: &FuzzConfig) -> FuzzReport {
    let mut report = FuzzReport {
        scenarios: 0,
        iters: cfg.iters,
        base_seed: cfg.base_seed,
        checks: BTreeMap::new(),
        failures: Vec::new(),
    };
    for i in 0..cfg.iters {
        let seed = FaultRng::new(cfg.base_seed.wrapping_add(i)).next_u64();
        let scenario = Scenario::generate(seed);
        let (violations, checks) = run_bank(&scenario, &cfg.inject);
        report.scenarios += 1;
        for (name, n) in checks {
            *report.checks.entry(name.to_string()).or_insert(0) += n;
        }
        if let Some(first) = violations.first() {
            let target = first.oracle;
            let detail = first.detail.clone();
            let reproducer = if cfg.shrink {
                let inject = cfg.inject;
                let (shrunk, _) = shrink(&scenario, target, 400, &|s| run_oracles(s, &inject));
                shrunk
            } else {
                scenario
            };
            let corpus_file = cfg.corpus.as_ref().map(|dir| {
                let name = corpus_file_name(target, seed);
                let entry = CorpusEntry {
                    description: format!(
                        "shrunk reproducer for {} (seed {seed:#018x}); \
                         archived by `matchmake fuzz`",
                        target
                    ),
                    oracle: Some(target),
                    scenario: reproducer.clone(),
                };
                save_corpus_entry(dir, &name, &entry).expect("corpus dir is writable");
                name
            });
            report.failures.push(FuzzFailure {
                seed,
                oracle: target,
                detail,
                kernels: reproducer.descriptor.kernels.len(),
                devices: reproducer.platform.device_count(),
                tasks: reproducer.task_count(),
                corpus_file,
            });
            if cfg.max_failures > 0 && report.failures.len() >= cfg.max_failures {
                break;
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_seed_deterministic() {
        for seed in [0u64, 1, 0xC0FFEE, u64::MAX] {
            let a = Scenario::generate(seed);
            let b = Scenario::generate(seed);
            assert_eq!(
                serde_json::to_string(&a).unwrap(),
                serde_json::to_string(&b).unwrap()
            );
            assert!(a.is_valid());
        }
    }

    #[test]
    fn generated_scenarios_round_trip_through_json() {
        let s = Scenario::generate(7);
        let json = serde_json::to_string_pretty(&s).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            serde_json::to_string(&s).unwrap()
        );
        assert!(back.is_valid());
    }

    #[test]
    fn injected_blame_break_is_caught() {
        let inject = InjectedBreak {
            skip_blame_component: true,
            ..InjectedBreak::NONE
        };
        let outcome = run_seed(3, &inject);
        assert!(
            outcome
                .violations
                .iter()
                .any(|v| v.oracle == OracleKind::BlameIdentity),
            "planted blame break must be caught: {:?}",
            outcome.violations
        );
        // And without the injection the same seed is clean.
        assert!(Analyzer::fuzz_one(3).violations.is_empty());
    }

    #[test]
    fn injected_stream_fold_break_is_caught() {
        let inject = InjectedBreak {
            break_stream_fold: true,
            ..InjectedBreak::NONE
        };
        let outcome = run_seed(3, &inject);
        assert!(
            outcome
                .violations
                .iter()
                .any(|v| v.oracle == OracleKind::StreamFoldEquivalence),
            "planted stream-fold break must be caught: {:?}",
            outcome.violations
        );
        // And without the injection the same seed is clean.
        assert!(Analyzer::fuzz_one(3).violations.is_empty());
    }

    #[test]
    fn shrinker_reaches_a_minimal_reproducer() {
        let inject = InjectedBreak {
            skip_blame_component: true,
            ..InjectedBreak::NONE
        };
        // Find a seed whose generated scenario is big enough to shrink.
        let scenario = Scenario::generate(11);
        let (shrunk, _) = shrink(&scenario, OracleKind::BlameIdentity, 400, &|s| {
            run_oracles(s, &inject)
        });
        assert!(shrunk.is_valid());
        assert!(shrunk.descriptor.kernels.len() <= 5);
        assert!(shrunk.platform.device_count() <= 2);
        assert!(shrunk.schedule.events.is_empty());
        assert!(run_oracles(&shrunk, &inject)
            .iter()
            .any(|v| v.oracle == OracleKind::BlameIdentity));
    }

    #[test]
    fn campaign_summary_is_deterministic() {
        let cfg = FuzzConfig::new(3, 0xFACE);
        let a = fuzz_campaign(&cfg).summary();
        let b = fuzz_campaign(&cfg).summary();
        assert_eq!(a, b);
        assert!(a.contains("failures: 0"), "{a}");
    }
}
