//! Lowering strategies to executable programs.
//!
//! A [`Planner`] turns an [`AppDescriptor`] plus an [`ExecutionConfig`]
//! into a `hetero_runtime::Program`: concrete task instances with regions,
//! pinnings, and taskwait points. This is the mechanical part of the
//! paper's Fig. 2 step 4 — "enable the corresponding partitioning strategy
//! in the source code":
//!
//! * **Only-CPU / Only-GPU** — the paper's baselines: `m` CPU instances,
//!   or one whole-domain GPU instance, per kernel invocation.
//! * **SP-Single** — Glinda's decision per kernel: profile rates, build the
//!   transfer model from the declared accesses, solve, apply the hardware
//!   configuration check; emit one GPU partition + `m` CPU instances.
//! * **SP-Unified** — one β for the fused kernel sequence, solved with the
//!   one-round-trip transfer model (data stays device-resident between
//!   kernels); required taskwaits are still honoured if the application
//!   demands them (the paper evaluates exactly this mis-fit in Fig. 9/11).
//! * **SP-Varied** — a per-kernel β solved with that kernel's own transfer
//!   model; a taskwait is inserted after *every* kernel (the strategy's
//!   defining cost).
//! * **DP-Dep / DP-Perf** — each kernel split into `m` unpinned instances
//!   of size `domain/m`; placement is left to the runtime scheduler.
//! * **Converted-Static** (§V) — `m` equal unpinned-sized instances with
//!   the first `l ≈ β·m` pinned to the GPU and the rest to the CPU.

use crate::convert::ratio_to_counts_aligned;
use crate::descriptor::{AccessPattern, AppDescriptor, ExecutionFlow, KernelSpec};
use crate::profile::{ProfileStore, RateProfile};
use crate::strategy::{ExecutionConfig, Strategy};
use glinda::profiling::{default_probe_items, estimate_device_rate};
use glinda::{
    decide, estimate_rates, solve_multi, AcceleratorSide, DecisionConfig, HardwareConfig,
    MultiDeviceProblem, MultiSolution, PartitionProblem, TransferModel,
};
use hetero_platform::{DeviceId, MemSpaceId, Platform};
use hetero_runtime::{
    split_even, Access, AdaptPlan, KernelId, PlanError, Program, ProgramBuilder, Region,
};
use serde::{Deserialize, Serialize};

/// Builds programs for one platform.
pub struct Planner<'a> {
    /// Target platform.
    pub platform: &'a Platform,
    /// Task instances per kernel for CPU-side splits — the paper's `m` (a
    /// multiple of the CPU thread count; the paper uses the
    /// best-performing multiple, we default to 2×).
    pub instances_per_kernel: u64,
    /// Task instances per kernel for the *dynamic* strategies. The paper's
    /// §V discussion observes that dynamic partitioning is sensitive to
    /// task size and recommends auto-tuning it; a finer granularity than
    /// the static CPU split lets the performance-aware scheduler balance
    /// devices without wave quantisation (default 8× the thread count; see
    /// also `matchmaker::analyzer` task-size tuning).
    pub dynamic_instances_per_kernel: u64,
    /// Utilisation thresholds for Glinda's decision step.
    pub decision: DecisionConfig,
    /// Multiplicative `(cpu, gpu)` skew applied to every profiled rate in
    /// [`Planner::kernel_model`] — `(1.0, 1.0)` is a faithful profile.
    /// Models a *mispredicted* profiling run (the platform misbehaved, or
    /// was perturbed by `FaultEvent::ProfilePerturb`, while the planner
    /// measured it): the plan is built from the skewed rates while
    /// execution proceeds at the true ones, which is exactly the gap the
    /// adaptive controller closes. Multi-accelerator waterfilling profiles
    /// each accelerator directly and is not skewed (future work).
    pub profile_skew: (f64, f64),
    /// Recorded rate profiles to plan from instead of probing
    /// ([`crate::ProfileStore`], typically loaded from disk). A kernel
    /// found in the store skips the probe; kernels absent from the store
    /// fall back to probing, so a partial recording is usable.
    /// `profile_skew` applies either way.
    pub profiles: Option<ProfileStore>,
}

/// The outcome of planning: the program plus, per kernel, the hardware
/// configuration the static solver chose (informational; `None` for
/// dynamic strategies and baselines).
#[derive(Debug)]
pub struct Plan {
    /// The executable program.
    pub program: Program,
    /// Per-kernel static decision, if a static strategy was planned.
    pub kernel_configs: Vec<Option<KernelSplit>>,
}

/// A static split decision for one kernel: two-way on single-accelerator
/// platforms (the paper's evaluation), N-way when the platform carries
/// several accelerators (Glinda supports "one or more accelerators,
/// identical or non-identical").
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum KernelSplit {
    /// CPU + one GPU (Glinda's decision procedure with utilisation check).
    Single(HardwareConfig),
    /// CPU + k accelerators (equal-finish-time waterfilling).
    Multi(MultiSolution),
}

impl KernelSplit {
    /// Items offloaded to accelerators, in total.
    pub fn gpu_items(&self, total: u64) -> u64 {
        match self {
            KernelSplit::Single(h) => h.gpu_items(total),
            KernelSplit::Multi(m) => m.accel_items.iter().sum(),
        }
    }

    /// Per-accelerator item counts in platform accelerator order (a single
    /// GPU yields a one-element vector).
    pub fn accel_items(&self, total: u64) -> Vec<u64> {
        match self {
            KernelSplit::Single(h) => vec![h.gpu_items(total)],
            KernelSplit::Multi(m) => m.accel_items.clone(),
        }
    }
}

/// Per-kernel profiled rates and transfer model (exposed for reports).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct KernelModel {
    /// Whole-CPU sustained rate, items/s.
    pub cpu_rate: f64,
    /// Whole-GPU sustained rate (kernel only), items/s.
    pub gpu_rate: f64,
    /// Transfer model for one offload of this kernel.
    pub transfer: TransferModel,
}

impl<'a> Planner<'a> {
    /// A planner with the paper's defaults for this platform: `m = 2 ×`
    /// CPU threads, decision floors of one warp-granule ×4 on the GPU and
    /// 16 items per CPU thread.
    pub fn new(platform: &'a Platform) -> Self {
        let threads = platform.cpu().spec.kind.slots() as u64;
        Planner {
            platform,
            instances_per_kernel: 2 * threads,
            dynamic_instances_per_kernel: 8 * threads,
            decision: DecisionConfig {
                min_items_per_cpu_thread: 16,
                min_gpu_granules: 4,
                cpu_threads: threads,
            },
            profile_skew: (1.0, 1.0),
            profiles: None,
        }
    }

    fn gpu(&self) -> &hetero_platform::Device {
        self.platform
            .gpu()
            .expect("planning requires a platform with a GPU")
    }

    fn link_bandwidth(&self) -> f64 {
        let gpu_space = self.gpu().mem_space;
        self.platform
            .link(MemSpaceId::HOST, gpu_space)
            .expect("GPU has a host link")
            .bandwidth_gbs
            * 1e9
    }

    /// Profile one kernel and derive its transfer model.
    ///
    /// Rates come from a recorded [`ProfileStore`] entry when one is
    /// installed and names this kernel, otherwise from a fresh probe
    /// against the platform roofline; `profile_skew` applies either way.
    ///
    /// `per_offload_transfers = false` models device-resident data (the
    /// SP-Unified interior): the transfer model is zeroed.
    pub fn kernel_model(
        &self,
        desc: &AppDescriptor,
        k: usize,
        per_offload_transfers: bool,
    ) -> KernelModel {
        let spec = &desc.kernels[k];
        let rates = self
            .profiles
            .as_ref()
            .and_then(|store| store.get(&spec.name))
            .unwrap_or_else(|| self.probed_rates(spec));
        let transfer = if per_offload_transfers {
            self.transfer_model(desc, &[spec])
        } else {
            TransferModel::NONE
        };
        KernelModel {
            cpu_rate: rates.cpu_rate * self.profile_skew.0,
            gpu_rate: rates.gpu_rate * self.profile_skew.1,
            transfer,
        }
    }

    /// Probe one kernel against the platform roofline (raw rates, no skew).
    fn probed_rates(&self, spec: &KernelSpec) -> RateProfile {
        let probe = default_probe_items(spec.domain, self.gpu().spec.kind.partition_granularity());
        let rates = estimate_rates(self.platform, &spec.profile, probe);
        RateProfile {
            cpu_rate: rates.cpu_rate,
            gpu_rate: rates.gpu_rate,
        }
    }

    /// Probe every kernel of `desc` and return the recordings as a
    /// [`ProfileStore`] (raw, unskewed rates — suitable for
    /// [`ProfileStore::save`] and later replay via [`Planner::profiles`]).
    pub fn record_profiles(&self, desc: &AppDescriptor) -> ProfileStore {
        let mut store = ProfileStore::new();
        for spec in &desc.kernels {
            store.record(&spec.name, self.probed_rates(spec));
        }
        store
    }

    /// Build the transfer model for offloading a *fused* run of `kernels`
    /// (length 1 for a single kernel): inputs are buffers read before being
    /// written within the fusion; outputs are buffers written anywhere.
    fn transfer_model(&self, desc: &AppDescriptor, kernels: &[&KernelSpec]) -> TransferModel {
        let mut written = vec![false; desc.buffers.len()];
        let mut h2d_per_item = 0.0;
        let mut d2h_per_item = 0.0;
        let mut fixed = 0.0;
        let mut d2h_seen = vec![false; desc.buffers.len()];
        let mut h2d_seen = vec![false; desc.buffers.len()];
        for spec in kernels {
            for a in &spec.accesses {
                let b = a.buffer();
                let bytes = desc.buffers[b].item_bytes as f64;
                if a.mode().reads() && !written[b] && !h2d_seen[b] {
                    h2d_seen[b] = true;
                    match a {
                        AccessPattern::Partitioned { .. } => h2d_per_item += bytes,
                        AccessPattern::Full { .. } => fixed += desc.buffers[b].items as f64 * bytes,
                    }
                }
                if a.mode().writes() {
                    written[b] = true;
                    if !d2h_seen[b] {
                        d2h_seen[b] = true;
                        match a {
                            AccessPattern::Partitioned { .. } => d2h_per_item += bytes,
                            AccessPattern::Full { .. } => {
                                fixed += desc.buffers[b].items as f64 * bytes
                            }
                        }
                    }
                }
            }
        }
        TransferModel {
            h2d_bytes_per_item: h2d_per_item,
            d2h_bytes_per_item: d2h_per_item,
            fixed_bytes: fixed,
        }
    }

    /// Glinda decision for one kernel with its own per-offload transfers.
    /// On a multi-accelerator platform this becomes an N-way split.
    ///
    /// Imbalanced kernels (with per-item weights) use the split-by-work
    /// solver on single-accelerator platforms; on multi-accelerator
    /// platforms the N-way solver splits by item count (instance costs are
    /// still weighted at execution time — the split is merely less
    /// sharp). Combining the two solvers is future work.
    pub fn decide_kernel(&self, desc: &AppDescriptor, k: usize) -> KernelSplit {
        let model = self.kernel_model(desc, k, true);
        if self.platform.accelerators().count() > 1 {
            return KernelSplit::Multi(self.decide_multi(
                desc.kernels[k].domain,
                model.cpu_rate,
                &desc.kernels[k].profile,
                model.transfer,
            ));
        }
        if let Some(weights) = &desc.kernels[k].weights {
            return KernelSplit::Single(self.decide_imbalanced(
                desc.kernels[k].domain,
                weights,
                &model,
            ));
        }
        KernelSplit::Single(decide(&self.kernel_problem(desc, k), &self.decision))
    }

    /// The two-way partitioning problem SP-Single/SP-Varied solve for one
    /// kernel on a single-accelerator platform (with the kernel's own
    /// per-offload transfer model).
    pub fn kernel_problem(&self, desc: &AppDescriptor, k: usize) -> PartitionProblem {
        let model = self.kernel_model(desc, k, true);
        PartitionProblem {
            items: desc.kernels[k].domain,
            cpu_rate: model.cpu_rate,
            gpu_rate: model.gpu_rate,
            transfer: model.transfer,
            link_bandwidth: self.link_bandwidth(),
            gpu_granularity: self.gpu().spec.kind.partition_granularity(),
        }
    }

    /// Glinda's imbalanced-workload split (ICS'14): the GPU takes the item
    /// prefix whose *work* (not count) balances the devices. Weights are
    /// normalised to mean 1 so the profiled items/s rates double as
    /// work-units/s.
    fn decide_imbalanced(
        &self,
        domain: u64,
        weights: &[f32],
        model: &KernelModel,
    ) -> HardwareConfig {
        assert_eq!(weights.len() as u64, domain, "weights length != domain");
        let mean: f64 = weights.iter().map(|&w| w as f64).sum::<f64>() / domain as f64;
        let normalised: Vec<f32> = weights.iter().map(|&w| (w as f64 / mean) as f32).collect();
        let problem = glinda::imbalanced::ImbalancedProblem {
            weights: normalised,
            cpu_rate: model.cpu_rate,
            gpu_rate: model.gpu_rate,
            transfer: model.transfer,
            link_bandwidth: self.link_bandwidth(),
            gpu_granularity: self.gpu().spec.kind.partition_granularity(),
        };
        let sol = glinda::solve_imbalanced(&problem);
        // Apply the same utilisation floors as the uniform decision.
        let gpu_floor =
            self.decision.min_gpu_granules * self.gpu().spec.kind.partition_granularity();
        let cpu_floor = self.decision.min_items_per_cpu_thread * self.decision.cpu_threads;
        let (gpu_items, cpu_items) = (sol.split, domain - sol.split);
        if gpu_items < gpu_floor {
            return HardwareConfig::OnlyCpu;
        }
        if cpu_items < cpu_floor {
            return HardwareConfig::OnlyGpu;
        }
        HardwareConfig::Hybrid(glinda::PartitionSolution {
            gpu_items,
            cpu_items,
            beta: sol.gpu_work_fraction,
            predicted_time: sol.predicted_time,
            metrics: glinda::PartitionMetrics {
                relative_capability: model.gpu_rate / model.cpu_rate,
                compute_transfer_gap: if model.transfer.bytes_per_item() > 0.0 {
                    model.gpu_rate * model.transfer.bytes_per_item() / self.link_bandwidth()
                } else {
                    0.0
                },
            },
        })
    }

    /// N-way split across all accelerators of the platform: profile each
    /// accelerator independently, then waterfill to equal finish times.
    fn decide_multi(
        &self,
        items: u64,
        cpu_rate: f64,
        profile: &hetero_platform::KernelProfile,
        transfer: TransferModel,
    ) -> MultiSolution {
        solve_multi(&self.multi_problem(items, cpu_rate, profile, transfer))
    }

    /// The N-way partitioning problem over *all* platform accelerators:
    /// each accelerator profiled directly against the roofline, the shared
    /// transfer model per side, per-link bandwidths. This is the problem
    /// the static N-way decision solves.
    fn multi_problem(
        &self,
        items: u64,
        cpu_rate: f64,
        profile: &hetero_platform::KernelProfile,
        transfer: TransferModel,
    ) -> MultiDeviceProblem {
        let accelerators = self
            .platform
            .accelerators()
            .map(|dev| {
                let probe = default_probe_items(items, dev.spec.kind.partition_granularity());
                let link = self
                    .platform
                    .link(MemSpaceId::HOST, dev.mem_space)
                    .expect("accelerator has a host link");
                AcceleratorSide {
                    rate: estimate_device_rate(dev, profile, probe),
                    transfer,
                    link_bandwidth: link.bandwidth_gbs * 1e9,
                    granularity: dev.spec.kind.partition_granularity(),
                }
            })
            .collect();
        MultiDeviceProblem {
            items,
            cpu_rate,
            accelerators,
        }
    }

    /// Glinda decision for the fused kernel sequence (SP-Unified): one
    /// partitioning point, a single transfer round-trip, per-item cost
    /// summed over all kernel invocations of the whole (possibly iterated)
    /// sequence.
    pub fn decide_unified(&self, desc: &AppDescriptor) -> KernelSplit {
        let domain = desc.kernels[0].domain;
        assert!(
            desc.kernels.iter().all(|k| k.domain == domain),
            "SP-Unified requires a common kernel domain"
        );
        let iters = desc.iterations() as f64;
        let mut cpu_tpi = 0.0;
        for k in 0..desc.kernels.len() {
            let m = self.kernel_model(desc, k, false);
            cpu_tpi += 1.0 / m.cpu_rate;
        }
        cpu_tpi *= iters;
        if self.platform.accelerators().count() > 1 {
            return KernelSplit::Multi(solve_multi(
                &self.unified_multi_problem(desc, 1.0 / cpu_tpi),
            ));
        }
        KernelSplit::Single(decide(&self.unified_problem(desc), &self.decision))
    }

    /// The N-way problem for the fused kernel sequence: per-item times of
    /// every kernel summed per accelerator (the device runs the whole
    /// sequence on its segment), one transfer round-trip.
    fn unified_multi_problem(&self, desc: &AppDescriptor, cpu_rate: f64) -> MultiDeviceProblem {
        let domain = desc.kernels[0].domain;
        let kernel_refs: Vec<&KernelSpec> = desc.kernels.iter().collect();
        let transfer = self.transfer_model(desc, &kernel_refs);
        // Fuse per-item times into a synthetic profile-equivalent rate per
        // accelerator; simpler and adequate: waterfill on fused rates
        // computed per device.
        let accelerators = self
            .platform
            .accelerators()
            .map(|dev| {
                let mut tpi = 0.0;
                for k in &desc.kernels {
                    let probe = default_probe_items(domain, dev.spec.kind.partition_granularity());
                    tpi += 1.0 / estimate_device_rate(dev, &k.profile, probe);
                }
                tpi *= desc.iterations() as f64;
                let link = self
                    .platform
                    .link(MemSpaceId::HOST, dev.mem_space)
                    .expect("accelerator has a host link");
                AcceleratorSide {
                    rate: 1.0 / tpi,
                    transfer,
                    link_bandwidth: link.bandwidth_gbs * 1e9,
                    granularity: dev.spec.kind.partition_granularity(),
                }
            })
            .collect();
        MultiDeviceProblem {
            items: domain,
            cpu_rate,
            accelerators,
        }
    }

    /// The fused-sequence partitioning problem SP-Unified solves on a
    /// single-accelerator platform: one partitioning point over the whole
    /// (possibly iterated) kernel sequence, one transfer round-trip.
    pub fn unified_problem(&self, desc: &AppDescriptor) -> PartitionProblem {
        let domain = desc.kernels[0].domain;
        assert!(
            desc.kernels.iter().all(|k| k.domain == domain),
            "SP-Unified requires a common kernel domain"
        );
        let iters = desc.iterations() as f64;
        let mut cpu_tpi = 0.0;
        let mut gpu_tpi = 0.0;
        for k in 0..desc.kernels.len() {
            let m = self.kernel_model(desc, k, false);
            cpu_tpi += 1.0 / m.cpu_rate;
            gpu_tpi += 1.0 / m.gpu_rate;
        }
        cpu_tpi *= iters;
        gpu_tpi *= iters;
        let kernel_refs: Vec<&KernelSpec> = desc.kernels.iter().collect();
        PartitionProblem {
            items: domain,
            cpu_rate: 1.0 / cpu_tpi,
            gpu_rate: 1.0 / gpu_tpi,
            transfer: self.transfer_model(desc, &kernel_refs),
            link_bandwidth: self.link_bandwidth(),
            gpu_granularity: self.gpu().spec.kind.partition_granularity(),
        }
    }

    /// The [`AdaptPlan`] to carry into an adaptive run of a static hybrid
    /// plan: its presence lets the executor's rebalancer re-pin the plan's
    /// chunks at taskwait barriers.
    ///
    /// Returns `None` when the run has nothing to rebalance:
    /// - dynamic strategies and single-device baselines;
    /// - decisions that are not hybrid (the Only-CPU/Only-GPU fallbacks of
    ///   the decision step, judged on this planner's possibly mispredicted
    ///   rates; SP-Varied over several kernels needs one hybrid kernel);
    /// - imbalanced weighted kernels;
    /// - SP-Varied over several kernels on a multi-accelerator platform.
    pub fn adapt_plan(&self, desc: &AppDescriptor, config: ExecutionConfig) -> Option<AdaptPlan> {
        let hybrid =
            |p: &PartitionProblem| matches!(decide(p, &self.decision), HardwareConfig::Hybrid(_));
        let weighted = desc.kernels.iter().any(|k| k.weights.is_some());
        let rebalanceable = match config {
            ExecutionConfig::Strategy(Strategy::SpVaried) if desc.kernels.len() > 1 => {
                !weighted
                    && self.platform.accelerators().count() <= 1
                    && (0..desc.kernels.len()).any(|k| hybrid(&self.kernel_problem(desc, k)))
            }
            ExecutionConfig::Strategy(Strategy::SpSingle | Strategy::SpVaried) => {
                desc.kernels.len() == 1 && !weighted && hybrid(&self.kernel_problem(desc, 0))
            }
            ExecutionConfig::Strategy(Strategy::SpUnified) => {
                !weighted && hybrid(&self.unified_problem(desc))
            }
            _ => false,
        };
        rebalanceable.then_some(AdaptPlan)
    }

    /// Plan a program for the given execution configuration; panics on
    /// malformed inputs (use [`Planner::try_plan`] to handle the
    /// [`PlanError`] instead).
    pub fn plan(&self, desc: &AppDescriptor, config: ExecutionConfig) -> Plan {
        self.try_plan(desc, config)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Plan a program for the given execution configuration, returning a
    /// typed [`PlanError`] when the descriptor, the strategy/application
    /// pairing, or the declared accesses are malformed.
    pub fn try_plan(
        &self,
        desc: &AppDescriptor,
        config: ExecutionConfig,
    ) -> Result<Plan, PlanError> {
        desc.validate()
            .map_err(|reason| PlanError::InvalidDescriptor {
                app: desc.name.clone(),
                reason,
            })?;
        if self.platform.gpu().is_none() {
            return Err(PlanError::NoGpu);
        }
        let nk = desc.kernels.len();
        if matches!(config, ExecutionConfig::Strategy(Strategy::SpSingle)) && nk != 1 {
            return Err(PlanError::SingleKernelStrategy { kernels: nk });
        }
        if matches!(config, ExecutionConfig::Strategy(Strategy::SpUnified))
            && desc
                .kernels
                .iter()
                .any(|k| k.domain != desc.kernels[0].domain)
        {
            return Err(PlanError::UnifiedDomainMismatch);
        }

        // Static decisions, computed once and reused across iterations
        // ("we determine the partitioning for one iteration, and use it
        // for all iterations").
        let kernel_configs: Vec<Option<KernelSplit>> = match config {
            ExecutionConfig::Strategy(Strategy::SpSingle) => {
                vec![Some(self.decide_kernel(desc, 0))]
            }
            ExecutionConfig::Strategy(Strategy::SpVaried) => {
                (0..nk).map(|k| Some(self.decide_kernel(desc, k))).collect()
            }
            ExecutionConfig::Strategy(Strategy::SpUnified) => {
                let unified = self.decide_unified(desc);
                (0..nk).map(|_| Some(unified.clone())).collect()
            }
            ExecutionConfig::ConvertedStatic => {
                (0..nk).map(|k| Some(self.decide_kernel(desc, k))).collect()
            }
            _ => vec![None; nk],
        };

        let mut b = Program::builder();
        for buf in &desc.buffers {
            b.buffer(&buf.name, buf.items, buf.item_bytes);
        }
        let kernel_ids: Vec<KernelId> = desc
            .kernels
            .iter()
            .map(|k| b.kernel(&k.name, k.profile))
            .collect();

        // Weighted kernels' prefix sums: O(domain) each, so built once per
        // kernel rather than per emitted instance group.
        let prefixes: Vec<Option<Vec<f64>>> = desc.kernels.iter().map(weight_prefix).collect();

        let order = self.kernel_order(desc);
        let iterations = desc.iterations();
        for it in 0..iterations {
            for (pos, &k) in order.iter().enumerate() {
                let prefix = prefixes[k].as_deref();
                self.emit_kernel(
                    &mut b,
                    desc,
                    k,
                    kernel_ids[k],
                    prefix,
                    &config,
                    &kernel_configs,
                )?;
                let last_kernel = pos + 1 == order.len();
                let sync_here = self.taskwait_after(desc, &config, last_kernel);
                if sync_here && !(last_kernel && it + 1 == iterations) {
                    b.taskwait();
                }
            }
        }

        Ok(Plan {
            program: b.try_build()?,
            kernel_configs,
        })
    }

    /// Kernel emission order: sequence order, or a topological order of the
    /// DAG edges (which, by validation, is just index order).
    fn kernel_order(&self, desc: &AppDescriptor) -> Vec<usize> {
        match &desc.flow {
            ExecutionFlow::Sequence | ExecutionFlow::Loop { .. } | ExecutionFlow::Dag { .. } => {
                (0..desc.kernels.len()).collect()
            }
        }
    }

    /// Should a taskwait follow this kernel?
    fn taskwait_after(
        &self,
        desc: &AppDescriptor,
        config: &ExecutionConfig,
        last_kernel_of_iteration: bool,
    ) -> bool {
        let required = if last_kernel_of_iteration {
            desc.sync.between_iterations || desc.sync.between_kernels
        } else {
            desc.sync.between_kernels
        };
        match config {
            // SP-Varied *adds* synchronisation after every kernel — the
            // cost of knowing each kernel's start and end.
            ExecutionConfig::Strategy(Strategy::SpVaried) => true,
            // Everyone else synchronises exactly where the application
            // requires it.
            _ => required,
        }
    }

    /// Emit the instances of one kernel invocation.
    #[allow(clippy::too_many_arguments)]
    fn emit_kernel(
        &self,
        b: &mut ProgramBuilder,
        desc: &AppDescriptor,
        k: usize,
        kid: KernelId,
        prefix: Option<&[f64]>,
        config: &ExecutionConfig,
        kernel_configs: &[Option<KernelSplit>],
    ) -> Result<(), PlanError> {
        let spec = &desc.kernels[k];
        let n = spec.domain;
        let m = self.instances_per_kernel;
        let cpu = self.platform.cpu().id;
        let gpu = self.gpu().id;
        let mut emit = |start, end, parts, dev| {
            self.emit_split(b, desc, spec, kid, prefix, start, end, parts, dev)
        };

        match config {
            ExecutionConfig::OnlyCpu => {
                emit(0, n, m, Some(cpu))?;
            }
            ExecutionConfig::OnlyGpu => {
                emit(0, n, 1, Some(gpu))?;
            }
            ExecutionConfig::Strategy(Strategy::DpDep)
            | ExecutionConfig::Strategy(Strategy::DpPerf) => {
                emit(0, n, self.dynamic_instances_per_kernel, None)?;
            }
            ExecutionConfig::Strategy(
                Strategy::SpSingle | Strategy::SpUnified | Strategy::SpVaried,
            ) => {
                let cfg = kernel_configs[k]
                    .as_ref()
                    .expect("static strategy has per-kernel configs");
                // Accelerators take contiguous prefix segments in platform
                // order; the CPU takes the tail, split over `m` instances.
                let mut off = 0u64;
                for (dev, items) in self
                    .platform
                    .accelerators()
                    .map(|d| d.id)
                    .zip(cfg.accel_items(n))
                {
                    let items = items.min(n - off);
                    if items > 0 {
                        emit(off, off + items, 1, Some(dev))?;
                        off += items;
                    }
                }
                if off < n {
                    emit(off, n, m, Some(cpu))?;
                }
            }
            ExecutionConfig::ConvertedStatic => {
                let cfg = kernel_configs[k]
                    .as_ref()
                    .expect("converted-static has per-kernel configs");
                let beta = cfg.gpu_items(n) as f64 / n.max(1) as f64;
                // The conversion mimics the dynamic runtime's granularity;
                // the CPU count is aligned to whole thread waves (see
                // `convert::ratio_to_counts_aligned`).
                let md = self.dynamic_instances_per_kernel;
                let threads = self.platform.cpu().spec.kind.slots() as u64;
                let (gpu_count, _cpu_count) = ratio_to_counts_aligned(beta, md, threads);
                let chunks = split_even(n, md);
                for (i, (s, e)) in chunks.into_iter().enumerate() {
                    let dev = if (i as u64) < gpu_count { gpu } else { cpu };
                    emit(s, e, 1, Some(dev))?;
                }
            }
        }
        Ok(())
    }

    /// Emit `parts` instances covering `[start, end)` of the kernel domain,
    /// pinned to `dev` (or unpinned for dynamic scheduling). `prefix` is the
    /// kernel's [`weight_prefix`].
    #[allow(clippy::too_many_arguments)]
    fn emit_split(
        &self,
        b: &mut ProgramBuilder,
        desc: &AppDescriptor,
        spec: &KernelSpec,
        kid: KernelId,
        prefix: Option<&[f64]>,
        start: u64,
        end: u64,
        parts: u64,
        dev: Option<DeviceId>,
    ) -> Result<(), PlanError> {
        for (s, e) in split_even(end - start, parts) {
            let (s, e) = (start + s, start + e);
            let accesses = instance_accesses(desc, spec, s, e)?;
            let cost_scale = match prefix {
                None => 1.0,
                Some(pre) => {
                    // Average weight of this instance's items, relative to
                    // the kernel-wide mean (normalised so uniform = 1.0).
                    let total = *pre.last().unwrap();
                    let mean = total / spec.domain as f64;
                    let work = pre[e as usize] - pre[s as usize];
                    work / ((e - s) as f64 * mean)
                }
            };
            b.submit(hetero_runtime::TaskDesc {
                kernel: kid,
                items: e - s,
                accesses,
                pinned: dev,
                cost_scale,
            });
        }
        Ok(())
    }
}

/// Prefix sums of a kernel's per-item weights (`prefix[i]` = total weight of
/// items `[0, i)`), or `None` for uniform kernels.
fn weight_prefix(spec: &KernelSpec) -> Option<Vec<f64>> {
    let w = spec.weights.as_ref()?;
    assert_eq!(
        w.len() as u64,
        spec.domain,
        "kernel '{}': weights length must equal the domain",
        spec.name
    );
    let mut pre = Vec::with_capacity(w.len() + 1);
    pre.push(0.0f64);
    for &x in w {
        pre.push(pre.last().unwrap() + x as f64);
    }
    Some(pre)
}

/// Materialise the access list of an instance covering `[s, e)`, rejecting
/// access shapes no instance could execute soundly.
fn instance_accesses(
    desc: &AppDescriptor,
    spec: &KernelSpec,
    s: u64,
    e: u64,
) -> Result<Vec<Access>, PlanError> {
    let whole = spec.domain == e - s;
    let mut out = Vec::with_capacity(spec.accesses.len());
    for a in &spec.accesses {
        out.push(match *a {
            AccessPattern::Partitioned { buffer, mode, halo } => {
                if halo > 0 && mode.writes() {
                    return Err(PlanError::HaloWrite {
                        kernel: spec.name.clone(),
                    });
                }
                let items = desc.buffers[buffer].items;
                let lo = s.saturating_sub(halo);
                let hi = (e + halo).min(items);
                Access {
                    region: Region::new(hetero_runtime::BufferId(buffer), lo, hi),
                    mode,
                }
            }
            AccessPattern::Full { buffer, mode } => {
                if mode.writes() && !whole {
                    return Err(PlanError::PartitionedFullWrite {
                        kernel: spec.name.clone(),
                    });
                }
                let items = desc.buffers[buffer].items;
                Access {
                    region: Region::new(hetero_runtime::BufferId(buffer), 0, items),
                    mode,
                }
            }
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::{BufferSpec, SyncPolicy};
    use hetero_platform::KernelProfile;
    use hetero_runtime::AccessMode;
    use hetero_runtime::Op;

    /// A compute-heavy single-kernel app where the GPU is 4x the CPU.
    fn sk_one(n: u64) -> AppDescriptor {
        AppDescriptor {
            name: "sk1".into(),
            buffers: vec![
                BufferSpec {
                    name: "in".into(),
                    items: n,
                    item_bytes: 4,
                },
                BufferSpec {
                    name: "out".into(),
                    items: n,
                    item_bytes: 4,
                },
            ],
            kernels: vec![KernelSpec {
                name: "k".into(),
                profile: KernelProfile::compute_only(1e6),
                domain: n,
                accesses: vec![
                    AccessPattern::part(0, AccessMode::In),
                    AccessPattern::part(1, AccessMode::Out),
                ],
                weights: None,
            }],
            flow: ExecutionFlow::Sequence,
            sync: SyncPolicy::NONE,
        }
    }

    fn mk_seq(n: u64, nk: usize, sync: bool) -> AppDescriptor {
        let kernels = (0..nk)
            .map(|i| KernelSpec {
                name: format!("k{i}"),
                profile: KernelProfile::memory_only(12.0),
                domain: n,
                accesses: vec![
                    AccessPattern::part(i % 2, AccessMode::In),
                    AccessPattern::part((i + 1) % 2, AccessMode::Out),
                ],
                weights: None,
            })
            .collect();
        AppDescriptor {
            name: "mkseq".into(),
            buffers: vec![
                BufferSpec {
                    name: "a".into(),
                    items: n,
                    item_bytes: 4,
                },
                BufferSpec {
                    name: "b".into(),
                    items: n,
                    item_bytes: 4,
                },
            ],
            kernels,
            flow: ExecutionFlow::Sequence,
            sync: SyncPolicy {
                between_kernels: sync,
                between_iterations: sync,
            },
        }
    }

    #[test]
    fn only_cpu_emits_m_pinned_instances() {
        let platform = Platform::icpp15();
        let planner = Planner::new(&platform);
        let plan = planner.plan(&sk_one(100_000), ExecutionConfig::OnlyCpu);
        let tasks = plan.program.tasks();
        assert_eq!(tasks.len(), 24);
        assert!(tasks.iter().all(|(_, t)| t.pinned == Some(DeviceId(0))));
        let total: u64 = tasks.iter().map(|(_, t)| t.items).sum();
        assert_eq!(total, 100_000);
    }

    #[test]
    fn only_gpu_emits_one_instance() {
        let platform = Platform::icpp15();
        let planner = Planner::new(&platform);
        let plan = planner.plan(&sk_one(100_000), ExecutionConfig::OnlyGpu);
        let tasks = plan.program.tasks();
        assert_eq!(tasks.len(), 1);
        assert_eq!(tasks[0].1.pinned, Some(DeviceId(1)));
        assert_eq!(tasks[0].1.items, 100_000);
    }

    #[test]
    fn sp_single_splits_according_to_solver() {
        let platform = Platform::icpp15();
        let planner = Planner::new(&platform);
        let plan = planner.plan(
            &sk_one(1_000_000),
            ExecutionConfig::Strategy(Strategy::SpSingle),
        );
        let cfg = plan.kernel_configs[0].as_ref().unwrap();
        let KernelSplit::Single(HardwareConfig::Hybrid(sol)) = cfg else {
            panic!("expected hybrid, got {cfg:?}")
        };
        let tasks = plan.program.tasks();
        // 1 GPU + 24 CPU instances.
        assert_eq!(tasks.len(), 25);
        let gpu_items: u64 = tasks
            .iter()
            .filter(|(_, t)| t.pinned == Some(DeviceId(1)))
            .map(|(_, t)| t.items)
            .sum();
        assert_eq!(gpu_items, sol.gpu_items);
        let total: u64 = tasks.iter().map(|(_, t)| t.items).sum();
        assert_eq!(total, 1_000_000);
        // Compute-only kernel, GPU/CPU peak ratio ≈ 9.2 ⇒ GPU-heavy split.
        assert!(sol.gpu_items > 800_000, "gpu_items={}", sol.gpu_items);
    }

    #[test]
    fn dynamic_strategies_emit_unpinned() {
        let platform = Platform::icpp15();
        let planner = Planner::new(&platform);
        for s in [Strategy::DpDep, Strategy::DpPerf] {
            let plan = planner.plan(&sk_one(100_000), ExecutionConfig::Strategy(s));
            let tasks = plan.program.tasks();
            // Dynamic strategies use the finer dynamic granularity.
            assert_eq!(tasks.len(), planner.dynamic_instances_per_kernel as usize);
            assert!(tasks.iter().all(|(_, t)| t.pinned.is_none()));
        }
    }

    #[test]
    fn sp_varied_inserts_taskwait_after_every_kernel() {
        let platform = Platform::icpp15();
        let planner = Planner::new(&platform);
        let plan = planner.plan(
            &mk_seq(500_000, 4, false),
            ExecutionConfig::Strategy(Strategy::SpVaried),
        );
        let waits = plan
            .program
            .ops
            .iter()
            .filter(|o| matches!(o, Op::Taskwait))
            .count();
        // After each of the 4 kernels except the final one (the end-of-
        // program flush is implicit).
        assert_eq!(waits, 3);
    }

    #[test]
    fn sp_unified_adds_no_taskwaits_when_not_required() {
        let platform = Platform::icpp15();
        let planner = Planner::new(&platform);
        let plan = planner.plan(
            &mk_seq(500_000, 4, false),
            ExecutionConfig::Strategy(Strategy::SpUnified),
        );
        assert!(plan.program.ops.iter().all(|o| !matches!(o, Op::Taskwait)));
        // All kernels share one partitioning point.
        let cfgs: Vec<u64> = plan
            .kernel_configs
            .iter()
            .map(|c| c.as_ref().unwrap().gpu_items(500_000))
            .collect();
        assert!(cfgs.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn sp_unified_honours_required_sync() {
        let platform = Platform::icpp15();
        let planner = Planner::new(&platform);
        let plan = planner.plan(
            &mk_seq(500_000, 4, true),
            ExecutionConfig::Strategy(Strategy::SpUnified),
        );
        let waits = plan
            .program
            .ops
            .iter()
            .filter(|o| matches!(o, Op::Taskwait))
            .count();
        assert_eq!(waits, 3);
    }

    #[test]
    fn sp_varied_betas_differ_from_unified_under_transfers() {
        let platform = Platform::icpp15();
        let planner = Planner::new(&platform);
        let desc = mk_seq(4_000_000, 4, true);
        let varied = planner.plan(&desc, ExecutionConfig::Strategy(Strategy::SpVaried));
        let unified = planner.plan(&desc, ExecutionConfig::Strategy(Strategy::SpUnified));
        let v0 = varied.kernel_configs[0]
            .as_ref()
            .unwrap()
            .gpu_items(4_000_000);
        let u0 = unified.kernel_configs[0]
            .as_ref()
            .unwrap()
            .gpu_items(4_000_000);
        // Per-kernel transfers make the varied split more CPU-skewed than
        // the unified one (the paper's Fig. 10 observation).
        assert!(v0 < u0, "varied {v0} vs unified {u0}");
    }

    #[test]
    fn converted_static_pins_by_ratio() {
        let platform = Platform::icpp15();
        let planner = Planner::new(&platform);
        let plan = planner.plan(&sk_one(1_000_000), ExecutionConfig::ConvertedStatic);
        let tasks = plan.program.tasks();
        assert_eq!(tasks.len(), planner.dynamic_instances_per_kernel as usize);
        let gpu_tasks = tasks
            .iter()
            .filter(|(_, t)| t.pinned == Some(DeviceId(1)))
            .count();
        // GPU-heavy app: most instances pinned to the GPU, sizes equal, and
        // the CPU count packs whole thread waves.
        assert!(gpu_tasks * 10 >= tasks.len() * 8, "gpu_tasks={gpu_tasks}");
        assert_eq!((tasks.len() - gpu_tasks) % 12, 0);
        let sizes: Vec<u64> = tasks.iter().map(|(_, t)| t.items).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn loop_flow_replicates_kernels_per_iteration() {
        let platform = Platform::icpp15();
        let planner = Planner::new(&platform);
        let mut desc = sk_one(100_000);
        desc.flow = ExecutionFlow::Loop { iterations: 5 };
        desc.sync.between_iterations = true;
        let plan = planner.plan(&desc, ExecutionConfig::OnlyGpu);
        assert_eq!(plan.program.task_count(), 5);
        let waits = plan
            .program
            .ops
            .iter()
            .filter(|o| matches!(o, Op::Taskwait))
            .count();
        assert_eq!(waits, 4); // between iterations only; trailing implicit
    }

    /// A platform with a host CPU and no accelerator at all.
    fn cpu_only_platform() -> Platform {
        let mut spec = Platform::icpp15().cpu().spec.clone();
        spec.name = "lonely-cpu".into();
        Platform::builder().cpu(spec).build()
    }

    #[test]
    fn try_plan_rejects_invalid_descriptor() {
        let platform = Platform::icpp15();
        let planner = Planner::new(&platform);
        let mut desc = sk_one(1000);
        desc.kernels.clear(); // "no kernels"
        let err = planner
            .try_plan(&desc, ExecutionConfig::OnlyCpu)
            .unwrap_err();
        assert_eq!(
            err,
            PlanError::InvalidDescriptor {
                app: "sk1".into(),
                reason: "no kernels".into(),
            }
        );
        assert!(err.to_string().starts_with("invalid descriptor 'sk1'"));
    }

    #[test]
    fn try_plan_rejects_sp_single_on_multi_kernel_apps() {
        let platform = Platform::icpp15();
        let planner = Planner::new(&platform);
        let err = planner
            .try_plan(
                &mk_seq(100_000, 3, true),
                ExecutionConfig::Strategy(Strategy::SpSingle),
            )
            .unwrap_err();
        assert_eq!(err, PlanError::SingleKernelStrategy { kernels: 3 });
        assert!(err
            .to_string()
            .contains("SP-Single targets single-kernel applications"));
    }

    #[test]
    fn try_plan_rejects_unified_domain_mismatch() {
        let platform = Platform::icpp15();
        let planner = Planner::new(&platform);
        let mut desc = mk_seq(100_000, 2, true);
        desc.kernels[1].domain = 50_000; // buffers still large enough
        assert!(desc.validate().is_ok());
        let err = planner
            .try_plan(&desc, ExecutionConfig::Strategy(Strategy::SpUnified))
            .unwrap_err();
        assert_eq!(err, PlanError::UnifiedDomainMismatch);
        // Other strategies handle per-kernel domains fine.
        assert!(planner
            .try_plan(&desc, ExecutionConfig::Strategy(Strategy::SpVaried))
            .is_ok());
    }

    #[test]
    fn try_plan_rejects_halod_writes() {
        let platform = Platform::icpp15();
        let planner = Planner::new(&platform);
        let mut desc = sk_one(10_000);
        desc.kernels[0].accesses[1] = AccessPattern::Partitioned {
            buffer: 1,
            mode: AccessMode::Out,
            halo: 1,
        };
        let err = planner
            .try_plan(&desc, ExecutionConfig::OnlyCpu)
            .unwrap_err();
        assert_eq!(err, PlanError::HaloWrite { kernel: "k".into() });
        assert!(err.to_string().contains("halo'd write access is unsound"));
    }

    #[test]
    fn try_plan_rejects_whole_buffer_writes_from_partial_instances() {
        let platform = Platform::icpp15();
        let planner = Planner::new(&platform);
        let mut desc = sk_one(10_000);
        desc.kernels[0].accesses[1] = AccessPattern::Full {
            buffer: 1,
            mode: AccessMode::Out,
        };
        // One whole-domain GPU instance may write the whole buffer...
        assert!(planner.try_plan(&desc, ExecutionConfig::OnlyGpu).is_ok());
        // ...but `m` partial CPU instances may not.
        let err = planner
            .try_plan(&desc, ExecutionConfig::OnlyCpu)
            .unwrap_err();
        assert_eq!(err, PlanError::PartitionedFullWrite { kernel: "k".into() });
        assert!(err
            .to_string()
            .contains("whole-buffer write by a partitioned instance"));
    }

    #[test]
    fn try_plan_requires_a_gpu() {
        let platform = cpu_only_platform();
        let planner = Planner::new(&platform);
        let err = planner
            .try_plan(&sk_one(10_000), ExecutionConfig::OnlyCpu)
            .unwrap_err();
        assert_eq!(err, PlanError::NoGpu);
        assert_eq!(err.to_string(), "planning requires a platform with a GPU");
    }

    #[test]
    #[should_panic(expected = "SP-Single targets single-kernel applications")]
    fn plan_panics_with_the_typed_error_message() {
        let platform = Platform::icpp15();
        let planner = Planner::new(&platform);
        let _ = planner.plan(
            &mk_seq(100_000, 3, true),
            ExecutionConfig::Strategy(Strategy::SpSingle),
        );
    }

    #[test]
    fn halo_accesses_are_clamped() {
        let platform = Platform::icpp15();
        let planner = Planner::new(&platform);
        let mut desc = sk_one(10_000);
        desc.kernels[0].accesses[0] = AccessPattern::Partitioned {
            buffer: 0,
            mode: AccessMode::In,
            halo: 1,
        };
        let plan = planner.plan(&desc, ExecutionConfig::OnlyCpu);
        for (_, t) in plan.program.tasks() {
            let r = t.accesses[0].region;
            assert!(r.span.end <= 10_000);
        }
        // First instance starts at 0 (clamped), later ones start one early.
        let tasks = plan.program.tasks();
        assert_eq!(tasks[0].1.accesses[0].region.span.start, 0);
        let second = tasks[1].1.accesses[0].region.span;
        assert_eq!(second.start, tasks[1].1.accesses[1].region.span.start - 1);
    }
}
