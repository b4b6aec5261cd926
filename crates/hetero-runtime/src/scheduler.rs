//! Scheduling policies.
//!
//! Three policies cover everything the paper evaluates:
//!
//! * [`PinnedScheduler`] — every task instance is pre-pinned to a device.
//!   This is how static partitioning plans (SP-Single, SP-Unified,
//!   SP-Varied) and the Only-CPU / Only-GPU baselines execute: placement is
//!   decided *before* runtime, so no scheduling overhead is charged.
//! * [`DepScheduler`] — the paper's **DP-Dep**: schedules ready instances
//!   breadth-first (round-robin over all compute slots) without considering
//!   device capability, but follows data-dependency chains — an instance
//!   whose predecessor ran on device *d* is placed on *d*, minimising
//!   transfers.
//! * [`PerfScheduler`] — the paper's **DP-Perf** (Planas et al., IPDPS'13):
//!   a performance-aware policy. For each kernel it profiles how fast each
//!   device processes an instance (a fixed warm-up of
//!   [`PerfScheduler::WARMUP_INSTANCES`] per device), tracks each device's
//!   estimated busy-until time, and binds each ready instance to the device
//!   that would finish it earliest.
//!
//! Binding happens when an instance becomes *ready* (its dependences are
//! satisfied), mirroring the eager queueing of the OmpSs runtime; bound
//! instances wait in per-device FIFO queues for a free slot.

use crate::executor::simulate_spec;
use crate::obs::NullObserver;
use crate::program::{KernelId, Program, TaskDesc, TaskId};
use crate::spec::RunSpec;
use hetero_platform::{DeviceId, Platform, SimTime};
use std::collections::BTreeMap;

/// Everything a policy may consult when binding a ready task.
pub struct BindCtx<'a> {
    /// Current virtual time.
    pub now: SimTime,
    /// The platform being scheduled onto.
    pub platform: &'a Platform,
    /// The task being bound.
    pub task: &'a TaskDesc,
    /// Its id.
    pub task_id: TaskId,
    /// Devices on which each predecessor ran (placement already decided),
    /// in predecessor order; used for dependency-chain affinity.
    pub pred_placements: &'a [DeviceId],
    /// Estimated time to move the task's input data to a device, given the
    /// current coherence state (zero when the data is already resident).
    /// Provided by the executor; locality-aware policies (DP-Perf, after
    /// Planas et al.'s data-aware scheduling) fold it into their
    /// earliest-finish estimates.
    pub transfer_estimate: &'a dyn Fn(DeviceId) -> SimTime,
}

/// A scheduling policy: binds ready tasks to devices and observes
/// completions.
pub trait Scheduler {
    /// Choose the device for a ready task. Called exactly once per task.
    fn bind(&mut self, ctx: &BindCtx<'_>) -> DeviceId;

    /// Observe an instance completing. `busy` is the wall (virtual) time
    /// the instance occupied its slot — transfers, launch and execution —
    /// while `exec` is the pure kernel-execution component (what a
    /// per-device performance profile measures).
    #[allow(clippy::too_many_arguments)]
    fn on_complete(
        &mut self,
        task: TaskId,
        kernel: KernelId,
        dev: DeviceId,
        items: u64,
        busy: SimTime,
        exec: SimTime,
        now: SimTime,
    ) {
        let _ = (task, kernel, dev, items, busy, exec, now);
    }

    /// `true` for dynamic policies: the executor charges the platform's
    /// per-decision scheduling overhead for each bound instance.
    fn is_dynamic(&self) -> bool {
        true
    }

    /// Display name (reports/figures).
    fn name(&self) -> &'static str;
}

/// Executes every instance on the device it was pinned to at plan time.
/// Panics on unpinned tasks — static plans must pin everything.
#[derive(Default)]
pub struct PinnedScheduler;

impl Scheduler for PinnedScheduler {
    fn bind(&mut self, ctx: &BindCtx<'_>) -> DeviceId {
        ctx.task
            .pinned
            .expect("PinnedScheduler requires every task to be pinned")
    }

    fn is_dynamic(&self) -> bool {
        false
    }

    fn name(&self) -> &'static str {
        "pinned"
    }
}

/// **DP-Dep**: breadth-first round-robin over compute slots with
/// dependency-chain affinity; capability-blind.
pub struct DepScheduler {
    ring: Vec<DeviceId>,
    next: usize,
}

impl DepScheduler {
    /// Build the slot ring for a platform: each device appears once per
    /// compute slot, in device order (CPU slots first, then the GPU —
    /// matching the OmpSs breadth-first scheduler's worker enumeration).
    pub fn new(platform: &Platform) -> Self {
        let mut ring = Vec::with_capacity(platform.total_slots());
        for dev in &platform.devices {
            for _ in 0..dev.spec.kind.slots() {
                ring.push(dev.id);
            }
        }
        DepScheduler { ring, next: 0 }
    }
}

impl Scheduler for DepScheduler {
    fn bind(&mut self, ctx: &BindCtx<'_>) -> DeviceId {
        if let Some(d) = ctx.task.pinned {
            return d;
        }
        // Chain affinity: follow the first predecessor's placement.
        if let Some(&d) = ctx.pred_placements.first() {
            return d;
        }
        let d = self.ring[self.next % self.ring.len()];
        self.next += 1;
        d
    }

    fn name(&self) -> &'static str {
        "DP-Dep"
    }
}

/// Cumulative observed throughput of one (kernel, device) pair.
#[derive(Clone, Copy, Debug, Default)]
pub struct RateObservation {
    /// Instances observed.
    pub count: u32,
    /// Total items processed.
    pub items: f64,
    /// Total busy time, seconds.
    pub secs: f64,
}

impl RateObservation {
    /// Observed items/second, if any observation exists.
    pub fn rate(&self) -> Option<f64> {
        if self.count == 0 || self.secs <= 0.0 {
            None
        } else {
            Some(self.items / self.secs)
        }
    }
}

/// **DP-Perf**: performance-aware earliest-finisher policy with a per-kernel
/// per-device profiling warm-up.
pub struct PerfScheduler {
    /// (kernel, device) → observations.
    rates: BTreeMap<(KernelId, DeviceId), RateObservation>,
    /// (kernel, device) → instances *assigned* (bound) so far. Warm-up
    /// routing must count assignments, not completions: when a whole batch
    /// of instances becomes ready at once, none has completed yet.
    assigned: BTreeMap<(KernelId, DeviceId), u32>,
    /// Per device: estimated occupancy (seconds of work) bound to the
    /// device and not yet observed complete. The busy estimate used for
    /// earliest-finish is `outstanding / slots`; completions subtract the
    /// task's own charge back out, so estimation drift self-corrects
    /// instead of accumulating phantom backlog across taskwait epochs.
    outstanding: Vec<SimTime>,
    /// Per-task occupancy charge recorded at bind, indexed by `TaskId`;
    /// reversed and zeroed at completion.
    est_of: Vec<SimTime>,
    /// Device slot counts (cached from the platform).
    slots: Vec<u64>,
    /// Instances each (kernel, device) pair must observe before estimates
    /// are trusted; 0 disables warm-up (pre-seeded runs).
    warmup: u32,
}

impl PerfScheduler {
    /// The paper's fixed profiling phase: "each device gets 3 task
    /// instances to make the runtime learn each device's performance".
    pub const WARMUP_INSTANCES: u32 = 3;

    /// Fresh scheduler with the standard warm-up.
    pub fn new(platform: &Platform) -> Self {
        Self::with_warmup(platform, Self::WARMUP_INSTANCES)
    }

    /// Fresh scheduler with a custom warm-up length.
    pub fn with_warmup(platform: &Platform, warmup: u32) -> Self {
        PerfScheduler {
            rates: BTreeMap::new(),
            assigned: BTreeMap::new(),
            outstanding: vec![SimTime::ZERO; platform.devices.len()],
            est_of: Vec::new(),
            slots: platform
                .devices
                .iter()
                .map(|d| d.spec.kind.slots() as u64)
                .collect(),
            warmup,
        }
    }

    /// A scheduler pre-seeded with rates learned in a previous (warm-up)
    /// run; no further profiling phase is performed. This realises the
    /// paper's methodology of excluding the profiling phase from the
    /// measured comparison.
    pub fn seeded(
        platform: &Platform,
        rates: BTreeMap<(KernelId, DeviceId), RateObservation>,
    ) -> Self {
        let mut s = Self::with_warmup(platform, 0);
        s.rates = rates;
        s
    }

    /// DP-Perf ready to measure `program` under `spec`, with the paper's
    /// profiling phase excluded: a fresh scheduler's warm-up run learns the
    /// rates, and the returned scheduler starts from them. The warm-up runs
    /// under the spec's schedule in its replayable form, with the run's
    /// health config and no adaptation or repair, unobserved and
    /// unjournaled. It is a pure function of the spec, so a resumed run
    /// regenerates it, and under faults the learned rates reflect the
    /// platform *as it misbehaves* — which is what lets DP-Perf steer
    /// around a throttled or flaky device.
    pub fn warmed(program: &Program, platform: &Platform, spec: &RunSpec) -> Self {
        let mut warm = Self::new(platform);
        let warmup = spec.warmup();
        let _ = simulate_spec(
            program,
            platform,
            &mut warm,
            &warmup,
            None,
            &mut NullObserver,
            None,
        );
        Self::seeded(platform, warm.rates)
    }

    /// The learned rate table (to seed a measured run).
    pub fn rates(&self) -> &BTreeMap<(KernelId, DeviceId), RateObservation> {
        &self.rates
    }

    fn estimate_exec(&self, kernel: KernelId, dev: DeviceId, items: u64) -> Option<SimTime> {
        let rate = self.rates.get(&(kernel, dev))?.rate()?;
        Some(SimTime::from_secs_f64(items as f64 / rate))
    }

    fn assigned(&self, kernel: KernelId, dev: DeviceId) -> u32 {
        self.assigned.get(&(kernel, dev)).copied().unwrap_or(0)
    }

    /// Estimated wait before a new task could start on `dev`: outstanding
    /// occupancy spread over the device's slots.
    fn backlog(&self, dev: DeviceId) -> SimTime {
        self.outstanding[dev.0] / self.slots[dev.0]
    }

    fn charge(&mut self, task: TaskId, dev: DeviceId, est: SimTime) {
        self.outstanding[dev.0] += est;
        if self.est_of.len() <= task.0 {
            self.est_of.resize(task.0 + 1, SimTime::ZERO);
        }
        self.est_of[task.0] = est;
    }
}

impl Scheduler for PerfScheduler {
    fn bind(&mut self, ctx: &BindCtx<'_>) -> DeviceId {
        let kernel = ctx.task.kernel;
        if let Some(d) = ctx.task.pinned {
            return d;
        }
        // Profiling phase: give under-assigned devices their warm-up
        // instances (fewest assignments first; ties → lowest device id).
        if self.warmup > 0 {
            if let Some(dev) = ctx
                .platform
                .devices
                .iter()
                .map(|d| d.id)
                .filter(|&d| self.assigned(kernel, d) < self.warmup)
                .min_by_key(|&d| (self.assigned(kernel, d), d))
            {
                *self.assigned.entry((kernel, dev)).or_insert(0) += 1;
                // No estimate exists during warm-up; charge nothing.
                self.charge(ctx.task_id, dev, SimTime::ZERO);
                return dev;
            }
        }
        // Earliest-estimated-finisher across all devices with a known rate,
        // folding in the data-movement cost of a non-local placement. Each
        // candidate is `(finish, device, transfer + exec)`, so the chosen
        // one is charged without walking the coherence state again.
        let mut best: Option<(SimTime, DeviceId, SimTime)> = None;
        let mut chain: Option<(SimTime, DeviceId, SimTime)> = None;
        let chain_dev = ctx.pred_placements.first().copied();
        for d in &ctx.platform.devices {
            let Some(exec) = self.estimate_exec(kernel, d.id, ctx.task.items) else {
                continue;
            };
            let transfer = (ctx.transfer_estimate)(d.id);
            let finish = ctx.now + self.backlog(d.id) + transfer + exec;
            let candidate = (finish, d.id, transfer + exec);
            if best.is_none_or(|(bf, bd, ..)| finish < bf || (finish == bf && d.id < bd)) {
                best = Some(candidate);
            }
            if chain_dev == Some(d.id) {
                chain = Some(candidate);
            }
        }
        // Dependency-chain affinity (the paper: DP-Perf "also tracks data
        // dependency as DP-Dep"): stay on the predecessor's device unless
        // another device is estimated substantially (>25%) faster — this
        // keeps chains resident instead of ping-ponging partitions.
        if let (Some((bf, ..)), Some(c)) = (best, chain) {
            let margin = bf + bf.saturating_sub(ctx.now) / 4;
            if c.0 <= margin {
                best = Some(c);
            }
        }
        // If no device has a rate yet (e.g. completions still in flight
        // after the warm-up assignments), spread load by per-slot assigned
        // count — the least informed but least harmful choice.
        let (dev, charge) = match best {
            Some((_, dev, charge)) => (dev, charge),
            None => {
                let dev = ctx
                    .platform
                    .devices
                    .iter()
                    .map(|d| d.id)
                    .min_by(|&a, &b| {
                        let la = self.assigned(kernel, a) as f64
                            / ctx.platform.device(a).spec.kind.slots() as f64;
                        let lb = self.assigned(kernel, b) as f64
                            / ctx.platform.device(b).spec.kind.slots() as f64;
                        la.partial_cmp(&lb).unwrap().then(a.cmp(&b))
                    })
                    .expect("platform has devices");
                (dev, (ctx.transfer_estimate)(dev))
            }
        };
        *self.assigned.entry((kernel, dev)).or_insert(0) += 1;
        self.charge(ctx.task_id, dev, charge);
        dev
    }

    fn on_complete(
        &mut self,
        task: TaskId,
        kernel: KernelId,
        dev: DeviceId,
        items: u64,
        _busy: SimTime,
        exec: SimTime,
        _now: SimTime,
    ) {
        let obs = self.rates.entry((kernel, dev)).or_default();
        obs.count += 1;
        obs.items += items as f64;
        obs.secs += exec.as_secs_f64();
        // Reverse this task's occupancy charge.
        if let Some(est) = self.est_of.get_mut(task.0).map(std::mem::take) {
            self.outstanding[dev.0] = self.outstanding[dev.0].saturating_sub(est);
        }
    }

    fn name(&self) -> &'static str {
        "DP-Perf"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Access;
    use crate::program::TaskDesc;
    use hetero_platform::Platform;

    fn task(kernel: usize, items: u64, pinned: Option<DeviceId>) -> TaskDesc {
        TaskDesc {
            kernel: KernelId(kernel),
            items,
            accesses: Vec::<Access>::new(),
            pinned,
            cost_scale: 1.0,
        }
    }

    const NO_TRANSFER: &dyn Fn(DeviceId) -> SimTime = &|_| SimTime::ZERO;

    fn ctx<'a>(platform: &'a Platform, t: &'a TaskDesc, preds: &'a [DeviceId]) -> BindCtx<'a> {
        BindCtx {
            now: SimTime::ZERO,
            platform,
            task: t,
            task_id: TaskId(0),
            pred_placements: preds,
            transfer_estimate: NO_TRANSFER,
        }
    }

    #[test]
    fn pinned_scheduler_honours_pin() {
        let p = Platform::test_small();
        let mut s = PinnedScheduler;
        let t = task(0, 10, Some(DeviceId(1)));
        assert_eq!(s.bind(&ctx(&p, &t, &[])), DeviceId(1));
        assert!(!s.is_dynamic());
    }

    #[test]
    #[should_panic(expected = "requires every task to be pinned")]
    fn pinned_scheduler_rejects_unpinned() {
        let p = Platform::test_small();
        let mut s = PinnedScheduler;
        let t = task(0, 10, None);
        let _ = s.bind(&ctx(&p, &t, &[]));
    }

    #[test]
    fn dep_scheduler_round_robins_over_slots() {
        // test_small: CPU 4 slots + GPU 1 slot => ring length 5, GPU 5th.
        let p = Platform::test_small();
        let mut s = DepScheduler::new(&p);
        let t = task(0, 10, None);
        let mut seq = Vec::new();
        for _ in 0..10 {
            seq.push(s.bind(&ctx(&p, &t, &[])));
        }
        let expect: Vec<DeviceId> = [0, 0, 0, 0, 1, 0, 0, 0, 0, 1]
            .iter()
            .map(|&i| DeviceId(i))
            .collect();
        assert_eq!(seq, expect);
    }

    #[test]
    fn dep_scheduler_follows_chain() {
        let p = Platform::test_small();
        let mut s = DepScheduler::new(&p);
        let t = task(0, 10, None);
        let d = s.bind(&ctx(&p, &t, &[DeviceId(1)]));
        assert_eq!(d, DeviceId(1));
    }

    #[test]
    fn icpp15_ring_gives_gpu_one_of_thirteen() {
        // On the paper's platform (12 CPU threads + 1 GPU), 24 instances
        // round-robin so that the GPU receives exactly one — the paper's
        // observation for MatrixMul under DP-Dep.
        let p = Platform::icpp15();
        let mut s = DepScheduler::new(&p);
        let t = task(0, 10, None);
        let gpu = p.gpu().unwrap().id;
        let n_gpu = (0..24).filter(|_| s.bind(&ctx(&p, &t, &[])) == gpu).count();
        assert_eq!(n_gpu, 1);
    }

    #[test]
    fn perf_scheduler_warms_up_each_device() {
        let p = Platform::test_small();
        let mut s = PerfScheduler::new(&p);
        let t = task(0, 100, None);
        let mut counts = [0usize; 2];
        for i in 0..6 {
            let d = s.bind(&ctx(&p, &t, &[]));
            counts[d.0] += 1;
            // Report a completion so warm-up advances.
            let busy = SimTime::from_millis(if d.0 == 0 { 10 } else { 1 });
            s.on_complete(
                TaskId(i),
                KernelId(0),
                d,
                100,
                busy,
                busy,
                SimTime::from_millis(10),
            );
        }
        assert_eq!(counts, [3, 3]);
    }

    #[test]
    fn perf_scheduler_prefers_faster_device_after_warmup() {
        let p = Platform::test_small();
        let mut s = PerfScheduler::with_warmup(&p, 1);
        let t = task(0, 100, None);
        // Warm-up: one instance each.
        for i in 0..2 {
            let d = s.bind(&ctx(&p, &t, &[]));
            let busy = SimTime::from_millis(if d.0 == 0 { 100 } else { 1 });
            s.on_complete(TaskId(i), KernelId(0), d, 100, busy, busy, SimTime::ZERO);
        }
        // GPU (dev 1) is 100x faster: next several binds all go to it.
        for _ in 0..5 {
            assert_eq!(s.bind(&ctx(&p, &t, &[])), DeviceId(1));
        }
    }

    #[test]
    fn perf_scheduler_spills_to_cpu_when_gpu_queue_grows() {
        let p = Platform::test_small();
        let mut s = PerfScheduler::with_warmup(&p, 1);
        let t = task(0, 100, None);
        for i in 0..2 {
            let d = s.bind(&ctx(&p, &t, &[]));
            // GPU only 3x faster here.
            let busy = SimTime::from_millis(if d.0 == 0 { 30 } else { 10 });
            s.on_complete(TaskId(i), KernelId(0), d, 100, busy, busy, SimTime::ZERO);
        }
        // Earliest-finish: GPU until its queue exceeds an idle CPU slot.
        let seq: Vec<DeviceId> = (0..8).map(|_| s.bind(&ctx(&p, &t, &[]))).collect();
        let gpu_n = seq.iter().filter(|d| d.0 == 1).count();
        let cpu_n = seq.len() - gpu_n;
        assert!(gpu_n >= 2, "gpu got {gpu_n}");
        assert!(cpu_n >= 2, "cpu got {cpu_n}");
    }

    #[test]
    fn seeded_scheduler_skips_warmup() {
        let p = Platform::test_small();
        let mut warm = PerfScheduler::new(&p);
        let t = task(0, 100, None);
        for i in 0..6 {
            let d = warm.bind(&ctx(&p, &t, &[]));
            let busy = SimTime::from_millis(if d.0 == 0 { 50 } else { 1 });
            warm.on_complete(TaskId(i), KernelId(0), d, 100, busy, busy, SimTime::ZERO);
        }
        let mut seeded = PerfScheduler::seeded(&p, warm.rates().clone());
        // Immediately performance-aware: first bind goes to the GPU.
        assert_eq!(seeded.bind(&ctx(&p, &t, &[])), DeviceId(1));
    }

    #[test]
    fn rate_observation_math() {
        let mut r = RateObservation::default();
        assert_eq!(r.rate(), None);
        r.count = 2;
        r.items = 200.0;
        r.secs = 0.5;
        assert_eq!(r.rate(), Some(400.0));
    }
}
