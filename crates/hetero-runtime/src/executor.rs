//! The virtual-time executor.
//!
//! Drives a [`Program`] over a [`Platform`] under a [`Scheduler`], producing
//! a [`RunReport`]. The execution model mirrors the OmpSs runtime the paper
//! uses:
//!
//! * task instances become *ready* when their data dependences are
//!   satisfied and their taskwait epoch is active;
//! * ready instances are *bound* to a device by the scheduler and wait in
//!   that device's FIFO queue for a free slot (a CPU hardware thread, or
//!   the GPU);
//! * dispatching an instance first satisfies coherence (host↔device
//!   transfers for its read regions — serialised with the device's work,
//!   as in a single-command-queue OpenCL device), then executes under the
//!   device's roofline model;
//! * dynamic policies pay the platform's per-decision scheduling overhead
//!   per instance; pinned (static) plans do not;
//! * each `taskwait` waits for all prior instances, flushes device-resident
//!   data to the host and invalidates device copies;
//! * a final implicit flush returns all results to the host — the paper's
//!   "one device-to-host data transfer after the last kernel finishes".
//!
//! [`simulate_spec`] stacks the layers below on that model, as the run's
//! [`RunMode`](crate::RunMode) declares; each layer disabled is
//! byte-identical to the layer beneath it.
//!
//! # One task record, one device state, one take-back
//!
//! * Each task has one record. Its lifecycle is `Waiting → Queued(dev) →
//!   Running(attempt) → Done(dev)`; a dropout, a quarantine drain, a
//!   repair rebind or a rollback sends it back to `Waiting`. A task is
//!   `Queued` exactly while it is in its device's FIFO: a retry-exhausted
//!   task stays `Running` until its failover target queues it, so a repair
//!   its breaker trip triggers leaves it alone. The running attempt holds
//!   its dispatch time, its generation and its hedged duplicate, so a
//!   hedge cannot outlive its attempt.
//! * Every task event carries the generation of the attempt that issued
//!   it, and is live only while its task runs under that generation. A
//!   `HedgeDone` is live only while that attempt still has its winning
//!   hedge on the event's peer.
//! * Each device is `Up`, `Quarantined`, `Probing` (with its probe task)
//!   or `Dead` (with the time of death). Death is absorbing.
//! * A discarded dispatch (a dropout kill or reset, a hedge win, a
//!   rollback) is taken back by one routine, `Sim::take_back`. It also
//!   returns fault time the dispatch sampled past the discard instant;
//!   each caller only chooses where the burned span is charged.
//!
//! # Resilient execution
//!
//! A faulty run executes the same model under a seeded [`FaultSchedule`]:
//!
//! * **throttle ramps** multiply an attempt's execution time;
//! * **transfer faults** re-issue the transfer at full wire cost;
//! * a **transient task fault** wastes the attempt, then the
//!   [`RetryPolicy`] retries on the same device with exponential backoff
//!   charged as simulated time; when retries are exhausted the task *fails
//!   over* to the surviving device with the most slots (ultimately the
//!   host, mirroring the paper's Only-CPU baseline), and a task that
//!   exhausts retries with nowhere left to go finishes in *safe mode*
//!   (fault sampling disabled) so every run terminates;
//! * a **device dropout** kills the device's queued and in-flight work and
//!   re-binds it to survivors; uncommitted completions of the *current*
//!   epoch that ran on the dead device are re-executed, because their
//!   results lived in the dead memory and the host only holds the previous
//!   taskwait's checkpoint. Epochs whose barrier was already reached are
//!   committed checkpoints and are never re-executed.
//!
//! The fault path is strictly additive: with no schedule the executor takes
//! the exact event sequence of the healthy simulator, byte for byte.
//!
//! # Gray-failure resilience
//!
//! A resilient run layers the [`crate::health`] subsystem on top: a
//! straggler *watchdog* that hedges slow attempts onto the best other
//! device (first finisher wins), *duplicate-check* verification that
//! catches silently corrupted epochs at their barrier and rolls them back
//! to the checkpoint, and a per-device *circuit breaker* fed by an EWMA
//! health score. With [`HealthConfig::disabled`] the resilient executor is
//! exactly the faulty one, byte for byte. Because attempt durations
//! are sampled at dispatch, the watchdog is *prescient*: the fire event is
//! armed up front exactly when the attempt will still be running at its
//! deadline — semantically identical to a wall-clock watchdog. Two
//! documented simplifications: a hedged duplicate re-reads its inputs
//! without re-charging transfers and samples no faults of its own, and a
//! hedge win leaves the coherence directory naming the primary's memory
//! space (only timing and attribution move to the peer).
//!
//! # Adaptive repartitioning
//!
//! An adaptive run layers the [`crate::adapt`] controller on top: at each
//! taskwait barrier the per-device busy-time skew of the closing epoch is
//! measured, a sustained imbalance re-pins the remaining epochs' static
//! chunks over the live device set, and when corrections are exhausted the
//! static plan escalates to an internal DP-Perf scheduler seeded with the
//! run's own observations. With [`AdaptConfig::disabled`] the adaptive
//! executor is exactly the resilient one, byte for byte. Skew accounting
//! is dispatch-based (a hedge win still attributes to the primary's
//! dispatch), and a dropout or epoch rollback clears the open epoch's
//! observation window — the detector is a heuristic over committed work,
//! not an audit trail.
//!
//! Every placement decision — barrier repartitioning, de-escalation back
//! to the static plan, and the plan repair below — goes through one N-way
//! rebalancer (`Sim::nway_rebalance`; a CPU+GPU platform is N = 2). It
//! prices each chunk with the device model scaled by a calibration ratio
//! of observed over predicted execution time, plus host round trips and
//! migrations, and no Glinda re-solve runs during execution.
//!
//! # Degraded-mode plan repair
//!
//! A repairing run adds [`ReplanConfig`] on top: when a device dies past
//! its retry budget or the circuit breaker quarantines it, the
//! executor rebalances every not-yet-checkpointed epoch over the surviving
//! device set and rebinds the queued chunks; when a breaker recloses, a
//! symmetric *healing* re-plan readmits the device. Both run behind the
//! rebalancer's no-regression guard and are bounded by
//! [`ReplanConfig::max_replans`]. The latest placement decision binds: a
//! later barrier rebalance or de-escalation that moves a repaired chunk
//! replaces the repair's pin. With [`ReplanConfig::disabled`] the
//! repairing executor is exactly the adaptive one, byte for byte.

use crate::adapt::{AdaptConfig, AdaptPlan, AdaptReport, ReplanConfig, ReplanError};
use crate::coherence::CoherenceDir;
use crate::graph::TaskGraph;
use crate::health::{HealthConfig, HealthReport, QuarantineSpan, VerificationPolicy};
use crate::journal::{EpochRecord, JournalError, JournalSink, RngCursors};
use crate::obs::{route_event, DeviceBreakdown, NullObserver, Observer, TimeBreakdown};
use crate::program::{KernelId, Program, TaskDesc, TaskId};
use crate::scheduler::{BindCtx, PerfScheduler, RateObservation, Scheduler};
use crate::spec::{RunMode, RunSpec};
use crate::stats::{KernelStats, RunReport};
use crate::trace::TraceEvent;
use hetero_platform::{
    DeviceId, EventQueue, FaultCounters, FaultEvent, FaultRng, FaultSchedule, MemSpaceId, Platform,
    PlatformCounters, RetryPolicy, SimTime,
};
use std::collections::{BTreeMap, VecDeque};

/// Stream-splitting constant for the health RNG: verification sampling
/// draws from its own SplitMix64 stream so enabling it never perturbs
/// fault sampling.
///
/// Public (with [`ADAPT_STREAM`] and [`CORRELATED_STREAM`]) so the fuzzing
/// harness can pin the values with a golden-seed test: changing any of
/// these constants silently re-rolls every recorded fault trace and fuzz
/// corpus entry, so a refactor must not be able to shift them unnoticed.
pub const HEALTH_STREAM: u64 = 0x5EED_C0DE_D00D_FEED;

/// Stream-splitting constant for the adaptation RNG: the controller's
/// tie-breaks draw from their own SplitMix64 stream so enabling
/// adaptation never perturbs fault or verification sampling.
pub const ADAPT_STREAM: u64 = 0xADA7_ADA7_ADA7_ADA7;

/// Stream-splitting constant for the correlated-trigger RNG: conditional
/// sibling draws come from their own SplitMix64 stream so a schedule with
/// fault domains replays the *base* fault sampling of the same schedule
/// without domains byte-identically. The stream is only allocated when
/// [`FaultSchedule::has_correlation`] is true.
pub const CORRELATED_STREAM: u64 = 0x00C0_DEFA_17D0_5EED;

/// Stream-splitting constant for the plan-repair RNG: survivor re-plan
/// tie-breaks draw from their own SplitMix64 stream so enabling repair
/// never perturbs fault, health, or adaptation sampling and identical
/// seeds replay byte-identically.
pub const REPLAN_STREAM: u64 = 0x9EBA_1A2C_D00D_5EED;

/// Safety margin of the N-way rebind guard: a survivor re-plan (or barrier
/// rebalance) applies an epoch's moves only when the modeled wall beats the
/// naive chunk-by-chunk failover wall by at least this fraction. The model
/// is a per-epoch LPT relaxation — it prices execution at observed rates
/// plus host round-trip and migration transfers, but cannot see link
/// serialization or queue interleaving — so marginal predicted wins are
/// not acted on.
const NWAY_GUARD_MARGIN: f64 = 0.10;

/// A task event carries the generation of the attempt it belongs to and is
/// live only while its task runs under that generation ([`Sim::live`]).
enum Ev {
    TaskDone {
        task: TaskId,
        gen: u32,
    },
    TaskAborted {
        task: TaskId,
        gen: u32,
    },
    EpochFlushed,
    DeviceDropout {
        dev: DeviceId,
    },
    /// The straggler watchdog's deadline passed with the attempt still
    /// running.
    WatchdogFire {
        task: TaskId,
        gen: u32,
    },
    /// A hedged duplicate designated the winner finished on its peer; live
    /// only while the attempt still has that winning hedge.
    HedgeDone {
        task: TaskId,
        dev: DeviceId,
        gen: u32,
    },
    /// A quarantined device's cool-down elapsed: half-open the circuit.
    CircuitProbe {
        dev: DeviceId,
    },
}

/// Simulate `program` on `platform` under `scheduler`.
pub fn simulate(
    program: &Program,
    platform: &Platform,
    scheduler: &mut dyn Scheduler,
) -> RunReport {
    simulate_observed(program, platform, scheduler, &mut NullObserver)
}

/// [`simulate`] with a pluggable [`Observer`] receiving every executor
/// event (see [`crate::obs`]). Observers are strictly observational: the
/// run's virtual-time outcome is identical for any observer.
pub fn simulate_observed(
    program: &Program,
    platform: &Platform,
    scheduler: &mut dyn Scheduler,
    obs: &mut dyn Observer,
) -> RunReport {
    Sim::new(
        program,
        platform,
        scheduler,
        &RunSpec::plain(),
        None,
        obs,
        None,
    )
    .run()
}

/// The executor entry point: run `program` under the layers `spec`
/// declares (see [`RunSpec`] and the module docs).
///
/// * `plan` marks a program with a static split, so the adaptation
///   controller can rebalance its chunks; programs without one pass
///   `None` and can still escalate.
/// * `obs` receives every executor event; observers never steer the run.
/// * `journal`, when attached, commits one [`EpochRecord`] per epoch
///   flush and must have been opened with [`JournalSink::begin`]. A
///   journaled run is byte-identical to its unjournaled twin: the sink
///   observes commits, it never steers.
///
/// Returns [`JournalError::Killed`] when the sink's
/// [`hetero_platform::KillSchedule`] fires (the journal text written so
/// far is valid and resumable), [`JournalError::DivergentReplay`] when a
/// resumed run fails the byte-exact redo-replay validation, and
/// [`JournalError::HeaderMismatch`] when a faulty mode carries no
/// schedule. An unjournaled run with its schedule never fails. Identical
/// specs (same seed, same events) replay identical runs.
pub fn simulate_spec(
    program: &Program,
    platform: &Platform,
    scheduler: &mut dyn Scheduler,
    spec: &RunSpec,
    plan: Option<AdaptPlan>,
    obs: &mut dyn Observer,
    journal: Option<&mut JournalSink>,
) -> Result<RunReport, JournalError> {
    if spec.mode != RunMode::Plain {
        spec.require_schedule()?;
    }
    Sim::new(program, platform, scheduler, spec, plan, obs, journal).run_result()
}

/// Mutable fault-injection state, present only on the faulty path.
struct FaultCtx<'a> {
    schedule: &'a FaultSchedule,
    policy: RetryPolicy,
    rng: FaultRng,
    counters: FaultCounters,
    /// Corrupt results injected across all dispatches.
    corruptions_injected: u64,
    /// Corruption injection disabled for the open epoch's re-runs (set
    /// after `max_rollbacks_per_epoch`; the SDC analog of safe mode).
    suppress_corruption: bool,
    /// Sibling fault windows synthesized by correlated triggering during
    /// this run, in trigger order (exported as
    /// `RunReport::synthesized_faults` for trace recording).
    synth: Vec<FaultEvent>,
    /// Conditional-trigger stream, allocated only when the schedule has a
    /// domain with `trigger_prob > 0` so domain-free schedules replay
    /// byte-identically.
    corr_rng: Option<FaultRng>,
}

impl FaultCtx<'_> {
    /// Task-fault probability for `dev` at `at`, for an attempt of a task
    /// dispatched at `dispatched`: composes the schedule's windows with the
    /// sibling windows synthesized so far (same ordered product a replayed
    /// [`hetero_platform::FaultTrace`] computes). The dispatch time lets a
    /// replay schedule gate its baked-in synthesized windows to exactly
    /// the tasks the recorded run's live windows could reach.
    fn task_fault_prob(&self, dev: DeviceId, at: SimTime, dispatched: SimTime) -> f64 {
        self.schedule
            .task_fault_prob_dispatched(dev, at, dispatched, &self.synth)
    }

    /// `true` while any synthesized sibling window is open at `now`.
    fn synth_window_open(&self, now: SimTime) -> bool {
        self.synth.iter().any(|ev| {
            matches!(ev, FaultEvent::TaskFaults { from, until, .. }
                if *from <= now && now < *until)
        })
    }
}

/// A member of a fault domain faulted at `now` on `source`: draw, per
/// sibling, whether the shared root condition propagates — opening a
/// `sibling_fault_prob` window of the domain's length on the sibling. The
/// draws come from the dedicated correlated stream and every opened window
/// is recorded in `f.synth` (and the trace), so a recorded run replays
/// byte-identically with triggering disabled.
fn trigger_correlated(f: &mut FaultCtx, obs: &mut dyn Observer, source: DeviceId, now: SimTime) {
    let Some(rng) = f.corr_rng.as_mut() else {
        return;
    };
    for (di, d) in f.schedule.domains.iter().enumerate() {
        if d.trigger_prob <= 0.0 || !d.contains(source) {
            continue;
        }
        for &sib in &d.members {
            if sib == source {
                continue;
            }
            if rng.next_f64() >= d.trigger_prob {
                continue;
            }
            let until = now + d.window;
            f.synth.push(FaultEvent::TaskFaults {
                dev: Some(sib),
                prob: d.sibling_fault_prob,
                from: now,
                until,
            });
            f.counters.correlated_triggers += 1;
            route_event(
                obs,
                &TraceEvent::CorrelatedFaultTriggered {
                    domain: di,
                    source,
                    sibling: sib,
                    until,
                    at: now,
                },
            );
        }
    }
}

/// Everything the executor tracks about one task instance.
struct TaskRec {
    life: Life,
    /// Data dependences not yet satisfied.
    preds_left: usize,
    /// Blame decomposition of the latest dispatch; its total is the slot
    /// occupancy that dispatch charged.
    cost: TaskCost,
    /// Where the latest placement decision re-homed this static chunk.
    repin: Option<Repin>,
    /// Already failed over once (next exhaustion → safe mode).
    failed_over: bool,
    /// Placement was forced (scheduler bypassed), so the scheduler must not
    /// be told about its completion — its own books still name the device
    /// *it* chose.
    suppress_complete: bool,
    /// Bound by the escalated scheduler (pays the dynamic per-decision
    /// scheduling overhead, routes `on_complete` internally).
    by_escalated: bool,
    /// The committed result is silently corrupted (ground truth, tracked
    /// whether or not verification is on).
    corrupt: bool,
}

/// A task's lifecycle. A task is placed on a device exactly while it is
/// queued, running or done there.
#[derive(Clone, Copy)]
enum Life {
    /// Unbound: dependences pending, epoch not yet active, or un-run by a
    /// dropout, a quarantine drain, a repair rebind or a rollback.
    Waiting,
    /// Bound, waiting in the device's FIFO for a free slot.
    Queued(DeviceId),
    /// Holding a slot.
    Running(Attempt),
    /// Its result stands on the device.
    Done(DeviceId),
}

impl Life {
    /// The device a queued, running or done task is placed on.
    fn placed(self) -> Option<DeviceId> {
        match self {
            Life::Waiting => None,
            Life::Queued(d) | Life::Done(d) => Some(d),
            Life::Running(a) => Some(a.dev),
        }
    }
}

/// One dispatch of a task, from its slot grant until it completes or is
/// discarded.
#[derive(Clone, Copy)]
struct Attempt {
    dev: DeviceId,
    /// Dispatch time.
    started: SimTime,
    /// The generation this attempt's events must carry to be live. Every
    /// dispatch draws a fresh one, and designating a winning hedge draws
    /// another, which silences the straggling primary's completion.
    gen: u32,
    /// The dispatch recorded its work on the device counters (false while
    /// an aborting dispatch only holds the slot).
    recorded: bool,
    /// The watchdog fired for this dispatch.
    straggled: bool,
    /// Active hedged duplicate.
    hedge: Option<Hedge>,
}

/// An active hedged duplicate of one straggling attempt.
#[derive(Clone, Copy)]
struct Hedge {
    /// Device the duplicate runs on.
    peer: DeviceId,
    /// When the duplicate was launched.
    launched: SimTime,
    /// The duplicate will finish before the straggling primary (decided at
    /// launch — attempt durations are known at dispatch).
    winner: bool,
}

/// A re-pin of a not-yet-placed static chunk, tagged with the kind of
/// decision that wrote it. The latest decision binds.
#[derive(Clone, Copy)]
enum Repin {
    /// A survivor or healing re-plan: the chunk pays the per-decision
    /// overhead, booked as `replan` blame.
    Repair(DeviceId),
    /// A barrier rebalance or a de-escalation.
    Adapt(DeviceId),
}

impl Repin {
    fn dev(self) -> DeviceId {
        match self {
            Repin::Repair(d) | Repin::Adapt(d) => d,
        }
    }
}

/// Availability of one device. `Dead` is absorbing.
#[derive(Clone, Copy, PartialEq, Eq)]
enum DevState {
    Up,
    /// Circuit open: new bindings redirect to survivors, nothing dispatches.
    Quarantined,
    /// Circuit half-open: queued bindings stay, and one probe task (once
    /// dispatched, named here) is let through.
    Probing(Option<TaskId>),
    /// Dropped out at the given time.
    Dead(SimTime),
}

/// Mutable gray-failure state, present only when a [`HealthConfig`] with
/// at least one mitigation enabled was supplied.
struct HealthCtx {
    config: HealthConfig,
    /// Verification-sampling stream, independent of the fault stream.
    rng: FaultRng,
    report: HealthReport,
    /// Per device: consecutive bad observations (resets on a good one).
    consecutive_bad: Vec<u32>,
    /// Per device: when the latest barrier's verification on it ends.
    verified_until: Vec<SimTime>,
    /// Rollbacks of the open epoch so far.
    rollbacks_this_epoch: u32,
}

/// Mutable adaptation state, present only when an [`AdaptConfig`] with at
/// least one mitigation enabled was supplied.
struct AdaptCtx {
    config: AdaptConfig,
    /// The static plan behind the program. `None` disables repartitioning
    /// but still allows escalation.
    plan: Option<AdaptPlan>,
    /// Tie-break stream, independent of the fault and health streams.
    rng: FaultRng,
    report: AdaptReport,
    /// Per device: busy time committed in the open epoch's window.
    epoch_busy: Vec<SimTime>,
    /// Cumulative (kernel, device) throughput observations; seeds the
    /// escalated DP-Perf scheduler.
    obs: BTreeMap<(KernelId, DeviceId), RateObservation>,
    /// Consecutive barriers whose skew exceeded the threshold.
    consecutive_imbalanced: u32,
    /// Corrections since the run last met the balance target.
    resolves_since_balance: u32,
    /// The internal DP-Perf scheduler, once the static plan is abandoned.
    escalated: Option<PerfScheduler>,
    /// Consecutive escalated barriers that were balanced *and* free of any
    /// open disturbance window; reaching `reinstate_after` attempts a
    /// de-escalation back to the (rebalanced) static plan.
    calm_barriers: u32,
}

/// Mutable plan-repair state, present only when an enabled
/// [`ReplanConfig`] was supplied (see the module docs).
struct ReplanCtx {
    config: ReplanConfig,
    /// Tie-break stream, independent of the fault/health/adapt streams.
    rng: FaultRng,
    /// Survivor re-plans applied after a death or quarantine.
    replans: u64,
    /// Healing re-plans applied after a breaker reclose.
    readmissions: u64,
    /// Why the last repair attempt failed, if any did.
    error: Option<ReplanError>,
}

/// Per-device calibration of the device model against committed work:
/// actual exec seconds (throttle windows included) over the model's
/// predicted exec seconds for the same chunks, cumulative and for the open
/// epoch. Unlike a raw items-per-second extrapolation the ratio is immune
/// to launch-overhead and kernel-mix skew, while still capturing sustained
/// throttling; the epoch window shows drift that began mid-run before it
/// dominates the cumulative books.
struct Calibration {
    exec: Vec<f64>,
    model: Vec<f64>,
    epoch_exec: Vec<f64>,
    epoch_model: Vec<f64>,
}

impl Calibration {
    fn new(ndev: usize) -> Self {
        Calibration {
            exec: vec![0.0; ndev],
            model: vec![0.0; ndev],
            epoch_exec: vec![0.0; ndev],
            epoch_model: vec![0.0; ndev],
        }
    }

    fn record(&mut self, dev: DeviceId, exec: SimTime, model: SimTime) {
        self.exec[dev.0] += exec.as_secs_f64();
        self.model[dev.0] += model.as_secs_f64();
        self.epoch_exec[dev.0] += exec.as_secs_f64();
        self.epoch_model[dev.0] += model.as_secs_f64();
    }

    fn open_epoch(&mut self) {
        self.epoch_exec.fill(0.0);
        self.epoch_model.fill(0.0);
    }

    /// Per device: the factor the rebalancer scales the model by — the
    /// larger of the cumulative and the open epoch's ratio (at a barrier,
    /// the closing epoch's), never below 1 (a device with nothing
    /// committed is priced at the model).
    fn scale(&self) -> Vec<f64> {
        let ratio = |exec: f64, model: f64| {
            if model > 0.0 && exec > 0.0 {
                exec / model
            } else {
                1.0
            }
        };
        (0..self.exec.len())
            .map(|d| {
                ratio(self.exec[d], self.model[d])
                    .max(ratio(self.epoch_exec[d], self.epoch_model[d]))
                    .max(1.0)
            })
            .collect()
    }
}

/// What one [`Sim::nway_rebalance`] decided.
struct Rebalance {
    /// Chunks to re-pin, with their new device.
    moves: Vec<(TaskId, DeviceId)>,
    /// Items the moved chunks carry.
    moved_items: u64,
    /// The first remaining epoch with static chunks, as it will now run.
    next: Option<NextEpoch>,
}

/// The rebalancer's view of the first remaining epoch after its decision.
#[derive(Clone, Copy)]
struct NextEpoch {
    /// Predicted wall of the applied assignment (seconds).
    wall: f64,
    /// Items placed on the host.
    host_items: u64,
    /// Items placed on accelerators.
    accel_items: u64,
}

/// Add `t` to the least-loaded of a device's slot loads — the executor's
/// dispatch onto its earliest-free slot, as the rebalancer models it.
fn lpt_push(load: &mut [f64], t: f64) {
    let m = load
        .iter_mut()
        .min_by(|x, y| x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal))
        .unwrap();
    *m += t;
}

/// The largest slot load over every device: a modeled epoch wall.
fn max_load(loads: &[Vec<f64>]) -> f64 {
    loads
        .iter()
        .flat_map(|l| l.iter())
        .fold(0.0f64, |m, &v| m.max(v))
}

/// The up device with the most slots (ties → lowest id), excluding
/// `exclude`: no binding may target a dead, quarantined or probing device.
/// The host (device 0, never dead and never quarantined) is the target of
/// last resort.
fn fallback_device(
    platform: &Platform,
    states: &[DevState],
    exclude: Option<DeviceId>,
) -> DeviceId {
    platform
        .devices
        .iter()
        .filter(|d| states[d.id.0] == DevState::Up && Some(d.id) != exclude)
        .max_by_key(|d| (d.spec.kind.slots(), std::cmp::Reverse(d.id.0)))
        .map(|d| d.id)
        .unwrap_or(DeviceId(0))
}

/// Per-dispatch blame decomposition of one task's slot occupancy, so a
/// take-back ([`Sim::take_back`]) can recategorize exactly what the
/// dispatch charged. The components sum to the dispatch's slot occupancy
/// ([`TaskCost::busy`]); `exec` is zero for an aborted dispatch.
#[derive(Clone, Copy, Default)]
struct TaskCost {
    sched: SimTime,
    adapt: SimTime,
    transfer: SimTime,
    exec: SimTime,
    /// Fault loss (failed attempts, backoff, transfer retries) charged to
    /// `fault_loss` and `time_lost` at dispatch, so a take-back charges
    /// only the remainder of the span it discards.
    fault: SimTime,
    /// Extra wire time a successful transfer paid on a degraded link over
    /// its nominal cost (reversed with `transfer` on reversal).
    link: SimTime,
    /// Binding overhead charged because a survivor re-plan re-pinned this
    /// chunk (the plan-repair analogue of `sched`/`adapt`).
    replan: SimTime,
}

impl TaskCost {
    /// The dispatch's slot occupancy.
    fn busy(&self) -> SimTime {
        self.sched + self.adapt + self.transfer + self.exec + self.fault + self.link + self.replan
    }
}

struct Sim<'a> {
    program: &'a Program,
    platform: &'a Platform,
    scheduler: &'a mut dyn Scheduler,
    graph: TaskGraph,
    /// The placements of the task being bound's predecessors, refilled
    /// on every bind ([`BindCtx::pred_placements`]).
    pred_placements: Vec<DeviceId>,
    tasks: Vec<&'a TaskDesc>,
    epochs: Vec<Vec<TaskId>>,

    now: SimTime,
    queue: EventQueue<Ev>,
    coherence: CoherenceDir,
    counters: PlatformCounters,
    per_kernel: Vec<KernelStats>,

    recs: Vec<TaskRec>,
    /// How many of `recs` are `Life::Done`.
    done: usize,
    /// The latest attempt generation drawn ([`Attempt::gen`]).
    gen: u32,
    dev_state: Vec<DevState>,
    dev_queues: Vec<VecDeque<TaskId>>,
    free_slots: Vec<usize>,
    /// Completion time of the last task finished on each device, used to
    /// start the taskwait flush of a device's data as soon as that device
    /// is done (overlapping with other devices still computing, as the
    /// runtime's asynchronous write-back does).
    dev_last_done: Vec<SimTime>,

    cur_epoch: usize,
    epoch_remaining: usize,
    flushes_done: usize,
    obs: &'a mut dyn Observer,
    /// Per-device blame accumulators (always on; `dead`/`idle`/`slots` are
    /// filled in at `finish`).
    blame: Vec<DeviceBreakdown>,
    /// Accelerator device owning each non-host memory space (`None` for
    /// the host space), for mapping a transfer hop to the host↔device
    /// link a [`FaultEvent::LinkDegrade`] window names.
    space_dev: Vec<Option<DeviceId>>,
    faults: Option<FaultCtx<'a>>,
    health: Option<HealthCtx>,
    adapt: Option<AdaptCtx>,
    replan: Option<ReplanCtx>,
    /// The write-ahead run journal, when this run is journaled (see
    /// [`crate::journal`]): one record per committed epoch flush.
    journal: Option<&'a mut JournalSink>,
    /// A journal failure (kill, divergent replay) raised mid-event; the
    /// run loop surfaces it as the run's `Err` after the event returns.
    journal_err: Option<JournalError>,
    /// The device model's calibration against committed work, which the
    /// rebalancer prices chunks with; kept only when a layer that
    /// rebalances (adaptation or plan repair) is on.
    calibration: Option<Calibration>,
}

impl<'a> Sim<'a> {
    /// A run of `program` under the layers `spec` declares. Each layer's
    /// config is validated, and a disabled layer allocates no state.
    fn new(
        program: &'a Program,
        platform: &'a Platform,
        scheduler: &'a mut dyn Scheduler,
        spec: &'a RunSpec,
        plan: Option<AdaptPlan>,
        obs: &'a mut dyn Observer,
        journal: Option<&'a mut JournalSink>,
    ) -> Self {
        let graph = TaskGraph::build(program);
        let tasks: Vec<&TaskDesc> = program.tasks().into_iter().map(|(_, t)| t).collect();
        let epochs = program.epochs();
        let per_kernel = program
            .kernels
            .iter()
            .map(|k| KernelStats {
                name: k.name.clone(),
                items_per_device: vec![0; platform.devices.len()],
                tasks_per_device: vec![0; platform.devices.len()],
            })
            .collect();
        let faults = spec.fault_layer().map(|(schedule, policy)| {
            schedule
                .validate()
                .unwrap_or_else(|e| panic!("invalid fault schedule: {e}"));
            FaultCtx {
                schedule,
                policy,
                rng: schedule.rng(),
                counters: FaultCounters::default(),
                corruptions_injected: 0,
                suppress_corruption: false,
                synth: Vec::new(),
                corr_rng: schedule
                    .has_correlation()
                    .then(|| FaultRng::new(schedule.seed ^ CORRELATED_STREAM)),
            }
        });
        let ndev = platform.devices.len();
        let health = spec.health_layer();
        health
            .validate()
            .unwrap_or_else(|e| panic!("invalid health config: {e}"));
        let health = health.enabled().then(|| HealthCtx {
            config: health,
            rng: FaultRng::new(
                faults.as_ref().map(|f| f.schedule.seed).unwrap_or(0) ^ HEALTH_STREAM,
            ),
            report: HealthReport {
                scores: vec![1.0; ndev],
                ..HealthReport::default()
            },
            consecutive_bad: vec![0; ndev],
            verified_until: vec![SimTime::ZERO; ndev],
            rollbacks_this_epoch: 0,
        });
        let adapt = spec.adapt_layer();
        adapt
            .validate()
            .unwrap_or_else(|e| panic!("invalid adapt config: {e}"));
        let adapt = adapt.enabled().then(|| AdaptCtx {
            config: adapt,
            plan,
            rng: FaultRng::new(
                faults.as_ref().map(|f| f.schedule.seed).unwrap_or(0) ^ ADAPT_STREAM,
            ),
            report: AdaptReport::default(),
            epoch_busy: vec![SimTime::ZERO; ndev],
            obs: BTreeMap::new(),
            consecutive_imbalanced: 0,
            resolves_since_balance: 0,
            escalated: None,
            calm_barriers: 0,
        });
        let replan = spec.replan_layer();
        replan
            .validate()
            .unwrap_or_else(|e| panic!("invalid replan config: {e}"));
        let replan = replan.enabled().then(|| ReplanCtx {
            config: replan,
            rng: FaultRng::new(
                faults.as_ref().map(|f| f.schedule.seed).unwrap_or(0) ^ REPLAN_STREAM,
            ),
            replans: 0,
            readmissions: 0,
            error: None,
        });
        let calibration = (adapt.is_some() || replan.is_some()).then(|| Calibration::new(ndev));
        Sim {
            recs: (0..graph.len())
                .map(|t| TaskRec {
                    life: Life::Waiting,
                    preds_left: graph.preds(TaskId(t)).len(),
                    cost: TaskCost::default(),
                    repin: None,
                    failed_over: false,
                    suppress_complete: false,
                    by_escalated: false,
                    corrupt: false,
                })
                .collect(),
            done: 0,
            gen: 0,
            dev_state: vec![DevState::Up; ndev],
            graph,
            pred_placements: Vec::new(),
            tasks,
            epochs,
            program,
            platform,
            scheduler,
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            coherence: CoherenceDir::new(platform.mem_spaces, &program.buffers),
            counters: PlatformCounters::new(platform.devices.len()),
            per_kernel,
            dev_queues: platform.devices.iter().map(|_| VecDeque::new()).collect(),
            free_slots: platform
                .devices
                .iter()
                .map(|d| d.spec.kind.slots())
                .collect(),
            dev_last_done: vec![SimTime::ZERO; platform.devices.len()],
            cur_epoch: 0,
            epoch_remaining: 0,
            flushes_done: 0,
            obs,
            blame: vec![DeviceBreakdown::default(); ndev],
            space_dev: {
                let mut map = vec![None; platform.mem_spaces];
                for d in &platform.devices {
                    if !d.mem_space.is_host() {
                        map[d.mem_space.0] = Some(d.id);
                    }
                }
                map
            },
            faults,
            health,
            adapt,
            replan,
            journal,
            journal_err: None,
            calibration,
        }
    }

    /// Take back `t`'s latest dispatch on `dev`, discarded after it burned
    /// `span` of slot time (a dropout kill or reset, a hedge win, or a
    /// rollback): reverse the device counters, the per-kernel counts (when
    /// the dispatch `recorded` its work) and the categorized blame it
    /// booked. Its fault loss stays booked up to `span`; fault time sampled
    /// past the discard instant was never burned and comes back out of
    /// `fault_loss` and `time_lost`. Returns the rest of the burned span,
    /// which the caller charges where the discard belongs.
    fn take_back(&mut self, t: TaskId, dev: DeviceId, span: SimTime, recorded: bool) -> SimTime {
        let task = self.tasks[t.0];
        let cost = self.recs[t.0].cost;
        let c = &mut self.counters.devices[dev.0];
        c.busy = c.busy.saturating_sub(cost.busy());
        if recorded {
            c.tasks -= 1;
            c.items -= task.items;
            let ks = &mut self.per_kernel[task.kernel.0];
            ks.items_per_device[dev.0] -= task.items;
            ks.tasks_per_device[dev.0] -= 1;
        }
        let overbooked = cost.fault.saturating_sub(span);
        let b = &mut self.blame[dev.0];
        b.scheduling = b.scheduling.saturating_sub(cost.sched);
        b.adaptation = b.adaptation.saturating_sub(cost.adapt);
        b.transfer = b.transfer.saturating_sub(cost.transfer);
        b.link_degraded = b.link_degraded.saturating_sub(cost.link);
        b.compute = b.compute.saturating_sub(cost.exec);
        b.replan = b.replan.saturating_sub(cost.replan);
        b.fault_loss = b.fault_loss.saturating_sub(overbooked);
        let f = self
            .faults
            .as_mut()
            .expect("dispatches are discarded only under faults");
        f.counters.time_lost = f.counters.time_lost.saturating_sub(overbooked);
        span.saturating_sub(cost.fault)
    }

    /// The attempt a task event belongs to: live only while `t` runs under
    /// the event's generation `gen`.
    fn live(&self, t: TaskId, gen: u32) -> Option<Attempt> {
        match self.recs[t.0].life {
            Life::Running(a) if a.gen == gen => Some(a),
            _ => None,
        }
    }

    /// The attempt `t` is running.
    fn attempt_mut(&mut self, t: TaskId) -> &mut Attempt {
        match &mut self.recs[t.0].life {
            Life::Running(a) => a,
            _ => panic!("task {} is not running", t.0),
        }
    }

    /// A device no new binding may target: dead, quarantined, or probing
    /// (a probing device keeps its existing bindings as probe candidates).
    fn unavailable(&self, d: DeviceId) -> bool {
        self.dev_state[d.0] != DevState::Up
    }

    /// Cancel a hedged duplicate: the peer slot span it burned is hedge
    /// waste.
    fn burn_hedge(&mut self, hd: Hedge) {
        let span = self.now.saturating_sub(hd.launched);
        self.counters.devices[hd.peer.0].busy += span;
        self.blame[hd.peer.0].hedge_waste += span;
        let h = self
            .health
            .as_mut()
            .expect("hedging is a health mitigation");
        h.report.time_hedged += span;
    }

    fn run(self) -> RunReport {
        self.run_result()
            .unwrap_or_else(|e| panic!("unjournaled run cannot fail: {e}"))
    }

    fn run_result(mut self) -> Result<RunReport, JournalError> {
        if self.epochs.is_empty() || self.tasks.is_empty() {
            return Ok(self.finish());
        }
        // Dropouts are scheduled up front: their events carry the lowest
        // sequence numbers, so at a time tie the failure wins — a task
        // finishing exactly when its device dies is killed.
        if let Some(f) = &self.faults {
            let dropouts = f.schedule.dropouts();
            for (dev, at) in dropouts {
                self.queue.push(at, Ev::DeviceDropout { dev });
            }
        }
        self.activate_epoch();
        while let Some((t, ev)) = self.queue.pop() {
            // Injected coordinator death at simulated time: the process
            // dies before processing any event at or past the instant.
            if let Some(kill_at) = self.journal.as_deref().and_then(JournalSink::time_kill_at) {
                if t >= kill_at {
                    let records = self.journal.as_deref().map_or(0, JournalSink::records);
                    return Err(JournalError::Killed { records, at: t });
                }
            }
            match ev {
                Ev::TaskDone { task, gen } => {
                    let Some(a) = self.live(task, gen) else {
                        continue;
                    };
                    self.now = t;
                    self.on_task_done(task, a);
                }
                Ev::TaskAborted { task, gen } => {
                    let Some(a) = self.live(task, gen) else {
                        continue;
                    };
                    self.now = t;
                    self.on_task_aborted(task, a.dev);
                }
                Ev::EpochFlushed => {
                    self.now = t;
                    self.on_epoch_flushed();
                }
                Ev::DeviceDropout { dev } => {
                    // A dropout after the program finished is a non-event;
                    // skipping it keeps the makespan untouched.
                    if self.cur_epoch >= self.epochs.len() {
                        continue;
                    }
                    self.now = t;
                    self.on_device_dropout(dev);
                }
                Ev::WatchdogFire { task, gen } => {
                    let Some(a) = self.live(task, gen) else {
                        continue;
                    };
                    self.now = t;
                    self.on_watchdog_fire(task, a);
                }
                Ev::HedgeDone { task, dev, gen } => {
                    let won = self.live(task, gen).and_then(|a| {
                        a.hedge
                            .filter(|hd| hd.winner && hd.peer == dev)
                            .map(|hd| (a, hd))
                    });
                    let Some((a, hd)) = won else {
                        continue;
                    };
                    self.now = t;
                    self.on_hedge_done(task, a, hd);
                }
                Ev::CircuitProbe { dev } => {
                    // Like dropouts, probes after the program finished must
                    // not extend the makespan.
                    if self.cur_epoch >= self.epochs.len() {
                        continue;
                    }
                    self.now = t;
                    self.on_circuit_probe(dev);
                }
            }
            // A journal failure (injected record-kill, divergent replay)
            // terminates the run at the event that raised it.
            if let Some(e) = self.journal_err.take() {
                return Err(e);
            }
        }
        assert!(
            self.recs.iter().all(|r| matches!(r.life, Life::Done(_))),
            "deadlock: not all tasks completed (cyclic program or lost event)"
        );
        Ok(self.finish())
    }

    fn finish(self) -> RunReport {
        let mut health = self.health.map(|h| h.report).unwrap_or_default();
        if let Some(f) = &self.faults {
            // Ground truth is reported whether or not verification ran.
            health.corruptions_injected = f.corruptions_injected;
            health.corrupt_committed = self.recs.iter().filter(|r| r.corrupt).count() as u64;
        }
        // A breaker still open (or a device that died while quarantined) at
        // run end leaves its span open-ended; close it at the makespan so
        // the blame table and the exported quarantine seconds agree.
        for span in health.quarantine.iter_mut() {
            if span.until.is_none() {
                span.until = Some(self.now);
            }
        }
        // Close the blame books: per device, capacity = makespan × slots;
        // dead time covers the post-dropout tail, idle is the remainder —
        // so every device's components sum exactly to its capacity.
        let makespan = self.now;
        let mut per_device = self.blame;
        for (i, d) in self.platform.devices.iter().enumerate() {
            let b = &mut per_device[i];
            b.slots = d.spec.kind.slots() as u64;
            let cap = makespan * b.slots;
            b.dead = match self.dev_state[i] {
                DevState::Dead(at) => makespan.saturating_sub(at) * b.slots,
                _ => SimTime::ZERO,
            };
            b.idle = cap.saturating_sub(b.active() + b.dead);
        }
        let report = RunReport {
            scheduler: self.scheduler.name().to_string(),
            makespan,
            counters: self.counters,
            per_kernel: self.per_kernel,
            device_is_gpu: self
                .platform
                .devices
                .iter()
                .map(|d| d.spec.kind.is_gpu())
                .collect(),
            synthesized_faults: self
                .faults
                .as_ref()
                .map(|f| f.synth.clone())
                .unwrap_or_default(),
            faults: self.faults.map(|f| f.counters).unwrap_or_default(),
            health,
            adapt: {
                let mut adapt = self.adapt.map(|a| a.report).unwrap_or_default();
                if let Some(r) = self.replan {
                    adapt.replans = r.replans;
                    adapt.readmissions = r.readmissions;
                    adapt.replan_error = r.error;
                }
                adapt
            },
            breakdown: TimeBreakdown {
                makespan,
                per_device,
            },
        };
        if self.obs.enabled() {
            self.obs.on_run_end(&report);
        }
        report
    }

    /// Begin the current epoch: bind its dependency-free tasks.
    fn activate_epoch(&mut self) {
        // Rollback budgets are per epoch: a fresh epoch re-enables
        // corruption injection (rollback's re-activation bypasses this).
        if let Some(h) = &mut self.health {
            h.rollbacks_this_epoch = 0;
        }
        if let Some(f) = &mut self.faults {
            f.suppress_corruption = false;
        }
        // The skew detector and the calibration's epoch window observe one
        // epoch at a time.
        if let Some(a) = &mut self.adapt {
            a.epoch_busy.fill(SimTime::ZERO);
        }
        if let Some(c) = &mut self.calibration {
            c.open_epoch();
        }
        let tasks: Vec<TaskId> = self.epochs[self.cur_epoch].clone();
        self.epoch_remaining = tasks.len();
        if tasks.is_empty() {
            // An empty epoch is just a flush point.
            self.start_flush();
            return;
        }
        for t in tasks {
            if self.recs[t.0].preds_left == 0 {
                self.make_ready(t);
            }
        }
        self.dispatch_all();
    }

    /// Bind a ready task to a device and enqueue it there.
    fn make_ready(&mut self, t: TaskId) {
        self.pred_placements.clear();
        self.pred_placements
            .extend(self.graph.preds(t).iter().map(|p| {
                self.recs[p.0]
                    .life
                    .placed()
                    .expect("predecessor completed, so it must have been placed")
            }));
        let task = self.tasks[t.0];
        let coherence = &self.coherence;
        let platform = self.platform;
        let buffers = &self.program.buffers;
        // Estimates see the wire as it stands *now*: an open LinkDegrade
        // window steers dynamic policies away from the throttled device.
        let now = self.now;
        let link_sched = self
            .faults
            .as_ref()
            .map(|f| f.schedule)
            .filter(|s| s.has_link_degrade());
        let transfer_estimate = move |dev: DeviceId| -> SimTime {
            let space = platform.device(dev).mem_space;
            let (bw, lat) = link_sched.map_or((1.0, 1.0), |s| s.link_factors(dev, now));
            let price = |from: MemSpaceId, to: MemSpaceId, bytes: u64| -> SimTime {
                if bw == 1.0 && lat == 1.0 {
                    platform.transfer_time(from, to, bytes)
                } else {
                    platform
                        .link(from, to)
                        .map_or(SimTime::ZERO, |l| l.transfer_time_scaled(bytes, bw, lat))
                }
            };
            let mut total = SimTime::ZERO;
            for acc in &task.accesses {
                if acc.mode.reads() {
                    let bytes =
                        coherence.missing_read_bytes(acc.region.buffer, acc.region.span, space);
                    if bytes > 0 {
                        // Approximation: data arrives from the host.
                        total += price(MemSpaceId::HOST, space, bytes);
                    }
                }
                if acc.mode.writes() && !space.is_host() {
                    // Data produced off-host must eventually be written
                    // back; charge it to the placement (conservative, as in
                    // a descriptor-based data-movement estimate).
                    let bytes = acc.region.len() * buffers[acc.region.buffer.0].item_bytes;
                    total += price(space, MemSpaceId::HOST, bytes);
                }
            }
            total
        };
        // Once the plan escalated, the internal DP-Perf scheduler binds
        // everything that follows; its view of the task has the static pin
        // stripped (a pinned task would otherwise bypass the policy).
        // Before escalation, the latest placement decision's re-pin binds.
        let escalated_bind = self.adapt.as_ref().is_some_and(|a| a.escalated.is_some());
        let stripped;
        let bind_task = if escalated_bind {
            stripped = TaskDesc {
                pinned: None,
                ..task.clone()
            };
            &stripped
        } else {
            task
        };
        let ctx = BindCtx {
            now: self.now,
            platform: self.platform,
            task: bind_task,
            task_id: t,
            pred_placements: &self.pred_placements,
            transfer_estimate: &transfer_estimate,
        };
        let rec = &mut self.recs[t.0];
        let mut dev = if escalated_bind {
            let a = self.adapt.as_mut().unwrap();
            if !rec.by_escalated {
                rec.by_escalated = true;
                a.report.escalated_tasks += 1;
            }
            a.escalated.as_mut().unwrap().bind(&ctx)
        } else if let Some(r) = rec.repin {
            r.dev()
        } else {
            self.scheduler.bind(&ctx)
        };
        // A binding that names a dead or quarantined device is redirected
        // to the fallback survivor (a pinned plan keeps naming its dead
        // device; redirecting here is what "falls back to Only-CPU
        // completion"). Probing devices keep their bindings: they become
        // probe candidates.
        if matches!(
            self.dev_state[dev.0],
            DevState::Quarantined | DevState::Dead(_)
        ) {
            let target = fallback_device(self.platform, &self.dev_state, None);
            let f = self
                .faults
                .as_mut()
                .expect("devices go down only under faults");
            f.counters.failovers += 1;
            self.recs[t.0].suppress_complete = true;
            route_event(
                &mut *self.obs,
                &TraceEvent::Failover {
                    task: t,
                    from: dev,
                    to: target,
                    at: self.now,
                },
            );
            dev = target;
        }
        self.recs[t.0].life = Life::Queued(dev);
        self.dev_queues[dev.0].push_back(t);
        if self.obs.enabled() {
            let depth = self.dev_queues[dev.0].len();
            self.obs.on_task_bound(t, dev, self.now, depth);
        }
    }

    fn dispatch_all(&mut self) {
        for d in 0..self.dev_queues.len() {
            self.dispatch(DeviceId(d));
        }
    }

    /// Start as many queued tasks on `dev` as free slots allow. A dead or
    /// quarantined device dispatches nothing; a probing device lets a
    /// single probe task through at a time.
    fn dispatch(&mut self, dev: DeviceId) {
        let probing = match self.dev_state[dev.0] {
            DevState::Up => false,
            DevState::Probing(None) => true,
            DevState::Probing(Some(_)) | DevState::Quarantined | DevState::Dead(_) => return,
        };
        while self.free_slots[dev.0] > 0 {
            let Some(t) = self.dev_queues[dev.0].pop_front() else {
                break;
            };
            self.free_slots[dev.0] -= 1;
            let (busy, nominal, aborted) = self.start_task(t, dev);
            self.gen += 1;
            let gen = self.gen;
            self.recs[t.0].life = Life::Running(Attempt {
                dev,
                started: self.now,
                gen,
                recorded: !aborted,
                straggled: false,
                hedge: None,
            });
            if probing {
                self.dev_state[dev.0] = DevState::Probing(Some(t));
                let h = self.health.as_mut().expect("probing is a breaker state");
                h.report.probes += 1;
            }
            let ev = if aborted {
                Ev::TaskAborted { task: t, gen }
            } else {
                Ev::TaskDone { task: t, gen }
            };
            self.queue.push(self.now + busy, ev);
            // Prescient watchdog: attempt durations are sampled at
            // dispatch, so the fire event is armed up front exactly when
            // the attempt will still be running at its deadline.
            if !aborted {
                if let Some(w) = self.health.as_ref().and_then(|h| h.config.watchdog) {
                    let deadline = SimTime::from_secs_f64(nominal.as_secs_f64() * w.slack);
                    if nominal > SimTime::ZERO && busy > deadline {
                        self.queue
                            .push(self.now + deadline, Ev::WatchdogFire { task: t, gen });
                    }
                }
            }
            if probing {
                break;
            }
        }
    }

    /// Account one task's slot occupancy: scheduling overhead + coherence
    /// transfers + roofline execution (+ fault attempts, under a schedule).
    /// Mutates the coherence directory. Returns the slot occupancy, the
    /// *nominal* occupancy (the model's fault- and throttle-free
    /// prediction, which is what the watchdog's deadline is computed
    /// against), and whether the task aborted (exhausted its retries and
    /// must fail over).
    fn start_task(&mut self, t: TaskId, dev: DeviceId) -> (SimTime, SimTime, bool) {
        let task = self.tasks[t.0];
        let device = self.platform.device(dev);
        let space = device.mem_space;
        let mut busy = SimTime::ZERO;
        let mut nominal = SimTime::ZERO;
        let mut cost = TaskCost::default();

        // Tasks bound by the escalated DP-Perf scheduler pay the dynamic
        // per-decision overhead even though the run started static.
        let by_escalated = self.recs[t.0].by_escalated;
        let dynamic_bound = self.scheduler.is_dynamic() || by_escalated;
        if dynamic_bound {
            busy += self.platform.sched_overhead;
            nominal += self.platform.sched_overhead;
            self.counters.record_sched(self.platform.sched_overhead);
            // Overhead paid *because* the run escalated is adaptation
            // blame; ordinary dynamic-policy overhead is scheduling blame.
            if by_escalated {
                cost.adapt += self.platform.sched_overhead;
            } else {
                cost.sched += self.platform.sched_overhead;
            }
        }
        // Chunks re-pinned by a survivor re-plan pay the same per-decision
        // overhead, booked to the `replan` blame component.
        let by_replan = !by_escalated
            && !dynamic_bound
            && matches!(self.recs[t.0].repin, Some(Repin::Repair(_)));
        if by_replan {
            busy += self.platform.sched_overhead;
            nominal += self.platform.sched_overhead;
            self.counters.record_sched(self.platform.sched_overhead);
            cost.replan += self.platform.sched_overhead;
        }

        for acc in &task.accesses {
            if acc.mode.reads() {
                for tr in self
                    .coherence
                    .acquire_for_read(acc.region.buffer, acc.region.span, space)
                {
                    // Degraded cost prices the wire as it stands when the
                    // transfer is issued; the nominal cost keeps the
                    // watchdog baseline degradation-free.
                    let ddt =
                        self.degraded_transfer_cost(tr.from, tr.to, tr.bytes, self.now + busy);
                    let ndt = transfer_cost(self.platform, tr.from, tr.to, tr.bytes);
                    // A faulty link re-issues the transfer at full cost;
                    // after max_attempts failed tries it goes through
                    // regardless (the retry storm has been paid for).
                    if let Some(f) = &mut self.faults {
                        let mut attempts = 0;
                        while attempts < f.policy.max_attempts {
                            let p = f.schedule.transfer_fault_prob(self.now + busy);
                            if p <= 0.0 || f.rng.next_f64() >= p {
                                break;
                            }
                            f.counters.transfer_faults += 1;
                            f.counters.transfer_retries += 1;
                            f.counters.time_lost += ddt;
                            cost.fault += ddt;
                            self.counters.record_transfer(tr.bytes, ddt);
                            route_event(
                                &mut *self.obs,
                                &TraceEvent::TransferRetry {
                                    from: tr.from,
                                    to: tr.to,
                                    bytes: tr.bytes,
                                    start: self.now + busy,
                                    end: self.now + busy + ddt,
                                },
                            );
                            busy += ddt;
                            attempts += 1;
                        }
                    }
                    route_event(
                        &mut *self.obs,
                        &TraceEvent::Transfer {
                            from: tr.from,
                            to: tr.to,
                            bytes: tr.bytes,
                            start: self.now + busy,
                            end: self.now + busy + ddt,
                        },
                    );
                    busy += ddt;
                    nominal += ndt;
                    // The slowdown beyond the nominal wire is link blame;
                    // the nominal part stays transfer blame. `extra` is
                    // zero whenever the link is at (or above) spec.
                    let extra = ddt.saturating_sub(ndt);
                    cost.transfer += ddt - extra;
                    cost.link += extra;
                    self.counters.record_transfer(tr.bytes, ddt);
                }
            }
        }

        let profile = &self.program.kernels[task.kernel.0].profile;
        let base_exec = device.exec_time_weighted(profile, task.items, task.cost_scale);
        nominal += base_exec;
        let mut exec = base_exec;
        let mut aborted = false;
        // Attempt outcomes are computed here, at dispatch time: replayed
        // synthesized windows that opened later cannot apply (see
        // `FaultSchedule::task_fault_prob_dispatched`).
        let dispatched = self.now;
        if let Some(f) = &mut self.faults {
            let max = f.policy.max_attempts.max(1);
            let mut attempt: u32 = 1;
            loop {
                let at = self.now + busy;
                let this_exec = f.schedule.throttled_exec(dev, at, base_exec);
                let p = f.task_fault_prob(dev, at, dispatched);
                let failed = p > 0.0 && f.rng.next_f64() < p;
                if !failed {
                    exec = this_exec;
                    busy += this_exec;
                    break;
                }
                // The attempt runs to completion, then is detected failed.
                f.counters.task_faults += 1;
                f.counters.time_lost += this_exec;
                cost.fault += this_exec;
                busy += this_exec;
                route_event(
                    &mut *self.obs,
                    &TraceEvent::TaskFault {
                        task: t,
                        dev,
                        attempt,
                        at: self.now + busy,
                    },
                );
                // A member fault may raise sibling fault probability for a
                // window (correlated fault domains).
                trigger_correlated(f, &mut *self.obs, dev, self.now + busy);
                if attempt >= max {
                    let has_failover_target = !self.recs[t.0].failed_over
                        && self.platform.devices.iter().any(|d| {
                            !matches!(self.dev_state[d.id.0], DevState::Dead(_)) && d.id != dev
                        });
                    if has_failover_target {
                        aborted = true;
                    } else {
                        // Safe mode: one final fault-free attempt
                        // guarantees termination on the last resort.
                        let final_exec = f.schedule.throttled_exec(dev, self.now + busy, base_exec);
                        exec = final_exec;
                        busy += final_exec;
                        f.counters.safe_mode_tasks += 1;
                    }
                    break;
                }
                let bo = f.policy.backoff_for(attempt);
                f.counters.task_retries += 1;
                f.counters.backoff_time += bo;
                f.counters.time_lost += bo;
                cost.fault += bo;
                busy += bo;
                attempt += 1;
            }
            // Silent corruption: the attempt "succeeds" on time but its
            // committed result is wrong. Ground truth is tracked whether
            // or not verification is on; the draw is gated on a positive
            // probability so schedules without SDC events keep their
            // exact fault stream.
            if !aborted {
                let cp = f.schedule.corruption_prob(dev, self.now);
                let corrupt = cp > 0.0 && !f.suppress_corruption && f.rng.next_f64() < cp;
                if corrupt {
                    f.corruptions_injected += 1;
                }
                self.recs[t.0].corrupt = corrupt;
            }
        } else {
            busy += exec;
        }

        if aborted {
            // Nothing was produced: no writes land, no work is recorded —
            // the slot was simply held for the wasted attempts. The trace
            // still needs the occupancy (span trees tile capacity against
            // the blame books), so the span goes out as a held slot
            // rather than a task.
            self.counters.devices[dev.0].busy += busy;
            self.recs[t.0].cost = cost;
            self.apply_blame(dev, cost);
            route_event(
                &mut *self.obs,
                &TraceEvent::SlotHeld {
                    task: t,
                    kernel: task.kernel,
                    dev,
                    start: self.now,
                    end: self.now + busy,
                },
            );
            return (busy, nominal, true);
        }

        for acc in &task.accesses {
            if acc.mode.writes() {
                self.coherence
                    .record_write(acc.region.buffer, acc.region.span, space);
            }
        }

        self.counters.record_task(dev, task.items, busy);
        let ks = &mut self.per_kernel[task.kernel.0];
        ks.items_per_device[dev.0] += task.items;
        ks.tasks_per_device[dev.0] += 1;
        cost.exec = exec;
        debug_assert_eq!(
            cost.busy(),
            busy,
            "blame components tile the slot occupancy"
        );
        self.recs[t.0].cost = cost;
        self.apply_blame(dev, cost);
        // Feed the adaptation observers: per-epoch skew accumulators and
        // the cumulative rate table that seeds an eventual escalation.
        if let Some(a) = &mut self.adapt {
            a.epoch_busy[dev.0] += busy;
            let o = a.obs.entry((task.kernel, dev)).or_default();
            o.count += 1;
            o.items += task.items as f64;
            o.secs += exec.as_secs_f64();
        }
        if let Some(c) = &mut self.calibration {
            c.record(dev, exec, base_exec);
        }
        route_event(
            &mut *self.obs,
            &TraceEvent::Task {
                task: t,
                kernel: task.kernel,
                dev,
                items: task.items,
                start: self.now,
                end: self.now + busy,
            },
        );
        (busy, nominal, false)
    }

    /// Charge one dispatch's blame components to `dev`'s accumulators.
    fn apply_blame(&mut self, dev: DeviceId, cost: TaskCost) {
        let b = &mut self.blame[dev.0];
        b.scheduling += cost.sched;
        b.adaptation += cost.adapt;
        b.transfer += cost.transfer;
        b.link_degraded += cost.link;
        b.fault_loss += cost.fault;
        b.compute += cost.exec;
        b.replan += cost.replan;
    }

    fn on_task_done(&mut self, t: TaskId, a: Attempt) {
        let dev = a.dev;
        self.recs[t.0].life = Life::Done(dev);
        self.done += 1;
        self.free_slots[dev.0] += 1;
        self.dev_last_done[dev.0] = self.dev_last_done[dev.0].max(self.now);
        if self.obs.enabled() {
            self.obs.on_task_done(t, dev, self.now);
        }
        let task = self.tasks[t.0];
        let rec = &self.recs[t.0];
        let (busy, exec) = (rec.cost.busy(), rec.cost.exec);
        if !rec.suppress_complete {
            // Escalated bindings report to the internal DP-Perf scheduler
            // whose books they live in, not the original (static) policy.
            if rec.by_escalated {
                if let Some(esc) = self.adapt.as_mut().and_then(|a| a.escalated.as_mut()) {
                    esc.on_complete(t, task.kernel, dev, task.items, busy, exec, self.now);
                }
            } else {
                self.scheduler
                    .on_complete(t, task.kernel, dev, task.items, busy, exec, self.now);
            }
        }

        // A loser hedge is cancelled the moment its primary finishes: the
        // peer slot it burned is charged to `time_hedged` and freed.
        if let Some(hd) = a.hedge {
            self.burn_hedge(hd);
            self.free_slots[hd.peer.0] += 1;
            self.dev_last_done[hd.peer.0] = self.dev_last_done[hd.peer.0].max(self.now);
        }
        if self.health.is_some() {
            let bad = a.straggled || self.recs[t.0].cost.fault > SimTime::ZERO;
            self.observe(dev, !bad, Some(t));
        }

        self.release_and_advance(t);
    }

    /// Completion tail shared by [`Sim::on_task_done`] and a winning
    /// hedge: release successors, advance the epoch, refill slots.
    fn release_and_advance(&mut self, t: TaskId) {
        // Release successors whose dependences are now satisfied. Only
        // successors in the *active* epoch become ready (later epochs wait
        // for their taskwait barrier; `activate_epoch` re-scans them). A
        // successor that is already placed (queued, in flight, or completed
        // — possible only when a dropout re-armed this dependence while the
        // consumer's standing result was left alone) must not be re-bound.
        // By index: `make_ready` borrows all of `self`.
        for i in 0..self.graph.succs(t).len() {
            let s = self.graph.succs(t)[i];
            let rec = &mut self.recs[s.0];
            rec.preds_left -= 1;
            if rec.preds_left == 0
                && self.graph.epoch_of(s) == self.cur_epoch
                && matches!(rec.life, Life::Waiting)
            {
                self.make_ready(s);
            }
        }

        self.epoch_remaining -= 1;
        if self.epoch_remaining == 0 {
            self.on_epoch_barrier();
        }
        self.dispatch_all();
    }

    /// Retry exhaustion on a live device: free the slot and fail the task
    /// over to the fallback survivor (forced placement — the scheduler is
    /// bypassed and will not be told about the eventual completion).
    fn on_task_aborted(&mut self, t: TaskId, dev: DeviceId) {
        self.free_slots[dev.0] += 1;
        self.dev_last_done[dev.0] = self.dev_last_done[dev.0].max(self.now);
        let rec = &mut self.recs[t.0];
        rec.failed_over = true;
        rec.suppress_complete = true;
        let f = self
            .faults
            .as_mut()
            .expect("aborts only occur under faults");
        f.counters.failovers += 1;
        // Observe first: the exhaustion may trip the breaker, and the
        // fallback choice must see the updated quarantine set. The task
        // stays `Running` until it is queued on the target, so a repair
        // the trip triggers leaves it alone, as it leaves all in-flight
        // work: the retry policy, not the repair, places a failover.
        self.observe(dev, false, Some(t));
        let target = fallback_device(self.platform, &self.dev_state, Some(dev));
        route_event(
            &mut *self.obs,
            &TraceEvent::Failover {
                task: t,
                from: dev,
                to: target,
                at: self.now,
            },
        );
        self.recs[t.0].life = Life::Queued(target);
        self.dev_queues[target.0].push_back(t);
        self.dispatch_all();
    }

    /// Permanent device failure. Kills the device's queued and in-flight
    /// work, re-executes its uncommitted completions of the open epoch
    /// (their results lived in the dead memory space), restores lost data
    /// from the host's epoch checkpoint, and re-binds everything to the
    /// survivors. Committed epochs (barrier reached) are never touched.
    fn on_device_dropout(&mut self, dev: DeviceId) {
        // The host is the last resort and cannot die; death is absorbing.
        if dev.0 == 0 || matches!(self.dev_state[dev.0], DevState::Dead(_)) {
            return;
        }
        self.dev_state[dev.0] = DevState::Dead(self.now);
        {
            let f = self
                .faults
                .as_mut()
                .expect("dropouts only occur under faults");
            f.counters.device_dropouts += 1;
            // A dropout is the strongest member fault a domain can see;
            // surviving siblings get the correlated window.
            trigger_correlated(f, &mut *self.obs, dev, self.now);
        }
        self.free_slots[dev.0] = 0;
        route_event(
            &mut *self.obs,
            &TraceEvent::DeviceDropout { dev, at: self.now },
        );
        // A barrier books verification up front and jumps past it, so this
        // death may fall inside a verification booked here: the part past
        // the death never ran (the dead tail covers it).
        if let Some(h) = &mut self.health {
            let past = h.verified_until[dev.0].saturating_sub(self.now);
            let c = &mut self.counters.devices[dev.0];
            c.busy = c.busy.saturating_sub(past);
            let b = &mut self.blame[dev.0];
            b.verify = b.verify.saturating_sub(past);
            h.report.time_verifying = h.report.time_verifying.saturating_sub(past);
        }

        // Hedge bookkeeping: a hedge whose peer died is lost (a
        // designated-winner's primary completion is revived), and a hedge
        // whose primary is about to be killed below is cancelled with it.
        for ti in 0..self.recs.len() {
            let Life::Running(a) = self.recs[ti].life else {
                continue;
            };
            let Some(hd) = a.hedge else {
                continue;
            };
            if hd.peer == dev {
                self.burn_hedge(hd);
                self.attempt_mut(TaskId(ti)).hedge = None;
                if hd.winner {
                    // The primary is still physically running; its
                    // completion was silenced when the hedge was designated
                    // winner — revive it under the attempt's generation
                    // (the primary outlives the hedge by construction:
                    // hedge_end < primary_end).
                    let end = a.started + self.recs[ti].cost.busy();
                    self.queue.push(
                        end,
                        Ev::TaskDone {
                            task: TaskId(ti),
                            gen: a.gen,
                        },
                    );
                }
            } else if a.dev == dev {
                // The kill loop below requeues the primary; the
                // duplicate's result is discarded with it.
                self.burn_hedge(hd);
                self.free_slots[hd.peer.0] += 1;
                self.attempt_mut(TaskId(ti)).hedge = None;
            }
        }

        // With the epoch's barrier already reached (flush in flight), the
        // epoch is committed: its data is home — or racing down the link,
        // which we let win — and nothing needs re-execution.
        let epoch_open = self.epoch_remaining > 0;

        // 1. Queued (bound, not yet started) work dies with its queue.
        let drained: Vec<TaskId> = self.dev_queues[dev.0].drain(..).collect();

        // 2. In-flight work is killed and its dispatch taken back; the
        // slot's net fault charge becomes exactly the span it really
        // burned before the death.
        let killed: Vec<TaskId> = (0..self.recs.len())
            .map(TaskId)
            .filter(|t| matches!(self.recs[t.0].life, Life::Running(a) if a.dev == dev))
            .collect();
        for &t in &killed {
            let Life::Running(a) = self.recs[t.0].life else {
                unreachable!("killed tasks are running");
            };
            let lost = self.take_back(t, dev, self.now.saturating_sub(a.started), a.recorded);
            self.charge_fault_loss(dev, lost);
        }

        // 3. Uncommitted completions of the open epoch that ran here must
        // re-execute: their outputs existed only in the dead memory. The
        // whole discarded span becomes fault loss.
        let resets: Vec<TaskId> = if epoch_open {
            self.epochs[self.cur_epoch]
                .iter()
                .copied()
                .filter(|t| matches!(self.recs[t.0].life, Life::Done(d) if d == dev))
                .collect()
        } else {
            Vec::new()
        };
        for &t in &resets {
            self.epoch_remaining += 1;
            let lost = self.take_back(t, dev, self.recs[t.0].cost.busy(), true);
            self.charge_fault_loss(dev, lost);
            self.faults.as_mut().unwrap().counters.reexecutions += 1;
        }
        // Everything the dropout un-ran loses its placement: from here on
        // "placed" again means queued, in flight, or completed.
        for &t in drained.iter().chain(&killed).chain(&resets) {
            self.recs[t.0].life = Life::Waiting;
        }
        self.done -= resets.len();
        // Re-arm the dependences the resets had satisfied. Every consumer
        // regains an unsatisfied dependence — the reset producer's
        // re-completion will decrement it again — but only consumers that
        // have not run yet go back to unready: a successor that already
        // started read the data while it was still valid, so its result
        // stands (the `Waiting` guard in `release_and_advance` keeps it
        // from being re-bound when the count returns to zero).
        for &t in &resets {
            for &s in self.graph.succs(t) {
                let rec = &mut self.recs[s.0];
                rec.preds_left += 1;
                if let Life::Queued(_) = rec.life {
                    // A bound-but-unstarted consumer goes back to unready.
                    rec.life = Life::Waiting;
                    for q in &mut self.dev_queues {
                        q.retain(|&x| x != s);
                    }
                }
            }
        }

        // 4. Data that lived only in the dead space is recovered from the
        // host's epoch checkpoint.
        let dead_space = self.platform.device(dev).mem_space;
        self.coherence.drop_space(dead_space);

        // The reversals above made the open epoch's skew window garbage;
        // the detector sits this epoch out rather than acting on it.
        if let Some(a) = &mut self.adapt {
            a.epoch_busy.fill(SimTime::ZERO);
        }

        // Survivor re-planning: rebalance the remaining epochs over the
        // live device set (and rebind other devices' queues) before the
        // dead device's own work is re-bound below, so step 5's
        // `make_ready` already sees the repaired re-pins.
        self.plan_repair(dev, false);

        // 5. Re-bind everything that is still dependency-free, in TaskId
        // order (deterministic). Tasks whose dependences the re-arm put
        // back wait for their producers to re-complete.
        let mut requeue: Vec<TaskId> = killed
            .into_iter()
            .chain(drained)
            .chain(resets)
            .filter(|t| self.recs[t.0].preds_left == 0)
            .collect();
        requeue.sort_unstable();
        requeue.dedup();
        for t in requeue {
            self.make_ready(t);
        }
        self.dispatch_all();
    }

    /// Charge `lost` slot time on `dev` as fault loss.
    fn charge_fault_loss(&mut self, dev: DeviceId, lost: SimTime) {
        self.faults.as_mut().unwrap().counters.time_lost += lost;
        self.blame[dev.0].fault_loss += lost;
    }

    /// Fold one good/bad observation of `dev` into its EWMA health score
    /// and the circuit breaker. `task` identifies the observation's source
    /// for probe matching.
    fn observe(&mut self, dev: DeviceId, good: bool, task: Option<TaskId>) {
        enum Action {
            None,
            Trip(SimTime),
            Close,
            Reopen(SimTime),
        }
        let action = {
            let Some(h) = self.health.as_mut() else {
                return;
            };
            let alpha = h.config.ewma_alpha;
            let s = &mut h.report.scores[dev.0];
            *s = (1.0 - alpha) * *s + alpha * if good { 1.0 } else { 0.0 };
            if good {
                h.consecutive_bad[dev.0] = 0;
            } else {
                h.consecutive_bad[dev.0] += 1;
            }
            match (h.config.breaker, self.dev_state[dev.0]) {
                (Some(b), DevState::Up)
                    if !good && h.consecutive_bad[dev.0] >= b.trip_after && dev.0 != 0 =>
                {
                    Action::Trip(b.cooldown)
                }
                (Some(b), DevState::Probing(probe)) if task.is_some() && probe == task => {
                    if good {
                        Action::Close
                    } else {
                        Action::Reopen(b.cooldown)
                    }
                }
                _ => Action::None,
            }
        };
        match action {
            Action::None => {}
            Action::Trip(cooldown) => self.trip_breaker(dev, cooldown),
            Action::Close => {
                self.dev_state[dev.0] = DevState::Up;
                let h = self.health.as_mut().unwrap();
                h.consecutive_bad[dev.0] = 0;
                h.report.circuit_closes += 1;
                if let Some(span) = h
                    .report
                    .quarantine
                    .iter_mut()
                    .rev()
                    .find(|q| q.dev == dev && q.until.is_none())
                {
                    span.until = Some(self.now);
                }
                route_event(
                    &mut *self.obs,
                    &TraceEvent::CircuitClose { dev, at: self.now },
                );
                // Healing re-plan: the readmitted device is a survivor
                // again; rebalance and migrate work back onto it (mirrors
                // PR 5's disturbance-aware de-escalation).
                if self
                    .replan
                    .as_ref()
                    .is_some_and(|r| r.config.heal_on_reclose)
                    && self.plan_repair(dev, true)
                {
                    self.dispatch_all();
                }
            }
            Action::Reopen(cooldown) => {
                self.dev_state[dev.0] = DevState::Quarantined;
                self.queue
                    .push(self.now + cooldown, Ev::CircuitProbe { dev });
                self.drain_and_rebind(dev);
            }
        }
    }

    /// Open the circuit: quarantine `dev`, schedule its half-open probe,
    /// and redirect its queued (unstarted) work. In-flight work finishes —
    /// quarantine is not a dropout.
    fn trip_breaker(&mut self, dev: DeviceId, cooldown: SimTime) {
        self.dev_state[dev.0] = DevState::Quarantined;
        {
            let h = self.health.as_mut().unwrap();
            h.report.circuit_opens += 1;
            h.report.quarantine.push(QuarantineSpan {
                dev,
                from: self.now,
                until: None,
            });
        }
        route_event(
            &mut *self.obs,
            &TraceEvent::CircuitOpen { dev, at: self.now },
        );
        self.queue
            .push(self.now + cooldown, Ev::CircuitProbe { dev });
        // Survivor re-planning before the naive drain: a successful repair
        // rebinds every queue (including `dev`'s) under the new re-pins,
        // leaving the drain below nothing to redirect.
        self.plan_repair(dev, false);
        self.drain_and_rebind(dev);
    }

    /// Re-bind a quarantined device's queued work; `make_ready` redirects
    /// it to survivors (counted as failovers).
    fn drain_and_rebind(&mut self, dev: DeviceId) {
        let drained: Vec<TaskId> = self.dev_queues[dev.0].drain(..).collect();
        for &t in &drained {
            self.recs[t.0].life = Life::Waiting;
        }
        for t in drained {
            self.make_ready(t);
        }
    }

    /// Cool-down elapsed: half-open the circuit and let one probe through.
    /// A device that died while quarantined stays dead.
    fn on_circuit_probe(&mut self, dev: DeviceId) {
        if self.dev_state[dev.0] != DevState::Quarantined {
            return;
        }
        self.dev_state[dev.0] = DevState::Probing(None);
        self.dispatch(dev);
    }

    /// The watchdog's deadline passed with attempt `a` still running:
    /// record a straggle observation and (if configured) launch a hedged
    /// duplicate on the best other device.
    fn on_watchdog_fire(&mut self, t: TaskId, a: Attempt) {
        self.attempt_mut(t).straggled = true;
        self.observe(a.dev, false, Some(t));
        let hedging = self
            .health
            .as_ref()
            .unwrap()
            .config
            .watchdog
            .is_some_and(|w| w.hedging);
        if !hedging {
            return;
        }
        // Best up peer with a free slot: minimum throttled execution
        // estimate. The duplicate re-reads the inputs the primary already
        // staged, so transfers are not re-charged, and it samples no faults
        // of its own (see the module docs).
        let task = self.tasks[t.0];
        let profile = &self.program.kernels[task.kernel.0].profile;
        let mut best: Option<(SimTime, DeviceId)> = None;
        for d in &self.platform.devices {
            if d.id == a.dev || self.unavailable(d.id) || self.free_slots[d.id.0] == 0 {
                continue;
            }
            let base = d.exec_time_weighted(profile, task.items, task.cost_scale);
            let cost = self
                .faults
                .as_ref()
                .map_or(base, |f| f.schedule.throttled_exec(d.id, self.now, base));
            if best.is_none_or(|(c, _)| cost < c) {
                best = Some((cost, d.id));
            }
        }
        let Some((cost, peer)) = best else {
            return;
        };
        let hedge_end = self.now + cost;
        let primary_end = a.started + self.recs[t.0].cost.busy();
        self.free_slots[peer.0] -= 1;
        // First finisher wins, and both finish times are known here.
        let winner = hedge_end < primary_end;
        if winner {
            // A fresh generation silences the straggling primary's
            // completion; only the hedge's completion carries it.
            self.gen += 1;
            let gen = self.gen;
            self.attempt_mut(t).gen = gen;
            self.queue.push(
                hedge_end,
                Ev::HedgeDone {
                    task: t,
                    dev: peer,
                    gen,
                },
            );
        }
        self.attempt_mut(t).hedge = Some(Hedge {
            peer,
            launched: self.now,
            winner,
        });
        self.health.as_mut().unwrap().report.hedges_issued += 1;
        route_event(
            &mut *self.obs,
            &TraceEvent::HedgeLaunched {
                task: t,
                from: a.dev,
                to: peer,
                at: self.now,
            },
        );
    }

    /// Attempt `a`'s winning hedged duplicate `hd` finished: cancel the
    /// straggling primary mid-attempt, commit the result on the peer, and
    /// complete the task.
    fn on_hedge_done(&mut self, t: TaskId, a: Attempt, hd: Hedge) {
        let (primary, peer) = (a.dev, hd.peer);
        let task = self.tasks[t.0];
        // Take back the primary's dispatch; the slot span it actually
        // burned (net of its booked fault loss) is hedge waste.
        let span_primary = self.now.saturating_sub(a.started);
        let waste = self.take_back(t, primary, span_primary, a.recorded);
        self.counters.devices[primary.0].busy += span_primary;
        self.blame[primary.0].hedge_waste += waste;
        {
            let h = self.health.as_mut().unwrap();
            h.report.hedges_won += 1;
            h.report.time_hedged += waste;
        }
        self.free_slots[primary.0] += 1;
        self.dev_last_done[primary.0] = self.dev_last_done[primary.0].max(self.now);
        // Commit the duplicate's result on the peer. The committed dispatch
        // is now the peer's span, all of it useful execution — a later
        // take-back reverses exactly that. The primary's result is
        // discarded, and with it any corruption.
        let hspan = self.now.saturating_sub(hd.launched);
        self.counters.record_task(peer, task.items, hspan);
        let ks = &mut self.per_kernel[task.kernel.0];
        ks.items_per_device[peer.0] += task.items;
        ks.tasks_per_device[peer.0] += 1;
        let rec = &mut self.recs[t.0];
        rec.cost = TaskCost {
            exec: hspan,
            ..TaskCost::default()
        };
        rec.suppress_complete = true;
        rec.corrupt = false;
        rec.life = Life::Done(peer);
        self.done += 1;
        self.blame[peer.0].compute += hspan;
        self.free_slots[peer.0] += 1;
        self.dev_last_done[peer.0] = self.dev_last_done[peer.0].max(self.now);
        route_event(
            &mut *self.obs,
            &TraceEvent::Task {
                task: t,
                kernel: task.kernel,
                dev: peer,
                items: task.items,
                start: hd.launched,
                end: self.now,
            },
        );
        route_event(
            &mut *self.obs,
            &TraceEvent::HedgeWon {
                task: t,
                dev: peer,
                at: self.now,
            },
        );
        if self.obs.enabled() {
            self.obs.on_task_done(t, peer, self.now);
        }
        self.observe(peer, true, Some(t));
        self.release_and_advance(t);
    }

    /// All tasks of the open epoch completed. Under `DupCheck` a seeded
    /// sample is re-executed on a peer device first; a mismatch rolls the
    /// epoch back to its checkpoint instead of committing it.
    fn on_epoch_barrier(&mut self) {
        if let Some(sample_rate) = self.dup_check_rate() {
            let (verify_end, detected) = self.verify_epoch(sample_rate);
            self.now = self.now.max(verify_end);
            if detected {
                self.rollback_epoch();
                return;
            }
        }
        // The epoch's results stand: let the adaptive controller observe
        // it and correct the remaining epochs before the flush commits.
        self.adapt_at_barrier();
        self.start_flush();
    }

    fn dup_check_rate(&self) -> Option<f64> {
        match self.health.as_ref().map(|h| h.config.verification) {
            Some(VerificationPolicy::DupCheck { sample_rate }) if sample_rate > 0.0 => {
                Some(sample_rate)
            }
            _ => None,
        }
    }

    /// Re-execute a seeded sample of the epoch's tasks on peer devices and
    /// compare. Verification serialises per peer starting at the barrier;
    /// returns when the last comparison lands and whether any corruption
    /// was detected.
    fn verify_epoch(&mut self, sample_rate: f64) -> (SimTime, bool) {
        let epoch_tasks = self.epochs[self.cur_epoch].clone();
        let mut cursors: Vec<SimTime> = vec![self.now; self.platform.devices.len()];
        let mut any = false;
        let mut bad_obs: Vec<(DeviceId, TaskId)> = Vec::new();
        for t in epoch_tasks {
            let sampled = if sample_rate >= 1.0 {
                true
            } else {
                self.health.as_mut().unwrap().rng.next_f64() < sample_rate
            };
            if !sampled {
                continue;
            }
            let Life::Done(placed) = self.recs[t.0].life else {
                panic!("epoch task {} completed", t.0);
            };
            let task = self.tasks[t.0];
            let profile = &self.program.kernels[task.kernel.0].profile;
            let mut best: Option<(SimTime, DeviceId)> = None;
            for d in &self.platform.devices {
                if d.id == placed || self.unavailable(d.id) {
                    continue;
                }
                let base = d.exec_time_weighted(profile, task.items, task.cost_scale);
                let cost = self.faults.as_ref().map_or(base, |f| {
                    f.schedule.throttled_exec(d.id, cursors[d.id.0], base)
                });
                if best.is_none_or(|(c, _)| cost < c) {
                    best = Some((cost, d.id));
                }
            }
            let Some((cost, peer)) = best else {
                continue; // no peer left to verify against
            };
            let end = cursors[peer.0] + cost;
            cursors[peer.0] = end;
            self.counters.devices[peer.0].busy += cost;
            self.blame[peer.0].verify += cost;
            let h = self.health.as_mut().unwrap();
            h.report.tasks_verified += 1;
            h.report.time_verifying += cost;
            if self.recs[t.0].corrupt {
                any = true;
                h.report.corruptions_detected += 1;
                route_event(
                    &mut *self.obs,
                    &TraceEvent::CorruptionDetected {
                        task: t,
                        dev: placed,
                        at: end,
                    },
                );
                bad_obs.push((placed, t));
            }
        }
        let verify_end = cursors.iter().copied().max().unwrap_or(self.now);
        self.health.as_mut().unwrap().verified_until = cursors;
        for (dev, t) in bad_obs {
            self.observe(dev, false, Some(t));
        }
        (verify_end, any)
    }

    /// A detected corruption invalidates the open epoch: reverse its
    /// committed accounting, drop the untrusted device copies (readers
    /// re-fetch from the host checkpoint), and re-run it. After
    /// `max_rollbacks_per_epoch` attempts, corruption injection is
    /// suppressed so the re-run commits clean — the SDC analog of safe
    /// mode, guaranteeing termination.
    fn rollback_epoch(&mut self) {
        {
            let h = self.health.as_mut().unwrap();
            h.report.epoch_rollbacks += 1;
            h.rollbacks_this_epoch += 1;
            if h.rollbacks_this_epoch >= h.config.max_rollbacks_per_epoch {
                if let Some(f) = self.faults.as_mut() {
                    f.suppress_corruption = true;
                }
            }
        }
        let epoch_tasks = self.epochs[self.cur_epoch].clone();
        for &t in &epoch_tasks {
            let Life::Done(dev) = self.recs[t.0].life else {
                panic!("epoch task {} completed", t.0);
            };
            // The taken-back dispatch's physical span stays on the device
            // as rollback loss (already-booked fault loss keeps its
            // category).
            let lost = self.take_back(t, dev, self.recs[t.0].cost.busy(), true);
            self.blame[dev.0].rollback += lost;
            let rec = &mut self.recs[t.0];
            rec.corrupt = false;
            rec.life = Life::Waiting;
        }
        self.done -= epoch_tasks.len();
        // Re-arm every dependence the epoch's completions had satisfied;
        // re-completions will satisfy them again.
        for &t in &epoch_tasks {
            for &s in self.graph.succs(t) {
                self.recs[s.0].preds_left += 1;
            }
        }
        for d in &self.platform.devices {
            if !d.mem_space.is_host() {
                self.coherence.drop_space(d.mem_space);
            }
        }
        self.epoch_remaining = epoch_tasks.len();
        // The rolled-back accounting invalidates the epoch's observation
        // window; the re-run is observed fresh.
        if let Some(a) = &mut self.adapt {
            a.epoch_busy.fill(SimTime::ZERO);
        }
        for t in epoch_tasks {
            if self.recs[t.0].preds_left == 0 {
                self.make_ready(t);
            }
        }
        self.dispatch_all();
    }

    /// The adaptive-repartitioning controller, run at each taskwait
    /// barrier once the epoch's results are verified (a rolled-back epoch
    /// is re-run, not observed). Detection compares slot-normalised
    /// per-device busy time of the closing epoch; hysteresis demands the
    /// imbalance persist before anything changes; the response is a
    /// rebalance while corrections remain and an escalation once
    /// `max_resolves` consecutive corrections have missed the balance
    /// target.
    fn adapt_at_barrier(&mut self) {
        if self.adapt.is_none() {
            return;
        }
        // Detect: skew = (max − min) / max over busy/slots of the devices
        // that ran work this epoch. One participant (or none) is trivially
        // balanced — there is no peer to be skewed against.
        let (skew, participants) = {
            let a = self.adapt.as_ref().unwrap();
            let mut max_n = 0.0f64;
            let mut min_n = f64::INFINITY;
            let mut participants = 0u32;
            for d in &self.platform.devices {
                let busy = a.epoch_busy[d.id.0];
                if busy == SimTime::ZERO {
                    continue;
                }
                let n = busy.as_secs_f64() / d.spec.kind.slots() as f64;
                max_n = max_n.max(n);
                min_n = min_n.min(n);
                participants += 1;
            }
            if participants >= 2 && max_n > 0.0 {
                ((max_n - min_n) / max_n, participants)
            } else {
                (0.0, participants)
            }
        };
        let imbalanced = {
            let a = self.adapt.as_mut().unwrap();
            a.report.barriers_observed += 1;
            if participants >= 2 {
                a.report.max_skew = a.report.max_skew.max(skew);
                a.report.final_skew = skew;
            }
            if skew <= a.config.balance_target {
                // Balance restored: the correction budget refills.
                a.resolves_since_balance = 0;
            }
            if skew > a.config.skew_threshold {
                a.report.imbalances_detected += 1;
                a.consecutive_imbalanced += 1;
                true
            } else {
                a.consecutive_imbalanced = 0;
                false
            }
        };
        if imbalanced {
            route_event(
                &mut *self.obs,
                &TraceEvent::ImbalanceDetected {
                    epoch: self.cur_epoch,
                    skew,
                    at: self.now,
                },
            );
        }
        // De-escalation: an escalated run watches for calm barriers and
        // hands the remaining epochs back to the static plan once the
        // disturbance has passed (the reversible side of the Table I
        // SP-* → DP-Perf escalation).
        if self
            .adapt
            .as_ref()
            .is_some_and(|a| a.escalated.is_some() && a.config.reinstate_after > 0)
        {
            self.try_reinstate(skew);
        }
        // Act only while there are future epochs to correct.
        let a = self.adapt.as_ref().unwrap();
        let triggered = a.consecutive_imbalanced >= a.config.hysteresis
            && a.escalated.is_none()
            && self.cur_epoch + 1 < self.epochs.len();
        if !triggered {
            return;
        }
        let exhausted = {
            let a = self.adapt.as_mut().unwrap();
            a.consecutive_imbalanced = 0; // re-arm the hysteresis window
            a.config.escalation && a.resolves_since_balance >= a.config.max_resolves
        };
        if exhausted {
            self.escalate();
        } else {
            let a = self.adapt.as_mut().unwrap();
            let can_repartition = a.config.repartition && a.plan.is_some();
            a.resolves_since_balance += 1;
            if can_repartition {
                self.repartition();
            }
        }
    }

    /// Re-pin the remaining epochs' static chunks over the live device set
    /// ([`Sim::nway_rebalance`]; a CPU+GPU platform is simply N = 2) and
    /// report the split the next epoch will run with.
    fn repartition(&mut self) {
        let targets = self.live_devices();
        let rebalance = self.nway_rebalance(&targets, false);
        let Some(next) = rebalance.next.filter(|_| !rebalance.moves.is_empty()) else {
            return;
        };
        for &(t, d) in &rebalance.moves {
            self.recs[t.0].repin = Some(Repin::Adapt(d));
        }
        let a = self.adapt.as_mut().unwrap();
        a.report.repartitions += 1;
        a.report.items_moved += rebalance.moved_items;
        route_event(
            &mut *self.obs,
            &TraceEvent::Repartitioned {
                epoch: self.cur_epoch,
                gpu_items: next.accel_items,
                cpu_items: next.host_items,
                at: self.now,
            },
        );
    }

    /// The devices a new binding may target (see [`Sim::unavailable`]).
    fn live_devices(&self) -> Vec<DeviceId> {
        self.platform
            .devices
            .iter()
            .filter(|d| !self.unavailable(d.id))
            .map(|d| d.id)
            .collect()
    }

    /// Where the static plan homes `t` now: the latest placement
    /// decision's re-pin, else the plan's own pin (`None` for a
    /// dynamically bound task).
    fn static_home(&self, t: TaskId) -> Option<DeviceId> {
        self.recs[t.0]
            .repin
            .map(Repin::dev)
            .or(self.tasks[t.0].pinned)
    }

    /// Per device: the factor [`Sim::chunk_cost`] scales the device model
    /// by ([`Calibration::scale`]), or 1 in a run without a rebalancing
    /// layer, which keeps no calibration.
    fn model_scale(&self) -> Vec<f64> {
        self.calibration.as_ref().map_or_else(
            || vec![1.0; self.platform.devices.len()],
            Calibration::scale,
        )
    }

    /// The rebalancer's price, in seconds, of running chunk `t` on `d`
    /// while its data lives with `home`: the device model scaled by the
    /// device's calibration (`scale`, see [`Sim::model_scale`]), the host
    /// round trip of an accelerator placement, and a migration of its reads
    /// away from `home`, priced by the nominal link ([`transfer_cost`]).
    fn chunk_cost(&self, t: TaskId, d: DeviceId, home: DeviceId, scale: &[f64]) -> f64 {
        let task = self.tasks[t.0];
        let profile = &self.program.kernels[task.kernel.0].profile;
        let (mut read_bytes, mut write_bytes) = (0u64, 0u64);
        for acc in task.accesses.iter() {
            let bytes =
                acc.region.span.len() * self.program.buffers[acc.region.buffer.0].item_bytes;
            if acc.mode.reads() {
                read_bytes += bytes;
            }
            if acc.mode.writes() {
                write_bytes += bytes;
            }
        }
        let device = self.platform.device(d);
        let exec = device
            .exec_time_weighted(profile, task.items, task.cost_scale)
            .as_secs_f64()
            * scale[d.0];
        // Epoch data is write-back coherent: an accelerator placement
        // fetches the chunk's reads from the host side and flushes its
        // writes back, so every non-host target is priced for the round
        // trip — the chunk's home included (after the epoch flush, staying
        // put re-fetches like everyone else).
        let space = device.mem_space;
        let round_trip = if space == MemSpaceId::HOST {
            0.0
        } else {
            transfer_cost(self.platform, MemSpaceId::HOST, space, read_bytes).as_secs_f64()
                + transfer_cost(self.platform, space, MemSpaceId::HOST, write_bytes).as_secs_f64()
        };
        // Migrating away from the home additionally moves whatever is
        // resident there right now.
        let mv = if d == home {
            0.0
        } else {
            let home_space = self.platform.device(home).mem_space;
            transfer_cost(self.platform, home_space, space, read_bytes).as_secs_f64()
        };
        exec + round_trip + mv
    }

    /// Wave-aware N-way re-pin of the not-yet-checkpointed epochs' static
    /// chunks over `targets` — the executor's only rebalancer, behind
    /// barrier repartitioning, de-escalation and plan repair. Chunks
    /// (longest first) go to whichever target's least-loaded slot finishes
    /// them earliest, each priced by [`Sim::chunk_cost`] from its current
    /// home. Each epoch is guarded independently against the *naive*
    /// assignment — every chunk stays home unless its home is unavailable,
    /// in which case it redirects to [`fallback_device`] (exactly what
    /// chunk-by-chunk host failover would do) — and applies only when the
    /// model predicts a wall smaller by [`NWAY_GUARD_MARGIN`]. An exact tie
    /// between candidate devices is broken by a coin from the replan stream
    /// (`use_replan_stream`) or the adaptation stream.
    fn nway_rebalance(&mut self, targets: &[DeviceId], use_replan_stream: bool) -> Rebalance {
        struct Chunk {
            t: TaskId,
            items: u64,
            cur: DeviceId,
            /// Per target: [`Sim::chunk_cost`] from the current home.
            cost: Vec<f64>,
            /// Target index the naive host-failover baseline would pick.
            naive: usize,
        }
        let scale = self.model_scale();
        let fallback = fallback_device(self.platform, &self.dev_state, None);
        let fb_idx = targets.iter().position(|&d| d == fallback).unwrap_or(0);
        let slots_of: Vec<usize> = targets
            .iter()
            .map(|&d| self.platform.device(d).spec.kind.slots())
            .collect();
        let mut per_epoch: Vec<Vec<Chunk>> = Vec::new();
        for epoch in self.epochs.iter().skip(self.cur_epoch) {
            let mut chunks: Vec<Chunk> = Vec::new();
            for &t in epoch {
                let life = self.recs[t.0].life;
                if matches!(life, Life::Running(_) | Life::Done(_)) {
                    continue;
                }
                let Some(cur) = life.placed().or_else(|| self.static_home(t)) else {
                    continue; // dynamically bound: the scheduler re-places it
                };
                let naive = if self.unavailable(cur) {
                    fb_idx
                } else {
                    targets.iter().position(|&d| d == cur).unwrap_or(fb_idx)
                };
                chunks.push(Chunk {
                    t,
                    items: self.tasks[t.0].items,
                    cur,
                    cost: targets
                        .iter()
                        .map(|&d| self.chunk_cost(t, d, cur, &scale))
                        .collect(),
                    naive,
                });
            }
            per_epoch.push(chunks);
        }
        let rng = if use_replan_stream {
            &mut self.replan.as_mut().unwrap().rng
        } else {
            &mut self.adapt.as_mut().unwrap().rng
        };
        let mut rebalance = Rebalance {
            moves: Vec::new(),
            moved_items: 0,
            next: None,
        };
        for chunks in &per_epoch {
            if chunks.is_empty() {
                continue;
            }
            let mut order: Vec<usize> = (0..chunks.len()).collect();
            order.sort_by_key(|&i| (std::cmp::Reverse(chunks[i].items), chunks[i].t));
            // The naive baseline dispatches the same longest-first waves.
            let mut naive_loads: Vec<Vec<f64>> =
                slots_of.iter().map(|&s| vec![0.0; s.max(1)]).collect();
            for &i in &order {
                let c = &chunks[i];
                lpt_push(&mut naive_loads[c.naive], c.cost[c.naive]);
            }
            let naive_wall = max_load(&naive_loads);
            // Rebalanced assignment: earliest predicted finish wins.
            let mut loads: Vec<Vec<f64>> = slots_of.iter().map(|&s| vec![0.0; s.max(1)]).collect();
            let mut dest = vec![0usize; chunks.len()];
            for &i in &order {
                let c = &chunks[i];
                let mut best: Option<(f64, usize)> = None;
                for (k, load) in loads.iter().enumerate() {
                    let slack = load.iter().fold(f64::INFINITY, |m, &v| m.min(v));
                    let fin = slack + c.cost[k];
                    let better = match best {
                        None => true,
                        Some((bf, _)) => match fin.partial_cmp(&bf) {
                            Some(std::cmp::Ordering::Less) => true,
                            Some(std::cmp::Ordering::Equal) => rng.next_f64() < 0.5,
                            _ => false,
                        },
                    };
                    if better {
                        best = Some((fin, k));
                    }
                }
                let (_, k) = best.expect("at least one surviving target");
                lpt_push(&mut loads[k], c.cost[k]);
                dest[i] = k;
            }
            // Per-epoch no-regression guard: the rebalanced assignment must
            // beat the naive one at the model's own predictions *with
            // margin* — the model is a per-epoch LPT relaxation that cannot
            // see link serialization, queue interleaving or the scheduling
            // overhead a rebound chunk pays, so a marginal predicted win is
            // not worth the risk of a real loss.
            let wall = max_load(&loads);
            let apply = wall < naive_wall * (1.0 - NWAY_GUARD_MARGIN);
            if rebalance.next.is_none() {
                let mut next = NextEpoch {
                    wall: if apply { wall } else { naive_wall },
                    host_items: 0,
                    accel_items: 0,
                };
                for (i, c) in chunks.iter().enumerate() {
                    let d = targets[if apply { dest[i] } else { c.naive }];
                    if self.platform.device(d).mem_space.is_host() {
                        next.host_items += c.items;
                    } else {
                        next.accel_items += c.items;
                    }
                }
                rebalance.next = Some(next);
            }
            if !apply {
                continue;
            }
            for (i, c) in chunks.iter().enumerate() {
                let d = targets[dest[i]];
                if d != c.cur {
                    rebalance.moves.push((c.t, d));
                    rebalance.moved_items += c.items;
                }
            }
        }
        rebalance
    }

    /// Degraded-mode plan repair (see the module docs): rebalance
    /// the not-yet-checkpointed epochs over the surviving device set and
    /// rebind the queued chunks. `heal` marks a healing re-plan after a
    /// breaker reclose (the readmitted `dev` is a survivor again);
    /// otherwise `dev` just died or was quarantined. Returns whether a
    /// repair was applied. Bounded by [`ReplanConfig::max_replans`];
    /// failures are recorded once in [`AdaptReport::replan_error`] and the
    /// executor falls back to chunk-by-chunk host failover.
    fn plan_repair(&mut self, dev: DeviceId, heal: bool) -> bool {
        let Some(r) = self.replan.as_ref() else {
            return false;
        };
        let max = r.config.max_replans;
        if r.replans + r.readmissions >= u64::from(max) {
            let r = self.replan.as_mut().unwrap();
            if r.error.is_none() {
                r.error = Some(ReplanError::BudgetExhausted { max_replans: max });
            }
            return false;
        }
        let targets = self.live_devices();
        if targets.is_empty() {
            let r = self.replan.as_mut().unwrap();
            if r.error.is_none() {
                r.error = Some(ReplanError::NoSurvivingAccelerator);
            }
            return false;
        }
        let moves = self.nway_rebalance(&targets, true).moves;
        if moves.is_empty() {
            // No-regression guard: the naive failover was predicted no
            // worse, so the standing bindings (and the guard's fallback
            // redirects) stay.
            return false;
        }
        for &(t, d) in &moves {
            self.recs[t.0].repin = Some(Repin::Repair(d));
        }
        let r = self.replan.as_mut().unwrap();
        if heal {
            r.readmissions += 1;
        } else {
            r.replans += 1;
        }
        self.rebind_queued();
        let moved = moves.len() as u64;
        let ev = if heal {
            TraceEvent::DeviceReadmitted {
                dev,
                moved,
                at: self.now,
            }
        } else {
            TraceEvent::PlanRepaired {
                dev,
                moved,
                at: self.now,
            }
        };
        route_event(&mut *self.obs, &ev);
        true
    }

    /// Drain every device queue and re-bind the drained chunks in TaskId
    /// order so freshly written repair re-pins take effect immediately.
    /// In-flight work is untouched — a migration never cancels running
    /// work, it only re-homes work that has not started.
    fn rebind_queued(&mut self) {
        let mut requeue: Vec<TaskId> = Vec::new();
        for q in &mut self.dev_queues {
            requeue.extend(q.drain(..));
        }
        requeue.sort_unstable();
        for &t in &requeue {
            self.recs[t.0].life = Life::Waiting;
        }
        for t in requeue {
            self.make_ready(t);
        }
    }

    /// Hand the rest of the run to an internal DP-Perf scheduler seeded
    /// with the run's own per-(kernel, device) observations — the Table I
    /// static → dynamic sibling escalation (SP-* → DP-Perf).
    fn escalate(&mut self) {
        let a = self.adapt.as_mut().unwrap();
        a.escalated = Some(PerfScheduler::seeded(self.platform, a.obs.clone()));
        a.calm_barriers = 0; // a fresh escalation starts a fresh calm count
        a.report.escalated = true;
        a.report.escalated_at_epoch = Some(self.cur_epoch);
        route_event(
            &mut *self.obs,
            &TraceEvent::StrategyEscalated {
                epoch: self.cur_epoch,
                at: self.now,
            },
        );
    }

    /// Disturbance-aware de-escalation (ROADMAP: "plan reinstatement").
    /// Each barrier the escalated run closes with skew at or below the
    /// balance target and *no open fault window* — scheduled or
    /// synthesized by a correlated trigger — bumps a calm counter;
    /// anything else resets it. After `reinstate_after` consecutive calm
    /// barriers the remaining epochs are handed back to the static plan,
    /// rebalanced by [`Sim::nway_rebalance`] exactly as a barrier
    /// repartition would be. A no-regression guard keeps DP-Perf when the
    /// rebalancer predicts the next static epoch slower than the same model
    /// prices the closing epoch as DP-Perf ran it
    /// ([`Sim::closing_epoch_wall`]) — model against model, so the guard
    /// never weighs a prediction against a measured wall.
    fn try_reinstate(&mut self, skew: f64) {
        let now = self.now;
        let disturbed = self
            .faults
            .as_ref()
            .is_some_and(|f| f.schedule.disturbance_open(now) || f.synth_window_open(now));
        // The plan pins its GPU share to the primary accelerator; without a
        // plan, or with that accelerator dead, there is nothing to reinstate.
        let gpu_dead = match (&self.adapt.as_ref().unwrap().plan, self.platform.gpu()) {
            (Some(_), Some(g)) => matches!(self.dev_state[g.id.0], DevState::Dead(_)),
            _ => true,
        };
        let calm = {
            let a = self.adapt.as_ref().unwrap();
            skew <= a.config.balance_target
                && !disturbed
                && !gpu_dead
                && self.cur_epoch + 1 < self.epochs.len()
        };
        let ready = {
            let a = self.adapt.as_mut().unwrap();
            if !calm {
                a.calm_barriers = 0;
                return;
            }
            a.calm_barriers += 1;
            a.calm_barriers >= a.config.reinstate_after
        };
        if !ready {
            return;
        }
        let dynamic_wall = self.closing_epoch_wall();
        let targets = self.live_devices();
        let rebalance = self.nway_rebalance(&targets, false);
        if rebalance.next.is_some_and(|next| next.wall > dynamic_wall) {
            self.adapt.as_mut().unwrap().calm_barriers = 0;
            return;
        }
        for &(t, d) in &rebalance.moves {
            self.recs[t.0].repin = Some(Repin::Adapt(d));
        }
        let a = self.adapt.as_mut().unwrap();
        a.escalated = None;
        a.calm_barriers = 0;
        a.consecutive_imbalanced = 0;
        a.resolves_since_balance = 0;
        a.report.reinstated = true;
        a.report.reinstated_at_epoch = Some(self.cur_epoch);
        route_event(
            &mut *self.obs,
            &TraceEvent::StrategyReinstated {
                epoch: self.cur_epoch,
                at: now,
            },
        );
    }

    /// The closing epoch priced by the rebalancer's model as it actually
    /// ran: each chunk on the device it was placed on, at
    /// [`Sim::chunk_cost`] from its static home (so a chunk the dynamic
    /// scheduler moved pays its migration), plus the per-decision overhead
    /// when the escalated scheduler bound it. Longest chunks first onto
    /// each device's least-loaded slot, as the rebalancer prices a
    /// candidate assignment.
    fn closing_epoch_wall(&self) -> f64 {
        let scale = self.model_scale();
        let mut order = self.epochs[self.cur_epoch].clone();
        order.sort_by_key(|t| (std::cmp::Reverse(self.tasks[t.0].items), *t));
        let mut loads: Vec<Vec<f64>> = self
            .platform
            .devices
            .iter()
            .map(|d| vec![0.0; d.spec.kind.slots().max(1)])
            .collect();
        for t in order {
            let Some(dev) = self.recs[t.0].life.placed() else {
                continue;
            };
            let home = self.static_home(t).unwrap_or(dev);
            let mut cost = self.chunk_cost(t, dev, home, &scale);
            if self.recs[t.0].by_escalated {
                cost += self.platform.sched_overhead.as_secs_f64();
            }
            lpt_push(&mut loads[dev.0], cost);
        }
        max_load(&loads)
    }

    fn on_epoch_flushed(&mut self) {
        // The flush event is the journal's commit point: it fires only
        // after SDC verification passed (a rollback re-runs the epoch
        // *before* the flush starts), so records are final and epoch
        // indices strictly increase.
        if self.journal.is_some() {
            if let Err(e) = self.journal_commit() {
                self.journal_err = Some(e);
                return;
            }
        }
        self.cur_epoch += 1;
        if self.cur_epoch < self.epochs.len() {
            self.activate_epoch();
        }
    }

    /// Build and commit this epoch's [`EpochRecord`]. On a resumed run the
    /// sink byte-compares the record against the journal's stored line
    /// instead of appending — the validated-redo-replay check that makes
    /// the saved RNG cursors and counters load-bearing.
    fn journal_commit(&mut self) -> Result<(), JournalError> {
        let epoch = self.cur_epoch;
        let placements: Vec<(usize, usize)> = self.epochs[epoch]
            .iter()
            .map(|t| {
                let dev = self.recs[t.0]
                    .life
                    .placed()
                    .expect("flushed epoch tasks are placed");
                (t.0, dev.0)
            })
            .collect();
        let record = EpochRecord {
            epoch,
            at: self.now,
            completed: {
                debug_assert_eq!(
                    self.done,
                    self.recs
                        .iter()
                        .filter(|r| matches!(r.life, Life::Done(_)))
                        .count(),
                    "the completed-task count matches the records"
                );
                self.done as u64
            },
            placements,
            rng: RngCursors {
                fault: self.faults.as_ref().map(|f| f.rng.cursor()),
                correlated: self
                    .faults
                    .as_ref()
                    .and_then(|f| f.corr_rng.as_ref())
                    .map(FaultRng::cursor),
                health: self.health.as_ref().map(|h| h.rng.cursor()),
                adapt: self.adapt.as_ref().map(|a| a.rng.cursor()),
                replan: self.replan.as_ref().map(|r| r.rng.cursor()),
            },
            faults: self
                .faults
                .as_ref()
                .map(|f| f.counters.clone())
                .unwrap_or_default(),
            blame: self.blame.clone(),
            counters: self.counters.clone(),
        };
        let journal = self
            .journal
            .as_mut()
            .expect("journal_commit runs only with a sink");
        journal.append_epoch(&record)?;
        Ok(())
    }

    /// [`transfer_cost`] priced on the links *as they stand at `at`*: each
    /// host↔accelerator hop is scaled by the accelerator's open
    /// [`FaultEvent::LinkDegrade`] windows (`FaultSchedule::link_factors`).
    /// With no degradation anywhere in the schedule this takes the nominal
    /// path and is bit-identical to [`transfer_cost`].
    fn degraded_transfer_cost(
        &self,
        from: MemSpaceId,
        to: MemSpaceId,
        bytes: u64,
        at: SimTime,
    ) -> SimTime {
        let Some(f) = self
            .faults
            .as_ref()
            .filter(|f| f.schedule.has_link_degrade())
        else {
            return transfer_cost(self.platform, from, to, bytes);
        };
        if from == to {
            return SimTime::ZERO;
        }
        let hop = |a: MemSpaceId, b: MemSpaceId, at: SimTime| -> SimTime {
            let accel = if a.is_host() { b } else { a };
            let (bw, lat) =
                self.space_dev[accel.0].map_or((1.0, 1.0), |dev| f.schedule.link_factors(dev, at));
            let l = self
                .platform
                .link(a, b)
                .expect("distinct memory spaces are linked");
            l.transfer_time_scaled(bytes, bw, lat)
        };
        // Device-to-device moves route through the host (two hops); the
        // second hop is priced at the time the first one lands.
        if !from.is_host() && !to.is_host() {
            let first = hop(from, MemSpaceId::HOST, at);
            return first + hop(MemSpaceId::HOST, to, at + first);
        }
        hop(from, to, at)
    }

    /// Flush device data home at a taskwait / end of program.
    ///
    /// Each device's write-back begins when *that device* finished its last
    /// task of the epoch — the runtime drains a device's dirty data
    /// asynchronously while other devices are still computing — and the
    /// links drain in parallel. The barrier completes when every write-back
    /// has landed.
    fn start_flush(&mut self) {
        let transfers = self.coherence.flush_and_invalidate();
        // Serialise per source space; spaces drain in parallel. Each
        // device's write-back starts when that device finished its last
        // task of the epoch.
        let mut cursors: std::collections::BTreeMap<usize, SimTime> =
            std::collections::BTreeMap::new();
        let mut flush_start = self.now;
        let mut flush_end = self.now;
        for tr in transfers {
            let start_at = self
                .platform
                .devices
                .iter()
                .filter(|d| d.mem_space == tr.from)
                .map(|d| self.dev_last_done[d.id.0])
                .max()
                .unwrap_or(self.now);
            let t0 = *cursors.entry(tr.from.0).or_insert(start_at);
            // Checkpoint write-backs ride the same wire as reads: an open
            // LinkDegrade window stretches the flush.
            let dt = self.degraded_transfer_cost(tr.from, tr.to, tr.bytes, t0);
            self.counters.record_transfer(tr.bytes, dt);
            let cursor = cursors.get_mut(&tr.from.0).expect("cursor just inserted");
            *cursor = t0 + dt;
            flush_start = flush_start.min(t0);
            flush_end = flush_end.max(*cursor);
            route_event(
                &mut *self.obs,
                &TraceEvent::Transfer {
                    from: tr.from,
                    to: tr.to,
                    bytes: tr.bytes,
                    start: t0,
                    end: t0 + dt,
                },
            );
        }
        route_event(
            &mut *self.obs,
            &TraceEvent::Flush {
                epoch: self.flushes_done,
                start: flush_start.min(self.now),
                end: flush_end,
            },
        );
        self.flushes_done += 1;
        self.queue.push(flush_end, Ev::EpochFlushed);
    }
}

fn transfer_cost(platform: &Platform, from: MemSpaceId, to: MemSpaceId, bytes: u64) -> SimTime {
    if from == to {
        return SimTime::ZERO;
    }
    // Device-to-device moves route through the host: two link hops.
    if !from.is_host() && !to.is_host() {
        return platform.transfer_time(from, MemSpaceId::HOST, bytes)
            + platform.transfer_time(MemSpaceId::HOST, to, bytes);
    }
    platform.transfer_time(from, to, bytes)
}
