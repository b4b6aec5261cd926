//! Runtime observability: pluggable observer hooks, a metrics registry with
//! Prometheus/JSON export, and makespan blame attribution.
//!
//! Prior to this module each executor path hand-built a [`Trace`] behind a
//! `traced: bool` flag. The executor now emits every event through an
//! [`Observer`], and trace recording, metrics collection and user-defined
//! sinks are all just observer implementations:
//!
//! * [`NullObserver`] — the default; reports `enabled() == false` so the hot
//!   path skips event routing entirely and stays byte-identical to the
//!   pre-observer executor.
//! * [`TraceObserver`] — collects the full [`TraceEvent`] stream into a
//!   [`crate::Trace`] (timelines, Gantt charts, span trees).
//! * [`MetricsObserver`] — feeds a [`MetricsRegistry`] of typed counters,
//!   gauges and log-bucketed histograms labeled by device/kernel/strategy.
//! * [`MultiObserver`] — fans one event stream out to several sinks.
//! * [`SnapshotObserver`] — live observability: emits one delta-encoded
//!   [`EpochSnapshot`] JSON line per committed taskwait barrier, with the
//!   invariant that [`fold_stream`] reconstructs the final registry
//!   byte-for-byte (fuzz oracle 9, `stream-fold-equivalence`).
//!
//! Post-hoc analyses over a collected [`Trace`]: [`SpanTree`] lifts the
//! flat event stream into a causal run → epoch → wave → task hierarchy
//! (folded stacks for speedscope, Chrome-trace flow arrows,
//! `hm_span_seconds` tiling); [`RunDiff`] compares two metrics/report
//! exports into a typed per-series verdict table (`matchmake diff`).
//!
//! Observers are strictly *observational*: no hook can influence virtual
//! time, placement, or any other simulation outcome. Determinism of the
//! simulator therefore extends to everything an observer records.
//!
//! Blame attribution ([`TimeBreakdown`], [`CriticalPath`]) lives in
//! [`blame`] and is always on — the executor tracks where every slot-second
//! went regardless of which observer is installed, and publishes the result
//! as `RunReport::breakdown`.

pub mod blame;
pub mod diff;
pub mod metrics;
pub mod snapshot;
pub mod span;

pub use blame::{CriticalPath, DeviceBreakdown, PathKind, PathSegment, TimeBreakdown};
pub use diff::{DiffEntry, DiffVerdict, RunDiff};
pub use metrics::{LogHistogram, MetricsObserver, MetricsRegistry, Series, SeriesValue};
pub use snapshot::{apply_snapshot, fold_stream, EpochSnapshot, OpenState, SnapshotObserver};
pub use span::{Span, SpanKind, SpanTree};

use crate::program::{KernelId, TaskId};
use crate::stats::RunReport;
use crate::trace::{Trace, TraceEvent};
use hetero_platform::{DeviceId, MemSpaceId, SimTime};

/// A sink for executor events. All hooks have empty default bodies: an
/// implementation overrides only what it cares about.
///
/// The executor calls [`Observer::on_event`] with every [`TraceEvent`] it
/// would previously have pushed into a `Trace`, in exactly the same order,
/// plus the typed convenience hooks routed by [`route_event`]. Three hooks
/// have no `TraceEvent` equivalent and are invoked directly:
/// [`Observer::on_task_done`] (task completion commits), [`Observer::on_task_bound`]
/// (a task is placed on a device queue) and [`Observer::on_run_end`] (the
/// final [`RunReport`], including its blame breakdown).
pub trait Observer {
    /// Whether this observer wants events at all. When `false` the executor
    /// skips event construction and routing — [`NullObserver`] returns
    /// `false` to keep the un-observed hot path unchanged.
    fn enabled(&self) -> bool {
        true
    }

    /// Every event, in emission order (the firehose hook).
    fn on_event(&mut self, _ev: &TraceEvent) {}

    /// A task occupied a device slot: `[start, end)` is the full slot span
    /// (scheduling overhead + input transfers + faulted attempts + execution).
    fn on_task_start(
        &mut self,
        _task: TaskId,
        _kernel: KernelId,
        _dev: DeviceId,
        _items: u64,
        _start: SimTime,
        _end: SimTime,
    ) {
    }

    /// A task's completion committed at `at` on `dev` (after any hedge or
    /// suppression logic resolved).
    fn on_task_done(&mut self, _task: TaskId, _dev: DeviceId, _at: SimTime) {}

    /// A task was bound to `dev` and enqueued; `queue_depth` is the device
    /// queue length including this task.
    fn on_task_bound(&mut self, _task: TaskId, _dev: DeviceId, _at: SimTime, _queue_depth: usize) {}

    /// A coherence or write-back transfer of `bytes` bytes between memory
    /// spaces over `[start, end)`.
    fn on_transfer(
        &mut self,
        _from: MemSpaceId,
        _to: MemSpaceId,
        _bytes: u64,
        _start: SimTime,
        _end: SimTime,
    ) {
    }

    /// An epoch's write-back flush completed: `epoch` is the flush index,
    /// `[start, end)` the flush span.
    fn on_epoch_end(&mut self, _epoch: usize, _start: SimTime, _end: SimTime) {}

    /// A fault-or-mitigation event: task/transfer faults, dropouts,
    /// failovers, hedges, corruption detections, circuit transitions.
    fn on_fault(&mut self, _ev: &TraceEvent) {}

    /// An adaptation event: imbalance detection, repartitioning, strategy
    /// escalation, or a plan repair/readmission.
    fn on_adapt_action(&mut self, _ev: &TraceEvent) {}

    /// The run finished; `report` is the final [`RunReport`] (with
    /// `breakdown` populated).
    fn on_run_end(&mut self, _report: &RunReport) {}
}

/// Route one event to an observer: the [`Observer::on_event`] firehose plus
/// the matching typed hook. No-op when the observer is disabled.
///
/// The match is exhaustive on purpose: adding a [`TraceEvent`] variant
/// without deciding its observer routing is a compile error.
pub fn route_event(obs: &mut dyn Observer, ev: &TraceEvent) {
    if !obs.enabled() {
        return;
    }
    obs.on_event(ev);
    match ev {
        TraceEvent::Task {
            task,
            kernel,
            dev,
            items,
            start,
            end,
        } => obs.on_task_start(*task, *kernel, *dev, *items, *start, *end),
        TraceEvent::Transfer {
            from,
            to,
            bytes,
            start,
            end,
        } => obs.on_transfer(*from, *to, *bytes, *start, *end),
        TraceEvent::Flush { epoch, start, end } => obs.on_epoch_end(*epoch, *start, *end),
        // A held slot is pure occupancy geometry: the per-attempt faults
        // already went through `on_fault`, so the span only reaches
        // `on_event` (trace recording and span trees), never the metrics.
        TraceEvent::SlotHeld { .. } => {}
        TraceEvent::TransferRetry { .. }
        | TraceEvent::TaskFault { .. }
        | TraceEvent::DeviceDropout { .. }
        | TraceEvent::Failover { .. }
        | TraceEvent::HedgeLaunched { .. }
        | TraceEvent::HedgeWon { .. }
        | TraceEvent::CorruptionDetected { .. }
        | TraceEvent::CircuitOpen { .. }
        | TraceEvent::CircuitClose { .. }
        | TraceEvent::CorrelatedFaultTriggered { .. } => obs.on_fault(ev),
        TraceEvent::ImbalanceDetected { .. }
        | TraceEvent::Repartitioned { .. }
        | TraceEvent::StrategyEscalated { .. }
        | TraceEvent::StrategyReinstated { .. }
        | TraceEvent::PlanRepaired { .. }
        | TraceEvent::DeviceReadmitted { .. } => obs.on_adapt_action(ev),
    }
}

/// The do-nothing observer. `enabled()` is `false`, so the executor skips
/// event routing entirely — `simulate*` without tracing uses this and the
/// hot path is unchanged from the pre-observer executor.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullObserver;

impl Observer for NullObserver {
    fn enabled(&self) -> bool {
        false
    }
}

/// Collects the full event stream into a [`Trace`]: install it on any run
/// and take the trace with [`TraceObserver::into_trace`].
#[derive(Clone, Debug, Default)]
pub struct TraceObserver {
    trace: Trace,
}

impl TraceObserver {
    /// A fresh, empty trace collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// The trace collected so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Consume the observer and return the collected trace.
    pub fn into_trace(self) -> Trace {
        self.trace
    }
}

impl Observer for TraceObserver {
    fn on_event(&mut self, ev: &TraceEvent) {
        self.trace.events.push(ev.clone());
    }
}

/// Fans one event stream out to several observers, in order. `enabled()` is
/// true when any member is enabled; disabled members are skipped per-hook.
#[derive(Default)]
pub struct MultiObserver<'a> {
    sinks: Vec<&'a mut dyn Observer>,
}

impl<'a> MultiObserver<'a> {
    /// An empty fan-out.
    pub fn new() -> Self {
        Self { sinks: Vec::new() }
    }

    /// Add a sink; returns `self` for chaining.
    pub fn with(mut self, obs: &'a mut dyn Observer) -> Self {
        self.sinks.push(obs);
        self
    }
}

impl Observer for MultiObserver<'_> {
    fn enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.enabled())
    }

    fn on_event(&mut self, ev: &TraceEvent) {
        for s in self.sinks.iter_mut().filter(|s| s.enabled()) {
            s.on_event(ev);
        }
    }

    fn on_task_start(
        &mut self,
        task: TaskId,
        kernel: KernelId,
        dev: DeviceId,
        items: u64,
        start: SimTime,
        end: SimTime,
    ) {
        for s in self.sinks.iter_mut().filter(|s| s.enabled()) {
            s.on_task_start(task, kernel, dev, items, start, end);
        }
    }

    fn on_task_done(&mut self, task: TaskId, dev: DeviceId, at: SimTime) {
        for s in self.sinks.iter_mut().filter(|s| s.enabled()) {
            s.on_task_done(task, dev, at);
        }
    }

    fn on_task_bound(&mut self, task: TaskId, dev: DeviceId, at: SimTime, queue_depth: usize) {
        for s in self.sinks.iter_mut().filter(|s| s.enabled()) {
            s.on_task_bound(task, dev, at, queue_depth);
        }
    }

    fn on_transfer(
        &mut self,
        from: MemSpaceId,
        to: MemSpaceId,
        bytes: u64,
        start: SimTime,
        end: SimTime,
    ) {
        for s in self.sinks.iter_mut().filter(|s| s.enabled()) {
            s.on_transfer(from, to, bytes, start, end);
        }
    }

    fn on_epoch_end(&mut self, epoch: usize, start: SimTime, end: SimTime) {
        for s in self.sinks.iter_mut().filter(|s| s.enabled()) {
            s.on_epoch_end(epoch, start, end);
        }
    }

    fn on_fault(&mut self, ev: &TraceEvent) {
        for s in self.sinks.iter_mut().filter(|s| s.enabled()) {
            s.on_fault(ev);
        }
    }

    fn on_adapt_action(&mut self, ev: &TraceEvent) {
        for s in self.sinks.iter_mut().filter(|s| s.enabled()) {
            s.on_adapt_action(ev);
        }
    }

    fn on_run_end(&mut self, report: &RunReport) {
        for s in self.sinks.iter_mut().filter(|s| s.enabled()) {
            s.on_run_end(report);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_observer_is_disabled() {
        assert!(!NullObserver.enabled());
    }

    #[test]
    fn route_event_feeds_trace_observer() {
        let mut obs = TraceObserver::new();
        let ev = TraceEvent::DeviceDropout {
            dev: DeviceId(1),
            at: SimTime::from_millis(3),
        };
        route_event(&mut obs, &ev);
        assert_eq!(obs.trace().events.len(), 1);
    }

    #[test]
    fn multi_observer_fans_out() {
        let mut a = TraceObserver::new();
        let mut b = TraceObserver::new();
        {
            let mut multi = MultiObserver::new().with(&mut a).with(&mut b);
            let ev = TraceEvent::CircuitOpen {
                dev: DeviceId(2),
                at: SimTime::from_millis(1),
            };
            route_event(&mut multi, &ev);
        }
        assert_eq!(a.trace().events.len(), 1);
        assert_eq!(b.trace().events.len(), 1);
    }
}
