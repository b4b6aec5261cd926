//! Streaming per-epoch metrics: delta-encoded [`EpochSnapshot`] lines at
//! every committed taskwait barrier.
//!
//! The [`MetricsObserver`] materializes one registry at run end; the
//! [`SnapshotObserver`] wraps it and additionally emits one JSON line per
//! committed epoch flush (plus a final line at run end carrying the
//! run-end-only series: makespan, blame components, totals). Each line is a
//! *delta*: only series whose value changed since the previous snapshot
//! appear, counters and histograms carry the increment, gauges carry the
//! new absolute value. The hard invariant — enforced by fuzz oracle 9
//! (`stream-fold-equivalence`) — is that [`fold_stream`] over the emitted
//! lines reconstructs the end-of-run [`MetricsRegistry`] byte-for-byte.
//!
//! Determinism is inherited from the simulator: the stream is a pure
//! function of the run, so CI can double-run and byte-diff it, and a
//! crash+resume run (which re-executes from `t = 0` under redo-replay)
//! emits the identical stream.
//!
//! A barrier costs one walk over the registry's slots in id order: each
//! series is compared with its value at the previous snapshot, kept in a
//! vector indexed by the same slot, and only a changed series builds a
//! delta value. The line is written from a borrowed mirror of
//! [`EpochSnapshot`] whose name, help and labels point into the registry,
//! so nothing per series is cloned but the delta itself.

use std::collections::BTreeSet;

use super::metrics::{MetricsObserver, MetricsRegistry, Series, SeriesValue};
use super::Observer;
use crate::program::{KernelId, TaskId};
use crate::stats::RunReport;
use crate::trace::TraceEvent;
use hetero_platform::{DeviceId, MemSpaceId, Platform, SimTime};
use serde::{Deserialize, Serialize};

/// Open quarantine/disturbance state at a snapshot point.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct OpenState {
    /// Devices currently quarantined by the circuit breaker (indices,
    /// sorted).
    pub quarantined: Vec<usize>,
    /// Devices permanently dead (dropout observed), sorted.
    pub dead: Vec<usize>,
    /// Correlated-fault windows still open at the snapshot time.
    pub correlated_open: u64,
}

/// One line of the metrics stream: the state advance between two committed
/// taskwait barriers (or between the last barrier and run end).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EpochSnapshot {
    /// Snapshot sequence number, starting at 0.
    pub seq: u64,
    /// The flush (epoch) index this snapshot committed at; `None` for the
    /// final run-end snapshot.
    pub epoch: Option<u64>,
    /// Virtual time of the barrier (flush end), or the makespan for the
    /// final snapshot.
    pub at: SimTime,
    /// Cumulative committed task instances across all devices.
    pub tasks_total: u64,
    /// Cumulative fault-and-mitigation events across all kinds.
    pub faults_total: u64,
    /// Open quarantine/disturbance state at `at`.
    pub open: OpenState,
    /// Delta-encoded series: every series whose value changed since the
    /// previous snapshot. Counters and histograms carry the increment,
    /// gauges the new absolute value; name/help/labels ride along so a
    /// fold can recreate series it has never seen.
    pub changed: Vec<Series>,
}

/// Apply one snapshot's deltas to a registry being folded: counters add,
/// histograms merge bucketwise, gauges overwrite.
pub fn apply_snapshot(reg: &mut MetricsRegistry, snap: &EpochSnapshot) -> Result<(), serde::Error> {
    for s in &snap.changed {
        let id = s.id();
        match reg.value_mut(&id) {
            None => {
                reg.push(id, s.clone());
            }
            Some(mine) => match (mine, &s.value) {
                (SeriesValue::Counter(a), SeriesValue::Counter(b)) => *a += b,
                (SeriesValue::Gauge(a), SeriesValue::Gauge(b)) => *a = *b,
                (SeriesValue::Histogram(a), SeriesValue::Histogram(b)) => a.merge(b),
                _ => {
                    return Err(serde::Error::custom(format!(
                        "snapshot {}: series `{id}` changed kind mid-stream",
                        snap.seq
                    )))
                }
            },
        }
    }
    Ok(())
}

/// Fold a whole metrics stream (one [`EpochSnapshot`] JSON object per line)
/// back into the registry it was streamed from. Validates the sequence
/// numbering; the result is byte-for-byte identical to the end-of-run
/// [`MetricsRegistry::to_json`] of the emitting observer (fuzz oracle 9).
pub fn fold_stream(stream: &str) -> Result<MetricsRegistry, serde::Error> {
    let mut reg = MetricsRegistry::new();
    let mut expect = 0u64;
    for (i, line) in stream.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let snap: EpochSnapshot = serde_json::from_str(line)
            .map_err(|e| serde::Error::custom(format!("stream line {}: {e}", i + 1)))?;
        if snap.seq != expect {
            return Err(serde::Error::custom(format!(
                "stream line {}: snapshot seq {} but expected {expect}",
                i + 1,
                snap.seq
            )));
        }
        expect += 1;
        apply_snapshot(&mut reg, &snap)?;
    }
    Ok(reg)
}

/// A live per-line sink for emitted snapshot lines.
type LineSink = Box<dyn FnMut(&str)>;

/// [`EpochSnapshot`] as [`SnapshotObserver`] writes it: the same fields in
/// the same order, so the bytes are an `EpochSnapshot`'s.
#[derive(Serialize)]
struct SnapshotLine<'a> {
    seq: u64,
    epoch: Option<u64>,
    at: SimTime,
    tasks_total: u64,
    faults_total: u64,
    open: OpenState,
    changed: Vec<SeriesLine<'a>>,
}

/// [`Series`] as a snapshot line writes it, with its name, help and labels
/// borrowed from the registry and its delta value owned.
#[derive(Serialize)]
struct SeriesLine<'a> {
    name: &'a str,
    help: &'a str,
    labels: &'a [(String, String)],
    value: SeriesValue,
}

/// The streaming metrics sink: a [`MetricsObserver`] that additionally
/// emits one delta-encoded [`EpochSnapshot`] JSON line per committed epoch
/// flush, plus a final run-end line. Lines are collected in order (see
/// [`SnapshotObserver::stream`]) and optionally pushed to a live sink as
/// they are produced.
pub struct SnapshotObserver {
    inner: MetricsObserver,
    /// Every series' value at the previous snapshot, indexed by the
    /// registry's slots; `None` for a series that appeared since. Values
    /// are updated in place.
    prev: Vec<Option<SeriesValue>>,
    lines: Vec<String>,
    seq: u64,
    quarantined: BTreeSet<usize>,
    dead: BTreeSet<usize>,
    correlated_until: Vec<SimTime>,
    sink: Option<LineSink>,
}

impl std::fmt::Debug for SnapshotObserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotObserver")
            .field("seq", &self.seq)
            .field("lines", &self.lines.len())
            .finish()
    }
}

impl SnapshotObserver {
    /// A streaming sink for one run of `strategy` on `platform` (the same
    /// arguments as [`MetricsObserver::new`]; the wrapped observer is
    /// constructed internally so stream and registry always agree).
    pub fn new(platform: &Platform, strategy: &str) -> Self {
        Self {
            inner: MetricsObserver::new(platform, strategy),
            prev: Vec::new(),
            lines: Vec::new(),
            seq: 0,
            quarantined: BTreeSet::new(),
            dead: BTreeSet::new(),
            correlated_until: Vec::new(),
            sink: None,
        }
    }

    /// Attach a live sink called with each snapshot line as it is emitted
    /// (e.g. printing a feed, or appending to a file mid-run).
    pub fn with_sink(mut self, sink: impl FnMut(&str) + 'static) -> Self {
        self.sink = Some(Box::new(sink));
        self
    }

    /// The registry accumulated so far (the wrapped observer's).
    pub fn registry(&self) -> &MetricsRegistry {
        self.inner.registry()
    }

    /// All snapshot lines emitted so far, each terminated by `\n` — the
    /// canonical on-disk stream format (`matchmake run --metrics-stream`).
    pub fn stream(&self) -> String {
        let mut out = String::new();
        for l in &self.lines {
            out.push_str(l);
            out.push('\n');
        }
        out
    }

    /// The snapshot lines emitted so far, without newlines.
    pub fn lines(&self) -> &[String] {
        &self.lines
    }

    fn counter_sum(reg: &MetricsRegistry, name: &str) -> u64 {
        reg.slots()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| match &s.value {
                SeriesValue::Counter(c) => *c,
                _ => 0,
            })
            .sum()
    }

    /// The advance from `prev` to `cur`: counters and histograms carry the
    /// increment, gauges the new absolute value.
    fn delta_value(prev: &SeriesValue, cur: &SeriesValue) -> SeriesValue {
        match (prev, cur) {
            (SeriesValue::Counter(a), SeriesValue::Counter(b)) => {
                SeriesValue::Counter(b.saturating_sub(*a))
            }
            (SeriesValue::Histogram(a), SeriesValue::Histogram(b)) => {
                let mut d = b.clone();
                for (db, ab) in d.buckets.iter_mut().zip(&a.buckets) {
                    *db = db.saturating_sub(*ab);
                }
                d.overflow = d.overflow.saturating_sub(a.overflow);
                d.count = d.count.saturating_sub(a.count);
                d.sum_nanos = d.sum_nanos.saturating_sub(a.sum_nanos);
                SeriesValue::Histogram(d)
            }
            // Gauges (and the impossible kind-change case) are carried as
            // the new absolute value.
            (_, v) => v.clone(),
        }
    }

    /// Overwrite `dst` with `src`, reusing a histogram's bucket storage.
    fn assign(dst: &mut SeriesValue, src: &SeriesValue) {
        match (dst, src) {
            (SeriesValue::Histogram(d), SeriesValue::Histogram(s)) => {
                d.buckets.clone_from(&s.buckets);
                d.overflow = s.overflow;
                d.count = s.count;
                d.sum_nanos = s.sum_nanos;
            }
            (d, s) => *d = s.clone(),
        }
    }

    fn emit(&mut self, epoch: Option<u64>, at: SimTime) {
        self.correlated_until.retain(|&u| u > at);
        let cur = self.inner.registry();
        self.prev.resize(cur.len(), None);
        let mut changed = Vec::new();
        for (slot, s) in cur.slots_by_id() {
            let value = match &mut self.prev[slot] {
                Some(p) if *p == s.value => continue,
                Some(p) => {
                    let d = Self::delta_value(p, &s.value);
                    Self::assign(p, &s.value);
                    d
                }
                p @ None => p.insert(s.value.clone()).clone(),
            };
            changed.push(SeriesLine {
                name: &s.name,
                help: &s.help,
                labels: &s.labels,
                value,
            });
        }
        let snap = SnapshotLine {
            seq: self.seq,
            epoch,
            at,
            tasks_total: Self::counter_sum(cur, "hm_tasks_total"),
            faults_total: Self::counter_sum(cur, "hm_faults_total"),
            open: OpenState {
                quarantined: self.quarantined.iter().copied().collect(),
                dead: self.dead.iter().copied().collect(),
                correlated_open: self.correlated_until.len() as u64,
            },
            changed,
        };
        self.seq += 1;
        let line = serde_json::to_string(&snap).expect("snapshot serializes");
        if let Some(sink) = &mut self.sink {
            sink(&line);
        }
        self.lines.push(line);
    }
}

impl Observer for SnapshotObserver {
    fn on_event(&mut self, ev: &TraceEvent) {
        self.inner.on_event(ev);
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
        self.inner
            .on_task_start(task, kernel, dev, items, start, end);
    }

    fn on_task_done(&mut self, task: TaskId, dev: DeviceId, at: SimTime) {
        self.inner.on_task_done(task, dev, at);
    }

    fn on_task_bound(&mut self, task: TaskId, dev: DeviceId, at: SimTime, queue_depth: usize) {
        self.inner.on_task_bound(task, dev, at, queue_depth);
    }

    fn on_transfer(
        &mut self,
        from: MemSpaceId,
        to: MemSpaceId,
        bytes: u64,
        start: SimTime,
        end: SimTime,
    ) {
        self.inner.on_transfer(from, to, bytes, start, end);
    }

    fn on_epoch_end(&mut self, epoch: usize, start: SimTime, end: SimTime) {
        self.inner.on_epoch_end(epoch, start, end);
        self.emit(Some(epoch as u64), end);
    }

    fn on_fault(&mut self, ev: &TraceEvent) {
        self.inner.on_fault(ev);
        match ev {
            TraceEvent::CircuitOpen { dev, .. } => {
                self.quarantined.insert(dev.0);
            }
            TraceEvent::CircuitClose { dev, .. } => {
                self.quarantined.remove(&dev.0);
            }
            TraceEvent::DeviceDropout { dev, .. } => {
                self.dead.insert(dev.0);
            }
            TraceEvent::CorrelatedFaultTriggered { until, .. } => {
                self.correlated_until.push(*until);
            }
            _ => {}
        }
    }

    fn on_adapt_action(&mut self, ev: &TraceEvent) {
        self.inner.on_adapt_action(ev);
    }

    fn on_run_end(&mut self, report: &RunReport) {
        self.inner.on_run_end(report);
        self.emit(None, report.makespan);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::route_event;

    #[test]
    fn deltas_fold_back_to_the_registry() {
        let platform = Platform::test_small();
        let mut obs = SnapshotObserver::new(&platform, "test");
        // Two epochs of synthetic activity.
        let t = |us| SimTime::from_micros(us);
        route_event(
            &mut obs,
            &TraceEvent::Task {
                task: TaskId(0),
                kernel: KernelId(0),
                dev: DeviceId(0),
                items: 100,
                start: t(0),
                end: t(10),
            },
        );
        route_event(
            &mut obs,
            &TraceEvent::Flush {
                epoch: 0,
                start: t(10),
                end: t(12),
            },
        );
        route_event(
            &mut obs,
            &TraceEvent::Task {
                task: TaskId(1),
                kernel: KernelId(0),
                dev: DeviceId(1),
                items: 50,
                start: t(12),
                end: t(30),
            },
        );
        route_event(
            &mut obs,
            &TraceEvent::Flush {
                epoch: 1,
                start: t(30),
                end: t(31),
            },
        );
        assert_eq!(obs.lines().len(), 2);
        let folded = fold_stream(&obs.stream()).unwrap();
        assert_eq!(folded.to_json(), obs.registry().to_json());
        // A second epoch's delta only carries what changed.
        let second: EpochSnapshot = serde_json::from_str(&obs.lines()[1]).unwrap();
        assert_eq!(second.epoch, Some(1));
        assert_eq!(second.tasks_total, 2);
        assert!(second
            .changed
            .iter()
            .all(|s| !s.labels.contains(&("epoch".to_string(), "0".to_string()))));
    }

    #[test]
    fn open_state_tracks_quarantine_and_death() {
        let platform = Platform::test_small();
        let mut obs = SnapshotObserver::new(&platform, "test");
        let t = |us| SimTime::from_micros(us);
        route_event(
            &mut obs,
            &TraceEvent::CircuitOpen {
                dev: DeviceId(1),
                at: t(1),
            },
        );
        route_event(
            &mut obs,
            &TraceEvent::DeviceDropout {
                dev: DeviceId(0),
                at: t(2),
            },
        );
        route_event(
            &mut obs,
            &TraceEvent::Flush {
                epoch: 0,
                start: t(3),
                end: t(4),
            },
        );
        let snap: EpochSnapshot = serde_json::from_str(&obs.lines()[0]).unwrap();
        assert_eq!(snap.open.quarantined, vec![1]);
        assert_eq!(snap.open.dead, vec![0]);
        route_event(
            &mut obs,
            &TraceEvent::CircuitClose {
                dev: DeviceId(1),
                at: t(5),
            },
        );
        route_event(
            &mut obs,
            &TraceEvent::Flush {
                epoch: 1,
                start: t(6),
                end: t(7),
            },
        );
        let snap: EpochSnapshot = serde_json::from_str(&obs.lines()[1]).unwrap();
        assert!(snap.open.quarantined.is_empty());
        assert_eq!(snap.open.dead, vec![0]);
    }

    #[test]
    fn fold_rejects_bad_sequences() {
        assert!(fold_stream("not json").is_err());
        let snap = EpochSnapshot {
            seq: 3,
            epoch: Some(0),
            at: SimTime::ZERO,
            tasks_total: 0,
            faults_total: 0,
            open: OpenState::default(),
            changed: Vec::new(),
        };
        let line = serde_json::to_string(&snap).unwrap();
        assert!(fold_stream(&line).is_err(), "seq must start at 0");
    }
}
