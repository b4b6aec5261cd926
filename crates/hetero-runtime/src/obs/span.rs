//! Causal span profiling: lift the flat [`Trace`] into a run → epoch →
//! wave → task hierarchy with fault/mitigation child spans linked to their
//! causes.
//!
//! The trace records *what happened when*; this pass recovers *why time
//! went where*. Epochs come from the taskwait flush windows, waves from
//! greedy per-device lane assignment inside each epoch (two tasks share a
//! wave when one starts after the other's lane freed), and point events
//! (faults, retries, hedges, rollbacks, repartitions, plan repairs) attach
//! as zero-width child spans under the task or epoch that caused them,
//! with a `cause` string naming the causal link.
//!
//! Exports: Brendan-Gregg folded stacks ([`SpanTree::to_folded`], loadable
//! by speedscope and `flamegraph.pl` — `matchmake flame`) and
//! `hm_span_seconds{kind}` gauges ([`SpanTree::export_metrics`]) whose
//! task/dead/idle kinds exactly tile `makespan × slots` — the same total
//! the blame identity accounts for, checked by `tests/observability.rs`.
//! The Chrome trace with causal flow arrows needs no span tree: it is
//! [`Trace::to_chrome_json_with_flows`], which appends the arrows to the
//! exporter's own event list.

use super::metrics::MetricsRegistry;
use crate::trace::{Trace, TraceEvent};
use hetero_platform::{Platform, SimTime};
use serde::{Deserialize, Serialize};

/// What a [`Span`] represents.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpanKind {
    /// The whole run.
    Run,
    /// One taskwait epoch (barrier-to-barrier window, flush included).
    Epoch,
    /// One per-device lane of task instances within an epoch.
    Wave,
    /// One task instance's slot occupancy.
    Task,
    /// A faulted attempt inside a task slot (leads to a retry).
    Retry,
    /// A task re-dispatched to another device after its home died.
    Failover,
    /// A hedged replica launched against a slow primary.
    Hedge,
    /// A hedged replica overtaking its primary.
    HedgeWon,
    /// An epoch rollback after corruption detection.
    Rollback,
    /// A survivor re-plan after device death or quarantine.
    Replan,
    /// A healing re-plan readmitting a re-closed device.
    Readmission,
    /// A barrier repartition by the adaptive controller.
    Repartition,
    /// An imbalance detection that may trigger adaptation.
    Imbalance,
    /// Strategy escalation to a dynamic scheduler.
    Escalation,
    /// Reinstatement of the static plan after calm.
    Reinstatement,
    /// A permanent device death.
    Dropout,
    /// A circuit-breaker quarantine opening or closing.
    Circuit,
    /// A correlated-fault window triggering on a sibling device.
    Correlated,
}

impl SpanKind {
    /// Stable lower-case name (folded-stack frames, metric labels).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Run => "run",
            SpanKind::Epoch => "epoch",
            SpanKind::Wave => "wave",
            SpanKind::Task => "task",
            SpanKind::Retry => "retry",
            SpanKind::Failover => "failover",
            SpanKind::Hedge => "hedge",
            SpanKind::HedgeWon => "hedge_won",
            SpanKind::Rollback => "rollback",
            SpanKind::Replan => "replan",
            SpanKind::Readmission => "readmission",
            SpanKind::Repartition => "repartition",
            SpanKind::Imbalance => "imbalance",
            SpanKind::Escalation => "escalation",
            SpanKind::Reinstatement => "reinstatement",
            SpanKind::Dropout => "dropout",
            SpanKind::Circuit => "circuit",
            SpanKind::Correlated => "correlated",
        }
    }
}

/// One node of the causal hierarchy. Point events are zero-width spans
/// (`start == end`) carrying a `cause` string that names their causal link.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// What this span represents.
    pub kind: SpanKind,
    /// Display label (`task3 (k0)`, `gpu wave 1`, `epoch 2`, ...).
    pub label: String,
    /// The device this span occupies, if it is device-bound.
    pub dev: Option<usize>,
    /// Span start (virtual time).
    pub start: SimTime,
    /// Span end; equals `start` for point events.
    pub end: SimTime,
    /// The causal link for fault/mitigation children (human-readable).
    pub cause: Option<String>,
    /// Nested spans.
    pub children: Vec<Span>,
}

impl Span {
    fn point(
        kind: SpanKind,
        label: String,
        dev: Option<usize>,
        at: SimTime,
        cause: String,
    ) -> Self {
        Span {
            kind,
            label,
            dev,
            start: at,
            end: at,
            cause: Some(cause),
            children: Vec::new(),
        }
    }
}

/// Per-device span totals: slot-seconds inside task spans, slot-seconds
/// dead after a dropout, and the idle remainder to `makespan × slots`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DeviceSpanSeconds {
    /// Σ task slot spans on this device.
    pub task: SimTime,
    /// Post-dropout capacity, `(end − death) × slots`.
    pub dead: SimTime,
    /// `capacity − task − dead`.
    pub idle: SimTime,
}

/// The causal span hierarchy of one run. Build with
/// [`SpanTree::from_trace`]; the tree is a pure function of the trace, so
/// every export is byte-deterministic.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SpanTree {
    /// The root [`SpanKind::Run`] span; children are epochs.
    pub root: Span,
    /// Run end (the trace's latest event instant).
    pub end: SimTime,
    dev_names: Vec<String>,
    dev_slots: Vec<u64>,
    /// Death instant per device, if a dropout was observed.
    deaths: Vec<Option<SimTime>>,
}

/// Internal task-slot record used during construction.
struct Slot {
    task: usize,
    kernel: usize,
    dev: usize,
    start: SimTime,
    end: SimTime,
    epoch: usize,
    lane: usize,
    /// Retry-exhausted occupancy ([`TraceEvent::SlotHeld`]): the slot was
    /// burned by failed attempts and the task ran elsewhere.
    held: bool,
    children: Vec<Span>,
}

/// Where a point event's span attaches; an event whose slot is not found
/// falls back to its epoch.
enum Parent {
    /// The `(task, device)` slot the event happened in (the last one
    /// covering its instant).
    In(usize, usize),
    /// The `(task, device)` slot the event caused (the first one ending at
    /// or after its instant).
    Caused(usize, usize),
    /// The epoch containing the event.
    Epoch,
}

impl SpanTree {
    /// Lift `trace` into the causal hierarchy. Epoch windows come from the
    /// taskwait flush events (a trace without flushes gets one synthetic
    /// epoch spanning the whole run); waves are greedy per-device lanes
    /// within each epoch; fault/mitigation point events attach under the
    /// task or epoch span that contains them, labeled with their cause.
    pub fn from_trace(trace: &Trace, platform: &Platform) -> SpanTree {
        let end = trace.end_time();
        let dev_names: Vec<String> = platform
            .devices
            .iter()
            .map(|d| d.spec.name.clone())
            .collect();
        let dev_slots: Vec<u64> = platform
            .devices
            .iter()
            .map(|d| d.spec.kind.slots() as u64)
            .collect();

        // Epoch windows from flush events (in emission order): epoch i is
        // (previous flush end, flush_i end], with the first starting at 0.
        let mut epochs: Vec<(SimTime, SimTime)> = Vec::new();
        let mut prev = SimTime::ZERO;
        for e in &trace.events {
            if let TraceEvent::Flush { end: fe, .. } = e {
                epochs.push((prev, *fe));
                prev = *fe;
            }
        }
        if epochs.is_empty() {
            epochs.push((SimTime::ZERO, end));
        } else if prev < end {
            // Events past the final flush extend the last epoch to run end.
            epochs.last_mut().expect("non-empty").1 = end;
        }
        let epoch_of = |t: SimTime| -> usize {
            epochs
                .iter()
                .position(|&(_, e)| t <= e)
                .unwrap_or(epochs.len() - 1)
        };

        // Deaths first: task events are emitted at dispatch with their
        // projected end, so an attempt in flight when its device drops out
        // appears in the trace with a span past the death. The executor
        // takes that accounting back (the dead tail covers it); the span
        // tree mirrors it by clamping task slots at the device's death.
        let mut deaths: Vec<Option<SimTime>> = vec![None; dev_names.len()];
        for e in &trace.events {
            if let TraceEvent::DeviceDropout { dev, at } = e {
                if let Some(d) = deaths.get_mut(dev.0) {
                    d.get_or_insert(*at);
                }
            }
        }

        // Task slots: epoch by completion time, wave by greedy per-device
        // lane assignment restarted at each epoch boundary.
        let mut slots: Vec<Slot> = Vec::new();
        let mut lanes: Vec<Vec<SimTime>> = vec![Vec::new(); dev_names.len().max(1)];
        let mut lanes_epoch = 0usize;
        for e in &trace.events {
            match e {
                TraceEvent::Task {
                    task,
                    kernel,
                    dev,
                    start,
                    end,
                    ..
                }
                | TraceEvent::SlotHeld {
                    task,
                    kernel,
                    dev,
                    start,
                    end,
                } => {
                    let te = &match deaths.get(dev.0).copied().flatten() {
                        Some(d) if *end > d => d.max(*start),
                        _ => *end,
                    };
                    let epoch = epoch_of(*te);
                    if epoch != lanes_epoch {
                        lanes.iter_mut().for_each(Vec::clear);
                        lanes_epoch = epoch;
                    }
                    let li = dev.0.min(lanes.len() - 1);
                    let ls = &mut lanes[li];
                    let lane = match ls.iter().position(|&free| free <= *start) {
                        Some(i) => {
                            ls[i] = *te;
                            i
                        }
                        None => {
                            ls.push(*te);
                            ls.len() - 1
                        }
                    };
                    slots.push(Slot {
                        task: task.0,
                        kernel: kernel.0,
                        dev: dev.0,
                        start: *start,
                        end: *te,
                        epoch,
                        lane,
                        held: matches!(e, TraceEvent::SlotHeld { .. }),
                        children: Vec::new(),
                    });
                }
                _ => {}
            }
        }

        // Attach point events to their causal parents.
        use Parent::{Caused, Epoch, In};
        let mut extras: Vec<Vec<Span>> = vec![Vec::new(); epochs.len()];
        for e in &trace.events {
            let (kind, label, dev, cause, parent) = match e {
                TraceEvent::TaskFault {
                    task, dev, attempt, ..
                } => (
                    SpanKind::Retry,
                    format!("retry attempt {attempt}"),
                    Some(dev.0),
                    format!("task{} attempt {attempt} faulted on dev{}", task.0, dev.0),
                    In(task.0, dev.0),
                ),
                TraceEvent::Failover { task, from, to, .. } => (
                    SpanKind::Failover,
                    format!("failover task{}", task.0),
                    Some(to.0),
                    format!(
                        "task{} lost with dev{}, re-dispatched to dev{}",
                        task.0, from.0, to.0
                    ),
                    Caused(task.0, to.0),
                ),
                TraceEvent::HedgeLaunched { task, from, to, .. } => (
                    SpanKind::Hedge,
                    format!("hedge task{}", task.0),
                    Some(to.0),
                    format!("slow primary on dev{}, replica on dev{}", from.0, to.0),
                    Caused(task.0, to.0),
                ),
                TraceEvent::HedgeWon { task, dev, .. } => (
                    SpanKind::HedgeWon,
                    format!("hedge won task{}", task.0),
                    Some(dev.0),
                    format!("replica on dev{} overtook the primary", dev.0),
                    In(task.0, dev.0),
                ),
                TraceEvent::CorruptionDetected { task, dev, .. } => (
                    SpanKind::Rollback,
                    format!("rollback after task{}", task.0),
                    Some(dev.0),
                    format!("corruption detected in task{} on dev{}", task.0, dev.0),
                    Epoch,
                ),
                TraceEvent::DeviceDropout { dev, .. } => (
                    SpanKind::Dropout,
                    format!("dropout dev{}", dev.0),
                    Some(dev.0),
                    format!("dev{} died permanently", dev.0),
                    Epoch,
                ),
                TraceEvent::CircuitOpen { dev, .. } => (
                    SpanKind::Circuit,
                    format!("circuit open dev{}", dev.0),
                    Some(dev.0),
                    format!("breaker quarantined dev{}", dev.0),
                    Epoch,
                ),
                TraceEvent::CircuitClose { dev, .. } => (
                    SpanKind::Circuit,
                    format!("circuit close dev{}", dev.0),
                    Some(dev.0),
                    format!("breaker reclosed dev{}", dev.0),
                    Epoch,
                ),
                TraceEvent::CorrelatedFaultTriggered {
                    domain,
                    source,
                    sibling,
                    ..
                } => (
                    SpanKind::Correlated,
                    format!("correlated domain {domain}"),
                    Some(sibling.0),
                    format!("fault on dev{} propagated to dev{}", source.0, sibling.0),
                    Epoch,
                ),
                TraceEvent::ImbalanceDetected { epoch, skew, .. } => (
                    SpanKind::Imbalance,
                    format!("imbalance epoch {epoch}"),
                    None,
                    format!("observed skew {skew:.2} at the barrier"),
                    Epoch,
                ),
                TraceEvent::Repartitioned {
                    epoch,
                    gpu_items,
                    cpu_items,
                    ..
                } => (
                    SpanKind::Repartition,
                    format!("repartition epoch {epoch}"),
                    None,
                    format!("rebalanced; next epoch gpu {gpu_items} / cpu {cpu_items}"),
                    Epoch,
                ),
                TraceEvent::StrategyEscalated { epoch, .. } => (
                    SpanKind::Escalation,
                    format!("escalate epoch {epoch}"),
                    None,
                    "repartition budget exhausted; switching to DP-Perf".into(),
                    Epoch,
                ),
                TraceEvent::StrategyReinstated { epoch, .. } => (
                    SpanKind::Reinstatement,
                    format!("reinstate epoch {epoch}"),
                    None,
                    "calm restored; returning to the static plan".into(),
                    Epoch,
                ),
                TraceEvent::PlanRepaired { dev, moved, .. } => (
                    SpanKind::Replan,
                    format!("plan repair after dev{}", dev.0),
                    Some(dev.0),
                    format!(
                        "dev{} lost; {moved} chunks re-planned onto survivors",
                        dev.0
                    ),
                    Epoch,
                ),
                TraceEvent::DeviceReadmitted { dev, moved, .. } => (
                    SpanKind::Readmission,
                    format!("readmit dev{}", dev.0),
                    Some(dev.0),
                    format!("dev{} reclosed; {moved} chunks moved back", dev.0),
                    Epoch,
                ),
                TraceEvent::Task { .. }
                | TraceEvent::SlotHeld { .. }
                | TraceEvent::Transfer { .. }
                | TraceEvent::TransferRetry { .. }
                | TraceEvent::Flush { .. } => continue,
            };
            let at = e.at();
            let slot = match parent {
                In(task, dev) => slots
                    .iter()
                    .rposition(|s| s.task == task && s.dev == dev && s.start <= at && at <= s.end),
                Caused(task, dev) => slots
                    .iter()
                    .position(|s| s.task == task && s.dev == dev && s.end >= at),
                Epoch => None,
            };
            let span = Span::point(kind, label, dev, at, cause);
            match slot {
                Some(i) => slots[i].children.push(span),
                None => extras[epoch_of(at)].push(span),
            }
        }

        // Assemble: run → epochs → waves → tasks.
        let dev_label =
            |d: usize| -> &str { dev_names.get(d).map(String::as_str).unwrap_or("unknown") };
        let mut epoch_spans: Vec<Span> = epochs
            .iter()
            .enumerate()
            .map(|(i, &(s, e))| Span {
                kind: SpanKind::Epoch,
                label: format!("epoch {i}"),
                dev: None,
                start: s,
                end: e,
                cause: None,
                children: Vec::new(),
            })
            .collect();
        // Group slots into waves keyed (epoch, dev, lane), preserving
        // submission order inside each wave.
        let mut waves: std::collections::BTreeMap<(usize, usize, usize), Span> =
            std::collections::BTreeMap::new();
        for slot in slots {
            let wave = waves
                .entry((slot.epoch, slot.dev, slot.lane))
                .or_insert_with(|| Span {
                    kind: SpanKind::Wave,
                    label: format!("{} wave {}", dev_label(slot.dev), slot.lane),
                    dev: Some(slot.dev),
                    start: slot.start,
                    end: slot.end,
                    cause: None,
                    children: Vec::new(),
                });
            wave.start = wave.start.min(slot.start);
            wave.end = wave.end.max(slot.end);
            wave.children.push(Span {
                kind: SpanKind::Task,
                label: if slot.held {
                    format!("task{} held (k{})", slot.task, slot.kernel)
                } else {
                    format!("task{} (k{})", slot.task, slot.kernel)
                },
                dev: Some(slot.dev),
                start: slot.start,
                end: slot.end,
                cause: None,
                children: slot.children,
            });
        }
        for ((epoch, _, _), wave) in waves {
            epoch_spans[epoch].children.push(wave);
        }
        for (epoch, mut ex) in extras.into_iter().enumerate() {
            ex.sort_by_key(|s| s.start);
            epoch_spans[epoch].children.append(&mut ex);
        }
        SpanTree {
            root: Span {
                kind: SpanKind::Run,
                label: "run".into(),
                dev: None,
                start: SimTime::ZERO,
                end,
                cause: None,
                children: epoch_spans,
            },
            end,
            dev_names,
            dev_slots,
            deaths,
        }
    }

    /// Per-device task/dead/idle slot-second totals. The three kinds tile
    /// the device's capacity exactly: `task + dead + idle = end × slots`,
    /// the same total the blame identity accounts for.
    pub fn device_span_seconds(&self) -> Vec<DeviceSpanSeconds> {
        let mut busy: Vec<SimTime> = vec![SimTime::ZERO; self.dev_names.len()];
        for epoch in &self.root.children {
            for wave in &epoch.children {
                if wave.kind != SpanKind::Wave {
                    continue;
                }
                for task in &wave.children {
                    if let Some(d) = task.dev {
                        if let Some(b) = busy.get_mut(d) {
                            *b += task.end.saturating_sub(task.start);
                        }
                    }
                }
            }
        }
        (0..self.dev_names.len())
            .map(|d| {
                let slots = self.dev_slots[d];
                let capacity = self.end * slots;
                let task = busy[d];
                let dead = self.deaths[d]
                    .map(|at| self.end.saturating_sub(at) * slots)
                    .unwrap_or(SimTime::ZERO);
                DeviceSpanSeconds {
                    task,
                    dead,
                    idle: capacity.saturating_sub(task).saturating_sub(dead),
                }
            })
            .collect()
    }

    /// Export `hm_span_seconds{kind,device,strategy}` gauges into
    /// `registry`. The task/dead/idle kinds tile `end × slots` per device.
    pub fn export_metrics(&self, registry: &mut MetricsRegistry, strategy: &str) {
        for (d, s) in self.device_span_seconds().iter().enumerate() {
            let device = self.dev_names[d].as_str();
            for (kind, v) in [("task", s.task), ("dead", s.dead), ("idle", s.idle)] {
                registry.gauge_set(
                    "hm_span_seconds",
                    "Slot time per span kind; task+dead+idle tile makespan×slots.",
                    &[("device", device), ("kind", kind), ("strategy", strategy)],
                    v.as_secs_f64(),
                );
            }
        }
    }

    /// Render Brendan-Gregg folded stacks (one `frame;frame;... value`
    /// line per task slot, values in nanoseconds) — the input format of
    /// speedscope and `flamegraph.pl`. Zero-width point children annotate
    /// the task frame with a `+retry`/`+hedge`/... suffix so mitigated
    /// tasks stand out in the flame graph.
    pub fn to_folded(&self) -> String {
        let mut out = String::new();
        for epoch in &self.root.children {
            for wave in &epoch.children {
                if wave.kind != SpanKind::Wave {
                    continue;
                }
                for task in &wave.children {
                    let mut frame = task.label.clone();
                    for c in &task.children {
                        frame.push('+');
                        frame.push_str(c.kind.name());
                    }
                    out.push_str(&format!(
                        "{};{};{};{} {}\n",
                        self.root.label,
                        epoch.label,
                        wave.label,
                        frame,
                        task.end.saturating_sub(task.start).as_nanos()
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{KernelId, TaskId};
    use hetero_platform::DeviceId;

    fn task(task: usize, dev: usize, s: u64, e: u64) -> TraceEvent {
        TraceEvent::Task {
            task: TaskId(task),
            kernel: KernelId(0),
            dev: DeviceId(dev),
            items: 1,
            start: SimTime::from_micros(s),
            end: SimTime::from_micros(e),
        }
    }

    fn flush(epoch: usize, s: u64, e: u64) -> TraceEvent {
        TraceEvent::Flush {
            epoch,
            start: SimTime::from_micros(s),
            end: SimTime::from_micros(e),
        }
    }

    #[test]
    fn epochs_waves_and_tasks_nest() {
        let platform = Platform::test_small();
        let trace = Trace {
            events: vec![
                task(0, 0, 0, 10),
                task(1, 0, 5, 20), // overlaps task 0 → second wave
                flush(0, 20, 22),
                task(2, 1, 22, 30),
                flush(1, 30, 31),
            ],
        };
        let tree = SpanTree::from_trace(&trace, &platform);
        assert_eq!(tree.root.kind, SpanKind::Run);
        assert_eq!(tree.root.children.len(), 2, "two epochs");
        let e0 = &tree.root.children[0];
        let w: Vec<_> = e0
            .children
            .iter()
            .filter(|c| c.kind == SpanKind::Wave)
            .collect();
        assert_eq!(w.len(), 2, "overlapping tasks occupy two waves");
        assert_eq!(tree.root.children[1].children.len(), 1);
        // Folded stacks: one line per task, nanosecond weights.
        let folded = tree.to_folded();
        assert_eq!(folded.lines().count(), 3);
        assert!(folded.contains("run;epoch 0;"));
        assert!(folded.contains("task2 (k0) 8000"));
    }

    #[test]
    fn retries_attach_to_their_task_and_dropouts_to_their_epoch() {
        let platform = Platform::test_small();
        let trace = Trace {
            events: vec![
                task(0, 1, 0, 10),
                TraceEvent::TaskFault {
                    task: TaskId(0),
                    dev: DeviceId(1),
                    attempt: 1,
                    at: SimTime::from_micros(4),
                },
                TraceEvent::DeviceDropout {
                    dev: DeviceId(1),
                    at: SimTime::from_micros(12),
                },
                flush(0, 14, 15),
            ],
        };
        let tree = SpanTree::from_trace(&trace, &platform);
        let e0 = &tree.root.children[0];
        let wave = e0
            .children
            .iter()
            .find(|c| c.kind == SpanKind::Wave)
            .unwrap();
        let t0 = &wave.children[0];
        assert_eq!(t0.children.len(), 1);
        assert_eq!(t0.children[0].kind, SpanKind::Retry);
        assert!(t0.children[0].cause.as_deref().unwrap().contains("faulted"));
        assert!(e0.children.iter().any(|c| c.kind == SpanKind::Dropout));
        // The dead device's post-death capacity is accounted dead.
        let spans = tree.device_span_seconds();
        let slots = platform.devices[1].spec.kind.slots() as u64;
        assert_eq!(spans[1].dead, (tree.end - SimTime::from_micros(12)) * slots);
    }

    #[test]
    fn span_kinds_tile_capacity() {
        let platform = Platform::test_small();
        let trace = Trace {
            events: vec![task(0, 0, 0, 10), task(1, 1, 0, 8), flush(0, 10, 12)],
        };
        let tree = SpanTree::from_trace(&trace, &platform);
        for (d, s) in tree.device_span_seconds().iter().enumerate() {
            let slots = platform.devices[d].spec.kind.slots() as u64;
            assert_eq!(s.task + s.dead + s.idle, tree.end * slots, "device {d}");
        }
        let mut reg = MetricsRegistry::new();
        tree.export_metrics(&mut reg, "test");
        assert!(reg
            .iter()
            .any(|(k, _)| k.starts_with("hm_span_seconds{") && k.contains("kind=\"task\"")));
    }
}
