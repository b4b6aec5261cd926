//! Wall-clock tracing around calls into each layer's public functions.
//!
//! Spans (name, start, end, parent span, op id) are kept in memory and
//! written out once the run ends. Per-call scheduler and observer hooks
//! are far too frequent for spans; they are aggregated as counters by the
//! [`TimedScheduler`] and [`CountingObserver`] wrappers instead.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use hetero_platform::{DeviceId, MemSpaceId, SimTime};
use hetero_runtime::{BindCtx, KernelId, Observer, RunReport, Scheduler, TaskId, TraceEvent};

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

/// In-memory span recorder plus named counters. Every closed span also
/// adds its duration to the counter of the same name, so inclusive layer
/// time is `counter(name)`.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<&'static str, f64>,
    /// The workload op new spans belong to.
    pub op: u64,
    last_ns: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
            op: 0,
            last_ns: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        let out = f(self);
        let end_ns = self.now_ns();
        self.open.pop();
        self.spans[id].end_ns = end_ns;
        self.last_ns = end_ns - start_ns;
        self.add(name, self.last_ns as f64);
        out
    }

    /// Duration of the span closed most recently, nanoseconds.
    pub fn last_ns(&self) -> f64 {
        self.last_ns as f64
    }

    pub fn add(&mut self, counter: &'static str, value: f64) {
        *self.counters.entry(counter).or_insert(0.0) += value;
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Write every span as one JSON line.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.op
            )?;
        }
        out.flush()
    }
}

/// Time spent inside a scheduler's hooks, across every run it wrapped.
#[derive(Default)]
pub struct SchedulerTime {
    pub bind_calls: u64,
    pub bind_ns: u64,
    pub complete_ns: u64,
}

/// A [`Scheduler`] that forwards to `inner` and times each hook.
pub struct TimedScheduler<'a> {
    pub inner: &'a mut dyn Scheduler,
    pub time: &'a mut SchedulerTime,
}

impl Scheduler for TimedScheduler<'_> {
    fn bind(&mut self, ctx: &BindCtx<'_>) -> DeviceId {
        let t = Instant::now();
        let dev = self.inner.bind(ctx);
        self.time.bind_ns += t.elapsed().as_nanos() as u64;
        self.time.bind_calls += 1;
        dev
    }

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
        let t = Instant::now();
        self.inner
            .on_complete(task, kernel, dev, items, busy, exec, now);
        self.time.complete_ns += t.elapsed().as_nanos() as u64;
    }

    fn is_dynamic(&self) -> bool {
        self.inner.is_dynamic()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// An enabled [`Observer`] that only counts: `events` is every event the
/// executor emitted, `hooks` every observer call it dispatched.
#[derive(Default)]
pub struct CountingObserver {
    pub events: u64,
    pub hooks: u64,
}

impl Observer for CountingObserver {
    fn on_event(&mut self, _ev: &TraceEvent) {
        self.events += 1;
        self.hooks += 1;
    }

    fn on_task_start(
        &mut self,
        _: TaskId,
        _: KernelId,
        _: DeviceId,
        _: u64,
        _: SimTime,
        _: SimTime,
    ) {
        self.hooks += 1;
    }

    fn on_task_done(&mut self, _: TaskId, _: DeviceId, _: SimTime) {
        self.hooks += 1;
    }

    fn on_task_bound(&mut self, _: TaskId, _: DeviceId, _: SimTime, _: usize) {
        self.hooks += 1;
    }

    fn on_transfer(&mut self, _: MemSpaceId, _: MemSpaceId, _: u64, _: SimTime, _: SimTime) {
        self.hooks += 1;
    }

    fn on_epoch_end(&mut self, _: usize, _: SimTime, _: SimTime) {
        self.hooks += 1;
    }

    fn on_fault(&mut self, _: &TraceEvent) {
        self.hooks += 1;
    }

    fn on_adapt_action(&mut self, _: &TraceEvent) {
        self.hooks += 1;
    }

    fn on_run_end(&mut self, _: &RunReport) {
        self.hooks += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_accumulate_inclusive_time() {
        let mut t = Tracer::new();
        t.op = 3;
        let v = t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            7
        });
        assert_eq!(v, 7);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[0].parent, None);
        assert!(t.spans.iter().all(|s| s.op == 3));
        assert!(t.counter("outer") >= t.counter("inner"));
        assert!(t.counter("inner") >= 2e6);
        assert_eq!(t.last_ns(), t.counter("outer"));
        t.add("x", 1.5);
        t.add("x", 1.0);
        assert_eq!(t.counter("x"), 2.5);
        assert_eq!(t.counter("missing"), 0.0);
    }
}
