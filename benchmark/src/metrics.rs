//! The metric catalogue: end-to-end metrics of an untraced run and the
//! per-layer metrics a traced run derives from its spans and counters.

use crate::stats::percentile;
use crate::trace::Tracer;
use crate::workloads::Measured;

/// A named value with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
pub const END_TO_END: [&str; 5] = [
    "setup_s",
    "throughput_ops_s",
    "op_us.p50",
    "op_us.p90",
    "peak_rss_mb",
];

pub fn end_to_end(setup_s: f64, m: &Measured) -> Vec<Metric> {
    let op_us = m.op_us();
    vec![
        metric("setup_s", setup_s, "s"),
        metric("throughput_ops_s", m.throughput(), "1/s"),
        metric("op_us.p50", percentile(&op_us, 0.5), "us"),
        metric("op_us.p90", percentile(&op_us, 0.9), "us"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

/// Per-layer metrics from a traced phase of `ops` workload ops. Times are
/// microseconds per op; counts are per op. A layer the workload never
/// reaches reads 0.
pub fn per_layer(t: &Tracer, ops: f64, overhead_pct: f64) -> Vec<Metric> {
    let us = |ns: f64| ns / ops / 1e3;
    let per_op = |name: &str| t.counter(name) / ops;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let events = t.counter("executor.events");
    let cached = t.counter("service.cached");
    let served = cached + t.counter("service.fresh");
    vec![
        metric(
            "analyzer.analyze.self_us",
            us(t.counter("analyzer.analyze")),
            "us",
        ),
        metric("glinda.solve.calls", per_op("glinda.solve.calls"), "count"),
        metric("glinda.solve.self_us", us(t.counter("glinda.solve")), "us"),
        metric(
            "plan.lower.self_us",
            us(t.counter("plan") - t.counter("glinda.solve")),
            "us",
        ),
        metric("plan.tasks", per_op("plan.tasks"), "count"),
        metric("graph.build.self_us", us(t.counter("graph.build")), "us"),
        metric("graph.edges", per_op("graph.edges"), "count"),
        metric("executor.self_us", us(t.counter("executor.self_ns")), "us"),
        metric("executor.events", per_op("executor.events"), "count"),
        metric(
            "executor.ns_per_event",
            ratio(t.counter("executor.self_ns"), events),
            "ns",
        ),
        metric(
            "scheduler.bind.calls",
            per_op("scheduler.bind.calls"),
            "count",
        ),
        metric(
            "scheduler.bind.self_us",
            us(t.counter("scheduler.bind_ns")),
            "us",
        ),
        metric(
            "scheduler.complete.self_us",
            us(t.counter("scheduler.complete_ns")),
            "us",
        ),
        metric("obs.dispatch.calls", per_op("obs.dispatch.calls"), "count"),
        metric(
            "obs.metrics.extra_us",
            us(t.counter("obs.metrics.extra_ns")),
            "us",
        ),
        metric(
            "obs.snapshot.extra_us",
            us(t.counter("obs.snapshot.extra_ns")),
            "us",
        ),
        metric(
            "journal.record.extra_us",
            us(t.counter("journal.record.extra_ns")),
            "us",
        ),
        metric("journal.bytes", per_op("journal.bytes"), "B"),
        metric(
            "journal.resume.self_us",
            us(t.counter("journal.resume")),
            "us",
        ),
        metric("stream.lines", per_op("stream.lines"), "count"),
        metric("stream.bytes", per_op("stream.bytes"), "B"),
        metric("stream.fold.self_us", us(t.counter("stream.fold")), "us"),
        metric(
            "metrics.export.self_us",
            us(t.counter("metrics.export")),
            "us",
        ),
        metric(
            "codec.encode_request.self_us",
            us(t.counter("codec.encode_request")),
            "us",
        ),
        metric(
            "codec.decode_request.self_us",
            us(t.counter("codec.decode_request")),
            "us",
        ),
        metric(
            "codec.encode_response.self_us",
            us(t.counter("codec.encode_response")),
            "us",
        ),
        metric("codec.bytes_in", per_op("codec.bytes_in"), "B"),
        metric(
            "service.engine.self_us",
            us(t.counter("service.window")
                - t.counter("codec.decode_request")
                - t.counter("service.solve")),
            "us",
        ),
        metric(
            "service.solve.self_us",
            us(t.counter("service.solve")),
            "us",
        ),
        metric("service.fresh", per_op("service.fresh"), "count"),
        metric("service.cached", per_op("service.cached"), "count"),
        metric("service.degraded", per_op("service.degraded"), "count"),
        metric("service.shed", per_op("service.shed"), "count"),
        metric("service.cache_hit_ratio", ratio(cached, served), "ratio"),
        metric(
            "fuzz.generate.self_us",
            us(t.counter("fuzz.generate")),
            "us",
        ),
        metric("fuzz.oracles.self_us", us(t.counter("fuzz.oracles")), "us"),
        metric("fuzz.checks", per_op("fuzz.checks"), "count"),
        metric(
            "executor.faulty.self_us",
            us(t.counter("executor.faulty")),
            "us",
        ),
        metric(
            "executor.resilient.self_us",
            us(t.counter("executor.resilient")),
            "us",
        ),
        metric(
            "executor.adaptive.self_us",
            us(t.counter("executor.adaptive")),
            "us",
        ),
        metric(
            "executor.repairing.self_us",
            us(t.counter("executor.repairing")),
            "us",
        ),
        metric("native.run.self_us", us(t.counter("native.run")), "us"),
        metric("trace.overhead_pct", overhead_pct, "%"),
    ]
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn listed(v: &serde_json::Value, key: &str, field: &str) -> Vec<String> {
        v[key]
            .as_array()
            .expect("a list")
            .iter()
            .map(|m| m[field].as_str().expect("a string field").to_string())
            .collect()
    }

    fn ours(metrics: &[Metric], field: fn(&Metric) -> &'static str) -> Vec<String> {
        metrics.iter().map(|m| field(m).to_string()).collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let bench = crate::benchmark_json();
        let e2e = end_to_end(1.0, &Measured::default());
        assert_eq!(ours(&e2e, |m| m.name), END_TO_END);
        assert_eq!(listed(&bench, "end_to_end", "name"), ours(&e2e, |m| m.name));
        assert_eq!(listed(&bench, "end_to_end", "unit"), ours(&e2e, |m| m.unit));
        let layer = per_layer(&Tracer::new(), 1.0, 0.0);
        assert_eq!(
            listed(&bench, "per_layer", "name"),
            ours(&layer, |m| m.name)
        );
        assert_eq!(
            listed(&bench, "per_layer", "unit"),
            ours(&layer, |m| m.unit)
        );
        let workloads: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(listed(&bench, "workloads", "name"), workloads);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
