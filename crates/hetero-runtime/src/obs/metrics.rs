//! A deterministic metrics registry: typed counters, gauges and log-bucketed
//! histograms with Prometheus text exposition and JSON export, plus the
//! built-in [`MetricsObserver`] that feeds it from executor events.
//!
//! Determinism is load-bearing: the simulator replays byte-for-byte from a
//! seed, and the exported metrics must too (CI diffs a double run). Every
//! series therefore has a rendered identity (`name{label="value",...}` with
//! labels sorted by key), and iteration, export and equality all go in id
//! order; floats render with Rust's shortest-roundtrip `Display` — no
//! HashMap iteration order, no locale, no timestamps.
//!
//! Series live in one `Vec` in the order they first appear, so each has a
//! stable *slot*; a `BTreeMap` from id to slot serves lookup by id and
//! id-ordered walks. Slots are append-only: nothing removes a series. A
//! named update ([`MetricsRegistry::counter_add`] and its siblings) renders
//! the id into stack scratch and costs one map lookup, while the
//! observer's task and transfer hooks keep their series' slots and cost
//! three indexed writes.

use crate::program::{KernelId, TaskId};
use crate::stats::RunReport;
use crate::trace::TraceEvent;
use hetero_platform::{DeviceId, MemSpaceId, Platform, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

use super::Observer;

/// Number of log2 buckets in a [`LogHistogram`]. With a 1µs base bucket the
/// largest finite bound is `1µs × 2^26 ≈ 67s`; beyond that counts land in
/// the overflow (`+Inf`) bucket.
pub const HISTOGRAM_BUCKETS: usize = 27;

/// Base (smallest) bucket upper bound for [`LogHistogram`], in nanoseconds.
pub const HISTOGRAM_BASE_NANOS: u64 = 1_000;

/// A log2-bucketed latency histogram over virtual time. Bucket `i` counts
/// observations `≤ HISTOGRAM_BASE_NANOS << i`; larger observations go to the
/// overflow bucket (rendered as `+Inf`).
///
/// Serialization is hand-written: the JSON form carries the four stored
/// fields plus a computed `quantiles` object (`p50`/`p95`/`p99`, in
/// seconds). Deserialization reads only the stored fields — quantiles are
/// derived, so a value survives a JSON round-trip unchanged and two equal
/// histograms always serialize to identical bytes.
#[derive(Clone, Debug, PartialEq)]
pub struct LogHistogram {
    /// Per-bucket (non-cumulative) observation counts.
    pub buckets: Vec<u64>,
    /// Observations above the largest finite bound.
    pub overflow: u64,
    /// Total number of observations.
    pub count: u64,
    /// Sum of all observations, in nanoseconds.
    pub sum_nanos: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self {
            buckets: vec![0; HISTOGRAM_BUCKETS],
            overflow: 0,
            count: 0,
            sum_nanos: 0,
        }
    }
}

impl LogHistogram {
    /// Record one observation.
    pub fn observe(&mut self, t: SimTime) {
        let ns = t.as_nanos();
        self.count += 1;
        self.sum_nanos = self.sum_nanos.saturating_add(ns);
        match self.buckets.get_mut(Self::bucket(ns)) {
            Some(b) => *b += 1,
            None => self.overflow += 1,
        }
    }

    /// The bucket `ns` falls in: the smallest `i` with
    /// `ns <= HISTOGRAM_BASE_NANOS << i`, which is `⌈log2 ⌈ns / base⌉⌉`;
    /// `HISTOGRAM_BUCKETS` or more is the overflow bucket.
    fn bucket(ns: u64) -> usize {
        let q = ns.div_ceil(HISTOGRAM_BASE_NANOS);
        if q <= 1 {
            0
        } else {
            (u64::BITS - (q - 1).leading_zeros()) as usize
        }
    }

    /// Merge another histogram into this one (bucketwise addition).
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.count += other.count;
        self.sum_nanos = self.sum_nanos.saturating_add(other.sum_nanos);
    }

    /// The upper bound of bucket `i`, in seconds (for `le` labels).
    pub fn bound_secs(i: usize) -> f64 {
        (HISTOGRAM_BASE_NANOS << i) as f64 / 1e9
    }

    /// The quantile-`q` estimate, in seconds: the upper bound of the bucket
    /// containing the `⌈q·count⌉`-th observation (log-bucketed histograms
    /// resolve to bucket boundaries, the conservative upper estimate).
    /// Observations in the overflow bucket report the first bound past the
    /// largest finite one; an empty histogram reports `0`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum >= rank {
                return Self::bound_secs(i);
            }
        }
        Self::bound_secs(HISTOGRAM_BUCKETS)
    }

    /// Accept parsed fields only with exactly [`HISTOGRAM_BUCKETS`] buckets:
    /// a bucket's bound is `HISTOGRAM_BASE_NANOS << i`, which overflows for a
    /// longer table, and every writer emits exactly that many.
    fn checked(self) -> Result<Self, serde::Error> {
        if self.buckets.len() == HISTOGRAM_BUCKETS {
            Ok(self)
        } else {
            Err(serde::Error::custom(format!(
                "LogHistogram has {} buckets, expected {HISTOGRAM_BUCKETS}",
                self.buckets.len()
            )))
        }
    }
}

impl Serialize for LogHistogram {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("buckets".into(), self.buckets.to_value()),
            ("overflow".into(), self.overflow.to_value()),
            ("count".into(), self.count.to_value()),
            ("sum_nanos".into(), self.sum_nanos.to_value()),
            (
                "quantiles".into(),
                serde::Value::Map(vec![
                    ("p50".into(), self.quantile(0.50).to_value()),
                    ("p95".into(), self.quantile(0.95).to_value()),
                    ("p99".into(), self.quantile(0.99).to_value()),
                ]),
            ),
        ])
    }

    fn write_json(&self, w: &mut serde::json::Writer) {
        w.begin_map();
        w.key("buckets");
        self.buckets.write_json(w);
        w.key("overflow");
        w.u64(self.overflow);
        w.key("count");
        w.u64(self.count);
        w.key("sum_nanos");
        w.u64(self.sum_nanos);
        w.key("quantiles");
        w.begin_map();
        for (k, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
            w.key(k);
            w.f64(self.quantile(q));
        }
        w.end_map();
        w.end_map();
    }
}

impl Deserialize for LogHistogram {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let m = v
            .as_map()
            .ok_or_else(|| serde::Error::custom(format!("expected LogHistogram map, got {v:?}")))?;
        LogHistogram {
            buckets: serde::de::field(m, "buckets", "LogHistogram")?,
            overflow: serde::de::field(m, "overflow", "LogHistogram")?,
            count: serde::de::field(m, "count", "LogHistogram")?,
            sum_nanos: serde::de::field(m, "sum_nanos", "LogHistogram")?,
        }
        .checked()
    }

    // As derived: the first occurrence of a key wins; `quantiles` (derived
    // from the buckets) and unknown keys are skipped.
    fn read_json(r: &mut serde::json::Reader<'_>) -> Result<Self, serde::Error> {
        let (mut buckets, mut overflow, mut count, mut sum_nanos) = (None, None, None, None);
        r.begin_map()?;
        while let Some(k) = r.next_key()? {
            match &*k {
                "buckets" if buckets.is_none() => buckets = Some(Deserialize::read_json(r)?),
                "overflow" if overflow.is_none() => overflow = Some(u64::read_json(r)?),
                "count" if count.is_none() => count = Some(u64::read_json(r)?),
                "sum_nanos" if sum_nanos.is_none() => sum_nanos = Some(u64::read_json(r)?),
                _ => r.skip_value()?,
            }
        }
        let missing = |f| serde::de::missing(f, "LogHistogram");
        LogHistogram {
            buckets: buckets.ok_or_else(|| missing("buckets"))?,
            overflow: overflow.ok_or_else(|| missing("overflow"))?,
            count: count.ok_or_else(|| missing("count"))?,
            sum_nanos: sum_nanos.ok_or_else(|| missing("sum_nanos"))?,
        }
        .checked()
    }
}

/// The value of one series.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum SeriesValue {
    /// A monotonically increasing integer.
    Counter(u64),
    /// A point-in-time float.
    Gauge(f64),
    /// A latency distribution.
    Histogram(LogHistogram),
}

/// One labeled series in the registry.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Metric name (Prometheus naming conventions, `hm_` prefix).
    pub name: String,
    /// Help text emitted as `# HELP`.
    pub help: String,
    /// Label pairs, sorted by key.
    pub labels: Vec<(String, String)>,
    /// The series value.
    pub value: SeriesValue,
}

impl Series {
    /// The rendered registry identity of this series:
    /// `name{label="value",...}` with labels sorted by key (the key the
    /// registry stores it under, and the id streaming deltas carry).
    pub fn id(&self) -> String {
        series_id(&self.name, &self.labels)
    }
}

/// A registry of labeled series with deterministic iteration and export.
///
/// Each series has a stable slot, its index in the order series first
/// appeared; iteration, export and `==` go in id order, so two registries
/// holding the same series are equal and export the same bytes whatever
/// order their series appeared in.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    /// Every series, indexed by slot. Append-only.
    series: Vec<Series>,
    /// Rendered identity `name{k="v",...}` → slot.
    by_id: BTreeMap<String, usize>,
}

impl PartialEq for MetricsRegistry {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

// The JSON shape is the id-keyed map's: `{"series": [[id, series], ...]}`
// in id order.
impl Serialize for MetricsRegistry {
    fn to_value(&self) -> serde::Value {
        let series = self.iter().map(|pair| pair.to_value()).collect();
        serde::Value::Map(vec![("series".into(), serde::Value::Seq(series))])
    }

    fn write_json(&self, w: &mut serde::json::Writer) {
        w.begin_map();
        w.key("series");
        w.begin_seq();
        for pair in self.iter() {
            w.elem();
            pair.write_json(w);
        }
        w.end_seq();
        w.end_map();
    }
}

// As derived for `{ series: BTreeMap<String, Series> }`; the map's entries
// then take slots in id order.
impl Deserialize for MetricsRegistry {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let m = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected map for MetricsRegistry"))?;
        let series = serde::de::field(m, "series", "MetricsRegistry")?;
        Ok(Self::from_map(series))
    }

    fn read_json(r: &mut serde::json::Reader<'_>) -> Result<Self, serde::Error> {
        let mut series = None;
        r.begin_map()?;
        while let Some(k) = r.next_key()? {
            match &*k {
                "series" if series.is_none() => series = Some(Deserialize::read_json(r)?),
                _ => r.skip_value()?,
            }
        }
        let series = series.ok_or_else(|| serde::de::missing("series", "MetricsRegistry"))?;
        Ok(Self::from_map(series))
    }
}

/// Render a series identity `name{k="v",...}` (labels already sorted).
fn write_id(
    out: &mut impl std::fmt::Write,
    name: &str,
    labels: &[(impl AsRef<str>, impl AsRef<str>)],
) {
    let _ = out.write_str(name);
    if labels.is_empty() {
        return;
    }
    let _ = out.write_char('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            let _ = out.write_char(',');
        }
        for part in [k.as_ref(), "=\"", v.as_ref(), "\""] {
            let _ = out.write_str(part);
        }
    }
    let _ = out.write_char('}');
}

fn series_id(name: &str, labels: &[(String, String)]) -> String {
    let mut id = String::new();
    write_id(&mut id, name, labels);
    id
}

/// Most label sets fit here; longer ones are sorted in a heap copy.
const INLINE_LABELS: usize = 8;

/// Ids up to this many bytes are rendered on the stack.
const INLINE_ID_BYTES: usize = 256;

/// Scratch space for rendering a series id without touching the heap: a
/// stack buffer that spills into a `String` only for ids longer than it.
struct IdBuf {
    inline: [u8; INLINE_ID_BYTES],
    len: usize,
    spill: Option<String>,
}

impl IdBuf {
    fn new() -> Self {
        Self {
            inline: [0; INLINE_ID_BYTES],
            len: 0,
            spill: None,
        }
    }

    fn as_str(&self) -> &str {
        match &self.spill {
            Some(s) => s,
            // Only whole `&str`s are ever copied in, so this is valid UTF-8.
            None => std::str::from_utf8(&self.inline[..self.len]).expect("utf-8 id"),
        }
    }
}

impl std::fmt::Write for IdBuf {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        let end = self.len + s.len();
        match &mut self.spill {
            Some(spill) => spill.push_str(s),
            None if end <= INLINE_ID_BYTES => {
                self.inline[self.len..end].copy_from_slice(s.as_bytes());
                self.len = end;
            }
            None => {
                let mut spill = String::with_capacity(end);
                spill.push_str(self.as_str());
                spill.push_str(s);
                self.spill = Some(spill);
            }
        }
        Ok(())
    }
}

/// Sort `labels` and render the id `name{labels}` into stack scratch space,
/// then hand the id and the sorted labels to `f`. Allocates only for more
/// than [`INLINE_LABELS`] labels or an id longer than [`INLINE_ID_BYTES`].
fn with_id<R>(
    name: &str,
    labels: &[(&str, &str)],
    f: impl FnOnce(&str, &[(&str, &str)]) -> R,
) -> R {
    let mut inline = [("", ""); INLINE_LABELS];
    let mut heap = Vec::new();
    let sorted = if labels.len() <= INLINE_LABELS {
        inline[..labels.len()].copy_from_slice(labels);
        &mut inline[..labels.len()]
    } else {
        heap.extend_from_slice(labels);
        &mut heap[..]
    };
    sorted.sort_unstable();
    let mut id = IdBuf::new();
    write_id(&mut id, name, sorted);
    f(id.as_str(), sorted)
}

/// The three series a task or transfer hook feeds, as `(name, help)`: an
/// event counter, an amount counter and a latency histogram.
type HookSeries = [(&'static str, &'static str); 3];

const TASK_SERIES: HookSeries = [
    (
        "hm_tasks_total",
        "Task instances committed to a device slot.",
    ),
    (
        "hm_task_items_total",
        "Work items across committed task instances.",
    ),
    (
        "hm_task_slot_seconds",
        "Slot occupancy per task instance (transfers + attempts + execution).",
    ),
];

const TRANSFER_SERIES: HookSeries = [
    ("hm_transfers_total", "Coherence and write-back transfers."),
    (
        "hm_transfer_bytes_total",
        "Bytes moved by coherence and write-back transfers.",
    ),
    ("hm_transfer_seconds", "Latency per transfer."),
];

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry holding `map`'s series, slotted in id order.
    fn from_map(map: BTreeMap<String, Series>) -> Self {
        let mut reg = Self::new();
        for (id, s) in map {
            reg.push(id, s);
        }
        reg
    }

    /// Every series with its rendered id, in id order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Series)> {
        self.by_id
            .iter()
            .map(|(id, &slot)| (id.as_str(), &self.series[slot]))
    }

    /// The series stored under the rendered id `name{k="v",...}`.
    pub fn get(&self, id: &str) -> Option<&Series> {
        self.by_id.get(id).map(|&slot| &self.series[slot])
    }

    /// The number of series.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// Whether the registry holds no series.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Every series, indexed by slot.
    pub(super) fn slots(&self) -> &[Series] {
        &self.series
    }

    /// Every series with its slot, in id order.
    pub(super) fn slots_by_id(&self) -> impl Iterator<Item = (usize, &Series)> {
        self.by_id.values().map(|&slot| (slot, &self.series[slot]))
    }

    /// The value of the series stored under `id`, for an in-place update.
    pub(super) fn value_mut(&mut self, id: &str) -> Option<&mut SeriesValue> {
        self.by_id.get(id).map(|&slot| &mut self.series[slot].value)
    }

    /// Store a series under `id`, which no series has yet, in the next
    /// slot; returns the slot.
    pub(super) fn push(&mut self, id: String, series: Series) -> usize {
        let slot = self.series.len();
        self.series.push(series);
        self.by_id.insert(id, slot);
        slot
    }

    /// Store a new series under its rendered `id` (labels already sorted);
    /// returns its slot.
    fn insert(
        &mut self,
        id: &str,
        name: &str,
        help: &str,
        sorted: &[(&str, &str)],
        value: SeriesValue,
    ) -> usize {
        let labels = sorted
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        self.push(
            id.to_string(),
            Series {
                name: name.to_string(),
                help: help.to_string(),
                labels,
                value,
            },
        )
    }

    /// Apply `update` to the series `name{labels}`, creating it from `init`
    /// first if absent. An existing series costs a sort of the borrowed
    /// labels, an id rendered into stack scratch space and one map lookup;
    /// only a series' first appearance allocates its key, name, help and
    /// labels (so the first help text wins).
    fn update(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        init: impl FnOnce() -> SeriesValue,
        update: impl FnOnce(&mut SeriesValue),
    ) {
        with_id(name, labels, |id, sorted| match self.by_id.get(id) {
            Some(&slot) => update(&mut self.series[slot].value),
            None => {
                let mut value = init();
                update(&mut value);
                self.insert(id, name, help, sorted, value);
            }
        });
    }

    /// Create a hook's three series under `labels` (those absent start
    /// empty) and return their slots for [`Self::record_hook`].
    fn register_hook(&mut self, series: &HookSeries, labels: &[(&str, &str)]) -> [usize; 3] {
        let init = [
            || SeriesValue::Counter(0),
            || SeriesValue::Counter(0),
            || SeriesValue::Histogram(LogHistogram::default()),
        ];
        let mut slots = [0; 3];
        for ((slot, (name, help)), init) in slots.iter_mut().zip(series).zip(init) {
            *slot = with_id(name, labels, |id, sorted| match self.by_id.get(id) {
                Some(&slot) => slot,
                None => self.insert(id, name, help, sorted, init()),
            });
        }
        slots
    }

    /// Count one hook event of size `amount` lasting `latency` on the
    /// slots [`Self::register_hook`] returned: three indexed writes.
    fn record_hook(&mut self, slots: &[usize; 3], amount: u64, latency: SimTime) {
        let [events, total, hist] = *slots;
        if let SeriesValue::Counter(c) = &mut self.series[events].value {
            *c += 1;
        }
        if let SeriesValue::Counter(c) = &mut self.series[total].value {
            *c += amount;
        }
        if let SeriesValue::Histogram(h) = &mut self.series[hist].value {
            h.observe(latency);
        }
    }

    /// Add `delta` to a counter series, creating it at zero if absent.
    pub fn counter_add(&mut self, name: &str, help: &str, labels: &[(&str, &str)], delta: u64) {
        self.update(
            name,
            help,
            labels,
            || SeriesValue::Counter(0),
            |v| {
                if let SeriesValue::Counter(c) = v {
                    *c += delta;
                }
            },
        );
    }

    /// Set a gauge series to `value`.
    pub fn gauge_set(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        self.update(
            name,
            help,
            labels,
            || SeriesValue::Gauge(0.0),
            |v| {
                if let SeriesValue::Gauge(g) = v {
                    *g = value;
                }
            },
        );
    }

    /// Raise a gauge series to `value` if larger (high-water mark).
    pub fn gauge_max(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        self.update(
            name,
            help,
            labels,
            || SeriesValue::Gauge(f64::NEG_INFINITY),
            |v| {
                if let SeriesValue::Gauge(g) = v {
                    if value > *g {
                        *g = value;
                    }
                }
            },
        );
    }

    /// Record an observation into a histogram series.
    pub fn observe(&mut self, name: &str, help: &str, labels: &[(&str, &str)], t: SimTime) {
        self.update(
            name,
            help,
            labels,
            || SeriesValue::Histogram(LogHistogram::default()),
            |v| {
                if let SeriesValue::Histogram(h) = v {
                    h.observe(t);
                }
            },
        );
    }

    /// Merge another registry: counters add, histograms merge bucketwise,
    /// gauges take the maximum. Series absent here are copied.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (id, s) in other.iter() {
            match self.value_mut(id) {
                None => {
                    self.push(id.to_string(), s.clone());
                }
                Some(mine) => match (mine, &s.value) {
                    (SeriesValue::Counter(a), SeriesValue::Counter(b)) => *a += b,
                    (SeriesValue::Gauge(a), SeriesValue::Gauge(b)) if *b > *a => *a = *b,
                    (SeriesValue::Histogram(a), SeriesValue::Histogram(b)) => a.merge(b),
                    _ => {}
                },
            }
        }
    }

    /// Render the registry in the Prometheus text exposition format.
    /// Deterministic: metric families sorted by name, series by label
    /// identity, histograms expanded to cumulative `_bucket`/`_sum`/`_count`.
    pub fn to_prometheus(&self) -> String {
        let mut families: BTreeMap<&str, Vec<&Series>> = BTreeMap::new();
        for (_, s) in self.iter() {
            families.entry(&s.name).or_default().push(s);
        }
        let mut out = String::new();
        for (name, series) in families {
            let (help, kind) = {
                let s = series[0];
                let kind = match s.value {
                    SeriesValue::Counter(_) => "counter",
                    SeriesValue::Gauge(_) => "gauge",
                    SeriesValue::Histogram(_) => "histogram",
                };
                (&s.help, kind)
            };
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} {kind}");
            for s in series {
                let id = series_id(&s.name, &s.labels);
                match &s.value {
                    SeriesValue::Counter(c) => {
                        let _ = writeln!(out, "{id} {c}");
                    }
                    SeriesValue::Gauge(g) => {
                        let _ = writeln!(out, "{id} {g}");
                    }
                    SeriesValue::Histogram(h) => {
                        let mut cum = 0u64;
                        for (i, b) in h.buckets.iter().enumerate() {
                            cum += b;
                            let mut labels = s.labels.clone();
                            labels.push(("le".into(), format!("{}", LogHistogram::bound_secs(i))));
                            labels.sort();
                            let _ = writeln!(
                                out,
                                "{} {cum}",
                                series_id(&format!("{name}_bucket"), &labels)
                            );
                        }
                        let mut labels = s.labels.clone();
                        labels.push(("le".into(), "+Inf".into()));
                        labels.sort();
                        let _ = writeln!(
                            out,
                            "{} {}",
                            series_id(&format!("{name}_bucket"), &labels),
                            cum + h.overflow
                        );
                        let sum = h.sum_nanos as f64 / 1e9;
                        let _ = writeln!(
                            out,
                            "{} {sum}",
                            series_id(&format!("{name}_sum"), &s.labels)
                        );
                        let _ = writeln!(
                            out,
                            "{} {}",
                            series_id(&format!("{name}_count"), &s.labels),
                            h.count
                        );
                    }
                }
            }
        }
        out
    }

    /// Render the registry as pretty-printed JSON (via serde).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("metrics registry serializes")
    }
}

/// The built-in metrics sink: implements [`Observer`] and feeds a
/// [`MetricsRegistry`] with the metric catalog documented in DESIGN.md §8.3
/// (task latency, transfer bytes/latency, queue depth, fault and adaptation
/// counts, per-epoch per-device utilization, and the final makespan plus
/// blame components).
#[derive(Clone, Debug)]
pub struct MetricsObserver {
    registry: MetricsRegistry,
    strategy: String,
    dev_names: Vec<String>,
    /// The task series' registry slots per kernel and device, registered
    /// on the pair's first task so that later tasks cost three indexed
    /// writes.
    task_series: Vec<Vec<Option<[usize; 3]>>>,
    /// The transfer series' registry slots, registered on the first
    /// transfer.
    transfer_series: Option<[usize; 3]>,
    dev_slots: Vec<u64>,
    epoch_busy: Vec<SimTime>,
    last_flush_end: SimTime,
    queue_peak: Vec<usize>,
}

impl MetricsObserver {
    /// A metrics sink for one run of `strategy` on `platform`. The strategy
    /// string becomes the `strategy` label on every series.
    pub fn new(platform: &Platform, strategy: &str) -> Self {
        let n = platform.devices.len();
        Self {
            registry: MetricsRegistry::new(),
            strategy: strategy.to_string(),
            dev_names: platform
                .devices
                .iter()
                .map(|d| d.spec.name.clone())
                .collect(),
            task_series: Vec::new(),
            transfer_series: None,
            dev_slots: platform
                .devices
                .iter()
                .map(|d| d.spec.kind.slots() as u64)
                .collect(),
            epoch_busy: vec![SimTime::ZERO; n],
            last_flush_end: SimTime::ZERO,
            queue_peak: vec![0; n],
        }
    }

    /// The registry accumulated so far.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Consume the observer and return its registry.
    pub fn into_registry(self) -> MetricsRegistry {
        self.registry
    }

    fn fault_kind(ev: &TraceEvent) -> &'static str {
        match ev {
            TraceEvent::TaskFault { .. } => "task_fault",
            TraceEvent::TransferRetry { .. } => "transfer_retry",
            TraceEvent::DeviceDropout { .. } => "dropout",
            TraceEvent::Failover { .. } => "failover",
            TraceEvent::HedgeLaunched { .. } => "hedge_launched",
            TraceEvent::HedgeWon { .. } => "hedge_won",
            TraceEvent::CorruptionDetected { .. } => "corruption_detected",
            TraceEvent::CircuitOpen { .. } => "circuit_open",
            TraceEvent::CircuitClose { .. } => "circuit_close",
            TraceEvent::CorrelatedFaultTriggered { .. } => "correlated",
            _ => "other",
        }
    }

    fn adapt_kind(ev: &TraceEvent) -> &'static str {
        match ev {
            TraceEvent::ImbalanceDetected { .. } => "imbalance_detected",
            TraceEvent::Repartitioned { .. } => "repartitioned",
            TraceEvent::StrategyEscalated { .. } => "escalated",
            TraceEvent::StrategyReinstated { .. } => "reinstated",
            TraceEvent::PlanRepaired { .. } => "plan_repaired",
            TraceEvent::DeviceReadmitted { .. } => "device_readmitted",
            _ => "other",
        }
    }
}

impl Observer for MetricsObserver {
    fn on_task_start(
        &mut self,
        _task: TaskId,
        kernel: KernelId,
        dev: DeviceId,
        items: u64,
        start: SimTime,
        end: SimTime,
    ) {
        if self.task_series.len() <= kernel.0 {
            self.task_series.resize_with(kernel.0 + 1, Vec::new);
        }
        let per_dev = &mut self.task_series[kernel.0];
        if per_dev.len() <= dev.0 {
            per_dev.resize_with(dev.0 + 1, || None);
        }
        let slots = per_dev[dev.0].get_or_insert_with(|| {
            let device = self
                .dev_names
                .get(dev.0)
                .map(String::as_str)
                .unwrap_or("unknown");
            self.registry.register_hook(
                &TASK_SERIES,
                &[
                    ("device", device),
                    ("kernel", &format!("k{}", kernel.0)),
                    ("strategy", &self.strategy),
                ],
            )
        });
        self.registry
            .record_hook(slots, items, end.saturating_sub(start));
        if let Some(b) = self.epoch_busy.get_mut(dev.0) {
            *b += end.saturating_sub(start);
        }
    }

    fn on_task_bound(&mut self, _task: TaskId, dev: DeviceId, _at: SimTime, queue_depth: usize) {
        if let Some(p) = self.queue_peak.get_mut(dev.0) {
            if queue_depth > *p {
                *p = queue_depth;
            }
        }
    }

    fn on_transfer(
        &mut self,
        _from: MemSpaceId,
        _to: MemSpaceId,
        bytes: u64,
        start: SimTime,
        end: SimTime,
    ) {
        let slots = self.transfer_series.get_or_insert_with(|| {
            self.registry
                .register_hook(&TRANSFER_SERIES, &[("strategy", &self.strategy)])
        });
        self.registry
            .record_hook(slots, bytes, end.saturating_sub(start));
    }

    fn on_epoch_end(&mut self, epoch: usize, _start: SimTime, end: SimTime) {
        let window = end.saturating_sub(self.last_flush_end);
        let epoch_s = format!("{epoch}");
        for d in 0..self.epoch_busy.len() {
            let cap = window * self.dev_slots[d];
            let util = if cap.is_zero() {
                0.0
            } else {
                self.epoch_busy[d].as_secs_f64() / cap.as_secs_f64()
            };
            self.registry.gauge_set(
                "hm_epoch_utilization",
                "Fraction of a device's slot capacity busy within an epoch window.",
                &[
                    ("device", &self.dev_names[d]),
                    ("epoch", &epoch_s),
                    ("strategy", &self.strategy),
                ],
                util,
            );
            self.epoch_busy[d] = SimTime::ZERO;
        }
        self.last_flush_end = end;
    }

    fn on_fault(&mut self, ev: &TraceEvent) {
        self.registry.counter_add(
            "hm_faults_total",
            "Fault and mitigation events by kind.",
            &[("kind", Self::fault_kind(ev)), ("strategy", &self.strategy)],
            1,
        );
    }

    fn on_adapt_action(&mut self, ev: &TraceEvent) {
        self.registry.counter_add(
            "hm_adapt_total",
            "Adaptation events by kind.",
            &[("kind", Self::adapt_kind(ev)), ("strategy", &self.strategy)],
            1,
        );
    }

    fn on_run_end(&mut self, report: &RunReport) {
        let strategy = self.strategy.as_str();
        self.registry.gauge_set(
            "hm_makespan_seconds",
            "Run makespan.",
            &[
                ("scheduler", report.scheduler.as_str()),
                ("strategy", strategy),
            ],
            report.makespan.as_secs_f64(),
        );
        for (d, peak) in self.queue_peak.iter().enumerate() {
            self.registry.gauge_max(
                "hm_queue_depth_peak",
                "High-water mark of a device's bound-task queue.",
                &[("device", &self.dev_names[d]), ("strategy", strategy)],
                *peak as f64,
            );
        }
        for (d, b) in report.breakdown.per_device.iter().enumerate() {
            let device = self
                .dev_names
                .get(d)
                .cloned()
                .unwrap_or_else(|| format!("dev{d}"));
            for (component, v) in b.components() {
                self.registry.gauge_set(
                    "hm_blame_seconds",
                    "Slot time attributed to each blame component.",
                    &[
                        ("component", component),
                        ("device", device.as_str()),
                        ("strategy", strategy),
                    ],
                    v.as_secs_f64(),
                );
            }
        }
        // Quarantined time per device. The executor closes open-ended spans
        // at run end, but tolerate `until: None` (treat as "until makespan")
        // so a hand-built report still exports consistently.
        let mut quarantined: Vec<SimTime> = vec![SimTime::ZERO; self.dev_names.len()];
        for span in &report.health.quarantine {
            if let Some(q) = quarantined.get_mut(span.dev.0) {
                let until = span.until.unwrap_or(report.makespan);
                *q += until.saturating_sub(span.from);
            }
        }
        for (d, q) in quarantined.iter().enumerate() {
            if q.is_zero() {
                continue;
            }
            self.registry.gauge_set(
                "hm_quarantine_seconds",
                "Total time a device spent quarantined by the circuit breaker.",
                &[("device", &self.dev_names[d]), ("strategy", strategy)],
                q.as_secs_f64(),
            );
        }
        let retries = report.faults.task_retries + report.faults.transfer_retries;
        for (name, help, v) in [
            (
                "hm_retries_total",
                "Task and transfer retries across the run.",
                retries,
            ),
            (
                "hm_hedges_won_total",
                "Hedged replicas that overtook their primary.",
                report.health.hedges_won,
            ),
            (
                "hm_rollbacks_total",
                "Epoch rollbacks after corruption detection.",
                report.health.epoch_rollbacks,
            ),
            (
                "hm_repartitions_total",
                "Barrier repartitions applied by the adaptive controller.",
                report.adapt.repartitions,
            ),
            (
                "hm_replans_total",
                "Survivor re-plans applied after device death or quarantine.",
                report.adapt.replans,
            ),
            (
                "hm_readmissions_total",
                "Healing re-plans that readmitted a reclosed device.",
                report.adapt.readmissions,
            ),
        ] {
            self.registry
                .counter_add(name, help, &[("strategy", strategy)], v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_export() {
        let mut h = LogHistogram::default();
        h.observe(SimTime::from_nanos(500)); // bucket 0 (≤ 1µs)
        h.observe(SimTime::from_micros(3)); // ≤ 4µs → bucket 2
        h.observe(SimTime::from_secs_f64(100.0)); // overflow
        assert_eq!(h.count, 3);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[2], 1);
        assert_eq!(h.overflow, 1);
    }

    #[test]
    fn bucket_index_matches_the_bound_scan() {
        // The definition: the first bucket whose bound holds `ns`.
        let scan = |ns: u64| {
            (0..HISTOGRAM_BUCKETS)
                .find(|&i| ns <= HISTOGRAM_BASE_NANOS << i)
                .unwrap_or(HISTOGRAM_BUCKETS)
        };
        let index = |ns: u64| LogHistogram::bucket(ns).min(HISTOGRAM_BUCKETS);
        let mut probes = vec![0, 1, u64::MAX - 1, u64::MAX];
        for i in 0..64 {
            if let Some(bound) = HISTOGRAM_BASE_NANOS.checked_mul(1 << i) {
                probes.extend([bound - 1, bound, bound + 1]);
            }
        }
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        for _ in 0..200_000 {
            // xorshift64, spread over every magnitude by a random shift.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            probes.push(x >> (x % 64));
        }
        for ns in probes {
            assert_eq!(index(ns), scan(ns), "ns = {ns}");
            let mut h = LogHistogram::default();
            h.observe(SimTime::from_nanos(ns));
            let landed = h.buckets.iter().position(|&c| c == 1);
            assert_eq!(landed.unwrap_or(HISTOGRAM_BUCKETS), scan(ns), "ns = {ns}");
            assert_eq!(h.overflow, u64::from(landed.is_none()));
        }
    }

    #[test]
    fn quantiles_pin_bucket_boundaries() {
        // Empty histogram: every quantile is zero.
        let h = LogHistogram::default();
        assert_eq!(h.quantile(0.5), 0.0);
        // Exact-boundary observations land in the bucket they bound:
        // `ns <= base << i` is inclusive, so 1µs is bucket 0 and 2µs bucket 1.
        let mut h = LogHistogram::default();
        h.observe(SimTime::from_micros(1));
        assert_eq!(h.buckets[0], 1);
        h.observe(SimTime::from_micros(2));
        assert_eq!(h.buckets[1], 1);
        // 50 obs in bucket 0, 45 in bucket 2, 5 in overflow: p50 resolves to
        // bucket 0's bound, p95 to bucket 2's, and p99 (rank 99 > largest
        // finite cumulative count 97) to the first bound past the table.
        let mut h = LogHistogram::default();
        for _ in 0..50 {
            h.observe(SimTime::from_nanos(500));
        }
        for _ in 0..45 {
            h.observe(SimTime::from_micros(3));
        }
        for _ in 0..5 {
            h.observe(SimTime::from_secs_f64(100.0));
        }
        assert_eq!(h.count, 100);
        assert_eq!(h.quantile(0.50), LogHistogram::bound_secs(0));
        assert_eq!(h.quantile(0.95), LogHistogram::bound_secs(2));
        assert_eq!(
            h.quantile(0.99),
            LogHistogram::bound_secs(HISTOGRAM_BUCKETS)
        );
        // A quantile beyond 1.0 clamps to the last observation's bucket.
        assert_eq!(h.quantile(1.0), LogHistogram::bound_secs(HISTOGRAM_BUCKETS));
    }

    #[test]
    fn histogram_json_carries_quantiles_and_round_trips() {
        let mut r = MetricsRegistry::new();
        for _ in 0..20 {
            r.observe("hm_lat", "lat", &[], SimTime::from_micros(2));
        }
        let json = r.to_json();
        assert!(
            json.contains("\"quantiles\""),
            "computed quantiles exported"
        );
        assert!(json.contains("\"p50\""));
        assert!(json.contains("\"p95\""));
        assert!(json.contains("\"p99\""));
        // Quantiles are derived, not stored: the registry round-trips to an
        // equal value and re-serializes to identical bytes.
        let back: MetricsRegistry = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn prometheus_export_is_deterministic_and_sorted() {
        let mut r = MetricsRegistry::new();
        r.counter_add("hm_b", "b help", &[("x", "2")], 2);
        r.counter_add("hm_a", "a help", &[], 1);
        r.observe("hm_lat", "lat", &[], SimTime::from_micros(2));
        let a = r.to_prometheus();
        let b = r.to_prometheus();
        assert_eq!(a, b);
        let ia = a.find("# HELP hm_a").unwrap();
        let ib = a.find("# HELP hm_b").unwrap();
        assert!(ia < ib, "families sorted by name");
        assert!(a.contains("hm_lat_bucket{le=\"+Inf\"} 1"));
        assert!(a.contains("hm_lat_count 1"));
    }

    #[test]
    fn merge_adds_counters_and_histograms() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.counter_add("hm_c", "h", &[], 1);
        b.counter_add("hm_c", "h", &[], 2);
        b.gauge_set("hm_g", "h", &[], 4.0);
        a.merge(&b);
        match &a.get("hm_c").unwrap().value {
            SeriesValue::Counter(c) => assert_eq!(*c, 3),
            _ => panic!("counter expected"),
        }
        assert!(a.get("hm_g").is_some());
    }

    /// One histogram series with `n` buckets, its five observations in
    /// bucket `hot`, as a snapshot's changed series and a registry export.
    fn histogram_docs(n: usize, hot: usize) -> (String, String) {
        let buckets: Vec<&str> = (0..n).map(|i| if i == hot { "5" } else { "0" }).collect();
        let series = format!(
            r#"{{"name":"hm_lat_seconds","help":"lat","labels":[],"value":{{"Histogram":{{"buckets":[{}],"overflow":0,"count":5,"sum_nanos":5000}}}}}}"#,
            buckets.join(",")
        );
        let line = format!(
            r#"{{"seq":0,"epoch":null,"at":0,"tasks_total":0,"faults_total":0,"open":{{"quarantined":[],"dead":[],"correlated_open":0}},"changed":[{series}]}}"#
        );
        (
            line,
            format!(r#"{{"series":[["hm_lat_seconds",{series}]]}}"#),
        )
    }

    #[test]
    fn histograms_parse_only_with_the_written_bucket_count() {
        use crate::obs::{fold_stream, RunDiff};
        let p50 = |diff: &RunDiff| {
            diff.entries
                .iter()
                .any(|e| e.name.ends_with(".p50_seconds"))
        };
        // The count every writer emits parses, on both read paths.
        let (line, export) = histogram_docs(HISTOGRAM_BUCKETS, 2);
        let reg: MetricsRegistry = serde_json::from_str(&export).unwrap();
        assert_eq!(reg.to_json(), fold_stream(&line).unwrap().to_json());
        assert!(p50(&RunDiff::between(&export, &export, 0.0).unwrap()));
        // Another count is a typed error naming it: bucket 66's bound would
        // shift past 64 bits.
        for (n, hot) in [(70, 66), (3, 2)] {
            let (line, export) = histogram_docs(n, hot);
            let want = format!("LogHistogram has {n} buckets, expected {HISTOGRAM_BUCKETS}");
            let tree: serde::Value = serde_json::from_str(&export).unwrap();
            let err = MetricsRegistry::from_value(&tree).unwrap_err();
            assert!(err.to_string().contains(&want), "{n}: {err}");
            let mut r = serde::json::Reader::new(&export);
            let err = MetricsRegistry::read_json(&mut r).unwrap_err();
            assert!(err.to_string().contains(&want), "{n}: {err}");
            // `matchmake diff` reads such a file as generic numeric leaves.
            let diff = RunDiff::between(&export, &export, 0.0).unwrap();
            assert!(!diff.entries.is_empty() && !p50(&diff), "{n} buckets");
            let err = fold_stream(&line).unwrap_err().to_string();
            assert!(err.starts_with("stream line 1: "), "{n}: {err}");
        }
    }

    #[test]
    fn registry_json_roundtrip() {
        let mut r = MetricsRegistry::new();
        r.counter_add("hm_c", "h", &[("device", "cpu")], 7);
        r.observe("hm_lat", "lat", &[], SimTime::from_micros(9));
        let json = r.to_json();
        let back: MetricsRegistry = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }
}
