//! Observing a run costs lookups, not allocations.
//!
//! A counting global allocator pins the hot paths: once a series exists,
//! registry updates and the metrics observer's per-task and per-transfer
//! hooks must not touch the heap, a snapshot barrier must not copy a
//! name, help text or label list per changed series, and a journal record
//! is written straight into the journal's one buffer. A property test
//! checks that the allocation-free lookup finds exactly the series a fresh
//! insert would create, whatever order the labels come in, and that the
//! order series first appear in (their slots) shows in no export.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

use hetero_platform::{DeviceId, FaultCounters, MemSpaceId, Platform, PlatformCounters, SimTime};
use hetero_runtime::{
    DeviceBreakdown, EpochRecord, EpochSnapshot, JournalHeader, JournalSink, KernelId,
    MetricsObserver, MetricsRegistry, Observer, RngCursors, RunJournal, SeriesValue,
    SnapshotObserver, TaskId,
};
use proptest::prelude::*;

/// Counts heap allocations made by the current thread while enabled, so
/// the test harness's other threads never leak into a measurement.
struct Counting;

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    let _ = ENABLED.try_with(|on| {
        if on.get() {
            ALLOCS.with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// caller's guarantees and `System`'s carry over as they are. The counting
// touches only const-initialized thread-local `Cell`s, which never allocate
// and so cannot recurse into this allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The number of heap allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|n| n.set(0));
    ENABLED.with(|on| on.set(true));
    f();
    ENABLED.with(|on| on.set(false));
    ALLOCS.with(|n| n.get())
}

#[test]
fn registry_updates_on_existing_series_do_not_allocate() {
    // Each label set in a canonical order and a shuffled one.
    let label_sets: [[&[(&str, &str)]; 2]; 4] = [
        [&[], &[]],
        [&[("device", "gpu")], &[("device", "gpu")]],
        [
            &[("device", "gpu"), ("strategy", "SP-Unified")],
            &[("strategy", "SP-Unified"), ("device", "gpu")],
        ],
        [
            &[
                ("device", "gpu"),
                ("kernel", "k1"),
                ("strategy", "SP-Unified"),
            ],
            &[
                ("strategy", "SP-Unified"),
                ("device", "gpu"),
                ("kernel", "k1"),
            ],
        ],
    ];
    let mut r = MetricsRegistry::new();
    let update = |r: &mut MetricsRegistry, labels: &[(&str, &str)]| {
        r.counter_add("hm_c_total", "c", labels, 2);
        r.gauge_set("hm_g", "g", labels, 0.5);
        r.gauge_max("hm_peak", "p", labels, 3.0);
        r.observe("hm_lat_seconds", "l", labels, SimTime::from_micros(7));
    };
    for [canonical, _] in label_sets {
        update(&mut r, canonical);
    }
    let warm = r.len();
    for [canonical, shuffled] in label_sets {
        for labels in [canonical, shuffled] {
            let n = allocations(|| update(&mut r, labels));
            assert_eq!(
                n, 0,
                "updating existing series {labels:?} allocated {n} times"
            );
        }
    }
    assert_eq!(r.len(), warm, "shuffled labels found the same series");
    match &r
        .get("hm_c_total{device=\"gpu\",kernel=\"k1\",strategy=\"SP-Unified\"}")
        .expect("the series exists")
        .value
    {
        SeriesValue::Counter(c) => assert_eq!(*c, 6),
        other => panic!("counter expected, got {other:?}"),
    }
}

#[test]
fn task_and_transfer_hooks_do_not_allocate_once_warm() {
    let platform = Platform::test_small();
    let mut obs = MetricsObserver::new(&platform, "SP-Unified");
    let t = SimTime::from_micros;
    let task = |obs: &mut MetricsObserver, id| {
        obs.on_task_start(TaskId(id), KernelId(1), DeviceId(1), 64, t(10), t(25));
    };
    let transfer = |obs: &mut MetricsObserver| {
        obs.on_transfer(MemSpaceId(0), MemSpaceId(1), 4096, t(3), t(9));
    };
    task(&mut obs, 0);
    transfer(&mut obs);
    for id in 1..4 {
        let n = allocations(|| task(&mut obs, id));
        assert_eq!(
            n, 0,
            "task hook on a seen (device, kernel) allocated {n} times"
        );
        let n = allocations(|| transfer(&mut obs));
        assert_eq!(n, 0, "transfer hook allocated {n} times");
    }
    let id = format!(
        "hm_tasks_total{{device=\"{}\",kernel=\"k1\",strategy=\"SP-Unified\"}}",
        platform.devices[1].spec.name
    );
    match &obs.registry().get(&id).expect("the series exists").value {
        SeriesValue::Counter(c) => assert_eq!(*c, 4),
        other => panic!("counter expected, got {other:?}"),
    }
}

#[test]
fn journal_records_are_written_in_place() {
    let record = |epoch: usize| EpochRecord {
        epoch,
        at: SimTime::from_micros(10 * epoch as u64 + 3),
        completed: 4 * epoch as u64,
        placements: vec![(4 * epoch, 0), (4 * epoch + 1, 1), (4 * epoch + 2, 1)],
        rng: RngCursors {
            fault: Some(0x9E37_79B9 ^ epoch as u64),
            health: Some(epoch as u64),
            ..RngCursors::default()
        },
        faults: FaultCounters::default(),
        blame: vec![DeviceBreakdown::default(); 2],
        counters: PlatformCounters::new(2),
    };
    let records: Vec<EpochRecord> = (0..1000).map(record).collect();
    let mut sink = JournalSink::record();
    sink.begin(&JournalHeader::new(Some(7)).with_input("app", "{}".to_string()))
        .expect("a recording sink opens");
    let n = allocations(|| {
        for r in &records {
            sink.append_epoch(r).expect("a recording sink appends");
        }
    });
    // The buffer's growth, not one body and one envelope per record.
    assert!(n < 32, "1,000 appends allocated {n} times");
    let journal = RunJournal::load(&sink.text()).expect("the journal loads back");
    assert_eq!(journal.records, records);
}

/// Series names: two counters whose names share a prefix, and a histogram.
const NAMES: [&str; 3] = ["hm_c", "hm_c_total", "hm_h_seconds"];
/// Label keys sharing prefixes, and values including the empty string and
/// one long enough to push an id past the stack scratch space.
const KEYS: [&str; 4] = ["k", "kernel", "kind", "device"];
const VALUES: [&str; 8] = ["", "0", "k", "kernel", "k0", "kernel0", "gpu", LONG];
const LONG: &str = concat!(
    "a label value long enough that the series id outgrows the stack buffer, ",
    "a label value long enough that the series id outgrows the stack buffer, ",
    "a label value long enough that the series id outgrows the stack buffer, ",
    "a label value long enough that the series id outgrows the stack buffer",
);

/// The id a series with these labels must be stored under, rendered the
/// plain way: owned labels sorted by key, then formatted.
fn expected_id(name: &str, labels: &[(&str, &str)]) -> String {
    let mut sorted: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    sorted.sort();
    if sorted.is_empty() {
        return name.to_string();
    }
    let body: Vec<String> = sorted.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    format!("{name}{{{}}}", body.join(","))
}

/// What the model expects of one series: its first help text, and the
/// summed deltas (counters) or observation count and sum (histograms).
#[derive(Default)]
struct Expected {
    help: String,
    total: u64,
    count: u64,
}

/// One generated update: series name, which label keys, which values, a
/// shuffle seed, the delta and the help text's number.
type Update = (usize, usize, usize, u64, u64, usize);

/// Apply `update` to `r` and return the id the series must be stored
/// under.
fn apply(r: &mut MetricsRegistry, (name, mask, vals, shuffle, delta, help): Update) -> String {
    let name = NAMES[name];
    let mut labels: Vec<(&str, &str)> = (0..KEYS.len())
        .filter(|i| mask & (1 << i) != 0)
        .map(|i| (KEYS[i], VALUES[(vals >> (3 * i)) & 7]))
        .collect();
    // A deterministic shuffle driven by the generated seed.
    let mut s = shuffle;
    for i in (1..labels.len()).rev() {
        labels.swap(i, (s % (i as u64 + 1)) as usize);
        s = s / (i as u64 + 1) + 7;
    }
    let help = format!("help {help}");
    if name == "hm_h_seconds" {
        r.observe(name, &help, &labels, SimTime::from_nanos(delta));
    } else {
        r.counter_add(name, &help, &labels, delta);
    }
    expected_id(name, &labels)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Property: whatever order labels arrive in, updates land on the
    /// series a fresh insert creates — keys equal `Series::id()`, counter
    /// totals equal the summed deltas, histogram counts match, and the
    /// first help text wins. `iter` walks the model's ids in order, `get`
    /// finds each one, and a registry fed the same updates one series at a
    /// time, in another series order, is equal and exports the same bytes.
    #[test]
    fn lookup_finds_the_series_an_insert_creates(
        ops in proptest::collection::vec(
            (0usize..3, 0usize..16, 0usize..4096, 0u64..24, 0u64..1000, 0usize..3),
            1..80,
        ),
    ) {
        let mut r = MetricsRegistry::new();
        let mut model: BTreeMap<String, Expected> = BTreeMap::new();
        let mut ids = Vec::new();
        for &op in &ops {
            let id = apply(&mut r, op);
            let (name, _, _, _, delta, help) = op;
            let e = model.entry(id.clone()).or_insert_with(|| Expected {
                help: format!("help {help}"),
                ..Expected::default()
            });
            if NAMES[name] == "hm_h_seconds" {
                e.count += 1;
            }
            e.total += delta;
            ids.push(id);
        }
        prop_assert_eq!(r.len(), model.len());
        prop_assert!(!r.is_empty());
        prop_assert!(r.iter().map(|(id, _)| id).eq(model.keys().map(String::as_str)));
        for (id, s) in r.iter() {
            prop_assert_eq!(id, s.id());
            let e = &model[id];
            prop_assert_eq!(&s.help, &e.help);
            match &s.value {
                SeriesValue::Counter(c) => prop_assert_eq!(*c, e.total),
                SeriesValue::Histogram(h) => {
                    prop_assert_eq!(h.count, e.count);
                    prop_assert_eq!(h.sum_nanos, e.total);
                }
                SeriesValue::Gauge(_) => prop_assert!(false, "no gauges were written"),
            }
        }
        for id in model.keys() {
            prop_assert_eq!(r.get(id).map(|s| s.id()), Some(id.clone()));
        }

        // The same updates, series by series in descending id order, each
        // series' own updates in their original order (so the same help
        // text wins): the slots differ, the content does not.
        let mut order: Vec<usize> = (0..ops.len()).collect();
        order.sort_by(|&a, &b| ids[b].cmp(&ids[a]));
        let mut other = MetricsRegistry::new();
        for i in order {
            apply(&mut other, ops[i]);
        }
        prop_assert!(other == r);
        prop_assert_eq!(other.to_json(), r.to_json());
        prop_assert_eq!(other.to_prometheus(), r.to_prometheus());
    }
}

/// Allocations made by one barrier at which `k` kernels' task series
/// changed: each kernel runs one task, a barrier snapshots them, each
/// runs another, and the second barrier is counted.
fn barrier_allocations(k: usize) -> u64 {
    let platform = Platform::test_small();
    let mut obs = SnapshotObserver::new(&platform, "SP-Unified");
    let t = SimTime::from_micros;
    let round = |obs: &mut SnapshotObserver, epoch: u64| {
        for kernel in 0..k {
            let start = t(100 * epoch + kernel as u64);
            obs.on_task_start(
                TaskId(kernel),
                KernelId(kernel),
                DeviceId(1),
                64,
                start,
                start + t(7),
            );
        }
    };
    round(&mut obs, 0);
    obs.on_epoch_end(0, t(90), t(100));
    round(&mut obs, 1);
    let n = allocations(|| obs.on_epoch_end(1, t(190), t(200)));
    let last: EpochSnapshot = serde_json::from_str(obs.lines().last().unwrap()).unwrap();
    let tasks = last
        .changed
        .iter()
        .filter(|s| s.name.starts_with("hm_task"))
        .count();
    assert_eq!(tasks, 3 * k, "each kernel changed its three task series");
    n
}

#[test]
fn a_barrier_clones_nothing_per_changed_series() {
    // 49 more kernels change 147 more series. The barrier may allocate a
    // histogram delta per kernel and grow its buffers, but must not copy a
    // name, help text or label list per series.
    let extra = barrier_allocations(50) - barrier_allocations(1);
    assert!(
        extra < 3 * 49,
        "a barrier with 49 more changed kernels allocated {extra} more times"
    );
}
