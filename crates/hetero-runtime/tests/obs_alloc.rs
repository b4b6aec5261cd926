//! Observing a run costs lookups, not allocations.
//!
//! A counting global allocator pins the hot paths: once a series exists,
//! registry updates and the metrics observer's per-task and per-transfer
//! hooks must not touch the heap. A property test checks that the
//! allocation-free lookup finds exactly the series a fresh insert would
//! create, whatever order the labels come in.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

use hetero_platform::{DeviceId, MemSpaceId, Platform, SimTime};
use hetero_runtime::{KernelId, MetricsObserver, MetricsRegistry, Observer, SeriesValue, TaskId};
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
    let warm = r.series.len();
    for [canonical, shuffled] in label_sets {
        for labels in [canonical, shuffled] {
            let n = allocations(|| update(&mut r, labels));
            assert_eq!(
                n, 0,
                "updating existing series {labels:?} allocated {n} times"
            );
        }
    }
    assert_eq!(
        r.series.len(),
        warm,
        "shuffled labels found the same series"
    );
    match &r.series["hm_c_total{device=\"gpu\",kernel=\"k1\",strategy=\"SP-Unified\"}"].value {
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
    match &obs.registry().series[&id].value {
        SeriesValue::Counter(c) => assert_eq!(*c, 4),
        other => panic!("counter expected, got {other:?}"),
    }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Property: whatever order labels arrive in, updates land on the
    /// series a fresh insert creates — keys equal `Series::id()`, counter
    /// totals equal the summed deltas, histogram counts match, and the
    /// first help text wins.
    #[test]
    fn lookup_finds_the_series_an_insert_creates(
        ops in proptest::collection::vec(
            (0usize..3, 0usize..16, 0usize..4096, 0u64..24, 0u64..1000, 0usize..3),
            1..80,
        ),
    ) {
        let mut r = MetricsRegistry::new();
        let mut model: BTreeMap<String, Expected> = BTreeMap::new();
        for (name, mask, vals, shuffle, delta, help) in ops {
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
            let e = model.entry(expected_id(name, &labels)).or_insert_with(|| Expected {
                help: help.clone(),
                ..Expected::default()
            });
            if name == "hm_h_seconds" {
                r.observe(name, &help, &labels, SimTime::from_nanos(delta));
                e.count += 1;
                e.total += delta;
            } else {
                r.counter_add(name, &help, &labels, delta);
                e.total += delta;
            }
        }
        prop_assert_eq!(r.series.len(), model.len());
        for (id, s) in &r.series {
            prop_assert_eq!(id, &s.id());
            let e = model.get(id);
            prop_assert!(e.is_some(), "unexpected series {}", id);
            let e = e.unwrap();
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
    }
}
