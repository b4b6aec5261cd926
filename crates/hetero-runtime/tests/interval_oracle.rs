//! Model-checking the interval containers against per-item bitmaps.
//!
//! Random insert/remove sequences over a small universe (so runs often
//! touch, overlap and split) are replayed against [`IntervalSet`] and
//! [`IntervalMap`] and against per-item models, and after every operation
//! every public query is compared over a batch of query intervals, empty
//! ones included.

use hetero_runtime::{Interval, IntervalMap, IntervalSet};
use proptest::prelude::*;

const ITEMS: u64 = 32;

/// An interval inside `[0, ITEMS]`, empty ones and both ends included.
fn arb_interval() -> impl Strategy<Value = Interval> {
    (0..=ITEMS, 0..10u64).prop_map(|(s, len)| Interval::new(s, (s + len).min(ITEMS)))
}

/// Maximal runs of consecutive items on which `key` is `Some` and equal.
fn runs<K: PartialEq + Copy>(key: impl Fn(u64) -> Option<K>) -> Vec<(Interval, K)> {
    let mut out: Vec<(Interval, K)> = Vec::new();
    for i in 0..ITEMS {
        let Some(k) = key(i) else { continue };
        match out.last_mut() {
            Some((iv, last)) if iv.end == i && *last == k => iv.end += 1,
            _ => out.push((Interval::new(i, i + 1), k)),
        }
    }
    out
}

/// The parts of `runs` inside `q`, ascending.
fn clip<K: Copy>(runs: &[(Interval, K)], q: Interval) -> Vec<(Interval, K)> {
    runs.iter()
        .filter_map(|&(iv, k)| iv.intersect(&q).map(|part| (part, k)))
        .collect()
}

/// Every public `IntervalSet` query against the bitmap `model`.
fn check_set(set: &IntervalSet, model: &[bool], queries: &[Interval]) -> Result<(), TestCaseError> {
    let covered: Vec<Interval> = runs(|i| model[i as usize].then_some(()))
        .into_iter()
        .map(|(iv, ())| iv)
        .collect();
    prop_assert_eq!(set.iter().collect::<Vec<_>>(), covered.clone());
    prop_assert_eq!(set.total_len(), model.iter().filter(|&&v| v).count() as u64);
    prop_assert_eq!(set.is_empty(), covered.is_empty());
    for &q in queries {
        let inside: Vec<Interval> = covered.iter().filter_map(|iv| iv.intersect(&q)).collect();
        let gaps: Vec<Interval> =
            runs(|i| (q.start <= i && i < q.end && !model[i as usize]).then_some(()))
                .into_iter()
                .map(|(iv, ())| iv)
                .collect();
        prop_assert_eq!(
            set.intersection_with(q),
            inside,
            "intersection_with {:?}",
            q
        );
        prop_assert_eq!(set.gaps_within(q), gaps.clone(), "gaps_within {:?}", q);
        prop_assert_eq!(
            set.covered_len(q),
            q.len() - gaps.iter().map(Interval::len).sum::<u64>()
        );
        prop_assert_eq!(set.covers(q), gaps.is_empty(), "covers {:?}", q);
    }
    Ok(())
}

#[derive(Clone, Debug)]
enum SetOp {
    Insert(Interval),
    Remove(Interval),
}

fn arb_set_op() -> impl Strategy<Value = SetOp> {
    prop_oneof![
        arb_interval().prop_map(SetOp::Insert),
        arb_interval().prop_map(SetOp::Remove),
    ]
}

#[derive(Clone, Debug)]
enum MapOp {
    Insert(Interval, u8),
    Remove(Interval),
}

fn arb_map_op() -> impl Strategy<Value = MapOp> {
    prop_oneof![
        (arb_interval(), 0..3u8).prop_map(|(iv, tag)| MapOp::Insert(iv, tag)),
        arb_interval().prop_map(MapOp::Remove),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn interval_set_matches_bitmap(
        first in arb_interval(),
        ops in proptest::collection::vec(arb_set_op(), 0..40),
        queries in proptest::collection::vec(arb_interval(), 1..12),
    ) {
        let mut set = IntervalSet::of(first);
        let mut model = vec![false; ITEMS as usize];
        for i in first.start..first.end {
            model[i as usize] = true;
        }
        check_set(&set, &model, &queries)?;
        for op in ops {
            let (iv, value) = match op {
                SetOp::Insert(iv) => {
                    set.insert(iv);
                    (iv, true)
                }
                SetOp::Remove(iv) => {
                    set.remove(iv);
                    (iv, false)
                }
            };
            for i in iv.start..iv.end {
                model[i as usize] = value;
            }
            check_set(&set, &model, &queries)?;
        }
    }

    #[test]
    fn interval_map_matches_bitmap(
        ops in proptest::collection::vec(arb_map_op(), 0..40),
        queries in proptest::collection::vec(arb_interval(), 1..12),
    ) {
        let mut map = IntervalMap::new();
        // Per item: the tag and the insert that wrote it. An insert is one
        // run until later writes split it, and runs never merge, so the
        // map's runs are the maximal blocks written by one insert.
        let mut model: Vec<Option<(u8, usize)>> = vec![None; ITEMS as usize];
        for (seq, op) in ops.into_iter().enumerate() {
            let (iv, value) = match op {
                MapOp::Insert(iv, tag) => {
                    map.insert(iv, tag);
                    (iv, Some((tag, seq)))
                }
                MapOp::Remove(iv) => {
                    map.remove(iv);
                    (iv, None)
                }
            };
            for i in iv.start..iv.end {
                model[i as usize] = value;
            }
            let want = runs(|i| model[i as usize]);
            let tags = |rs: Vec<(Interval, (u8, usize))>| {
                rs.into_iter().map(|(iv, (tag, _))| (iv, tag)).collect::<Vec<_>>()
            };
            let got: Vec<(Interval, u8)> = map.iter().map(|(iv, &t)| (iv, t)).collect();
            prop_assert_eq!(got, tags(want.clone()));
            prop_assert_eq!(map.run_count(), want.len());
            for &q in &queries {
                let got: Vec<(Interval, u8)> = map.overlapping(q).map(|(iv, &t)| (iv, t)).collect();
                prop_assert_eq!(got, tags(clip(&want, q)), "overlapping {:?}", q);
            }
        }
    }
}
