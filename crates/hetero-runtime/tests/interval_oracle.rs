//! Model-checking the interval set against a per-item bitmap.
//!
//! Random insert/remove sequences over a small universe (so runs often
//! touch, overlap and split) are replayed against [`IntervalSet`] and a
//! per-item model, and after every operation every public query is
//! compared over a batch of query intervals, empty ones included.

use hetero_runtime::{Interval, IntervalSet};
use proptest::prelude::*;

const ITEMS: u64 = 32;

/// An interval inside `[0, ITEMS]`, empty ones and both ends included.
fn arb_interval() -> impl Strategy<Value = Interval> {
    (0..=ITEMS, 0..10u64).prop_map(|(s, len)| Interval::new(s, (s + len).min(ITEMS)))
}

/// Maximal runs of consecutive items on which `covered` holds.
fn runs(covered: impl Fn(u64) -> bool) -> Vec<Interval> {
    let mut out: Vec<Interval> = Vec::new();
    for i in (0..ITEMS).filter(|&i| covered(i)) {
        match out.last_mut() {
            Some(iv) if iv.end == i => iv.end += 1,
            _ => out.push(Interval::new(i, i + 1)),
        }
    }
    out
}

/// Every public `IntervalSet` query against the bitmap `model`.
fn check_set(set: &IntervalSet, model: &[bool], queries: &[Interval]) -> Result<(), TestCaseError> {
    let covered = runs(|i| model[i as usize]);
    prop_assert_eq!(set.iter().collect::<Vec<_>>(), covered.clone());
    prop_assert_eq!(set.total_len(), model.iter().filter(|&&v| v).count() as u64);
    prop_assert_eq!(set.is_empty(), covered.is_empty());
    for &q in queries {
        let inside: Vec<Interval> = covered.iter().filter_map(|iv| iv.intersect(&q)).collect();
        let gaps = runs(|i| q.start <= i && i < q.end && !model[i as usize]);
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
}
