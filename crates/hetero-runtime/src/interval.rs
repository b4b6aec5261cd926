//! Half-open integer intervals and interval sets.
//!
//! Data-parallel partitions are contiguous index ranges of a buffer, so both
//! the dependence analysis (who last wrote these items?) and the coherence
//! directory (which memory space holds a valid copy of these items?) reduce
//! to bookkeeping over half-open intervals `[start, end)` of item indices.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A half-open interval `[start, end)` over item indices.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Interval {
    /// Inclusive start index.
    pub start: u64,
    /// Exclusive end index.
    pub end: u64,
}

impl fmt::Debug for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

impl Interval {
    /// Construct; panics if `start > end`.
    pub fn new(start: u64, end: u64) -> Self {
        assert!(start <= end, "invalid interval [{start}, {end})");
        Interval { start, end }
    }

    /// Number of items covered.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// `true` when the two intervals share at least one index (so never
    /// when either is empty).
    pub fn overlaps(&self, other: &Interval) -> bool {
        self.intersect(other).is_some()
    }

    /// The shared part of two intervals, if non-empty.
    pub fn intersect(&self, other: &Interval) -> Option<Interval> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        if start < end {
            Some(Interval { start, end })
        } else {
            None
        }
    }

    /// `true` if `other` lies entirely within `self`.
    pub fn contains(&self, other: &Interval) -> bool {
        self.start <= other.start && other.end <= self.end
    }
}

/// A set of disjoint, non-adjacent intervals (kept normalised).
#[derive(Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IntervalSet {
    // start -> end, disjoint and non-adjacent.
    runs: BTreeMap<u64, u64>,
}

impl fmt::Debug for IntervalSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set()
            .entries(self.iter().map(|iv| format!("{iv:?}")))
            .finish()
    }
}

impl IntervalSet {
    /// The empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// A set containing one interval.
    pub fn of(iv: Interval) -> Self {
        let mut s = Self::new();
        s.insert(iv);
        s
    }

    /// Iterate the disjoint runs in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = Interval> + '_ {
        self.runs
            .iter()
            .map(|(&start, &end)| Interval { start, end })
    }

    /// Total number of items covered.
    pub fn total_len(&self) -> u64 {
        self.runs.iter().map(|(&s, &e)| e - s).sum()
    }

    /// `true` when nothing is covered.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Add an interval, merging with existing runs.
    pub fn insert(&mut self, iv: Interval) {
        if iv.is_empty() {
            return;
        }
        let mut start = iv.start;
        let mut end = iv.end;
        // Absorb every run that overlaps or touches [start, end): at most one
        // starts before `iv.start` (the runs are disjoint and non-adjacent),
        // the rest start within [iv.start, end].
        if let Some((&s, &e)) = self.runs.range(..iv.start).next_back() {
            if e >= iv.start {
                start = s;
                end = end.max(e);
            }
        }
        while let Some((&s, &e)) = self.runs.range(iv.start..=end).next() {
            self.runs.remove(&s);
            end = end.max(e);
        }
        self.runs.insert(start, end);
    }

    /// Remove an interval from the set.
    pub fn remove(&mut self, iv: Interval) {
        if iv.is_empty() {
            return;
        }
        // A run straddling `iv.start` keeps its head (and, if it also
        // straddles `iv.end`, its tail).
        if let Some((&s, &e)) = self.runs.range(..iv.start).next_back() {
            if e > iv.start {
                self.runs.insert(s, iv.start);
                if e > iv.end {
                    self.runs.insert(iv.end, e);
                    return;
                }
            }
        }
        // Runs starting inside `iv` go; the last may keep a tail.
        while let Some((&s, &e)) = self.runs.range(iv.start..iv.end).next() {
            self.runs.remove(&s);
            if e > iv.end {
                self.runs.insert(iv.end, e);
            }
        }
    }

    /// `true` if every index of `iv` is covered.
    pub fn covers(&self, iv: Interval) -> bool {
        if iv.is_empty() {
            return true;
        }
        // The run starting at or before iv.start must reach iv.end.
        match self.runs.range(..=iv.start).next_back() {
            Some((_, &e)) => e >= iv.end,
            None => false,
        }
    }

    /// The covered parts of `iv`, ascending: only the run covering
    /// `iv.start` and the runs starting inside `iv` are visited.
    fn clipped(&self, iv: Interval) -> impl Iterator<Item = Interval> + '_ {
        // The last run starting at or before `iv.start` is the only earlier
        // run that can reach into `iv`, since runs are disjoint.
        let from = self
            .runs
            .range(..=iv.start)
            .next_back()
            .map_or(iv.start, |(&s, _)| s);
        self.runs
            .range(from..iv.end)
            .filter_map(move |(&start, &end)| Interval { start, end }.intersect(&iv))
    }

    /// The part of `iv` NOT covered by this set, as disjoint intervals.
    pub fn gaps_within(&self, iv: Interval) -> Vec<Interval> {
        let mut gaps = Vec::new();
        let mut cursor = iv.start;
        for part in self.clipped(iv) {
            if part.start > cursor {
                gaps.push(Interval::new(cursor, part.start));
            }
            cursor = part.end;
        }
        if cursor < iv.end {
            gaps.push(Interval::new(cursor, iv.end));
        }
        gaps
    }

    /// The covered sub-intervals of `iv`.
    pub fn intersection_with(&self, iv: Interval) -> Vec<Interval> {
        self.clipped(iv).collect()
    }

    /// Number of items of `iv` that are covered.
    pub fn covered_len(&self, iv: Interval) -> u64 {
        self.clipped(iv).map(|part| part.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(s: u64, e: u64) -> Interval {
        Interval::new(s, e)
    }

    #[test]
    fn interval_basics() {
        assert_eq!(iv(2, 7).len(), 5);
        assert!(iv(2, 2).is_empty());
        assert!(iv(0, 5).overlaps(&iv(4, 9)));
        assert!(!iv(0, 5).overlaps(&iv(5, 9)));
        // An empty interval shares no index, even strictly inside another.
        assert!(!iv(3, 3).overlaps(&iv(0, 20)));
        assert!(!iv(0, 20).overlaps(&iv(3, 3)));
        assert!(!iv(3, 3).overlaps(&iv(3, 3)));
        assert_eq!(iv(0, 5).intersect(&iv(3, 9)), Some(iv(3, 5)));
        assert_eq!(iv(0, 3).intersect(&iv(3, 9)), None);
        assert!(iv(0, 10).contains(&iv(3, 7)));
        assert!(!iv(0, 10).contains(&iv(3, 11)));
    }

    #[test]
    #[should_panic(expected = "invalid interval")]
    fn interval_rejects_backwards() {
        let _ = iv(5, 2);
    }

    #[test]
    fn set_insert_merges_overlapping_and_adjacent() {
        let mut s = IntervalSet::new();
        s.insert(iv(0, 5));
        s.insert(iv(10, 15));
        s.insert(iv(5, 10)); // bridges the two
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![iv(0, 15)]);
        assert_eq!(s.total_len(), 15);
    }

    #[test]
    fn set_remove_splits_runs() {
        let mut s = IntervalSet::of(iv(0, 100));
        s.remove(iv(40, 60));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![iv(0, 40), iv(60, 100)]);
        s.remove(iv(0, 10));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![iv(10, 40), iv(60, 100)]);
        s.remove(iv(0, 200));
        assert!(s.is_empty());
    }

    #[test]
    fn set_covers() {
        let mut s = IntervalSet::new();
        s.insert(iv(0, 50));
        s.insert(iv(60, 100));
        assert!(s.covers(iv(10, 50)));
        assert!(!s.covers(iv(10, 61)));
        assert!(s.covers(iv(60, 100)));
        assert!(s.covers(iv(5, 5))); // empty always covered
        assert!(!s.covers(iv(100, 101)));
    }

    #[test]
    fn set_gaps() {
        let mut s = IntervalSet::new();
        s.insert(iv(10, 20));
        s.insert(iv(30, 40));
        assert_eq!(
            s.gaps_within(iv(0, 50)),
            vec![iv(0, 10), iv(20, 30), iv(40, 50)]
        );
        assert_eq!(s.gaps_within(iv(12, 18)), vec![]);
        assert_eq!(s.gaps_within(iv(15, 35)), vec![iv(20, 30)]);
    }

    #[test]
    fn set_intersection_with() {
        let mut s = IntervalSet::new();
        s.insert(iv(10, 20));
        s.insert(iv(30, 40));
        assert_eq!(
            s.intersection_with(iv(15, 35)),
            vec![iv(15, 20), iv(30, 35)]
        );
        assert_eq!(s.intersection_with(iv(0, 5)), vec![]);
    }
}
