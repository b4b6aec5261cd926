//! Half-open integer intervals and interval sets.
//!
//! Data-parallel partitions are contiguous index ranges of a buffer, so both
//! the dependence analysis (who last wrote these items?) and the coherence
//! directory (which memory space holds a valid copy of these items?) reduce
//! to bookkeeping over half-open intervals `[start, end)` of item indices.
//!
//! An [`IntervalSet`] keeps its runs in one sorted `Vec`. A query finds the
//! first run ending after its start by binary search and walks forward from
//! there, so it costs O(log n + k), k the runs it touches; an insert or a
//! remove also moves the runs after them. The sets stay small (at most a
//! few hundred runs in the paper's programs), so that move is a short
//! `memmove`.

use serde::{Deserialize, Serialize};
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
#[derive(Clone, Default, PartialEq, Eq)]
pub struct IntervalSet {
    /// Ascending, disjoint and non-adjacent, none empty.
    runs: Vec<Interval>,
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
        self.runs.iter().copied()
    }

    /// Total number of items covered.
    pub fn total_len(&self) -> u64 {
        self.runs.iter().map(Interval::len).sum()
    }

    /// `true` when nothing is covered.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Index of the first run ending after `at`: the first that can share
    /// an index with an interval starting at `at`.
    fn first_after(&self, at: u64) -> usize {
        self.runs.partition_point(|r| r.end <= at)
    }

    /// Add an interval, merging with existing runs.
    pub fn insert(&mut self, iv: Interval) {
        if iv.is_empty() {
            return;
        }
        // The runs that overlap or touch `iv` become one run.
        let lo = self.runs.partition_point(|r| r.end < iv.start);
        let n = self.runs[lo..]
            .iter()
            .take_while(|r| r.start <= iv.end)
            .count();
        if n == 0 {
            self.runs.insert(lo, iv);
            return;
        }
        let merged = Interval {
            start: iv.start.min(self.runs[lo].start),
            end: iv.end.max(self.runs[lo + n - 1].end),
        };
        self.runs[lo] = merged;
        self.runs.drain(lo + 1..lo + n);
    }

    /// Remove an interval from the set.
    pub fn remove(&mut self, iv: Interval) {
        if iv.is_empty() {
            return;
        }
        // The overlapped runs leave at most the head of the first and the
        // tail of the last.
        let lo = self.first_after(iv.start);
        let n = self.runs[lo..]
            .iter()
            .take_while(|r| r.start < iv.end)
            .count();
        if n == 0 {
            return;
        }
        let (first, last) = (self.runs[lo], self.runs[lo + n - 1]);
        let head = (first.start < iv.start).then_some(Interval {
            start: first.start,
            end: iv.start,
        });
        let tail = (last.end > iv.end).then_some(Interval {
            start: iv.end,
            end: last.end,
        });
        self.runs.splice(lo..lo + n, head.into_iter().chain(tail));
    }

    /// `true` if every index of `iv` is covered.
    pub fn covers(&self, iv: Interval) -> bool {
        if iv.is_empty() {
            return true;
        }
        // Runs are non-adjacent, so one run must hold all of `iv`.
        self.runs
            .get(self.first_after(iv.start))
            .is_some_and(|r| r.contains(&iv))
    }

    /// The covered parts of `iv`, ascending: only the runs overlapping `iv`
    /// are visited.
    fn clipped(&self, iv: Interval) -> impl Iterator<Item = Interval> + '_ {
        self.runs[self.first_after(iv.start)..]
            .iter()
            .take_while(move |r| r.start < iv.end)
            .filter_map(move |r| r.intersect(&iv))
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
