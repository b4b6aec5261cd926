//! Data-dependence analysis.
//!
//! Builds the task dependency graph from the declared region accesses, the
//! way the OmpSs runtime does: read-after-write, write-after-read and
//! write-after-write orderings at item-interval granularity.
//!
//! The graph spans the *whole* program, including across `taskwait` points:
//! the executor enforces taskwait barriers separately, while schedulers use
//! the full graph for dependency-chain affinity (DP-Dep assigns partitions
//! of the same chain — e.g. the same grid rows across loop iterations — to
//! the same device to minimise transfers).

use crate::interval::{Interval, IntervalMap};
use crate::program::{Op, Program, TaskId};
use std::collections::{BTreeMap, BTreeSet};

/// The task dependency graph of a program.
#[derive(Clone, Debug, Default)]
pub struct TaskGraph {
    /// Predecessors (must complete first), per task, deduplicated & sorted.
    pub preds: Vec<Vec<TaskId>>,
    /// Successors, per task, deduplicated & sorted.
    pub succs: Vec<Vec<TaskId>>,
    /// Epoch index (taskwait-delimited) of each task.
    pub epoch_of: Vec<usize>,
}

impl TaskGraph {
    /// Analyse a program. Each access costs O(log n) plus the number of
    /// runs and reader pieces it overlaps.
    pub fn build(program: &Program) -> TaskGraph {
        let n = program.task_count();
        let mut preds: Vec<Vec<TaskId>> = vec![Vec::new(); n];

        // Per-buffer: last writer per interval, and readers since that write.
        #[derive(Default)]
        struct BufState {
            writers: IntervalMap<TaskId>,
            readers: Readers,
        }
        let mut bufs: BTreeMap<usize, BufState> = BTreeMap::new();
        let mut hits = Vec::new();

        let mut epoch_of = Vec::with_capacity(n);
        let mut epoch = 0usize;
        let mut tid = 0usize;
        for op in &program.ops {
            match op {
                Op::Taskwait => epoch += 1,
                Op::Submit(task) => {
                    let id = TaskId(tid);
                    let ps = &mut preds[tid];
                    epoch_of.push(epoch);
                    for acc in &task.accesses {
                        let state = bufs.entry(acc.region.buffer.0).or_default();
                        let span = acc.region.span;
                        // RAW (a read) and WAW (a write) alike: after every
                        // overlapping last-writer.
                        ps.extend(
                            state
                                .writers
                                .overlapping(span)
                                .map(|(_, &w)| w)
                                .filter(|&w| w != id),
                        );
                        if acc.mode.writes() {
                            // WAR: after overlapping readers-since-write.
                            state.readers.take_overlapping(span, &mut hits, |r| {
                                if r != id {
                                    ps.push(r);
                                }
                            });
                            state.writers.insert(span, id);
                        } else {
                            state.readers.insert(span, id);
                        }
                    }
                    ps.sort_unstable();
                    ps.dedup();
                    tid += 1;
                }
            }
        }

        // Visiting tasks in order over deduplicated preds leaves every
        // successor list sorted and duplicate-free.
        let mut succs: Vec<Vec<TaskId>> = vec![Vec::new(); n];
        for (t, ps) in preds.iter().enumerate() {
            for p in ps {
                succs[p.0].push(TaskId(t));
            }
        }

        TaskGraph {
            preds,
            succs,
            epoch_of,
        }
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// `true` when the program had no tasks.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Total number of edges (for tests/diagnostics).
    pub fn edge_count(&self) -> usize {
        self.preds.iter().map(Vec::len).sum()
    }
}

/// The readers of one buffer since its last overlapping write, as
/// `(start, end, reader)` pieces ordered by start. A write of `span` takes
/// every piece that [`Interval::overlaps`] it and puts back the parts outside
/// `span`.
#[derive(Default)]
struct Readers {
    pieces: BTreeSet<(u64, u64, TaskId)>,
    /// No held piece is longer, so a piece overlapping `span` starts after
    /// `span.start - longest`.
    longest: u64,
}

impl Readers {
    fn insert(&mut self, span: Interval, reader: TaskId) {
        self.longest = self.longest.max(span.len());
        self.pieces.insert((span.start, span.end, reader));
    }

    /// Remove the pieces overlapping `span`, calling `on_reader` for each,
    /// and keep their parts outside `span`.
    fn take_overlapping(
        &mut self,
        span: Interval,
        hits: &mut Vec<(u64, u64, TaskId)>,
        mut on_reader: impl FnMut(TaskId),
    ) {
        let from = (span.start.saturating_sub(self.longest), 0, TaskId(0));
        hits.clear();
        hits.extend(
            self.pieces
                .range(from..(span.end, 0, TaskId(0)))
                .filter(|&&(s, e, _)| Interval::new(s, e).overlaps(&span)),
        );
        for &piece @ (s, e, r) in hits.iter() {
            on_reader(r);
            self.pieces.remove(&piece);
            if s < span.start {
                self.pieces.insert((s, span.start.min(e), r));
            }
            if e > span.end {
                self.pieces.insert((span.end.max(s), e, r));
            }
        }
        if self.pieces.is_empty() {
            self.longest = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Access, Region};
    use crate::program::{Program, TaskId};
    use hetero_platform::KernelProfile;

    fn build(f: impl FnOnce(&mut crate::program::ProgramBuilder)) -> TaskGraph {
        let mut b = Program::builder();
        f(&mut b);
        TaskGraph::build(&b.build())
    }

    #[test]
    fn raw_dependence() {
        let g = build(|b| {
            let x = b.buffer("x", 100, 4);
            let k = b.kernel("k", KernelProfile::compute_only(1.0));
            b.submit_dynamic(k, 100, vec![Access::write(Region::new(x, 0, 100))]);
            b.submit_dynamic(k, 50, vec![Access::read(Region::new(x, 25, 75))]);
        });
        assert_eq!(g.preds[1], vec![TaskId(0)]);
        assert_eq!(g.succs[0], vec![TaskId(1)]);
    }

    #[test]
    fn disjoint_writes_are_independent() {
        let g = build(|b| {
            let x = b.buffer("x", 100, 4);
            let k = b.kernel("k", KernelProfile::compute_only(1.0));
            b.submit_dynamic(k, 50, vec![Access::write(Region::new(x, 0, 50))]);
            b.submit_dynamic(k, 50, vec![Access::write(Region::new(x, 50, 100))]);
        });
        assert!(g.preds[0].is_empty());
        assert!(g.preds[1].is_empty());
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn war_dependence() {
        let g = build(|b| {
            let x = b.buffer("x", 100, 4);
            let k = b.kernel("k", KernelProfile::compute_only(1.0));
            b.submit_dynamic(k, 100, vec![Access::read(Region::new(x, 0, 100))]);
            b.submit_dynamic(k, 100, vec![Access::write(Region::new(x, 0, 100))]);
        });
        assert_eq!(g.preds[1], vec![TaskId(0)]);
    }

    #[test]
    fn waw_dependence() {
        let g = build(|b| {
            let x = b.buffer("x", 100, 4);
            let k = b.kernel("k", KernelProfile::compute_only(1.0));
            b.submit_dynamic(k, 100, vec![Access::write(Region::new(x, 0, 100))]);
            b.submit_dynamic(k, 100, vec![Access::write(Region::new(x, 0, 100))]);
        });
        assert_eq!(g.preds[1], vec![TaskId(0)]);
    }

    #[test]
    fn reader_after_partial_overwrite_depends_on_both_writers() {
        let g = build(|b| {
            let x = b.buffer("x", 100, 4);
            let k = b.kernel("k", KernelProfile::compute_only(1.0));
            b.submit_dynamic(k, 100, vec![Access::write(Region::new(x, 0, 100))]); // t0
            b.submit_dynamic(k, 50, vec![Access::write(Region::new(x, 0, 50))]); // t1 (waw on t0)
            b.submit_dynamic(k, 100, vec![Access::read(Region::new(x, 0, 100))]);
            // t2
        });
        assert_eq!(g.preds[2], vec![TaskId(0), TaskId(1)]);
    }

    #[test]
    fn war_only_for_overlapping_readers() {
        let g = build(|b| {
            let x = b.buffer("x", 100, 4);
            let k = b.kernel("k", KernelProfile::compute_only(1.0));
            b.submit_dynamic(k, 100, vec![Access::write(Region::new(x, 0, 100))]); // t0
            b.submit_dynamic(k, 30, vec![Access::read(Region::new(x, 0, 30))]); // t1
            b.submit_dynamic(k, 30, vec![Access::read(Region::new(x, 60, 90))]); // t2
            b.submit_dynamic(k, 40, vec![Access::write(Region::new(x, 0, 40))]);
            // t3
        });
        // t3 overwrites t1's read range and t0's write, but not t2's range.
        assert_eq!(g.preds[3], vec![TaskId(0), TaskId(1)]);
    }

    #[test]
    fn inout_chain() {
        // An iterated inout over the same region forms a serial chain —
        // the SK-Loop structure.
        let g = build(|b| {
            let x = b.buffer("x", 10, 4);
            let k = b.kernel("k", KernelProfile::compute_only(1.0));
            for _ in 0..4 {
                b.submit_dynamic(k, 10, vec![Access::read_write(Region::new(x, 0, 10))]);
                b.taskwait();
            }
        });
        assert_eq!(g.preds[0], vec![]);
        for t in 1..4 {
            assert_eq!(g.preds[t], vec![TaskId(t - 1)]);
        }
        assert_eq!(g.epoch_of, vec![0, 1, 2, 3]);
    }

    #[test]
    fn stream_chain_structure() {
        // copy: c=a; scale: b=c; add: c=a+b; triad: a=b+c — per-partition
        // chains when partitions align.
        let g = build(|b| {
            let a = b.buffer("a", 100, 4);
            let bb = b.buffer("b", 100, 4);
            let c = b.buffer("c", 100, 4);
            let k = b.kernel("k", KernelProfile::compute_only(1.0));
            // Two aligned partitions per kernel.
            for (s, e) in [(0u64, 50u64), (50, 100)] {
                b.submit_dynamic(
                    k,
                    50,
                    vec![
                        Access::read(Region::new(a, s, e)),
                        Access::write(Region::new(c, s, e)),
                    ],
                );
            }
            for (s, e) in [(0u64, 50u64), (50, 100)] {
                b.submit_dynamic(
                    k,
                    50,
                    vec![
                        Access::read(Region::new(c, s, e)),
                        Access::write(Region::new(bb, s, e)),
                    ],
                );
            }
        });
        // scale partition i depends exactly on copy partition i.
        assert_eq!(g.preds[2], vec![TaskId(0)]);
        assert_eq!(g.preds[3], vec![TaskId(1)]);
    }
}
