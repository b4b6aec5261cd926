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
//!
//! Each buffer's touched items are disjoint *cells* in one `Vec` sorted by
//! start. A cell holds its span, the task that last wrote it and the head
//! of the list of its readers since that write. The lists are `(reader,
//! next)` cons cells in one arena, so splitting a cell copies a head index
//! and a write clears a cell by resetting its head. One binary search finds
//! the last cell starting before an access's end: an access whose span is
//! exactly that cell updates it in place, and one that overlaps no cell yet
//! inserts one. Any other access searches again for the first cell it
//! overlaps and rewrites the cells between into one spliced-in run. So an
//! access costs O(log n + k), k the cells and readers it touches, plus the
//! move of the cells after them; a buffer holds at most a few hundred cells
//! in the paper's programs.
//!
//! The graph is stored flat: predecessors and successors are offset/target
//! arrays, which the executor walks without allocating.

use crate::interval::Interval;
use crate::program::{Op, Program, TaskId};

/// The task dependency graph of a program.
#[derive(Clone, Debug, Default)]
pub struct TaskGraph {
    /// `preds(t)` is `pred_targets[pred_off[t]..pred_off[t + 1]]`.
    pred_off: Vec<usize>,
    pred_targets: Vec<TaskId>,
    /// `succs(t)` is `succ_targets[succ_off[t]..succ_off[t + 1]]`.
    succ_off: Vec<usize>,
    succ_targets: Vec<TaskId>,
    epoch_of: Vec<usize>,
}

impl TaskGraph {
    /// Analyse a program. Each access costs O(log n) plus the number of
    /// cells and readers it touches.
    pub fn build(program: &Program) -> TaskGraph {
        let n = program.task_count();
        assert!(n < NONE as usize, "a task id must fit below NONE");
        let mut analysis = Analysis {
            cells: vec![Vec::new(); program.buffers.len()],
            readers: Vec::new(),
            preds: Vec::new(),
            scratch: Vec::new(),
        };
        let mut pred_off = Vec::with_capacity(n + 1);
        pred_off.push(0);
        let mut pred_targets = Vec::new();
        let mut epoch_of = Vec::with_capacity(n);
        let mut epoch = 0usize;
        for op in &program.ops {
            match op {
                Op::Taskwait => epoch += 1,
                Op::Submit(task) => {
                    let id = epoch_of.len() as u32;
                    epoch_of.push(epoch);
                    for acc in &task.accesses {
                        analysis.access(
                            id,
                            acc.region.buffer.0,
                            acc.region.span,
                            acc.mode.writes(),
                        );
                    }
                    let ps = &mut analysis.preds;
                    ps.sort_unstable();
                    ps.dedup();
                    pred_targets.extend(ps.drain(..).map(|p| TaskId(p as usize)));
                    pred_off.push(pred_targets.len());
                }
            }
        }

        // Successors by a counting pass. Visiting tasks in order over
        // deduplicated preds leaves every successor list sorted and
        // duplicate-free.
        let mut succ_off = vec![0; n + 1];
        for p in &pred_targets {
            succ_off[p.0 + 1] += 1;
        }
        for t in 0..n {
            succ_off[t + 1] += succ_off[t];
        }
        let mut next = succ_off[..n].to_vec();
        let mut succ_targets = vec![TaskId(0); pred_targets.len()];
        for t in 0..n {
            for p in &pred_targets[pred_off[t]..pred_off[t + 1]] {
                succ_targets[next[p.0]] = TaskId(t);
                next[p.0] += 1;
            }
        }

        TaskGraph {
            pred_off,
            pred_targets,
            succ_off,
            succ_targets,
            epoch_of,
        }
    }

    /// The tasks `t` depends on (they must complete first), ascending.
    pub fn preds(&self, t: TaskId) -> &[TaskId] {
        &self.pred_targets[self.pred_off[t.0]..self.pred_off[t.0 + 1]]
    }

    /// The tasks that depend on `t`, ascending.
    pub fn succs(&self, t: TaskId) -> &[TaskId] {
        &self.succ_targets[self.succ_off[t.0]..self.succ_off[t.0 + 1]]
    }

    /// The epoch (taskwait-delimited) `t` belongs to.
    pub fn epoch_of(&self, t: TaskId) -> usize {
        self.epoch_of[t.0]
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.epoch_of.len()
    }

    /// `true` when the program had no tasks.
    pub fn is_empty(&self) -> bool {
        self.epoch_of.is_empty()
    }

    /// Total number of edges (for tests/diagnostics).
    pub fn edge_count(&self) -> usize {
        self.pred_targets.len()
    }
}

/// "No task" and "end of list" in a [`Cell`] and in the reader arena.
const NONE: u32 = u32::MAX;

/// A run of one buffer's items that share their last writer and their
/// readers since that write.
#[derive(Clone, Copy)]
struct Cell {
    start: u64,
    end: u64,
    /// The task that last wrote these items, or [`NONE`].
    writer: u32,
    /// Head of the readers-since-that-write list, or [`NONE`].
    readers: u32,
}

/// The state of one [`TaskGraph::build`].
struct Analysis {
    /// Per buffer: its cells, ascending and disjoint.
    cells: Vec<Vec<Cell>>,
    /// Reader lists as `(reader, next)` cons cells. Lists share tails, so
    /// a node is never changed once pushed.
    readers: Vec<(u32, u32)>,
    /// The predecessors found so far for the task being analysed.
    preds: Vec<u32>,
    /// The cells that replace the overlapped ones in [`Analysis::rewrite`].
    scratch: Vec<Cell>,
}

impl Analysis {
    /// Record access of `span` of buffer `buf` by task `id`, adding its
    /// dependences to `preds`: after every last writer of an item it
    /// touches, and, for a write, after every reader since then. An empty
    /// span touches nothing.
    fn access(&mut self, id: u32, buf: usize, span: Interval, writes: bool) {
        if span.is_empty() {
            return;
        }
        if buf >= self.cells.len() {
            self.cells.resize_with(buf + 1, Vec::new);
        }
        let cells = &mut self.cells[buf];
        // The last cell starting before `span.end` is the span itself when
        // the span is one cell, and ends by `span.start` when the span
        // overlaps none.
        let hi = cells.partition_point(|c| c.start < span.end);
        match hi.checked_sub(1).map(|last| &mut cells[last]) {
            Some(cell) if cell.start == span.start && cell.end == span.end => {
                if writes {
                    note_all(&self.readers, cell, id, &mut self.preds);
                    cell.writer = id;
                    cell.readers = NONE;
                } else {
                    note_writer(cell, id, &mut self.preds);
                    cell.readers = push(&mut self.readers, cell.readers, id);
                }
            }
            Some(cell) if cell.end > span.start => self.rewrite(id, buf, span, writes, hi),
            _ => {
                let (writer, readers) = if writes {
                    (id, NONE)
                } else {
                    (NONE, push(&mut self.readers, NONE, id))
                };
                let cell = Cell {
                    start: span.start,
                    end: span.end,
                    writer,
                    readers,
                };
                cells.insert(hi, cell);
            }
        }
    }

    /// An access of `span` that overlaps cells but is not exactly one,
    /// where `cells[..hi]` are the cells starting before `span.end`. The
    /// overlapped cells are rewritten as: the head piece of the first (the
    /// part before `span.start`), the span's pieces, then the tail piece of
    /// the last. A write's span is one cell it wrote; a read's pieces are
    /// the overlapped parts, each with its reader list joined, and the
    /// holes between them, which all share one new reader node.
    fn rewrite(&mut self, id: u32, buf: usize, span: Interval, writes: bool, hi: usize) {
        let cells = &mut self.cells[buf];
        let lo = cells[..hi].partition_point(|c| c.end <= span.start);
        let out = &mut self.scratch;
        out.clear();
        let (first, last) = (cells[lo], cells[hi - 1]);
        if first.start < span.start {
            out.push(Cell {
                end: span.start,
                ..first
            });
        }
        if writes {
            for cell in &cells[lo..hi] {
                note_all(&self.readers, cell, id, &mut self.preds);
            }
            out.push(Cell {
                start: span.start,
                end: span.end,
                writer: id,
                readers: NONE,
            });
        } else {
            let holes = push(&mut self.readers, NONE, id);
            let hole = move |start, end| Cell {
                start,
                end,
                writer: NONE,
                readers: holes,
            };
            let mut cursor = span.start;
            for cell in &cells[lo..hi] {
                if cell.start > cursor {
                    out.push(hole(cursor, cell.start));
                }
                note_writer(cell, id, &mut self.preds);
                let readers = push(&mut self.readers, cell.readers, id);
                let start = cell.start.max(span.start);
                cursor = cell.end.min(span.end);
                out.push(Cell {
                    start,
                    end: cursor,
                    readers,
                    ..*cell
                });
            }
            if cursor < span.end {
                out.push(hole(cursor, span.end));
            }
        }
        if last.end > span.end {
            out.push(Cell {
                start: span.end,
                ..last
            });
        }
        cells.splice(lo..hi, out.drain(..));
    }
}

/// Order `id` after the cell's last writer (RAW, or WAW for a write).
fn note_writer(cell: &Cell, id: u32, preds: &mut Vec<u32>) {
    if cell.writer != NONE && cell.writer != id {
        preds.push(cell.writer);
    }
}

/// Order the write by `id` after the cell's last writer and its readers
/// since (WAR).
fn note_all(readers: &[(u32, u32)], cell: &Cell, id: u32, preds: &mut Vec<u32>) {
    note_writer(cell, id, preds);
    let mut node = cell.readers;
    while node != NONE {
        let (reader, next) = readers[node as usize];
        if reader != id {
            preds.push(reader);
        }
        node = next;
    }
}

/// The list `head` with `id` in front (itself if `id` is already there).
fn push(readers: &mut Vec<(u32, u32)>, head: u32, id: u32) -> u32 {
    if head != NONE && readers[head as usize].0 == id {
        return head;
    }
    assert!(
        readers.len() < NONE as usize,
        "a node index must fit below NONE"
    );
    readers.push((id, head));
    (readers.len() - 1) as u32
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
        assert_eq!(g.preds(TaskId(1)), [TaskId(0)]);
        assert_eq!(g.succs(TaskId(0)), [TaskId(1)]);
    }

    #[test]
    fn disjoint_writes_are_independent() {
        let g = build(|b| {
            let x = b.buffer("x", 100, 4);
            let k = b.kernel("k", KernelProfile::compute_only(1.0));
            b.submit_dynamic(k, 50, vec![Access::write(Region::new(x, 0, 50))]);
            b.submit_dynamic(k, 50, vec![Access::write(Region::new(x, 50, 100))]);
        });
        assert!(g.preds(TaskId(0)).is_empty());
        assert!(g.preds(TaskId(1)).is_empty());
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
        assert_eq!(g.preds(TaskId(1)), [TaskId(0)]);
    }

    #[test]
    fn waw_dependence() {
        let g = build(|b| {
            let x = b.buffer("x", 100, 4);
            let k = b.kernel("k", KernelProfile::compute_only(1.0));
            b.submit_dynamic(k, 100, vec![Access::write(Region::new(x, 0, 100))]);
            b.submit_dynamic(k, 100, vec![Access::write(Region::new(x, 0, 100))]);
        });
        assert_eq!(g.preds(TaskId(1)), [TaskId(0)]);
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
        assert_eq!(g.preds(TaskId(2)), [TaskId(0), TaskId(1)]);
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
        assert_eq!(g.preds(TaskId(3)), [TaskId(0), TaskId(1)]);
    }

    #[test]
    fn empty_accesses_add_no_edges() {
        let g = build(|b| {
            let x = b.buffer("x", 20, 4);
            let k = b.kernel("k", KernelProfile::compute_only(1.0));
            b.submit_dynamic(k, 20, vec![Access::write(Region::new(x, 0, 20))]); // t0
            b.submit_dynamic(k, 0, vec![Access::read(Region::new(x, 3, 3))]); // t1
            b.submit_dynamic(k, 20, vec![Access::read(Region::new(x, 0, 20))]); // t2
            b.submit_dynamic(k, 0, vec![Access::write(Region::new(x, 5, 5))]); // t3
            b.submit_dynamic(k, 20, vec![Access::write(Region::new(x, 0, 20))]);
            // t4
        });
        // Neither empty access touches an item: t1 and t3 have no edge,
        // and t4 orders after t0's write and t2's read only.
        assert_eq!(g.preds(TaskId(2)), [TaskId(0)]);
        assert_eq!(g.preds(TaskId(4)), [TaskId(0), TaskId(2)]);
        for t in [TaskId(1), TaskId(3)] {
            assert!(g.preds(t).is_empty() && g.succs(t).is_empty());
        }
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
        assert_eq!(g.preds(TaskId(0)), []);
        for t in 1..4 {
            assert_eq!(g.preds(TaskId(t)), [TaskId(t - 1)]);
        }
        let epochs: Vec<usize> = (0..g.len()).map(|t| g.epoch_of(TaskId(t))).collect();
        assert_eq!(epochs, [0, 1, 2, 3]);
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
        assert_eq!(g.preds(TaskId(2)), [TaskId(0)]);
        assert_eq!(g.preds(TaskId(3)), [TaskId(1)]);
    }
}
