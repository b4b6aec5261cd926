//! Differential check of the dependence analysis against a reference.
//!
//! [`reference_build`] is the analysis in its plainest form: every access
//! scans every last-writer run and every reader piece of its buffer. The
//! indexed [`TaskGraph::build`] must produce exactly the same predecessors,
//! successors and epochs on any program, including the corner cases the
//! planner never emits: empty spans, halos on writes, whole-buffer accesses
//! and tasks touching one buffer several times. It is also checked on three
//! deterministic programs at the size the paper matrix runs: a STREAM loop
//! of mostly aligned chunks, a HotSpot-shaped stencil whose halos straddle
//! every chunk boundary, and an SP-Varied-shaped loop whose kernels split
//! the same buffers into different chunk counts.

use hetero_platform::KernelProfile;
use hetero_runtime::{
    split_even, Access, AccessMode, BufferId, Interval, Op, Program, ProgramBuilder, Region,
    TaskGraph, TaskId,
};
use proptest::prelude::*;

/// `(preds, succs, epoch_of)` of a program, computed by full scans.
fn reference_build(program: &Program) -> (Vec<Vec<TaskId>>, Vec<Vec<TaskId>>, Vec<usize>) {
    let n = program.task_count();
    let mut preds: Vec<Vec<TaskId>> = vec![Vec::new(); n];
    // Per buffer: disjoint last-writer runs, and reader pieces since them.
    let mut writers: Vec<Vec<(Interval, TaskId)>> = vec![Vec::new(); program.buffers.len()];
    let mut readers: Vec<Vec<(Interval, TaskId)>> = vec![Vec::new(); program.buffers.len()];
    let mut epoch_of = Vec::with_capacity(n);
    let mut epoch = 0;
    let mut tid = 0;
    for op in &program.ops {
        let task = match op {
            Op::Taskwait => {
                epoch += 1;
                continue;
            }
            Op::Submit(task) => task,
        };
        let id = TaskId(tid);
        epoch_of.push(epoch);
        for acc in &task.accesses {
            let b = acc.region.buffer.0;
            let span = acc.region.span;
            // RAW and WAW: every last-writer sharing an item with the span.
            for &(iv, w) in &writers[b] {
                if iv.intersect(&span).is_some() && w != id {
                    preds[tid].push(w);
                }
            }
            if acc.mode.writes() {
                // WAR: every reader piece overlapping the span; keep the
                // parts outside it.
                let mut kept = Vec::new();
                for (iv, r) in readers[b].drain(..) {
                    if !iv.overlaps(&span) {
                        kept.push((iv, r));
                        continue;
                    }
                    if r != id {
                        preds[tid].push(r);
                    }
                    if iv.start < span.start {
                        kept.push((Interval::new(iv.start, span.start.min(iv.end)), r));
                    }
                    if iv.end > span.end {
                        kept.push((Interval::new(span.end.max(iv.start), iv.end), r));
                    }
                }
                readers[b] = kept;
                if !span.is_empty() {
                    let mut runs = Vec::new();
                    for (iv, w) in writers[b].drain(..) {
                        if iv.intersect(&span).is_none() {
                            runs.push((iv, w));
                            continue;
                        }
                        if iv.start < span.start {
                            runs.push((Interval::new(iv.start, span.start), w));
                        }
                        if iv.end > span.end {
                            runs.push((Interval::new(span.end, iv.end), w));
                        }
                    }
                    runs.push((span, id));
                    writers[b] = runs;
                }
            } else {
                readers[b].push((span, id));
            }
        }
        preds[tid].sort_unstable();
        preds[tid].dedup();
        tid += 1;
    }
    let mut succs: Vec<Vec<TaskId>> = vec![Vec::new(); n];
    for (t, ps) in preds.iter().enumerate() {
        for p in ps {
            succs[p.0].push(TaskId(t));
        }
    }
    for s in &mut succs {
        s.sort_unstable();
        s.dedup();
    }
    (preds, succs, epoch_of)
}

/// One generated access, interpreted against the task's buffers by
/// [`build_program`].
#[derive(Clone, Debug)]
struct RawAccess {
    buf: usize,
    mode: AccessMode,
    shape: u8,
    a: u64,
    b: u64,
    halo: u64,
}

fn arb_access() -> impl Strategy<Value = RawAccess> {
    let mode = prop_oneof![
        Just(AccessMode::In),
        Just(AccessMode::Out),
        Just(AccessMode::InOut)
    ];
    (0..4usize, mode, 0..6u8, 0..40u64, 0..40u64, 0..3u64).prop_map(
        |(buf, mode, shape, a, b, halo)| RawAccess {
            buf,
            mode,
            shape,
            a,
            b,
            halo,
        },
    )
}

/// `None` is a taskwait; `Some` a task with its accesses.
fn arb_op() -> impl Strategy<Value = Option<Vec<RawAccess>>> {
    (0..6u8, proptest::collection::vec(arb_access(), 1..5))
        .prop_map(|(k, accs)| (k != 0).then_some(accs))
}

/// Lower generated ops onto `sizes.len()` buffers, returning the program
/// and the ids `ProgramBuilder` handed out.
fn build_program(sizes: &[u64], ops: &[Option<Vec<RawAccess>>]) -> (Program, Vec<TaskId>) {
    let mut b = Program::builder();
    let bufs: Vec<BufferId> = sizes
        .iter()
        .enumerate()
        .map(|(i, &n)| b.buffer(&format!("b{i}"), n, 4))
        .collect();
    let k = b.kernel("k", KernelProfile::compute_only(1.0));
    let mut ids = Vec::new();
    for op in ops {
        let Some(raw) = op else {
            b.taskwait();
            continue;
        };
        let mut accesses: Vec<Access> = Vec::new();
        for r in raw {
            let prev = accesses.last().map(|a| a.region);
            let (buf, start, end) = match (r.shape, prev) {
                // Same buffer as the previous access, same start or starting
                // where it ends.
                (4, Some(p)) => (p.buffer.0, p.span.start, p.span.start + r.b),
                (5, Some(p)) => (p.buffer.0, p.span.end, p.span.end + r.b),
                // The whole buffer.
                (2, _) => (r.buf % sizes.len(), 0, u64::MAX),
                // An empty span anywhere, ends included.
                (3, _) => {
                    let at = r.a % (sizes[r.buf % sizes.len()] + 1);
                    (r.buf % sizes.len(), at, at)
                }
                // A partition, possibly empty, widened by a halo.
                _ => {
                    let s = r.a;
                    let e = s + r.b % 12;
                    let h = if r.shape == 1 { r.halo } else { 0 };
                    (r.buf % sizes.len(), s.saturating_sub(h), e + h)
                }
            };
            let n = sizes[buf];
            let start = start.min(n);
            let end = end.clamp(start, n);
            accesses.push(Access {
                region: Region::new(bufs[buf], start, end),
                mode: r.mode,
            });
        }
        ids.push(b.submit_dynamic(k, 1, accesses));
    }
    (b.build(), ids)
}

fn assert_matches_reference(program: &Program) -> Result<(), TestCaseError> {
    let g = TaskGraph::build(program);
    let (preds, succs, epoch_of) = reference_build(program);
    let ids = || (0..g.len()).map(TaskId);
    prop_assert_eq!(g.len(), program.task_count());
    prop_assert_eq!(
        ids().map(|t| g.preds(t).to_vec()).collect::<Vec<_>>(),
        preds
    );
    prop_assert_eq!(
        ids().map(|t| g.succs(t).to_vec()).collect::<Vec<_>>(),
        succs
    );
    prop_assert_eq!(ids().map(|t| g.epoch_of(t)).collect::<Vec<_>>(), epoch_of);
    prop_assert_eq!(
        g.edge_count(),
        ids().map(|t| g.preds(t).len()).sum::<usize>()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn graph_matches_full_scan_reference(
        sizes in proptest::collection::vec(1..33u64, 1..5),
        ops in proptest::collection::vec(arb_op(), 0..72),
    ) {
        let (program, ids) = build_program(&sizes, &ops);
        // Builder ids are submission order, unbroken by taskwaits.
        let listed: Vec<TaskId> = program.tasks().iter().map(|(id, _)| *id).collect();
        prop_assert_eq!(&ids, &listed);
        prop_assert_eq!(ids, (0..program.task_count()).map(TaskId).collect::<Vec<_>>());
        assert_matches_reference(&program)?;
    }
}

/// A task reading one buffer twice from the same start, or over adjacent
/// spans, leaves one reader piece per read: a later write overlapping only
/// one of them must still order after the reader.
#[test]
fn repeated_reads_by_one_task_keep_every_piece() {
    let program = |spans: [(u64, u64); 2], write: (u64, u64)| {
        let mut b = Program::builder();
        let x = b.buffer("x", 16, 4);
        let k = b.kernel("k", KernelProfile::compute_only(1.0));
        let reads = spans
            .iter()
            .map(|&(s, e)| Access::read(Region::new(x, s, e)))
            .collect();
        b.submit_dynamic(k, 1, reads);
        b.submit_dynamic(k, 1, vec![Access::write(Region::new(x, write.0, write.1))]);
        b.build()
    };
    for (spans, write) in [
        ([(0, 8), (0, 4)], (6, 8)),
        ([(0, 4), (0, 8)], (6, 8)),
        ([(0, 4), (4, 8)], (5, 6)),
        ([(4, 8), (0, 4)], (1, 2)),
    ] {
        let p = program(spans, write);
        let g = TaskGraph::build(&p);
        assert_eq!(
            g.preds(TaskId(1)),
            [TaskId(0)],
            "reads {spans:?}, write {write:?}"
        );
        assert_matches_reference(&p).unwrap();
    }
}

/// Builder ids stay in submission order across taskwaits, including
/// leading and repeated ones.
#[test]
fn builder_ids_follow_submission_order_across_taskwaits() {
    let mut b: ProgramBuilder = Program::builder();
    let x = b.buffer("x", 4, 4);
    let k = b.kernel("k", KernelProfile::compute_only(1.0));
    let mut ids = Vec::new();
    b.taskwait();
    for i in 0..5 {
        ids.push(b.submit_dynamic(k, 1, vec![Access::read(Region::new(x, 0, 4))]));
        for _ in 0..i % 3 {
            b.taskwait();
        }
    }
    let p = b.build();
    assert_eq!(ids, (0..5).map(TaskId).collect::<Vec<_>>());
    let listed: Vec<TaskId> = p.tasks().iter().map(|(id, _)| *id).collect();
    assert_eq!(ids, listed);
    let g = TaskGraph::build(&p);
    let epochs: Vec<usize> = ids.iter().map(|&t| g.epoch_of(t)).collect();
    assert_eq!(epochs, [1, 1, 2, 4, 4]);
}

/// A program the size of the paper matrix's heaviest cells (STREAM-Loop
/// under DP-*, 3,840 tasks): the four STREAM kernels over 10 iterations of
/// 96 aligned chunks, with whole-buffer reads mixed in, then a pass of
/// misaligned chunks submitted in reverse order.
#[test]
fn stream_loop_sized_program_matches_reference() {
    const CHUNKS: u64 = 96;
    const CHUNK: u64 = 64;
    const N: u64 = CHUNKS * CHUNK;
    let mut b = Program::builder();
    let [a, bb, c] = ["a", "b", "c"].map(|name| b.buffer(name, N, 4));
    let k = b.kernel("k", KernelProfile::compute_only(1.0));
    // (inputs, output) of copy, scale, add and triad.
    let kernels = [
        (vec![a], c),
        (vec![c], bb),
        (vec![a, bb], c),
        (vec![bb, c], a),
    ];
    for iter in 0..10 {
        for (inputs, output) in &kernels {
            for i in 0..CHUNKS {
                let (s, e) = (i * CHUNK, (i + 1) * CHUNK);
                let mut accesses: Vec<Access> = inputs
                    .iter()
                    .map(|&x| Access::read(Region::new(x, s, e)))
                    .collect();
                // Now and then a chunk also reads a whole input buffer.
                if (i + iter) % 29 == 0 {
                    accesses.push(Access::read(Region::new(inputs[0], 0, N)));
                }
                accesses.push(Access::write(Region::new(*output, s, e)));
                b.submit_dynamic(k, CHUNK, accesses);
            }
        }
        b.taskwait();
    }
    // Chunks of 50 items from offset 7: every aligned boundary falls
    // strictly inside one of them.
    for i in (0..(N - 7).div_ceil(50)).rev() {
        let (s, e) = (7 + i * 50, (7 + (i + 1) * 50).min(N));
        let mut accesses = vec![
            Access::read(Region::new(c, s, e)),
            Access::read_write(Region::new(a, s, e)),
        ];
        if i % 16 == 0 {
            accesses.push(Access::read(Region::new(bb, 0, N)));
        }
        b.submit_dynamic(k, e - s, accesses);
    }
    let p = b.build();
    assert_eq!(p.task_count(), 3840 + 123);
    assert_matches_reference(&p).unwrap();
}

/// A HotSpot-shaped stencil: 96 row chunks, 10 iterations. Each task
/// reads its chunk of one grid plus one row on each side (clamped at the
/// edges) and writes its chunk of the next; every iteration ends with a
/// taskwait and rotates the grids. Every halo read straddles a boundary
/// the previous iteration's writes left. With two grids (swapped, as
/// HotSpot does) a task's halo RAW predecessors are also the WAR
/// predecessors of its write, so a dropped RAW edge would hide; with three
/// the WAR predecessors are two iterations back and the RAW ones one back.
#[test]
fn hotspot_shaped_stencil_matches_reference() {
    const CHUNKS: u64 = 96;
    const CHUNK: u64 = 8;
    const ROWS: u64 = CHUNKS * CHUNK;
    for names in [&["temp", "temp_out"][..], &["g0", "g1", "g2"]] {
        let mut b = Program::builder();
        let mut grids: Vec<_> = names.iter().map(|name| b.buffer(name, ROWS, 4)).collect();
        let k = b.kernel("k", KernelProfile::compute_only(1.0));
        for _ in 0..10 {
            for i in 0..CHUNKS {
                let (s, e) = (i * CHUNK, (i + 1) * CHUNK);
                let halo = Region::new(grids[0], s.saturating_sub(1), (e + 1).min(ROWS));
                let accesses = vec![
                    Access::read(halo),
                    Access::write(Region::new(grids[1], s, e)),
                ];
                b.submit_dynamic(k, CHUNK, accesses);
            }
            b.taskwait();
            grids.rotate_left(1);
        }
        let p = b.build();
        assert_eq!(p.task_count(), 960);
        assert_matches_reference(&p).unwrap_or_else(|e| panic!("{} grids: {e}", names.len()));
    }
}

/// An SP-Varied-shaped loop: STREAM's copy, scale, add and triad over the
/// same three buffers for 10 iterations, each kernel split into its own
/// chunk count, so most accesses start or end inside another kernel's
/// chunk.
#[test]
fn sp_varied_shaped_loop_matches_reference() {
    const N: u64 = 96 * 40;
    let mut b = Program::builder();
    let [a, bb, c] = ["a", "b", "c"].map(|name| b.buffer(name, N, 4));
    let k = b.kernel("k", KernelProfile::compute_only(1.0));
    // (inputs, output, chunk count) of copy, scale, add and triad.
    let kernels = [
        (vec![a], c, 96),
        (vec![c], bb, 37),
        (vec![a, bb], c, 41),
        (vec![bb, c], a, 53),
    ];
    for _ in 0..10 {
        for (inputs, output, chunks) in &kernels {
            for (s, e) in split_even(N, *chunks) {
                let mut accesses: Vec<Access> = inputs
                    .iter()
                    .map(|&x| Access::read(Region::new(x, s, e)))
                    .collect();
                accesses.push(Access::write(Region::new(*output, s, e)));
                b.submit_dynamic(k, e - s, accesses);
            }
        }
        b.taskwait();
    }
    let p = b.build();
    assert_eq!(p.task_count(), 10 * (96 + 37 + 41 + 53));
    assert_matches_reference(&p).unwrap();
}
