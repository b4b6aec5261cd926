//! Native execution of programs on the host, for semantic validation.
//!
//! The simulator (see [`crate::executor`]) predicts *performance*; this
//! module executes the *actual computation* of a program's kernels on host
//! data, so tests can verify that every partitioning strategy computes the
//! same result as an unpartitioned sequential reference — i.e. that
//! partitioning plans and the dependence analysis are semantically correct.
//!
//! Kernels are registered as closures over [`HostBuffers`]. Instances run
//! one at a time in a topological order of the dependence graph; the
//! [`ExecOrder`] parameter selects *which* topological order, so tests can
//! demonstrate that any dependence-respecting schedule yields identical
//! results (the property the OmpSs runtime guarantees).
//!
//! Two runners are provided: [`run_native`] executes instances one at a
//! time (trivially race-free), and [`run_native_parallel`] executes each
//! dependence level with real threads via a safe snapshot-and-merge scheme.
//! The application crate additionally parallelises inside kernels with
//! crossbeam scoped threads.

use crate::data::BufferId;
use crate::graph::TaskGraph;
use crate::program::{Program, TaskDesc, TaskId};
use std::cell::{Ref, RefCell, RefMut};

/// Host storage for a program's buffers, as `f32` arrays (`item_bytes` must
/// be a multiple of 4; an item of `item_bytes = 4k` owns `k` consecutive
/// floats).
pub struct HostBuffers {
    bufs: Vec<RefCell<Vec<f32>>>,
    floats_per_item: Vec<usize>,
}

impl HostBuffers {
    /// Allocate zero-initialised storage for every buffer of `program`.
    pub fn for_program(program: &Program) -> Self {
        let mut bufs = Vec::with_capacity(program.buffers.len());
        let mut fpi = Vec::with_capacity(program.buffers.len());
        for b in &program.buffers {
            assert!(
                b.item_bytes % 4 == 0 && b.item_bytes > 0,
                "buffer '{}' item_bytes {} not a positive multiple of 4",
                b.name,
                b.item_bytes
            );
            let k = (b.item_bytes / 4) as usize;
            fpi.push(k);
            bufs.push(RefCell::new(vec![0.0f32; b.items as usize * k]));
        }
        HostBuffers {
            bufs,
            floats_per_item: fpi,
        }
    }

    /// Immutably borrow a buffer's floats.
    pub fn get(&self, b: BufferId) -> Ref<'_, Vec<f32>> {
        self.bufs[b.0].borrow()
    }

    /// Mutably borrow a buffer's floats.
    pub fn get_mut(&self, b: BufferId) -> RefMut<'_, Vec<f32>> {
        self.bufs[b.0].borrow_mut()
    }

    /// Floats per item of a buffer.
    pub fn floats_per_item(&self, b: BufferId) -> usize {
        self.floats_per_item[b.0]
    }

    /// Clone a buffer's contents out (for test assertions).
    pub fn snapshot(&self, b: BufferId) -> Vec<f32> {
        self.get(b).clone()
    }

    /// Overwrite a buffer's contents (initial data).
    pub fn fill(&self, b: BufferId, data: &[f32]) {
        let mut v = self.get_mut(b);
        assert_eq!(v.len(), data.len(), "fill size mismatch");
        v.copy_from_slice(data);
    }
}

/// A host implementation of one kernel: executes one task instance's
/// partition against the host buffers, using the instance's declared
/// accesses to find its regions.
pub type KernelFn<'a> = Box<dyn Fn(&HostBuffers, &TaskDesc) + Sync + 'a>;

/// Which dependence-respecting order to run instances in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExecOrder {
    /// Submission order (always topological: dependences point backwards).
    Submission,
    /// A deliberately different topological order: within each taskwait
    /// epoch, ready instances run in LIFO order. Used to validate that the
    /// dependence analysis admits schedule freedom without changing
    /// results.
    ReadyLifo,
}

/// Execute the program's computation on host data.
///
/// `kernels[k]` is the host implementation of `KernelId(k)`. Panics if a
/// kernel lacks an implementation.
pub fn run_native(
    program: &Program,
    kernels: &[KernelFn<'_>],
    buffers: &HostBuffers,
    order: ExecOrder,
) {
    assert_eq!(
        kernels.len(),
        program.kernels.len(),
        "one host implementation required per kernel"
    );
    let tasks: Vec<&TaskDesc> = program.tasks().into_iter().map(|(_, t)| t).collect();
    let run_one = |t: TaskId| {
        let task = tasks[t.0];
        kernels[task.kernel.0](buffers, task);
    };
    match order {
        ExecOrder::Submission => {
            for t in 0..tasks.len() {
                run_one(TaskId(t));
            }
        }
        ExecOrder::ReadyLifo => {
            let graph = TaskGraph::build(program);
            let mut remaining: Vec<usize> = (0..graph.len())
                .map(|t| graph.preds(TaskId(t)).len())
                .collect();
            for epoch in program.epochs() {
                let mut stack: Vec<TaskId> = epoch
                    .iter()
                    .copied()
                    .filter(|t| remaining[t.0] == 0)
                    .collect();
                let mut done_in_epoch = 0usize;
                while let Some(t) = stack.pop() {
                    run_one(t);
                    done_in_epoch += 1;
                    for &s in graph.succs(t) {
                        remaining[s.0] -= 1;
                        if remaining[s.0] == 0 && graph.epoch_of(s) == graph.epoch_of(t) {
                            stack.push(s);
                        }
                    }
                }
                assert_eq!(
                    done_in_epoch,
                    epoch.len(),
                    "dependence cycle or cross-epoch forward dependence"
                );
            }
        }
    }
}

/// Execute the program's computation with **real multi-threading**: a
/// level-synchronous parallel runner.
///
/// Tasks are grouped into dependence levels (within their taskwait
/// epochs); tasks in the same level share no dependence, which by the
/// region analysis means no task's writes overlap anything another task of
/// the level touches. The runner exploits that soundly and without any
/// `unsafe`: each worker thread receives a snapshot of the buffers, runs
/// its share of the level with the ordinary [`KernelFn`]s, and the master
/// then merges exactly the regions each task *declared it would write*
/// back into the canonical buffers. Reading snapshot state equals reading
/// live state for every region a level-mate may legally read, so results
/// are bit-identical to the sequential orders.
///
/// This is a validation harness (clone-per-thread is memory-proportional
/// to `threads`), not a performance runtime — virtual-time execution is
/// the performance path.
pub fn run_native_parallel(
    program: &Program,
    kernels: &[KernelFn<'_>],
    buffers: &HostBuffers,
    threads: usize,
) {
    assert_eq!(
        kernels.len(),
        program.kernels.len(),
        "one host implementation required per kernel"
    );
    assert!(threads >= 1);
    let tasks: Vec<&TaskDesc> = program.tasks().into_iter().map(|(_, t)| t).collect();
    let graph = TaskGraph::build(program);

    // Dependence levels within epochs: level(t) = 1 + max(level(preds)),
    // offset so that epochs never interleave.
    let mut level = vec![0usize; tasks.len()];
    let mut epoch_base = vec![0usize; program.epochs().len().max(1)];
    for (i, e) in program.epochs().iter().enumerate() {
        let base = if i == 0 { 0 } else { epoch_base[i - 1] };
        let mut max_in_epoch = base;
        for &t in e {
            let mut l = base;
            for p in graph.preds(t) {
                l = l.max(level[p.0] + 1);
            }
            level[t.0] = l;
            max_in_epoch = max_in_epoch.max(l + 1);
        }
        epoch_base[i] = max_in_epoch;
    }
    let max_level = level.iter().max().map_or(0, |&l| l + 1);

    for l in 0..max_level {
        let level_tasks: Vec<usize> = (0..tasks.len()).filter(|&t| level[t] == l).collect();
        if level_tasks.is_empty() {
            continue;
        }
        let workers = threads.min(level_tasks.len());
        if workers == 1 {
            for &t in &level_tasks {
                kernels[tasks[t].kernel.0](buffers, tasks[t]);
            }
            continue;
        }
        // Snapshot once; workers clone it, run their share, return buffers.
        let chunk = level_tasks.len().div_ceil(workers);
        let results: Vec<(Vec<usize>, Vec<Vec<f32>>)> = crossbeam::scope(|scope| {
            let mut handles = Vec::new();
            for w in 0..workers {
                let my_tasks: Vec<usize> =
                    level_tasks[w * chunk..((w + 1) * chunk).min(level_tasks.len())].to_vec();
                let snapshot: Vec<Vec<f32>> = (0..program.buffers.len())
                    .map(|b| buffers.snapshot(crate::data::BufferId(b)))
                    .collect();
                let tasks = &tasks;
                let kernels = &kernels;
                let program_ref = &*program;
                handles.push(scope.spawn(move |_| {
                    let local = HostBuffers::for_program(program_ref);
                    for (b, data) in snapshot.iter().enumerate() {
                        local.fill(crate::data::BufferId(b), data);
                    }
                    for &t in &my_tasks {
                        kernels[tasks[t].kernel.0](&local, tasks[t]);
                    }
                    let out: Vec<Vec<f32>> = (0..program_ref.buffers.len())
                        .map(|b| local.snapshot(crate::data::BufferId(b)))
                        .collect();
                    (my_tasks, out)
                }));
            }
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
        .expect("worker panicked");

        // Merge: copy back exactly the declared write regions.
        for (my_tasks, worker_bufs) in results {
            for t in my_tasks {
                for acc in &tasks[t].accesses {
                    if !acc.mode.writes() {
                        continue;
                    }
                    let b = acc.region.buffer;
                    let fpi = buffers.floats_per_item(b);
                    let lo = acc.region.span.start as usize * fpi;
                    let hi = acc.region.span.end as usize * fpi;
                    let mut master = buffers.get_mut(b);
                    master[lo..hi].copy_from_slice(&worker_bufs[b.0][lo..hi]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Access, Region};
    use crate::program::split_even;
    use hetero_platform::KernelProfile;

    /// saxpy-like two-kernel program: y = 2*x (kernel 0), then z = y + x
    /// (kernel 1), partitioned into 4 instances each.
    fn build_program(n: u64) -> (Program, BufferId, BufferId, BufferId) {
        let mut b = Program::builder();
        let x = b.buffer("x", n, 4);
        let y = b.buffer("y", n, 4);
        let z = b.buffer("z", n, 4);
        let k0 = b.kernel("scale", KernelProfile::compute_only(1.0));
        let k1 = b.kernel("add", KernelProfile::compute_only(1.0));
        for (s, e) in split_even(n, 4) {
            b.submit_dynamic(
                k0,
                e - s,
                vec![
                    Access::read(Region::new(x, s, e)),
                    Access::write(Region::new(y, s, e)),
                ],
            );
        }
        for (s, e) in split_even(n, 4) {
            b.submit_dynamic(
                k1,
                e - s,
                vec![
                    Access::read(Region::new(x, s, e)),
                    Access::read(Region::new(y, s, e)),
                    Access::write(Region::new(z, s, e)),
                ],
            );
        }
        (b.build(), x, y, z)
    }

    fn kernels<'a>(x: BufferId, y: BufferId, z: BufferId) -> Vec<KernelFn<'a>> {
        let scale: KernelFn = Box::new(move |hb, task| {
            let span = task.accesses[1].region.span;
            let xs = hb.get(x);
            let mut ys = hb.get_mut(y);
            for i in span.start..span.end {
                ys[i as usize] = 2.0 * xs[i as usize];
            }
        });
        let add: KernelFn = Box::new(move |hb, task| {
            let span = task.accesses[2].region.span;
            let xs = hb.get(x);
            let ys = hb.get(y);
            let mut zs = hb.get_mut(z);
            for i in span.start..span.end {
                zs[i as usize] = ys[i as usize] + xs[i as usize];
            }
        });
        vec![scale, add]
    }

    #[test]
    fn native_matches_reference_in_both_orders() {
        let n = 1000u64;
        let (program, x, y, z) = build_program(n);
        let input: Vec<f32> = (0..n).map(|i| i as f32 * 0.5).collect();
        let expected: Vec<f32> = input.iter().map(|&v| 3.0 * v).collect();

        for order in [ExecOrder::Submission, ExecOrder::ReadyLifo] {
            let hb = HostBuffers::for_program(&program);
            hb.fill(x, &input);
            run_native(&program, &kernels(x, y, z), &hb, order);
            assert_eq!(hb.snapshot(z), expected, "order {order:?}");
        }
    }

    #[test]
    fn parallel_runner_matches_sequential() {
        let n = 1200u64;
        let (program, x, y, z) = build_program(n);
        let input: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin()).collect();

        let sequential = {
            let hb = HostBuffers::for_program(&program);
            hb.fill(x, &input);
            run_native(&program, &kernels(x, y, z), &hb, ExecOrder::Submission);
            (hb.snapshot(y), hb.snapshot(z))
        };
        for threads in [1usize, 2, 4, 8] {
            let hb = HostBuffers::for_program(&program);
            hb.fill(x, &input);
            run_native_parallel(&program, &kernels(x, y, z), &hb, threads);
            assert_eq!(hb.snapshot(y), sequential.0, "threads={threads}");
            assert_eq!(hb.snapshot(z), sequential.1, "threads={threads}");
        }
    }

    #[test]
    fn parallel_runner_respects_epochs() {
        // An iterated in-out chain (strict serial dependences) must still
        // produce the serial result under the parallel runner.
        let n = 64u64;
        let mut b = Program::builder();
        let buf = b.buffer("acc", n, 4);
        let k = b.kernel("double", KernelProfile::compute_only(1.0));
        for _ in 0..5 {
            for (s, e) in split_even(n, 4) {
                b.submit_dynamic(k, e - s, vec![Access::read_write(Region::new(buf, s, e))]);
            }
            b.taskwait();
        }
        let p = b.build();
        let double: KernelFn = Box::new(move |hb, task| {
            let span = task.accesses[0].region.span;
            let mut v = hb.get_mut(hetero_platform_buf());
            for i in span.start as usize..span.end as usize {
                v[i] *= 2.0;
            }
        });
        fn hetero_platform_buf() -> BufferId {
            BufferId(0)
        }
        let hb = HostBuffers::for_program(&p);
        hb.fill(BufferId(0), &vec![1.0; n as usize]);
        run_native_parallel(&p, &[double], &hb, 4);
        for &v in hb.get(BufferId(0)).iter() {
            assert_eq!(v, 32.0);
        }
    }

    #[test]
    fn multi_float_items() {
        let mut b = Program::builder();
        let buf = b.buffer("pairs", 10, 8); // 2 floats per item
        let k = b.kernel("sum2", KernelProfile::compute_only(1.0));
        b.submit_dynamic(k, 10, vec![Access::read_write(Region::new(buf, 0, 10))]);
        let p = b.build();
        let hb = HostBuffers::for_program(&p);
        assert_eq!(hb.floats_per_item(buf), 2);
        assert_eq!(hb.get(buf).len(), 20);
    }

    #[test]
    #[should_panic(expected = "not a positive multiple of 4")]
    fn rejects_odd_item_bytes() {
        let mut b = Program::builder();
        b.buffer("bad", 10, 3);
        let p = b.build();
        let _ = HostBuffers::for_program(&p);
    }
}
