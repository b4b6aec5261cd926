//! Programs: recorded streams of task submissions and synchronisation points.
//!
//! A [`Program`] is the runtime-facing form of an application: kernels with
//! workload profiles, buffers, and an ordered list of operations — task
//! submissions (with their data accesses and an optional device pinning) and
//! `taskwait` global synchronisation points. Partitioning strategies differ
//! only in how they emit this stream: how many instances per kernel, where
//! each is pinned (static) or left to the scheduler (dynamic), and where the
//! taskwaits sit.

use crate::data::{Access, BufferDesc, BufferId};
use hetero_platform::{DeviceId, KernelProfile};
use serde::{Deserialize, Serialize};

/// A structural defect in a program, or in the inputs handed to a planner
/// lowering a strategy to a program. Produced by [`Program::validate`] /
/// [`ProgramBuilder::try_build`] (the program-level variants) and by the
/// matchmaker planner's fallible entry point (the planning-level
/// variants); the panicking entry points format these through [`Display`].
///
/// [`Display`]: std::fmt::Display
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum PlanError {
    /// A submitted task names a kernel that was never declared.
    KernelOutOfRange {
        /// Index of the offending operation in the stream.
        op: usize,
        /// The undeclared kernel id.
        kernel: KernelId,
    },
    /// A task access names a buffer that was never declared.
    BufferOutOfRange {
        /// Index of the offending operation in the stream.
        op: usize,
        /// The undeclared buffer id.
        buffer: BufferId,
    },
    /// A task access region reaches past the end of its buffer.
    RegionOutOfRange {
        /// Index of the offending operation in the stream.
        op: usize,
        /// Region start (inclusive), in items.
        start: u64,
        /// Region end (exclusive), in items.
        end: u64,
        /// Name of the overrun buffer.
        buffer: String,
        /// The buffer's actual length, in items.
        items: u64,
    },
    /// The application descriptor failed its own validation.
    InvalidDescriptor {
        /// The application's name.
        app: String,
        /// The descriptor's validation message.
        reason: String,
    },
    /// SP-Single was asked to plan a multi-kernel application.
    SingleKernelStrategy {
        /// How many kernels the application actually has.
        kernels: usize,
    },
    /// SP-Unified was asked to plan kernels with differing domains (one
    /// fused partitioning point needs a common domain).
    UnifiedDomainMismatch,
    /// A partitioned access combines a halo with write permission; the
    /// overlapping writes of neighbouring instances would race.
    HaloWrite {
        /// Name of the offending kernel.
        kernel: String,
    },
    /// A whole-buffer write was requested for a kernel the configuration
    /// splits into partial instances; every instance would claim to
    /// produce the full buffer.
    PartitionedFullWrite {
        /// Name of the offending kernel.
        kernel: String,
    },
    /// Planning targets a CPU+accelerator split, but the platform has no
    /// accelerator.
    NoGpu,
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::KernelOutOfRange { op, kernel } => {
                write!(f, "op {op}: kernel {kernel:?} out of range")
            }
            PlanError::BufferOutOfRange { op, buffer } => {
                write!(f, "op {op}: buffer {buffer:?} out of range")
            }
            PlanError::RegionOutOfRange {
                op,
                start,
                end,
                buffer,
                items,
            } => write!(
                f,
                "op {op}: region [{start}, {end}) exceeds buffer '{buffer}' ({items} items)"
            ),
            PlanError::InvalidDescriptor { app, reason } => {
                write!(f, "invalid descriptor '{app}': {reason}")
            }
            PlanError::SingleKernelStrategy { kernels } => write!(
                f,
                "SP-Single targets single-kernel applications ({kernels} kernels)"
            ),
            PlanError::UnifiedDomainMismatch => {
                write!(f, "SP-Unified requires a common kernel domain")
            }
            PlanError::HaloWrite { kernel } => {
                write!(f, "halo'd write access is unsound (kernel '{kernel}')")
            }
            PlanError::PartitionedFullWrite { kernel } => write!(
                f,
                "whole-buffer write by a partitioned instance (kernel '{kernel}')"
            ),
            PlanError::NoGpu => write!(f, "planning requires a platform with a GPU"),
        }
    }
}

impl std::error::Error for PlanError {}

/// Identifies a kernel (a parallel section of code) within a program.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct KernelId(pub usize);

/// A kernel: a name plus the workload profile used by device models and by
/// the DP-Perf scheduler's per-kernel performance bookkeeping.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct KernelDesc {
    /// Human-readable name (e.g. `"triad"`).
    pub name: String,
    /// Per-item/per-invocation resource demands.
    pub profile: KernelProfile,
}

/// Identifies a submitted task instance (index in submission order).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct TaskId(pub usize);

/// One task instance: a partition of one kernel invocation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TaskDesc {
    /// The kernel this instance belongs to.
    pub kernel: KernelId,
    /// Number of data items this instance computes (drives its cost).
    pub items: u64,
    /// Declared data accesses (drive dependences and transfers).
    pub accesses: Vec<Access>,
    /// `Some(dev)` pins the instance to a device (static partitioning /
    /// Only-CPU / Only-GPU); `None` leaves placement to the dynamic
    /// scheduler (the OmpSs `implements` case: one implementation per
    /// device kind exists and the runtime chooses).
    pub pinned: Option<DeviceId>,
    /// Relative cost multiplier for imbalanced workloads: this instance's
    /// items cost `cost_scale ×` the kernel profile's per-item resources
    /// (1.0 = the kernel's average item). Used by the device models and by
    /// DP-Perf's observations alike.
    pub cost_scale: f64,
}

/// One recorded operation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum Op {
    /// Submit a task instance.
    Submit(TaskDesc),
    /// Global synchronisation: wait for all prior instances, flush device
    /// data to the host, and invalidate device copies (OmpSs `taskwait`
    /// semantics in heterogeneous mode).
    Taskwait,
}

/// A complete recorded program.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Program {
    /// Buffer table.
    pub buffers: Vec<BufferDesc>,
    /// Kernel table.
    pub kernels: Vec<KernelDesc>,
    /// Operation stream.
    pub ops: Vec<Op>,
}

impl Program {
    /// Start building a program.
    pub fn builder() -> ProgramBuilder {
        ProgramBuilder::default()
    }

    /// All submitted tasks in submission order (TaskId order).
    pub fn tasks(&self) -> Vec<(TaskId, &TaskDesc)> {
        let mut out = Vec::new();
        for op in &self.ops {
            if let Op::Submit(t) = op {
                out.push((TaskId(out.len()), t));
            }
        }
        out
    }

    /// Number of submitted tasks.
    pub fn task_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, Op::Submit(_)))
            .count()
    }

    /// Split the operation stream into *epochs*: maximal runs of submissions
    /// separated by taskwaits. Returns, per epoch, the `TaskId`s submitted
    /// in it. Empty epochs (two adjacent taskwaits) are preserved.
    pub fn epochs(&self) -> Vec<Vec<TaskId>> {
        let mut epochs = vec![Vec::new()];
        let mut next = 0usize;
        for op in &self.ops {
            match op {
                Op::Submit(_) => {
                    epochs.last_mut().unwrap().push(TaskId(next));
                    next += 1;
                }
                Op::Taskwait => epochs.push(Vec::new()),
            }
        }
        // A trailing empty epoch after a final taskwait carries no work.
        if epochs.last().is_some_and(|e| e.is_empty()) && epochs.len() > 1 {
            epochs.pop();
        }
        epochs
    }

    /// Validate internal consistency: buffer/kernel indices in range and
    /// regions within their buffers. Returns the first violation as a
    /// typed [`PlanError`].
    pub fn validate(&self) -> Result<(), PlanError> {
        for (i, op) in self.ops.iter().enumerate() {
            let Op::Submit(t) = op else { continue };
            if t.kernel.0 >= self.kernels.len() {
                return Err(PlanError::KernelOutOfRange {
                    op: i,
                    kernel: t.kernel,
                });
            }
            for a in &t.accesses {
                let b = a.region.buffer;
                let Some(desc) = self.buffers.get(b.0) else {
                    return Err(PlanError::BufferOutOfRange { op: i, buffer: b });
                };
                if a.region.span.end > desc.items {
                    return Err(PlanError::RegionOutOfRange {
                        op: i,
                        start: a.region.span.start,
                        end: a.region.span.end,
                        buffer: desc.name.clone(),
                        items: desc.items,
                    });
                }
            }
        }
        Ok(())
    }
}

/// Builds a [`Program`] imperatively, the way an OmpSs-annotated source file
/// executes: declare buffers and kernels, then submit tasks and taskwaits.
#[derive(Default)]
pub struct ProgramBuilder {
    program: Program,
    /// Tasks submitted so far: the next [`TaskId`].
    tasks: usize,
}

impl ProgramBuilder {
    /// Declare a buffer; returns its id.
    pub fn buffer(&mut self, name: &str, items: u64, item_bytes: u64) -> BufferId {
        self.program.buffers.push(BufferDesc {
            name: name.to_string(),
            items,
            item_bytes,
        });
        BufferId(self.program.buffers.len() - 1)
    }

    /// Declare a kernel; returns its id.
    pub fn kernel(&mut self, name: &str, profile: KernelProfile) -> KernelId {
        self.program.kernels.push(KernelDesc {
            name: name.to_string(),
            profile,
        });
        KernelId(self.program.kernels.len() - 1)
    }

    /// Submit a task instance; returns its id.
    pub fn submit(&mut self, task: TaskDesc) -> TaskId {
        let id = TaskId(self.tasks);
        self.tasks += 1;
        self.program.ops.push(Op::Submit(task));
        id
    }

    /// Submit an unpinned (dynamically scheduled) instance.
    pub fn submit_dynamic(
        &mut self,
        kernel: KernelId,
        items: u64,
        accesses: Vec<Access>,
    ) -> TaskId {
        self.submit(TaskDesc {
            kernel,
            items,
            accesses,
            pinned: None,
            cost_scale: 1.0,
        })
    }

    /// Submit an instance pinned to `dev`.
    pub fn submit_pinned(
        &mut self,
        kernel: KernelId,
        items: u64,
        accesses: Vec<Access>,
        dev: DeviceId,
    ) -> TaskId {
        self.submit(TaskDesc {
            kernel,
            items,
            accesses,
            pinned: Some(dev),
            cost_scale: 1.0,
        })
    }

    /// Record a `taskwait` global synchronisation point.
    pub fn taskwait(&mut self) {
        self.program.ops.push(Op::Taskwait);
    }

    /// Finish; returns the first validation violation as a [`PlanError`].
    pub fn try_build(self) -> Result<Program, PlanError> {
        self.program.validate()?;
        Ok(self.program)
    }

    /// Finish; panics if the program fails validation (use
    /// [`ProgramBuilder::try_build`] to handle the error instead).
    pub fn build(self) -> Program {
        self.try_build()
            .unwrap_or_else(|e| panic!("invalid program: {e}"))
    }
}

/// Convenience: evenly split `[0, items)` into `parts` contiguous chunks
/// (first `items % parts` chunks one item longer). Returns `(start, end)`
/// pairs; never returns empty chunks (fewer chunks when `items < parts`).
pub fn split_even(items: u64, parts: u64) -> Vec<(u64, u64)> {
    assert!(parts > 0, "parts must be positive");
    let mut out = Vec::with_capacity(parts as usize);
    let base = items / parts;
    let rem = items % parts;
    let mut start = 0;
    for i in 0..parts {
        let len = base + u64::from(i < rem);
        if len == 0 {
            continue;
        }
        out.push((start, start + len));
        start += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Access, Region};
    use hetero_platform::KernelProfile;

    fn tiny_program() -> Program {
        let mut b = Program::builder();
        let buf = b.buffer("x", 100, 4);
        let k = b.kernel("k", KernelProfile::compute_only(1.0));
        b.submit_dynamic(k, 50, vec![Access::write(Region::new(buf, 0, 50))]);
        b.submit_dynamic(k, 50, vec![Access::write(Region::new(buf, 50, 100))]);
        b.taskwait();
        b.submit_dynamic(k, 100, vec![Access::read(Region::new(buf, 0, 100))]);
        b.build()
    }

    #[test]
    fn epochs_split_on_taskwait() {
        let p = tiny_program();
        let e = p.epochs();
        assert_eq!(e.len(), 2);
        assert_eq!(e[0], vec![TaskId(0), TaskId(1)]);
        assert_eq!(e[1], vec![TaskId(2)]);
    }

    #[test]
    fn trailing_taskwait_adds_no_epoch() {
        let mut b = Program::builder();
        let buf = b.buffer("x", 10, 4);
        let k = b.kernel("k", KernelProfile::compute_only(1.0));
        b.submit_dynamic(k, 10, vec![Access::write(Region::new(buf, 0, 10))]);
        b.taskwait();
        let p = b.build();
        assert_eq!(p.epochs().len(), 1);
    }

    #[test]
    fn task_count_counts_instances() {
        assert_eq!(tiny_program().task_count(), 3);
    }

    #[test]
    #[should_panic(expected = "exceeds buffer")]
    fn build_rejects_out_of_range_region() {
        let mut b = Program::builder();
        let buf = b.buffer("x", 10, 4);
        let k = b.kernel("k", KernelProfile::compute_only(1.0));
        b.submit_dynamic(k, 20, vec![Access::write(Region::new(buf, 0, 20))]);
        let _ = b.build();
    }

    #[test]
    fn try_build_reports_out_of_range_region() {
        let mut b = Program::builder();
        let buf = b.buffer("x", 10, 4);
        let k = b.kernel("k", KernelProfile::compute_only(1.0));
        b.submit_dynamic(k, 20, vec![Access::write(Region::new(buf, 0, 20))]);
        let err = b.try_build().unwrap_err();
        assert_eq!(
            err,
            PlanError::RegionOutOfRange {
                op: 0,
                start: 0,
                end: 20,
                buffer: "x".into(),
                items: 10,
            }
        );
        assert!(err.to_string().contains("exceeds buffer 'x'"));
    }

    #[test]
    fn try_build_reports_undeclared_kernel() {
        let mut b = Program::builder();
        let buf = b.buffer("x", 10, 4);
        b.submit_dynamic(KernelId(3), 10, vec![Access::read(Region::new(buf, 0, 10))]);
        let err = b.try_build().unwrap_err();
        assert_eq!(
            err,
            PlanError::KernelOutOfRange {
                op: 0,
                kernel: KernelId(3),
            }
        );
        assert!(err.to_string().contains("kernel KernelId(3) out of range"));
    }

    #[test]
    fn try_build_reports_undeclared_buffer() {
        let mut b = Program::builder();
        let k = b.kernel("k", KernelProfile::compute_only(1.0));
        b.submit_dynamic(k, 10, vec![Access::read(Region::new(BufferId(7), 0, 10))]);
        let err = b.try_build().unwrap_err();
        assert_eq!(
            err,
            PlanError::BufferOutOfRange {
                op: 0,
                buffer: BufferId(7),
            }
        );
        assert!(err.to_string().contains("buffer BufferId(7) out of range"));
    }

    #[test]
    fn split_even_covers_everything_once() {
        for (items, parts) in [(100u64, 7u64), (5, 8), (24, 24), (1, 1), (0, 3)] {
            let chunks = split_even(items, parts);
            let total: u64 = chunks.iter().map(|(s, e)| e - s).sum();
            assert_eq!(total, items);
            // contiguous and ordered
            let mut cursor = 0;
            for &(s, e) in &chunks {
                assert_eq!(s, cursor);
                assert!(e > s);
                cursor = e;
            }
        }
    }

    #[test]
    fn split_even_balance() {
        let chunks = split_even(10, 3);
        let lens: Vec<u64> = chunks.iter().map(|(s, e)| e - s).collect();
        assert_eq!(lens, vec![4, 3, 3]);
    }
}
