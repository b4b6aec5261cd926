#![warn(missing_docs)]

//! # hetero-runtime
//!
//! An OmpSs-analog task-based runtime for heterogeneous platforms, built
//! from scratch as the dynamic-partitioning substrate of the ICPP'15
//! *matchmaking* reproduction (see the repository `DESIGN.md`).
//!
//! The programming model mirrors what the paper relies on (§II-B):
//!
//! * applications are recorded as [`Program`]s — streams of *task instance*
//!   submissions with declared `in`/`out`/`inout` region accesses, plus
//!   `taskwait` global synchronisation points;
//! * the runtime derives the task dependency graph ([`TaskGraph`]) from the
//!   declared accesses and keeps data consistent across memory spaces
//!   ([`coherence`]), inserting host↔device transfers;
//! * placement is pluggable ([`Scheduler`]): pinned placement for static
//!   partitioning plans, and the paper's two dynamic policies — [`DepScheduler`]
//!   (**DP-Dep**, breadth-first + dependency-chain affinity) and
//!   [`PerfScheduler`] (**DP-Perf**, performance-aware earliest-finisher with a
//!   profiling warm-up);
//! * [`simulate`] executes a program in deterministic virtual time over a
//!   `hetero_platform::Platform` and reports makespan, partitioning ratios,
//!   transfer volumes and scheduling overhead; [`simulate_spec`] runs it
//!   under the fault, health, adaptation and repair layers a [`RunSpec`]
//!   declares, observed and optionally journaled;
//! * [`native`] executes the program's real computation on host data to
//!   validate that partitioning is semantically correct.
//!
//! ```
//! use hetero_platform::{KernelProfile, Platform};
//! use hetero_runtime::{simulate, Access, PinnedScheduler, Program, Region};
//! use hetero_platform::DeviceId;
//!
//! // A two-instance program: half the buffer on the GPU, half on the CPU.
//! let mut b = Program::builder();
//! let x = b.buffer("x", 1_000_000, 4);
//! let k = b.kernel("square", KernelProfile::compute_only(8.0));
//! b.submit_pinned(k, 500_000, vec![Access::read_write(Region::new(x, 0, 500_000))], DeviceId(1));
//! b.submit_pinned(k, 500_000, vec![Access::read_write(Region::new(x, 500_000, 1_000_000))], DeviceId(0));
//! let program = b.build();
//!
//! let platform = Platform::icpp15();
//! let report = simulate(&program, &platform, &mut PinnedScheduler);
//! assert!(report.makespan > hetero_platform::SimTime::ZERO);
//! assert_eq!(report.counters.devices[1].items, 500_000);
//! ```

pub mod adapt;
pub mod coherence;
pub mod data;
pub mod executor;
pub mod fuzz;
pub mod graph;
pub mod health;
pub mod interval;
pub mod journal;
pub mod native;
pub mod obs;
pub mod program;
pub mod scheduler;
pub mod spec;
pub mod stats;
pub mod trace;

pub use adapt::{AdaptConfig, AdaptPlan, AdaptReport, ReplanConfig, ReplanError};
pub use coherence::{CoherenceDir, Transfer};
pub use data::{Access, AccessMode, BufferDesc, BufferId, Region};
pub use executor::{
    simulate, simulate_observed, simulate_spec, ADAPT_STREAM, CORRELATED_STREAM, HEALTH_STREAM,
    REPLAN_STREAM,
};
pub use fuzz::{check_blame_identity, check_identical, report_digest, OracleKind, OracleViolation};
pub use graph::TaskGraph;
pub use health::{
    BreakerConfig, HealthConfig, HealthReport, QuarantineSpan, VerificationPolicy, WatchdogConfig,
};
pub use interval::{Interval, IntervalSet};
pub use journal::{
    EpochRecord, JournalError, JournalHeader, JournalSink, RngCursors, RunJournal, SalvageReport,
    StreamConstants, JOURNAL_VERSION,
};
pub use native::{run_native, run_native_parallel, ExecOrder, HostBuffers, KernelFn};
pub use obs::{
    apply_snapshot, fold_stream, CriticalPath, DeviceBreakdown, DiffEntry, DiffVerdict,
    EpochSnapshot, LogHistogram, MetricsObserver, MetricsRegistry, MultiObserver, NullObserver,
    Observer, OpenState, PathKind, PathSegment, RunDiff, Series, SeriesValue, SnapshotObserver,
    Span, SpanKind, SpanTree, TimeBreakdown, TraceObserver,
};
pub use program::{
    split_even, KernelDesc, KernelId, Op, PlanError, Program, ProgramBuilder, TaskDesc, TaskId,
};
pub use scheduler::{
    BindCtx, DepScheduler, PerfScheduler, PinnedScheduler, RateObservation, Scheduler,
};
pub use spec::{RunMode, RunSpec};
pub use stats::{KernelStats, RunReport};
pub use trace::{Trace, TraceEvent, DEFAULT_GANTT_WIDTH};

/// Run a program under DP-Perf with the paper's methodology: a warm-up run
/// performs the profiling phase (3 instances per kernel per device), then
/// the measured run starts from the learned rates with profiling excluded
/// from the reported numbers (see [`PerfScheduler::warmed`]).
pub fn simulate_dp_perf_warmed(
    program: &Program,
    platform: &hetero_platform::Platform,
) -> RunReport {
    simulate_dp_perf_warmed_observed(program, platform, &mut NullObserver)
}

/// [`simulate_dp_perf_warmed`] with an [`Observer`] installed on the
/// *measured* run. The warm-up run is unobserved (it exists only to learn
/// rates and is excluded from reported numbers), so an attached metrics
/// sink sees exactly the run the report describes.
pub fn simulate_dp_perf_warmed_observed(
    program: &Program,
    platform: &hetero_platform::Platform,
    obs: &mut dyn Observer,
) -> RunReport {
    simulate_observed(
        program,
        platform,
        &mut PerfScheduler::warmed(program, platform, &RunSpec::plain()),
        obs,
    )
}
