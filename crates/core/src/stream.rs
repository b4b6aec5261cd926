//! Streaming simulation surfaces: run any [`RunSpec`] with a
//! [`SnapshotObserver`] attached, getting a per-epoch delta-encoded
//! metrics feed alongside the final report.
//!
//! The stream holds one `EpochSnapshot` JSON line per committed taskwait
//! barrier plus a final run-end line — the feed behind
//! `matchmake run --metrics-stream <path>`. The hard
//! invariant (fuzz oracle 9, `stream-fold-equivalence`) is that
//! [`fold_stream`](hetero_runtime::fold_stream) over the emitted lines
//! reproduces the end-of-run [`MetricsRegistry`]
//! (hetero_runtime::MetricsRegistry) byte-for-byte.

use crate::analyzer::Analyzer;
use crate::descriptor::AppDescriptor;
use crate::strategy::ExecutionConfig;
use hetero_runtime::{JournalError, JournalSink, RunReport, RunSpec, SnapshotObserver};

/// The strategy label streamed snapshots are tagged with, matching the
/// label `matchmake run`/`resume` use for journaled metrics exports.
pub const STREAM_STRATEGY_LABEL: &str = "journaled";

impl Analyzer<'_> {
    /// Simulate `spec` with a streaming [`SnapshotObserver`] attached.
    /// Returns the final report and the observer, whose
    /// [`stream()`](SnapshotObserver::stream) holds one `EpochSnapshot`
    /// JSON line per committed barrier (plus the run-end line) and whose
    /// [`registry()`](SnapshotObserver::registry) holds the cumulative
    /// end-of-run metrics.
    pub fn simulate_streamed(
        &self,
        desc: &AppDescriptor,
        config: ExecutionConfig,
        spec: &RunSpec,
    ) -> Result<(RunReport, SnapshotObserver), JournalError> {
        let mut obs = SnapshotObserver::new(self.planner().platform, STREAM_STRATEGY_LABEL);
        let report = self.run(
            desc,
            config,
            spec,
            &mut obs,
            Some(&mut JournalSink::record()),
        )?;
        Ok((report, obs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::tests_support::toy_descriptor;
    use crate::descriptor::ExecutionFlow;
    use crate::strategy::Strategy;
    use hetero_platform::{DeviceId, FaultSchedule, Platform, SimTime};
    use hetero_runtime::fold_stream;

    fn desc() -> AppDescriptor {
        let mut d = toy_descriptor(2, ExecutionFlow::Sequence);
        d.buffers[0].items = 1 << 18;
        for k in &mut d.kernels {
            k.domain = 1 << 18;
        }
        d.sync.between_kernels = true;
        d
    }

    #[test]
    fn streamed_run_folds_back_to_its_registry() {
        let platform = Platform::test_small();
        let analyzer = Analyzer::new(&platform);
        let config = ExecutionConfig::Strategy(Strategy::SpVaried);
        let schedule = FaultSchedule::new(29).with_flaky(
            DeviceId(1),
            0.3,
            SimTime::ZERO,
            SimTime::from_millis(50),
        );
        let (report, obs) = analyzer
            .simulate_streamed(&desc(), config, &RunSpec::faulty(schedule))
            .expect("streamed run");
        assert!(!report.makespan.is_zero());
        assert!(obs.lines().len() >= 2, "per-epoch lines plus run-end line");
        let folded = fold_stream(&obs.stream()).expect("stream folds");
        assert_eq!(folded.to_json(), obs.registry().to_json());
    }

    #[test]
    fn live_sink_sees_every_line_in_order() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let platform = Platform::test_small();
        let analyzer = Analyzer::new(&platform);
        let config = ExecutionConfig::Strategy(Strategy::SpVaried);
        let seen: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
        let tap = seen.clone();
        let mut obs =
            SnapshotObserver::new(&platform, STREAM_STRATEGY_LABEL).with_sink(move |line| {
                tap.borrow_mut().push(line.to_string());
            });
        analyzer
            .run(&desc(), config, &RunSpec::plain(), &mut obs, None)
            .expect("streaming run");
        assert_eq!(*seen.borrow(), obs.lines());
    }
}
