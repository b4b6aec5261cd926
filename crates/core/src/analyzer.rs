//! The application analyzer (Fig. 2 of the paper).
//!
//! Input: an application descriptor (the "source code" view of the
//! parallelised application). Output: the application's class, the ranked
//! suitable strategies, the selected best strategy, and — on request — the
//! planned program and its simulated execution.

use crate::class::{classify, AppClass};
use crate::descriptor::AppDescriptor;
use crate::plan::{Plan, Planner};
use crate::ranking::{best_strategy, ranking, SyncMode};
use crate::strategy::{ExecutionConfig, Strategy};
use hetero_platform::Platform;
use hetero_runtime::{
    simulate_spec, DepScheduler, JournalError, JournalSink, NullObserver, Observer, PerfScheduler,
    PinnedScheduler, RunMode, RunReport, RunSpec, Scheduler,
};
use serde::{Deserialize, Serialize};

/// Why the `simulate*` shims may unwrap [`Analyzer::run`]: a run with no
/// journal attached and a schedule for every faulty mode cannot fail.
pub(crate) const UNJOURNALED: &str = "an unjournaled run with its schedule cannot fail";

/// The analyzer's verdict for one application.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Analysis {
    /// Application name.
    pub app: String,
    /// Detected class (Fig. 3).
    pub class: AppClass,
    /// Whether inter-kernel synchronisation is required.
    pub sync: SyncMode,
    /// Suitable strategies, best first (Table I).
    pub ranking: Vec<Strategy>,
    /// The selected strategy.
    pub best: Strategy,
}

/// The application analyzer, bound to a platform.
pub struct Analyzer<'a> {
    planner: Planner<'a>,
}

impl<'a> Analyzer<'a> {
    /// An analyzer with default planning parameters for `platform`.
    pub fn new(platform: &'a Platform) -> Self {
        Analyzer {
            planner: Planner::new(platform),
        }
    }

    /// Access the underlying planner (to tweak `m` or decision floors).
    pub fn planner_mut(&mut self) -> &mut Planner<'a> {
        &mut self.planner
    }

    /// The underlying planner.
    pub fn planner(&self) -> &Planner<'a> {
        &self.planner
    }

    /// Step 2–3 of Fig. 2: classify and select the best strategy.
    pub fn analyze(&self, desc: &AppDescriptor) -> Analysis {
        let class = classify(desc);
        let sync = SyncMode::from(desc.sync);
        Analysis {
            app: desc.name.clone(),
            class,
            sync,
            ranking: ranking(class, sync),
            best: best_strategy(class, sync),
        }
    }

    /// [`Analyzer::analyze`] with MK-DAG refinement (the paper's §VII
    /// future work, implemented in [`crate::dag`]): chain-shaped DAGs are
    /// reclassified as MK-Seq, unlocking the static strategies for them.
    pub fn analyze_refined(&self, desc: &AppDescriptor) -> Analysis {
        let class = crate::dag::refine_class(desc);
        let sync = SyncMode::from(desc.sync);
        Analysis {
            app: desc.name.clone(),
            class,
            sync,
            ranking: ranking(class, sync),
            best: best_strategy(class, sync),
        }
    }

    /// Step 4: plan a program for an execution configuration.
    pub fn plan(&self, desc: &AppDescriptor, config: ExecutionConfig) -> Plan {
        self.planner.plan(desc, config)
    }

    /// Step 5: plan and run one configuration as `spec` describes — the
    /// one place a run is assembled.
    ///
    /// * **Planner.** Adaptive and repairing runs are planned by the
    ///   [misprediction planner](Analyzer::simulate_adaptive), which profiled
    ///   the platform under the schedule's `ProfilePerturb` windows; every
    ///   other mode uses the analyzer's own planner.
    /// * **Scheduler.** DP-Dep and DP-Perf get their dynamic schedulers,
    ///   everything else is pinned. DP-Perf first runs the paper's
    ///   profiling warm-up ([`PerfScheduler::warmed`]), unobserved and
    ///   unjournaled; it is excluded from the report and from `obs`.
    /// * **Journal.** With `journal` attached, the header — descriptor,
    ///   platform, config and spec serialized as named inputs — is written
    ///   before the first event, so the journal is self-contained and
    ///   [`Analyzer::resume`] can rebuild the run from it alone.
    ///
    /// Returns [`JournalError::Killed`] when the sink's kill schedule fires
    /// (the journal text accumulated so far is valid and resumable), and
    /// [`JournalError::HeaderMismatch`] for a faulty mode without a
    /// schedule. An unjournaled run with its schedule never fails. A
    /// repairing run that gave up reports through
    /// `RunReport::adapt.replan_error`.
    pub fn run(
        &self,
        desc: &AppDescriptor,
        config: ExecutionConfig,
        spec: &RunSpec,
        obs: &mut dyn Observer,
        mut journal: Option<&mut JournalSink>,
    ) -> Result<RunReport, JournalError> {
        if let Some(sink) = journal.as_deref_mut() {
            sink.begin(&self.journal_header(desc, config, spec))?;
        }
        let mispredicted = match spec.mode {
            RunMode::Adaptive | RunMode::Repairing => {
                Some(self.misprediction_planner(spec.require_schedule()?))
            }
            _ => None,
        };
        let planner = mispredicted.as_ref().unwrap_or(&self.planner);
        let plan = planner.plan(desc, config);
        let platform = planner.platform;
        let (mut dep, mut perf, mut pinned);
        let scheduler: &mut dyn Scheduler = match config {
            ExecutionConfig::Strategy(Strategy::DpDep) => {
                dep = DepScheduler::new(platform);
                &mut dep
            }
            ExecutionConfig::Strategy(Strategy::DpPerf) => {
                perf = PerfScheduler::warmed(&plan.program, platform, spec);
                &mut perf
            }
            _ => {
                pinned = PinnedScheduler;
                &mut pinned
            }
        };
        // The controller rebalances the (mispredicted) static plan.
        let adapt_plan = mispredicted.and_then(|p| p.adapt_plan(desc, config));
        simulate_spec(
            &plan.program,
            platform,
            scheduler,
            spec,
            adapt_plan,
            obs,
            journal,
        )
    }

    /// Plan and simulate one configuration fault-free, using the scheduler
    /// the configuration calls for (DP-Perf runs with the paper's excluded
    /// profiling warm-up).
    pub fn simulate(&self, desc: &AppDescriptor, config: ExecutionConfig) -> RunReport {
        self.run(desc, config, &RunSpec::plain(), &mut NullObserver, None)
            .expect(UNJOURNALED)
    }

    /// Plan and simulate the analyzer-selected best strategy.
    pub fn run_best(&self, desc: &AppDescriptor) -> (Analysis, RunReport) {
        let analysis = self.analyze(desc);
        let report = self.simulate(desc, ExecutionConfig::Strategy(analysis.best));
        (analysis, report)
    }

    /// The configurations the paper's §IV experiment compares for one
    /// application: the two single-device baselines, then every suitable
    /// strategy in Table I rank order.
    pub fn candidates(&self, desc: &AppDescriptor) -> Vec<ExecutionConfig> {
        [ExecutionConfig::OnlyGpu, ExecutionConfig::OnlyCpu]
            .into_iter()
            .chain(
                self.analyze(desc)
                    .ranking
                    .into_iter()
                    .map(ExecutionConfig::Strategy),
            )
            .collect()
    }

    /// The paper's §IV experiment for one application: simulate every
    /// [candidate](Analyzer::candidates); returns `(config, report)` pairs
    /// with the baselines first and strategies in Table I rank order.
    pub fn compare_all(&self, desc: &AppDescriptor) -> Vec<(ExecutionConfig, RunReport)> {
        self.candidates(desc)
            .into_iter()
            .map(|config| (config, self.simulate(desc, config)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::tests_support::toy_descriptor;
    use crate::descriptor::ExecutionFlow;

    #[test]
    fn analysis_matches_table_i() {
        let platform = Platform::icpp15();
        let a = Analyzer::new(&platform);
        let d = toy_descriptor(1, ExecutionFlow::Sequence);
        let an = a.analyze(&d);
        assert_eq!(an.class, AppClass::SkOne);
        assert_eq!(an.best, Strategy::SpSingle);
        assert_eq!(an.ranking.len(), 3);
    }

    #[test]
    fn run_best_produces_a_report() {
        let platform = Platform::icpp15();
        let a = Analyzer::new(&platform);
        let mut d = toy_descriptor(1, ExecutionFlow::Sequence);
        // Make the kernel big enough for a hybrid split.
        d.buffers[0].items = 1 << 20;
        d.kernels[0].domain = 1 << 20;
        let (an, report) = a.run_best(&d);
        assert_eq!(an.best, Strategy::SpSingle);
        assert!(report.makespan > hetero_platform::SimTime::ZERO);
        assert_eq!(report.scheduler, "pinned");
    }

    #[test]
    fn a_faulty_spec_without_a_schedule_is_a_typed_error() {
        let platform = Platform::icpp15();
        let a = Analyzer::new(&platform);
        let d = toy_descriptor(1, ExecutionFlow::Sequence);
        let config = ExecutionConfig::Strategy(Strategy::DpPerf);
        for mode in [
            RunMode::Faulty,
            RunMode::Resilient,
            RunMode::Adaptive,
            RunMode::Repairing,
        ] {
            let spec = RunSpec {
                mode,
                ..RunSpec::plain()
            };
            let err = a
                .run(&d, config, &spec, &mut NullObserver, None)
                .unwrap_err();
            assert!(
                matches!(err, JournalError::HeaderMismatch { .. }),
                "{mode:?}: {err}"
            );
        }
    }

    #[test]
    fn compare_all_covers_baselines_and_ranking() {
        let platform = Platform::icpp15();
        let a = Analyzer::new(&platform);
        let mut d = toy_descriptor(1, ExecutionFlow::Sequence);
        d.buffers[0].items = 1 << 18;
        d.kernels[0].domain = 1 << 18;
        let results = a.compare_all(&d);
        assert_eq!(results.len(), 2 + 3); // OG, OC + 3 suitable strategies
        assert_eq!(results[0].0, ExecutionConfig::OnlyGpu);
        assert_eq!(results[1].0, ExecutionConfig::OnlyCpu);
        assert_eq!(results[2].0, ExecutionConfig::Strategy(Strategy::SpSingle));
    }
}
