//! Robustness-aware strategy ranking.
//!
//! The paper's matchmaker ranks strategies by *healthy* performance
//! (Table I). On a platform that misbehaves mid-run — a throttled GPU, a
//! flaky PCIe link, an accelerator that drops out — the best healthy
//! strategy is not necessarily the best survivor: a static plan that
//! pinned everything to the dead device pays a full failover storm, while
//! a dynamic policy reroutes around it. This module replays every
//! candidate configuration under a [`FaultSchedule`] and ranks them by
//! **degradation** — faulty makespan over healthy makespan — so the
//! matchmaker can also answer "which strategy loses the least when the
//! platform fails?".

use crate::analyzer::{Analyzer, UNJOURNALED};
use crate::descriptor::AppDescriptor;
use crate::plan::Planner;
use crate::strategy::ExecutionConfig;
use hetero_platform::{FaultSchedule, FaultTrace, RetryPolicy, SimTime};
use hetero_runtime::{
    AdaptConfig, HealthConfig, NullObserver, ReplanConfig, ReplanError, RunReport, RunSpec,
};

/// One configuration's healthy/faulty pair from [`Analyzer::rank_by_degradation`].
#[derive(Clone, Debug)]
pub struct DegradationEntry {
    /// The execution configuration that was replayed.
    pub config: ExecutionConfig,
    /// Its fault-free run.
    pub healthy: RunReport,
    /// The same plan under the fault schedule.
    pub faulty: RunReport,
}

impl DegradationEntry {
    /// Faulty makespan over healthy makespan (1.0 = faults cost nothing).
    pub fn degradation(&self) -> f64 {
        self.faulty.degradation_vs(&self.healthy)
    }

    /// Slot time the faulty run burnt on fault handling and mitigation,
    /// summed over devices: fault loss + hedge waste + rollback + verify
    /// (from the faulty run's blame breakdown).
    pub fn resilience_overhead(&self) -> SimTime {
        self.faulty
            .breakdown
            .per_device
            .iter()
            .map(|b| b.resilience_overhead())
            .sum()
    }
}

impl<'a> Analyzer<'a> {
    /// [`Analyzer::simulate`] under a fault schedule: the same plan, the
    /// same scheduler dispatch, executed resiliently (DP-Perf warms up
    /// under the faults too, so its learned rates see the sick platform).
    pub fn simulate_faulty(
        &self,
        desc: &AppDescriptor,
        config: ExecutionConfig,
        schedule: &FaultSchedule,
        policy: RetryPolicy,
    ) -> RunReport {
        let spec = RunSpec {
            policy,
            ..RunSpec::faulty(schedule.clone())
        };
        self.run(desc, config, &spec, &mut NullObserver, None)
            .expect(UNJOURNALED)
    }

    /// [`Analyzer::simulate_faulty`] with the gray-failure resilience
    /// subsystem configured by `health` (straggler hedging, SDC
    /// verification, circuit breaker). With [`HealthConfig::disabled`]
    /// this is exactly [`Analyzer::simulate_faulty`].
    pub fn simulate_resilient(
        &self,
        desc: &AppDescriptor,
        config: ExecutionConfig,
        schedule: &FaultSchedule,
        policy: RetryPolicy,
        health: &HealthConfig,
    ) -> RunReport {
        let spec = RunSpec {
            policy,
            ..RunSpec::resilient(schedule.clone(), *health)
        };
        self.run(desc, config, &spec, &mut NullObserver, None)
            .expect(UNJOURNALED)
    }

    /// Run `config` under `schedule` and record the run's *effective*
    /// fault trace: the input schedule plus every event synthesized
    /// during the run by correlated fault domains.
    /// [`FaultTrace::replay_schedule`] turns the result into a plain
    /// schedule — triggers baked in as ordinary windowed events,
    /// conditional triggering disabled — that replays this run
    /// byte-identically, and the trace's JSON form
    /// ([`FaultTrace::to_json`]) can be archived or handed back to
    /// [`Analyzer::rank_by_degradation`] as a what-if.
    pub fn record_fault_trace(
        &self,
        desc: &AppDescriptor,
        config: ExecutionConfig,
        schedule: &FaultSchedule,
        policy: RetryPolicy,
    ) -> (RunReport, FaultTrace) {
        let report = self.simulate_faulty(desc, config, schedule, policy);
        let trace = FaultTrace::new(schedule.clone(), report.synthesized_faults.clone());
        (report, trace)
    }

    /// [`Analyzer::simulate_resilient`] with the adaptive-repartitioning
    /// controller in the loop — the full planner-in-the-loop pipeline:
    ///
    /// 1. the plan is built by a planner whose profiled rates are skewed
    ///    by the schedule's `ProfilePerturb` windows open at time zero
    ///    (the planner "profiled" the perturbed platform and baked the
    ///    misprediction into the plan; execution runs at true rates);
    /// 2. for static hybrid strategies the [`hetero_runtime::AdaptPlan`]
    ///    rides along so the controller can rebalance the plan's chunks at
    ///    taskwait barriers and, when corrections are exhausted, escalate
    ///    to the strategy's dynamic sibling (`Strategy::dynamic_sibling`,
    ///    SP-* → DP-Perf).
    ///
    /// With [`AdaptConfig::disabled`] this reproduces the *mispredicted
    /// baseline*: the same skewed plan executed with no mitigation.
    pub fn simulate_adaptive(
        &self,
        desc: &AppDescriptor,
        config: ExecutionConfig,
        schedule: &FaultSchedule,
        policy: RetryPolicy,
        health: &HealthConfig,
        adapt: &AdaptConfig,
    ) -> RunReport {
        let spec = RunSpec {
            policy,
            ..RunSpec::adaptive(schedule.clone(), *health, *adapt)
        };
        self.run(desc, config, &spec, &mut NullObserver, None)
            .expect(UNJOURNALED)
    }

    /// [`Analyzer::simulate_adaptive`] with degraded-mode plan repair
    /// armed: when a device dies past its retry budget or the circuit
    /// breaker quarantines it, the executor rebalances the remaining
    /// chunks over the surviving device set and rebinds the queued ones
    /// wave-aware, instead of leaning on naive chunk-by-chunk host
    /// failover. See DESIGN.md §8.6.
    ///
    /// Returns [`ReplanError`] when the repair subsystem had to give up:
    /// no surviving device, re-solve infeasible, or the
    /// [`ReplanConfig::max_replans`] budget exhausted mid-run.
    #[allow(clippy::too_many_arguments)]
    pub fn simulate_repairing(
        &self,
        desc: &AppDescriptor,
        config: ExecutionConfig,
        schedule: &FaultSchedule,
        policy: RetryPolicy,
        health: &HealthConfig,
        adapt: &AdaptConfig,
        replan: &ReplanConfig,
    ) -> Result<RunReport, ReplanError> {
        let spec = RunSpec {
            policy,
            ..RunSpec::repairing(schedule.clone(), *health, *adapt, *replan)
        };
        let report = self
            .run(desc, config, &spec, &mut NullObserver, None)
            .expect(UNJOURNALED);
        report.adapt.replan_error.clone().map_or(Ok(report), Err)
    }

    /// A planner that saw the perturbed platform while profiling: every
    /// device's profiled rate is scaled by the schedule's
    /// [`FaultSchedule::profile_factor`] at time zero (planning precedes
    /// the run). With no `ProfilePerturb` events this is the analyzer's
    /// own planner, unchanged.
    pub(crate) fn misprediction_planner(&self, schedule: &FaultSchedule) -> Planner<'a> {
        let p = self.planner();
        let cpu = schedule.profile_factor(p.platform.cpu().id, SimTime::ZERO);
        let gpu = p
            .platform
            .gpu()
            .map(|g| schedule.profile_factor(g.id, SimTime::ZERO))
            .unwrap_or(1.0);
        Planner {
            platform: p.platform,
            instances_per_kernel: p.instances_per_kernel,
            dynamic_instances_per_kernel: p.dynamic_instances_per_kernel,
            decision: p.decision,
            profile_skew: (p.profile_skew.0 * cpu, p.profile_skew.1 * gpu),
            profiles: p.profiles.clone(),
        }
    }

    /// Replay the §IV comparison ([`Analyzer::candidates`]) healthy and as
    /// `spec` describes, and return the entries sorted by
    /// [`DegradationEntry::degradation`], most robust first. Ties (and
    /// everything else) stay in Table I order, so the ranking is
    /// deterministic.
    ///
    /// A faulty spec asks which strategy loses the least when the platform
    /// fails; a resilient one puts gray-failure mitigation in the loop,
    /// answering whether mitigation changes the answer. An adaptive spec
    /// replays every candidate with the schedule's misprediction applied to
    /// its plan *and* the controller fighting back, while the healthy
    /// baseline stays the faithful (unskewed) plan — so degradation
    /// measures the full cost of the misprediction net of whatever the
    /// controller recovered.
    ///
    /// # Panics
    ///
    /// If a faulty `spec` carries no schedule.
    pub fn rank_by_degradation(
        &self,
        desc: &AppDescriptor,
        spec: &RunSpec,
    ) -> Vec<DegradationEntry> {
        let mut entries: Vec<DegradationEntry> = self
            .candidates(desc)
            .into_iter()
            .map(|config| DegradationEntry {
                config,
                healthy: self.simulate(desc, config),
                faulty: self
                    .run(desc, config, spec, &mut NullObserver, None)
                    .expect(UNJOURNALED),
            })
            .collect();
        entries.sort_by(|a, b| {
            a.degradation()
                .partial_cmp(&b.degradation())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::{
        AccessPattern, AppDescriptor, BufferSpec, ExecutionFlow, KernelSpec, SyncPolicy,
    };
    use hetero_platform::{DeviceId, Efficiency, KernelProfile, Platform, Precision, SimTime};
    use hetero_runtime::AccessMode;

    fn app() -> AppDescriptor {
        let n = 1u64 << 18;
        AppDescriptor {
            name: "robust".into(),
            buffers: vec![BufferSpec {
                name: "data".into(),
                items: n,
                item_bytes: 8,
            }],
            kernels: vec![KernelSpec {
                name: "kernel".into(),
                profile: KernelProfile {
                    flops_per_item: 65536.0,
                    bytes_per_item: 8.0,
                    fixed_flops: 0.0,
                    fixed_bytes: 0.0,
                    precision: Precision::Single,
                    cpu_efficiency: Efficiency {
                        compute: 0.25,
                        bandwidth: 0.6,
                    },
                    gpu_efficiency: Efficiency {
                        compute: 0.35,
                        bandwidth: 0.7,
                    },
                },
                domain: n,
                accesses: vec![AccessPattern::part(0, AccessMode::InOut)],
                weights: None,
            }],
            flow: ExecutionFlow::Sequence,
            sync: SyncPolicy {
                between_kernels: false,
                between_iterations: false,
            },
        }
    }

    #[test]
    fn healthy_schedule_means_no_degradation() {
        let platform = Platform::test_small();
        let analyzer = Analyzer::new(&platform);
        let schedule = FaultSchedule::new(1);
        let entries = analyzer.rank_by_degradation(&app(), &RunSpec::faulty(schedule));
        assert!(!entries.is_empty());
        for e in &entries {
            assert!(
                (e.degradation() - 1.0).abs() < 1e-9,
                "{}: empty schedule must not degrade (got {})",
                e.config,
                e.degradation()
            );
        }
    }

    #[test]
    fn gray_schedule_ranks_with_mitigation_in_the_loop() {
        let platform = Platform::test_small();
        let analyzer = Analyzer::new(&platform);
        // The GPU goes gray (4x straggler) for the whole run.
        let schedule = FaultSchedule::new(21).with_throttle(
            DeviceId(1),
            SimTime::ZERO,
            SimTime::from_millis(1),
            4.0,
            4.0,
        );
        let plain = analyzer.rank_by_degradation(&app(), &RunSpec::faulty(schedule.clone()));
        let spec = RunSpec::resilient(schedule, HealthConfig::monitored());
        let mitigated = analyzer.rank_by_degradation(&app(), &spec);
        assert_eq!(plain.len(), mitigated.len());
        // Only-CPU never touches the gray device either way.
        assert_eq!(plain[0].config, ExecutionConfig::OnlyCpu);
        assert_eq!(mitigated[0].config, ExecutionConfig::OnlyCpu);
        // The mitigated replay is deterministic.
        let again = analyzer.rank_by_degradation(&app(), &spec);
        for (a, b) in mitigated.iter().zip(&again) {
            assert_eq!(a.faulty.makespan, b.faulty.makespan);
        }
    }

    #[test]
    fn gpu_dropout_ranks_cpu_baseline_as_most_robust() {
        let platform = Platform::test_small();
        let analyzer = Analyzer::new(&platform);
        // The GPU dies almost immediately: anything that leaned on it
        // degrades; Only-CPU never notices.
        let schedule = FaultSchedule::new(3).with_dropout(DeviceId(1), SimTime::from_micros(50));
        let entries = analyzer.rank_by_degradation(&app(), &RunSpec::faulty(schedule));
        let best = &entries[0];
        assert_eq!(best.config, ExecutionConfig::OnlyCpu);
        assert!((best.degradation() - 1.0).abs() < 1e-9);
        // Everything that used the GPU degraded strictly.
        let worst = entries.last().unwrap();
        assert!(worst.degradation() > 1.0);
    }
}
