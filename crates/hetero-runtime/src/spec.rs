//! The description of one run.
//!
//! A [`RunSpec`] names the executor path a run takes ([`RunMode`]) and
//! carries every configuration knob beyond the program, the platform and
//! the scheduler: the fault schedule, the retry budgets, and the health,
//! adaptation and repair configs. The mode declares which of those layers
//! execute — a faulty run ignores the spec's health config, an adaptive run
//! its repair config — so one spec type covers all five paths, and
//! [`crate::simulate_spec`] is the one executor entry point that takes it.
//!
//! The spec is also the journal header's `run` input: it serializes whole,
//! so a resumed run re-creates the exact executor configuration without any
//! side channel.

use crate::adapt::{AdaptConfig, ReplanConfig};
use crate::health::HealthConfig;
use crate::journal::JournalError;
use hetero_platform::{FaultSchedule, RetryPolicy};
use serde::{Deserialize, Serialize};

/// Which executor layers a run stacks, from fault-free execution up to the
/// full resilience stack. Each mode adds one layer to the one before.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunMode {
    /// Fault-free execution; the spec's schedule and configs are ignored.
    Plain,
    /// Fault injection with retries and failover, mitigation off.
    Faulty,
    /// Faults plus the gray-failure health subsystem.
    Resilient,
    /// Faults, health, and the adaptive-repartitioning controller. The
    /// analyzer plans an adaptive run with the schedule's profile
    /// misprediction applied, so with [`AdaptConfig::disabled`] this is the
    /// mispredicted baseline the controller is measured against.
    Adaptive,
    /// The full stack including degraded-mode plan repair.
    Repairing,
}

/// Everything beyond the program, platform and scheduler that shapes a
/// run. [`RunSpec::mode`] decides which of the other fields take effect.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunSpec {
    /// The executor path.
    pub mode: RunMode,
    /// The fault schedule (required for every mode but [`RunMode::Plain`]).
    pub schedule: Option<FaultSchedule>,
    /// Retry/failover budgets for the faulty paths.
    pub policy: RetryPolicy,
    /// Gray-failure mitigation ([`RunMode::Resilient`] and up; the faulty
    /// mode runs with it disabled regardless).
    pub health: HealthConfig,
    /// The adaptation controller ([`RunMode::Adaptive`] and up).
    pub adapt: AdaptConfig,
    /// Degraded-mode plan repair ([`RunMode::Repairing`] only).
    pub replan: ReplanConfig,
}

impl RunSpec {
    /// A fault-free run.
    pub fn plain() -> Self {
        RunSpec {
            mode: RunMode::Plain,
            schedule: None,
            policy: RetryPolicy::default(),
            health: HealthConfig::disabled(),
            adapt: AdaptConfig::disabled(),
            replan: ReplanConfig::disabled(),
        }
    }

    /// A faulty run under `schedule` with default retry budgets.
    pub fn faulty(schedule: FaultSchedule) -> Self {
        RunSpec {
            mode: RunMode::Faulty,
            schedule: Some(schedule),
            ..RunSpec::plain()
        }
    }

    /// A resilient run: `schedule` plus `health`.
    pub fn resilient(schedule: FaultSchedule, health: HealthConfig) -> Self {
        RunSpec {
            mode: RunMode::Resilient,
            schedule: Some(schedule),
            health,
            ..RunSpec::plain()
        }
    }

    /// An adaptive run: `schedule`, `health`, and the controller `adapt`.
    pub fn adaptive(schedule: FaultSchedule, health: HealthConfig, adapt: AdaptConfig) -> Self {
        RunSpec {
            mode: RunMode::Adaptive,
            schedule: Some(schedule),
            health,
            adapt,
            ..RunSpec::plain()
        }
    }

    /// A repairing run: the full stack.
    pub fn repairing(
        schedule: FaultSchedule,
        health: HealthConfig,
        adapt: AdaptConfig,
        replan: ReplanConfig,
    ) -> Self {
        RunSpec {
            mode: RunMode::Repairing,
            schedule: Some(schedule),
            health,
            adapt,
            replan,
            ..RunSpec::plain()
        }
    }

    /// The schedule, or a typed error for a mode that requires one.
    pub fn require_schedule(&self) -> Result<&FaultSchedule, JournalError> {
        self.schedule
            .as_ref()
            .ok_or_else(|| JournalError::HeaderMismatch {
                field: format!("run mode {:?} requires a fault schedule", self.mode),
            })
    }

    /// The fault layer: the schedule and retry policy, or `None` for a
    /// plain run.
    pub(crate) fn fault_layer(&self) -> Option<(&FaultSchedule, RetryPolicy)> {
        match self.mode {
            RunMode::Plain => None,
            _ => self.schedule.as_ref().map(|s| (s, self.policy)),
        }
    }

    /// The health config in force: the spec's from [`RunMode::Resilient`]
    /// up, disabled below.
    pub(crate) fn health_layer(&self) -> HealthConfig {
        match self.mode {
            RunMode::Plain | RunMode::Faulty => HealthConfig::disabled(),
            _ => self.health,
        }
    }

    /// The adaptation config in force: the spec's from
    /// [`RunMode::Adaptive`] up, disabled below.
    pub(crate) fn adapt_layer(&self) -> AdaptConfig {
        match self.mode {
            RunMode::Adaptive | RunMode::Repairing => self.adapt,
            _ => AdaptConfig::disabled(),
        }
    }

    /// The repair config in force: the spec's in [`RunMode::Repairing`],
    /// disabled otherwise.
    pub(crate) fn replan_layer(&self) -> ReplanConfig {
        match self.mode {
            RunMode::Repairing => self.replan,
            _ => ReplanConfig::disabled(),
        }
    }

    /// The spec of DP-Perf's profiling warm-up for this run: the schedule
    /// in its replayable form under the run's retry policy and health
    /// config, with no adaptation and no repair. A plain run warms up
    /// plain.
    pub(crate) fn warmup(&self) -> RunSpec {
        RunSpec {
            mode: match self.mode {
                RunMode::Plain | RunMode::Faulty => self.mode,
                _ => RunMode::Resilient,
            },
            schedule: self.schedule.as_ref().map(warmup_schedule),
            policy: self.policy,
            health: self.health,
            adapt: AdaptConfig::disabled(),
            replan: ReplanConfig::disabled(),
        }
    }
}

/// The schedule the DP-Perf warm-up pass runs under: the base events with
/// correlated triggering disabled and any replayed synthesized windows
/// stripped. The warm-up exists only to learn rates, and its synthesized
/// windows are not part of the recorded [`hetero_platform::FaultTrace`]
/// (only the measured run's are) — letting it trigger live would make the
/// learned rates, and therefore the whole run, impossible to replay. With
/// this form the warm-up is a pure function of the base schedule, so a
/// recorded run and its replay learn identical rates.
fn warmup_schedule(schedule: &FaultSchedule) -> FaultSchedule {
    let mut w = schedule.clone();
    if let Some(n) = w.synthesized_after.take() {
        w.events.truncate(n);
    }
    for d in &mut w.domains {
        d.trigger_prob = 0.0;
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_pick_the_right_mode() {
        let s = FaultSchedule::new(1);
        assert_eq!(RunSpec::plain().mode, RunMode::Plain);
        assert_eq!(RunSpec::faulty(s.clone()).mode, RunMode::Faulty);
        assert_eq!(
            RunSpec::resilient(s.clone(), HealthConfig::disabled()).mode,
            RunMode::Resilient
        );
        assert_eq!(
            RunSpec::adaptive(s.clone(), HealthConfig::disabled(), AdaptConfig::disabled()).mode,
            RunMode::Adaptive
        );
        let spec = RunSpec::repairing(
            s,
            HealthConfig::disabled(),
            AdaptConfig::disabled(),
            ReplanConfig::enabled_default(),
        );
        assert_eq!(spec.mode, RunMode::Repairing);
        // The spec round-trips through its header encoding.
        let back: RunSpec = serde_json::from_str(&serde_json::to_string(&spec).unwrap()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn the_mode_declares_the_layers() {
        let s = FaultSchedule::new(1);
        let (health, adapt, replan) = (
            HealthConfig::monitored(),
            AdaptConfig::enabled_default(),
            ReplanConfig::enabled_default(),
        );
        let mut spec = RunSpec::repairing(s, health, adapt, replan);
        let layers = |spec: &RunSpec| {
            (
                spec.fault_layer().is_some(),
                spec.health_layer().enabled(),
                spec.adapt_layer().enabled(),
                spec.replan_layer().enabled(),
            )
        };
        let expected = [
            (RunMode::Plain, (false, false, false, false)),
            (RunMode::Faulty, (true, false, false, false)),
            (RunMode::Resilient, (true, true, false, false)),
            (RunMode::Adaptive, (true, true, true, false)),
            (RunMode::Repairing, (true, true, true, true)),
        ];
        for (mode, want) in expected {
            spec.mode = mode;
            assert_eq!(layers(&spec), want, "{mode:?}");
        }
    }

    #[test]
    fn warmup_keeps_health_and_drops_the_controllers() {
        let mut s = FaultSchedule::new(1);
        s.synthesized_after = Some(0);
        let spec = RunSpec::repairing(
            s,
            HealthConfig::monitored(),
            AdaptConfig::enabled_default(),
            ReplanConfig::enabled_default(),
        );
        let warm = spec.warmup();
        assert_eq!(warm.mode, RunMode::Resilient);
        assert_eq!(warm.health, HealthConfig::monitored());
        assert!(!warm.adapt_layer().enabled() && !warm.replan_layer().enabled());
        assert_eq!(warm.schedule.unwrap().synthesized_after, None);
        assert_eq!(RunSpec::plain().warmup(), RunSpec::plain());
    }
}
