//! Adaptive repartitioning: online imbalance detection, epoch rebalancing,
//! and static→dynamic strategy fallback under model misprediction.
//!
//! PRs 1–2 made the runtime survive fail-stop and gray *hardware*
//! failures, but the paper's static strategies (SP-Single/Unified/Varied)
//! still trust the Glinda profile blindly: a mispredicted partition — a
//! skewed profiling run ([`ProfilePerturb`]), mid-run performance drift
//! (`ThrottleRamp`) — silently inflates makespan with no mitigation. This
//! module closes the control loop, configured through [`AdaptConfig`]:
//!
//! 1. **Detect** — at every taskwait barrier the executor computes the
//!    per-device *busy-time skew* of the just-finished epoch
//!    (`(max − min) / max` over slot-normalised busy time of the devices
//!    that participated). A skew above [`AdaptConfig::skew_threshold`] for
//!    [`AdaptConfig::hysteresis`] consecutive barriers triggers the
//!    controller (hysteresis suppresses one-epoch noise).
//! 2. **Rebalance** — the remaining epochs' statically placed chunks are
//!    re-pinned over the live device set by the executor's one N-way
//!    rebalancer, the same one plan repair uses (a CPU+GPU platform is
//!    N = 2). Whole chunks move — region splits are baked into the plan,
//!    so the granularity is one chunk. Each chunk is priced on each device
//!    by the device model scaled by that device's calibration (observed
//!    over predicted execution time, the larger of the cumulative and the
//!    closing epoch's ratio), plus host round trips and migration, so a
//!    chunk is costed by its own kernel and its own work. Assignment is
//!    longest chunk first onto the earliest-finishing slot, because equal
//!    chunks run in waves over a device's slots, which a continuous item
//!    target cannot see. A no-regression guard keeps an epoch's placement
//!    unless the model predicts a clear improvement.
//! 3. **Escalate** — if [`AdaptConfig::max_resolves`] consecutive
//!    corrections still miss [`AdaptConfig::balance_target`], the static
//!    plan is abandoned for its dynamic sibling: remaining statically
//!    pinned tasks are handed to an internal DP-Perf scheduler seeded with
//!    the run's own observations (the Table I escalation SP-* → DP-Perf).
//!    After [`AdaptConfig::reinstate_after`] calm barriers the rebalanced
//!    static plan is reinstated, unless the rebalancer prices the next
//!    static epoch above the closing dynamic one.
//!
//! Every adaptation decision draws from a dedicated seeded SplitMix64
//! stream, so enabling adaptation never perturbs fault or health sampling
//! and identical seeds replay byte-identically. With adaptation disabled
//! (the [`Default`]) the executor's event sequence is byte-identical to
//! the resilient path. What happened is reported through [`AdaptReport`]
//! (`RunReport::adapt`).
//!
//! [`ProfilePerturb`]: hetero_platform::FaultEvent::ProfilePerturb

use serde::{Deserialize, Serialize};
use std::fmt;

/// Configuration for the adaptive repartitioning controller. The disabled
/// configuration ([`AdaptConfig::disabled`]) makes an adaptive run take
/// the exact event sequence of the resilient executor.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct AdaptConfig {
    /// Per-epoch busy-time skew `(max − min) / max` above which an epoch
    /// counts as imbalanced (in `(0, 1)`).
    pub skew_threshold: f64,
    /// Skew at or below which the controller considers the run balanced
    /// again; must be ≤ `skew_threshold` (the gap is the hysteresis band).
    pub balance_target: f64,
    /// Consecutive imbalanced barriers required before the controller
    /// acts (≥ 1; higher values suppress one-epoch noise).
    pub hysteresis: u32,
    /// Consecutive corrections allowed to miss `balance_target` before
    /// the static plan escalates to its dynamic sibling (≥ 1).
    pub max_resolves: u32,
    /// Rebalance the remaining epochs' chunks on imbalance (`false`
    /// observes skew for the report without correcting).
    pub repartition: bool,
    /// Escalate SP-* → DP-Perf when corrections are exhausted.
    pub escalation: bool,
    /// Consecutive *calm* barriers (skew at or below `balance_target`,
    /// no open fault window) an escalated run must observe before the
    /// static plan is reinstated (DP-Perf → SP-* de-escalation). `0`
    /// disables de-escalation: once escalated, the run stays dynamic.
    pub reinstate_after: u32,
}

impl AdaptConfig {
    /// Everything off: byte-identical to the resilient executor.
    pub fn disabled() -> Self {
        AdaptConfig {
            skew_threshold: 0.25,
            balance_target: 0.10,
            hysteresis: 1,
            max_resolves: 2,
            repartition: false,
            escalation: false,
            reinstate_after: 0,
        }
    }

    /// Full adaptation with default thresholds: repartition at 25% skew
    /// after one imbalanced barrier, escalate to DP-Perf after two
    /// consecutive corrections that miss the 10% balance target, and
    /// reinstate the static plan after two consecutive calm barriers.
    pub fn enabled_default() -> Self {
        AdaptConfig {
            repartition: true,
            escalation: true,
            reinstate_after: 2,
            ..AdaptConfig::disabled()
        }
    }

    /// `true` when any mitigation (repartitioning, escalation) is on.
    pub fn enabled(&self) -> bool {
        self.repartition || self.escalation
    }

    /// Check internal consistency: thresholds in `(0, 1)`, target ≤
    /// threshold, counters ≥ 1.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.skew_threshold > 0.0 && self.skew_threshold < 1.0) {
            return Err(format!(
                "skew_threshold {} outside (0, 1)",
                self.skew_threshold
            ));
        }
        if !(self.balance_target > 0.0 && self.balance_target < 1.0) {
            return Err(format!(
                "balance_target {} outside (0, 1)",
                self.balance_target
            ));
        }
        if self.balance_target > self.skew_threshold {
            return Err(format!(
                "balance_target {} exceeds skew_threshold {} (inverted hysteresis band)",
                self.balance_target, self.skew_threshold
            ));
        }
        if self.hysteresis == 0 {
            return Err("hysteresis must be >= 1".into());
        }
        if self.max_resolves == 0 {
            return Err("max_resolves must be >= 1".into());
        }
        Ok(())
    }
}

impl Default for AdaptConfig {
    fn default() -> Self {
        AdaptConfig::disabled()
    }
}

/// The marker that an adaptive run's static plan may be rebalanced.
/// Produced by the planner (`matchmaker::Planner::adapt_plan`) for static
/// hybrid strategies; carrying one is what lets barrier repartitioning
/// re-pin the plan's chunks and an escalated run reinstate the plan.
/// Dynamic strategies and single-device baselines run without one (they
/// can still escalate, but never de-escalate).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdaptPlan;

/// Configuration of the degraded-mode plan-repair subsystem: survivor
/// re-planning when a device permanently dies (dropout past the retry
/// budget) or is quarantined by the circuit breaker, plus the symmetric
/// healing re-plan when a quarantined device recloses. The disabled
/// configuration keeps every executor path byte-identical to the
/// repair-less runtime.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ReplanConfig {
    /// Master switch: `false` disables every repair hook.
    pub enabled: bool,
    /// Upper bound on applied survivor re-plans (death + quarantine) per
    /// run; the attempt past the budget records
    /// [`ReplanError::BudgetExhausted`].
    pub max_replans: u32,
    /// Re-plan symmetrically when a quarantined device recloses
    /// (its probe passes), readmitting it into the split.
    pub heal_on_reclose: bool,
}

impl ReplanConfig {
    /// Everything off: byte-identical to the repair-less executor.
    pub fn disabled() -> Self {
        ReplanConfig {
            enabled: false,
            max_replans: 0,
            heal_on_reclose: false,
        }
    }

    /// Repair on with defaults: up to 4 survivor re-plans per run and
    /// healing readmission on breaker reclose.
    pub fn enabled_default() -> Self {
        ReplanConfig {
            enabled: true,
            max_replans: 4,
            heal_on_reclose: true,
        }
    }

    /// `true` when the repair subsystem is active.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Check internal consistency: an enabled config needs a budget.
    pub fn validate(&self) -> Result<(), String> {
        if self.enabled && self.max_replans == 0 {
            return Err("enabled replan config needs max_replans >= 1".into());
        }
        Ok(())
    }
}

impl Default for ReplanConfig {
    fn default() -> Self {
        ReplanConfig::disabled()
    }
}

/// Why a survivor re-plan could not be produced. Recorded in
/// [`AdaptReport::replan_error`] by the executor (which then degrades to
/// chunk-by-chunk host failover) and propagated as a hard error by
/// `Analyzer::simulate_repairing` and `matchmake compare --replan`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplanError {
    /// Every device — host included — is dead or quarantined; there is no
    /// survivor set to re-solve over.
    NoSurvivingAccelerator,
    /// [`ReplanConfig::max_replans`] applied repairs were already spent.
    BudgetExhausted {
        /// The configured budget that was exhausted.
        max_replans: u32,
    },
}

impl fmt::Display for ReplanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplanError::NoSurvivingAccelerator => {
                write!(f, "no surviving device to re-plan onto")
            }
            ReplanError::BudgetExhausted { max_replans } => {
                write!(f, "replan budget exhausted ({max_replans} allowed)")
            }
        }
    }
}

impl std::error::Error for ReplanError {}

/// What the adaptive controller observed and did during one run (all
/// zeros for a balanced run or with adaptation disabled). Reported
/// through `RunReport::adapt`.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct AdaptReport {
    /// Taskwait barriers at which the controller observed epoch skew.
    pub barriers_observed: u64,
    /// Barriers whose skew exceeded the threshold (pre-hysteresis).
    pub imbalances_detected: u64,
    /// Rebalances that changed the placement of remaining epochs.
    pub repartitions: u64,
    /// Data items moved between devices by repartitioning.
    pub items_moved: u64,
    /// `true` once the static plan escalated to its dynamic sibling.
    pub escalated: bool,
    /// Epoch index at whose barrier escalation happened.
    pub escalated_at_epoch: Option<usize>,
    /// Tasks bound by the escalated DP-Perf scheduler.
    pub escalated_tasks: u64,
    /// `true` once an escalated run returned to its static plan.
    pub reinstated: bool,
    /// Epoch index at whose barrier the static plan was reinstated.
    pub reinstated_at_epoch: Option<usize>,
    /// Largest per-epoch skew observed.
    pub max_skew: f64,
    /// Skew of the last epoch that had ≥ 2 participating devices.
    pub final_skew: f64,
    /// Survivor re-plans applied after a device death or quarantine.
    pub replans: u64,
    /// Healing re-plans that readmitted a reclosed device.
    pub readmissions: u64,
    /// Why the last repair attempt failed, if any did; the executor falls
    /// back to chunk-by-chunk host failover after recording this.
    pub replan_error: Option<ReplanError>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_config_is_inert_and_valid() {
        let c = AdaptConfig::disabled();
        assert!(!c.enabled());
        assert!(c.validate().is_ok());
        assert_eq!(c, AdaptConfig::default());
    }

    #[test]
    fn enabled_config_is_enabled_and_valid() {
        let c = AdaptConfig::enabled_default();
        assert!(c.enabled());
        assert!(c.validate().is_ok());
        assert!(c.repartition);
        assert!(c.escalation);
    }

    #[test]
    fn validate_rejects_bad_parameters() {
        let mut c = AdaptConfig::enabled_default();
        c.skew_threshold = 0.0;
        assert!(c.validate().is_err());

        let mut c = AdaptConfig::enabled_default();
        c.balance_target = 1.5;
        assert!(c.validate().is_err());

        let mut c = AdaptConfig::enabled_default();
        c.balance_target = 0.5;
        c.skew_threshold = 0.25;
        assert!(c.validate().is_err());

        let mut c = AdaptConfig::enabled_default();
        c.hysteresis = 0;
        assert!(c.validate().is_err());

        let mut c = AdaptConfig::enabled_default();
        c.max_resolves = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn report_defaults_are_zero() {
        let r = AdaptReport::default();
        assert_eq!(r.barriers_observed, 0);
        assert_eq!(r.repartitions, 0);
        assert!(!r.escalated);
        assert_eq!(r.escalated_at_epoch, None);
        assert!(!r.reinstated);
        assert_eq!(r.reinstated_at_epoch, None);
        assert_eq!(r.max_skew, 0.0);
    }

    #[test]
    fn replan_config_defaults_and_validation() {
        let off = ReplanConfig::disabled();
        assert!(!off.enabled());
        assert!(off.validate().is_ok());
        assert_eq!(off, ReplanConfig::default());

        let on = ReplanConfig::enabled_default();
        assert!(on.enabled());
        assert!(on.heal_on_reclose);
        assert!(on.validate().is_ok());

        let mut bad = ReplanConfig::enabled_default();
        bad.max_replans = 0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn replan_error_displays_are_descriptive() {
        assert!(ReplanError::NoSurvivingAccelerator
            .to_string()
            .contains("no surviving"));
        let e = ReplanError::BudgetExhausted { max_replans: 4 };
        assert!(e.to_string().contains('4'));
    }

    #[test]
    fn report_replan_fields_default_to_zero() {
        let r = AdaptReport::default();
        assert_eq!(r.replans, 0);
        assert_eq!(r.readmissions, 0);
        assert_eq!(r.replan_error, None);
    }

    #[test]
    fn de_escalation_defaults() {
        // Disabled config never reinstates; the enabled default waits for
        // two calm barriers.
        assert_eq!(AdaptConfig::disabled().reinstate_after, 0);
        assert_eq!(AdaptConfig::enabled_default().reinstate_after, 2);
        assert!(AdaptConfig::enabled_default().validate().is_ok());
    }
}
