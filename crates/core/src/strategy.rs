//! The five partitioning strategies (§III-C of the paper).

use crate::class::AppClass;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A partitioning strategy.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Strategy {
    /// **SP-Single** — static partitioning of a single kernel (Glinda):
    /// one GPU partition + the rest split over CPU threads. For SK-Loop
    /// the partitioning is computed for one iteration and reused.
    SpSingle,
    /// **SP-Unified** — all kernels regarded as one fused kernel with a
    /// single, unified partitioning point; no inter-kernel synchronisation,
    /// so each device keeps its data resident (one transfer in before the
    /// first kernel, one out after the last).
    SpUnified,
    /// **SP-Varied** — SP-Single applied kernel by kernel, giving each
    /// kernel its own partitioning point; requires a global synchronisation
    /// (and thus data transfers) between kernels.
    SpVaried,
    /// **DP-Dep** — dynamic partitioning, breadth-first scheduling with
    /// data-dependency-chain affinity; capability-blind.
    DpDep,
    /// **DP-Perf** — dynamic partitioning with a performance-aware
    /// scheduling policy (profiling warm-up + earliest-finisher).
    DpPerf,
}

impl Strategy {
    /// All five strategies.
    pub const ALL: [Strategy; 5] = [
        Strategy::SpSingle,
        Strategy::SpUnified,
        Strategy::SpVaried,
        Strategy::DpDep,
        Strategy::DpPerf,
    ];

    /// `true` for the static strategies.
    pub fn is_static(self) -> bool {
        matches!(
            self,
            Strategy::SpSingle | Strategy::SpUnified | Strategy::SpVaried
        )
    }

    /// `true` for the dynamic strategies.
    pub fn is_dynamic(self) -> bool {
        !self.is_static()
    }

    /// The dynamic strategy a static plan falls back to when adaptive
    /// corrections are exhausted: SP-* → DP-Perf (the performance-aware
    /// policy, which Table I ranks for *every* class, so the escalation is
    /// always legal — see `ranking::escalation_target`). Dynamic
    /// strategies are their own sibling.
    pub fn dynamic_sibling(self) -> Strategy {
        match self {
            Strategy::SpSingle | Strategy::SpUnified | Strategy::SpVaried => Strategy::DpPerf,
            dynamic => dynamic,
        }
    }

    /// Is this strategy *applicable* to an application class at all
    /// (independently of how well it ranks)?
    ///
    /// * SP-Single targets the single-kernel classes (for multi-kernel
    ///   applications it is subsumed by SP-Unified/SP-Varied);
    /// * SP-Unified and SP-Varied target the multi-kernel sequence/loop
    ///   classes;
    /// * the dynamic strategies apply everywhere;
    /// * MK-DAG admits only the dynamic strategies (§III-C: the flow is too
    ///   dynamic for a static split without adding synchronisation).
    pub fn applicable(self, class: AppClass) -> bool {
        use AppClass::*;
        use Strategy::*;
        match self {
            SpSingle => matches!(class, SkOne | SkLoop),
            SpUnified | SpVaried => matches!(class, MkSeq | MkLoop),
            DpDep | DpPerf => true,
        }
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Strategy::SpSingle => "SP-Single",
            Strategy::SpUnified => "SP-Unified",
            Strategy::SpVaried => "SP-Varied",
            Strategy::DpDep => "DP-Dep",
            Strategy::DpPerf => "DP-Perf",
        };
        write!(f, "{name}")
    }
}

/// How an application should be executed: one of the two single-device
/// baselines the paper compares against, one of the five strategies, or the
/// §V conversion that makes a dynamic runtime "behave like" a static plan.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum ExecutionConfig {
    /// OmpSs on the CPU only (the paper's Only-CPU baseline).
    OnlyCpu,
    /// OpenCL on the GPU only (the paper's Only-GPU baseline).
    OnlyGpu,
    /// One of the five partitioning strategies.
    Strategy(Strategy),
    /// §V: dynamic runtime with task counts converted from the static
    /// ratio — `k` instances pinned to the CPU, `l` to the GPU, all of
    /// equal size.
    ConvertedStatic,
}

impl fmt::Display for ExecutionConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecutionConfig::OnlyCpu => write!(f, "Only-CPU"),
            ExecutionConfig::OnlyGpu => write!(f, "Only-GPU"),
            ExecutionConfig::Strategy(s) => write!(f, "{s}"),
            ExecutionConfig::ConvertedStatic => write!(f, "Converted-Static"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_dynamic_split() {
        assert!(Strategy::SpSingle.is_static());
        assert!(Strategy::SpUnified.is_static());
        assert!(Strategy::SpVaried.is_static());
        assert!(Strategy::DpDep.is_dynamic());
        assert!(Strategy::DpPerf.is_dynamic());
    }

    #[test]
    fn dynamic_sibling_maps_static_to_dp_perf() {
        for s in Strategy::ALL {
            let sib = s.dynamic_sibling();
            assert!(sib.is_dynamic());
            if s.is_static() {
                assert_eq!(sib, Strategy::DpPerf);
            } else {
                assert_eq!(sib, s);
            }
        }
    }

    #[test]
    fn applicability_matrix() {
        use AppClass::*;
        use Strategy::*;
        for class in AppClass::ALL {
            assert!(DpDep.applicable(class));
            assert!(DpPerf.applicable(class));
        }
        assert!(SpSingle.applicable(SkOne));
        assert!(SpSingle.applicable(SkLoop));
        assert!(!SpSingle.applicable(MkSeq));
        assert!(SpUnified.applicable(MkSeq));
        assert!(SpUnified.applicable(MkLoop));
        assert!(!SpUnified.applicable(SkOne));
        assert!(!SpUnified.applicable(MkDag));
        assert!(SpVaried.applicable(MkLoop));
        assert!(!SpVaried.applicable(MkDag));
    }

    #[test]
    fn display_names_match_paper() {
        assert_eq!(Strategy::SpSingle.to_string(), "SP-Single");
        assert_eq!(Strategy::DpPerf.to_string(), "DP-Perf");
        assert_eq!(ExecutionConfig::OnlyGpu.to_string(), "Only-GPU");
        assert_eq!(
            ExecutionConfig::Strategy(Strategy::SpVaried).to_string(),
            "SP-Varied"
        );
    }
}
