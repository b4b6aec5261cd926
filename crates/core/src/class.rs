//! Application classification by kernel structure (§III-B of the paper).
//!
//! Two criteria — the number of kernels and the type of kernel execution
//! flow (sequence / loop / DAG) — classify every data-parallel application
//! into one of five classes. The paper's survey of five benchmark suites
//! (86 applications, tech. report PDS-2015-001) found these five classes
//! cover all of them; the `hetero-apps` crate reproduces that coverage
//! study on a synthetic corpus.

use crate::descriptor::{AppDescriptor, ExecutionFlow};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The five application classes of Figure 3.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum AppClass {
    /// Class I — a single kernel, executed once.
    SkOne,
    /// Class II — a single kernel iterated in a loop.
    SkLoop,
    /// Class III — multiple different kernels in a sequence.
    MkSeq,
    /// Class IV — a multi-kernel sequence iterated in a loop.
    MkLoop,
    /// Class V — multiple kernels whose execution forms a DAG.
    MkDag,
}

impl AppClass {
    /// All five classes, in paper order.
    pub const ALL: [AppClass; 5] = [
        AppClass::SkOne,
        AppClass::SkLoop,
        AppClass::MkSeq,
        AppClass::MkLoop,
        AppClass::MkDag,
    ];

    /// The paper's Roman-numeral label.
    pub fn number(self) -> &'static str {
        match self {
            AppClass::SkOne => "I",
            AppClass::SkLoop => "II",
            AppClass::MkSeq => "III",
            AppClass::MkLoop => "IV",
            AppClass::MkDag => "V",
        }
    }
}

impl fmt::Display for AppClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            AppClass::SkOne => "SK-One",
            AppClass::SkLoop => "SK-Loop",
            AppClass::MkSeq => "MK-Seq",
            AppClass::MkLoop => "MK-Loop",
            AppClass::MkDag => "MK-DAG",
        };
        write!(f, "{name}")
    }
}

/// Classify an application by its kernel structure.
///
/// Rules (paper §III-B):
/// * one kernel, straight-line → SK-One; one kernel in a loop → SK-Loop;
/// * multiple kernels in a sequence → MK-Seq; iterated → MK-Loop;
/// * a DAG flow → MK-DAG (a "DAG" over a single kernel degenerates to
///   SK-One — there is nothing dynamic to schedule between kernels);
/// * inner loops around *individual* kernels of a multi-kernel app unfold
///   and do not change the class (the paper's note on Classes III–V).
pub fn classify(desc: &AppDescriptor) -> AppClass {
    let nk = desc.kernels.len();
    assert!(nk > 0, "application has no kernels");
    match (&desc.flow, nk) {
        (ExecutionFlow::Sequence, 1) => AppClass::SkOne,
        (ExecutionFlow::Loop { .. }, 1) => AppClass::SkLoop,
        (ExecutionFlow::Sequence, _) => AppClass::MkSeq,
        (ExecutionFlow::Loop { .. }, _) => AppClass::MkLoop,
        (ExecutionFlow::Dag { .. }, 1) => AppClass::SkOne,
        (ExecutionFlow::Dag { .. }, _) => AppClass::MkDag,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::tests_support::toy_descriptor;

    #[test]
    fn classification_rules() {
        assert_eq!(
            classify(&toy_descriptor(1, ExecutionFlow::Sequence)),
            AppClass::SkOne
        );
        assert_eq!(
            classify(&toy_descriptor(1, ExecutionFlow::Loop { iterations: 5 })),
            AppClass::SkLoop
        );
        assert_eq!(
            classify(&toy_descriptor(3, ExecutionFlow::Sequence)),
            AppClass::MkSeq
        );
        assert_eq!(
            classify(&toy_descriptor(4, ExecutionFlow::Loop { iterations: 2 })),
            AppClass::MkLoop
        );
        assert_eq!(
            classify(&toy_descriptor(
                3,
                ExecutionFlow::Dag {
                    edges: vec![(0, 1), (0, 2)]
                }
            )),
            AppClass::MkDag
        );
    }

    #[test]
    fn single_kernel_dag_degenerates() {
        assert_eq!(
            classify(&toy_descriptor(1, ExecutionFlow::Dag { edges: vec![] })),
            AppClass::SkOne
        );
    }

    #[test]
    fn class_metadata() {
        assert_eq!(AppClass::SkLoop.number(), "II");
        assert_eq!(AppClass::MkDag.to_string(), "MK-DAG");
        assert_eq!(AppClass::ALL.len(), 5);
    }
}
