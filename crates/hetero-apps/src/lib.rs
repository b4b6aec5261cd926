#![warn(missing_docs)]

//! # hetero-apps
//!
//! The evaluation applications of the ICPP'15 *matchmaking* paper
//! (Table II), each provided as:
//!
//! * a **descriptor** (`matchmaker::AppDescriptor`) with the paper's
//!   problem size and a calibrated workload profile (the per-application
//!   calibration rationale is documented in each module and in DESIGN.md);
//! * real, computing **host kernels** for native validation — partitioned
//!   execution must produce the same results as an unpartitioned run;
//! * deterministic **input initialisation** and a parallel reference
//!   implementation where a closed form exists.
//!
//! | Application | Class | Module |
//! |---|---|---|
//! | MatrixMul | SK-One | [`matrixmul`] |
//! | BlackScholes | SK-One | [`blackscholes`] |
//! | Nbody | SK-Loop | [`nbody`] |
//! | HotSpot | SK-Loop | [`hotspot`] |
//! | STREAM-Seq | MK-Seq | [`stream`] |
//! | STREAM-Loop | MK-Loop | [`stream`] |
//!
//! [`corpus`] reproduces the 86-application coverage study and [`synth`]
//! generates synthetic applications (including MK-DAG fork-joins).

pub mod binomial;
pub mod blackscholes;
pub mod corpus;
pub mod hotspot;
pub mod matrixmul;
pub mod nbody;
pub mod par;
pub mod stream;
pub mod synth;
pub mod trisolve;

use hetero_runtime::{run_native, ExecOrder, HostBuffers, KernelFn};
use matchmaker::{AppDescriptor, ExecutionConfig, Planner};

/// Plan `config` for `desc`, execute it natively against `init`'d host
/// buffers with the given kernels, and return a snapshot of every buffer.
/// Used by tests to prove that different partitioning strategies compute
/// identical results.
pub fn native_outputs(
    desc: &AppDescriptor,
    kernels: &[KernelFn<'_>],
    init: impl Fn(&HostBuffers),
    planner: &Planner<'_>,
    config: ExecutionConfig,
    order: ExecOrder,
) -> Vec<Vec<f32>> {
    let plan = planner.plan(desc, config);
    let hb = HostBuffers::for_program(&plan.program);
    init(&hb);
    run_native(&plan.program, kernels, &hb, order);
    (0..desc.buffers.len())
        .map(|b| hb.snapshot(hetero_runtime::BufferId(b)))
        .collect()
}

/// The six paper applications (Table II), in table order, at paper scale.
pub fn paper_apps() -> Vec<AppDescriptor> {
    vec![
        matrixmul::paper_descriptor(),
        blackscholes::paper_descriptor(),
        nbody::paper_descriptor(),
        hotspot::paper_descriptor(),
        stream::paper_seq(false),
        stream::paper_loop(false),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use matchmaker::{classify, AppClass};

    #[test]
    fn table_ii_classes() {
        let classes: Vec<AppClass> = paper_apps().iter().map(classify).collect();
        assert_eq!(
            classes,
            vec![
                AppClass::SkOne,
                AppClass::SkOne,
                AppClass::SkLoop,
                AppClass::SkLoop,
                AppClass::MkSeq,
                AppClass::MkLoop,
            ]
        );
    }

    #[test]
    fn all_paper_descriptors_validate() {
        for d in paper_apps() {
            d.validate().unwrap_or_else(|e| panic!("{}: {e}", d.name));
        }
    }
}
