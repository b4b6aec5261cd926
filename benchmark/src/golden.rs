//! Golden outputs the workloads' correctness checks compare against.
//!
//! The simulator is deterministic, so a model output that moves is a real
//! behaviour change, never noise. `trajectory bless` rewrites these files;
//! do that only for an intended calibration change, as with
//! `docs/repro_output.txt`.

use serde::{Deserialize, Serialize};

/// One (variant, configuration) cell of the paper matrix.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MatrixCell {
    pub app: String,
    pub config: String,
    pub makespan_ns: u64,
}

/// The digest of one full pass of a service workload's request stream.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ServiceRun {
    pub workload: String,
    pub seed: u64,
    pub requests: u64,
    /// FNV-1a fold of every window's response digest, in order.
    pub digest: u64,
    pub served: u64,
    pub cached: u64,
    pub degraded: u64,
    pub shed: u64,
}

pub const MATRIX_FILE: &str = "golden/paper_matrix.json";
pub const SERVICE_FILE: &str = "golden/service.json";

pub fn matrix() -> Vec<MatrixCell> {
    serde_json::from_str(include_str!("../golden/paper_matrix.json"))
        .expect("golden/paper_matrix.json parses")
}

pub fn service() -> Vec<ServiceRun> {
    serde_json::from_str(include_str!("../golden/service.json"))
        .expect("golden/service.json parses")
}

/// Check one matrix op's output against its golden cell.
pub fn check_cell(
    want: &MatrixCell,
    app: &str,
    config: &str,
    makespan_ns: u64,
) -> Result<(), String> {
    if want.app != app || want.config != config {
        return Err(format!(
            "op order drifted: golden has {}/{}, the workload ran {app}/{config}",
            want.app, want.config
        ));
    }
    if want.makespan_ns != makespan_ns {
        return Err(format!(
            "{app}/{config}: makespan {makespan_ns} ns, golden {} ns",
            want.makespan_ns
        ));
    }
    Ok(())
}

/// Fold per-window digests into one pass digest.
pub fn fold(window_digests: &[u64]) -> u64 {
    let bytes: Vec<u8> = window_digests
        .iter()
        .flat_map(|d| d.to_le_bytes())
        .collect();
    hetero_platform::fnv1a_64(&bytes)
}

/// Digest of one window's wire responses, in arrival order.
pub fn window_digest(responses: &[String]) -> u64 {
    hetero_platform::fnv1a_64(responses.join("\n").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell() -> MatrixCell {
        MatrixCell {
            app: "MatrixMul".into(),
            config: "Only-GPU".into(),
            makespan_ns: 1234,
        }
    }

    #[test]
    fn a_matching_cell_passes_and_a_moved_makespan_fails() {
        assert!(check_cell(&cell(), "MatrixMul", "Only-GPU", 1234).is_ok());
        let err = check_cell(&cell(), "MatrixMul", "Only-GPU", 1235).unwrap_err();
        assert!(err.contains("1235") && err.contains("1234"), "{err}");
        let err = check_cell(&cell(), "MatrixMul", "Only-CPU", 1234).unwrap_err();
        assert!(err.contains("drifted"), "{err}");
    }

    #[test]
    fn digests_are_order_sensitive() {
        let a = ["x".to_string(), "y".to_string()];
        let b = ["y".to_string(), "x".to_string()];
        assert_ne!(window_digest(&a), window_digest(&b));
        assert_eq!(window_digest(&a), window_digest(&a.clone()));
        assert_ne!(fold(&[1, 2]), fold(&[2, 1]));
        assert_eq!(fold(&[1, 2]), fold(&[1, 2]));
    }

    #[test]
    fn committed_goldens_parse_and_cover_the_matrix() {
        let cells = matrix();
        assert_eq!(
            cells.len(),
            44,
            "2 baselines + every Table I strategy of 8 variants"
        );
        assert!(cells.iter().all(|c| c.makespan_ns > 0));
        let runs = service();
        let names: Vec<&str> = runs.iter().map(|r| r.workload.as_str()).collect();
        assert_eq!(names, ["service_calm", "service_chaos"]);
        for r in &runs {
            assert_eq!(r.served + r.shed, r.requests);
            assert!(r.cached >= r.degraded);
        }
    }
}
