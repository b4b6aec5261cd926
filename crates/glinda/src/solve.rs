//! The partitioning solver for uniform (balanced) workloads.
//!
//! With per-item costs constant, the optimal split equalises device
//! completion times:
//!
//! ```text
//! ng·tg + F/B = nc·tc          with  n = ng + nc,
//! tg = 1/gpu_rate + bpi/B      (compute + transfer per offloaded item)
//! tc = 1/cpu_rate
//! F  = fixed transfer bytes, B = link bandwidth
//! ```
//!
//! which gives `ng = (n·tc − F/B) / (tg + tc)`. Expressed through the two
//! derived metrics `R = gpu_rate/cpu_rate` and `G = gpu_rate·bpi/B`, the
//! fixed-cost-free GPU fraction is `β = R / (1 + R + G·R/R)`… i.e. the
//! familiar `β = R/(R + 1 + G)` normalised form; the code keeps the
//! time-per-item formulation, which is numerically direct.

use crate::metrics::PartitionMetrics;
use crate::problem::PartitionProblem;
use serde::{Deserialize, Serialize};

/// The solver's output: an item split plus the model's predictions.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PartitionSolution {
    /// Items assigned to the GPU (rounded to the problem's granularity).
    pub gpu_items: u64,
    /// Items assigned to the CPU (`items - gpu_items`).
    pub cpu_items: u64,
    /// GPU fraction before rounding, in `[0, 1]`.
    pub beta: f64,
    /// Predicted co-execution time in seconds for the rounded split.
    pub predicted_time: f64,
    /// The derived metrics behind the prediction.
    pub metrics: PartitionMetrics,
}

/// Solve a uniform-workload partitioning problem.
///
/// The paper's footnote 5 rounds the GPU share up to a warp multiple; this
/// solver evaluates both the rounded-up and rounded-down candidates and
/// keeps whichever the model predicts faster (they differ by at most one
/// granule).
pub fn solve(problem: &PartitionProblem) -> PartitionSolution {
    problem
        .validate()
        .unwrap_or_else(|e| panic!("invalid partitioning problem: {e}"));
    let n = problem.items;
    let metrics = PartitionMetrics::of(problem);

    let tc = 1.0 / problem.cpu_rate;
    let tg = 1.0 / problem.gpu_rate + problem.transfer.bytes_per_item() / problem.link_bandwidth;
    let fixed = problem.transfer.fixed_bytes / problem.link_bandwidth;

    let ideal = ((n as f64 * tc - fixed) / (tg + tc)).clamp(0.0, n as f64);
    let beta = if n == 0 { 0.0 } else { ideal / n as f64 };

    let g = problem.gpu_granularity.max(1);
    let down = (ideal as u64) / g * g;
    let up = (down + g).min(n);
    let candidates = [down.min(n), up];
    let gpu_items = candidates
        .into_iter()
        .min_by(|&a, &b| {
            problem
                .hybrid_time(a)
                .partial_cmp(&problem.hybrid_time(b))
                .unwrap()
                .then(a.cmp(&b))
        })
        .unwrap();

    PartitionSolution {
        gpu_items,
        cpu_items: n - gpu_items,
        beta,
        predicted_time: problem.hybrid_time(gpu_items),
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::TransferModel;

    fn prob(items: u64, cpu: f64, gpu: f64, bpi: f64, bw: f64, gran: u64) -> PartitionProblem {
        PartitionProblem {
            items,
            cpu_rate: cpu,
            gpu_rate: gpu,
            transfer: TransferModel {
                h2d_bytes_per_item: bpi,
                d2h_bytes_per_item: 0.0,
                fixed_bytes: 0.0,
            },
            link_bandwidth: bw,
            gpu_granularity: gran,
        }
    }

    #[test]
    fn no_transfers_split_matches_capability_ratio() {
        // GPU 4x faster, no transfers => beta = 4/5.
        let p = prob(1000, 100.0, 400.0, 0.0, 1.0, 1);
        let s = solve(&p);
        assert!((s.beta - 0.8).abs() < 1e-9, "beta={}", s.beta);
        assert_eq!(s.gpu_items + s.cpu_items, 1000);
        assert_eq!(s.gpu_items, 800);
    }

    #[test]
    fn transfers_shift_work_to_cpu() {
        let free = solve(&prob(1000, 100.0, 400.0, 0.0, 1.0, 1));
        // Transfer per item as expensive as CPU compute: tg = 1/400 + 8/800
        // = 0.0125, tc = 0.01 => beta = 0.01/0.0225 = 0.444.
        let heavy = solve(&prob(1000, 100.0, 400.0, 8.0, 800.0, 1));
        assert!(heavy.beta < free.beta);
        assert!((heavy.beta - 0.4444).abs() < 1e-3);
        assert!(heavy.metrics.transfer_dominated());
    }

    #[test]
    fn fixed_transfer_cost_reduces_gpu_share() {
        let no_fixed = solve(&prob(1000, 100.0, 400.0, 0.0, 1.0, 1));
        let mut p = prob(1000, 100.0, 400.0, 0.0, 1.0, 1);
        p.transfer.fixed_bytes = 2.0; // 2 seconds at bw=1
        let with_fixed = solve(&p);
        assert!(with_fixed.gpu_items < no_fixed.gpu_items);
    }

    #[test]
    fn extreme_transfer_cost_gives_cpu_everything() {
        let p = prob(1000, 100.0, 400.0, 1e9, 1.0, 32);
        let s = solve(&p);
        assert_eq!(s.gpu_items, 0);
        assert_eq!(s.cpu_items, 1000);
        assert!(s.beta < 1e-6);
    }

    #[test]
    fn granularity_rounding_preserves_total_and_stays_near_ideal() {
        let p = prob(1000, 100.0, 300.0, 0.0, 1.0, 32);
        let s = solve(&p);
        assert_eq!(s.gpu_items % 32, 0);
        assert_eq!(s.gpu_items + s.cpu_items, 1000);
        let ideal = 0.75 * 1000.0;
        assert!((s.gpu_items as f64 - ideal).abs() <= 32.0);
    }

    #[test]
    fn rounded_split_is_optimal_among_granules() {
        let p = prob(10_000, 123.0, 777.0, 3.0, 500.0, 64);
        let s = solve(&p);
        // No multiple of 64 predicts a faster hybrid time.
        let mut best = f64::INFINITY;
        let mut arg = 0;
        let mut ng = 0;
        while ng <= p.items {
            let t = p.hybrid_time(ng);
            if t < best {
                best = t;
                arg = ng;
            }
            ng += 64;
        }
        assert!(
            (s.predicted_time - best) / best < 1e-9,
            "solver {} vs sweep {} (ng {})",
            s.predicted_time,
            best,
            arg
        );
    }

    #[test]
    fn equalizes_device_times_at_the_ideal_split() {
        let p = prob(100_000, 250.0, 1000.0, 2.0, 1000.0, 1);
        let s = solve(&p);
        let tg = p.gpu_time(s.gpu_items);
        let tc = p.cpu_time(s.cpu_items);
        assert!(
            (tg - tc).abs() / tg.max(tc) < 0.01,
            "gpu {tg}s vs cpu {tc}s"
        );
    }

    #[test]
    fn beta_monotone_in_relative_capability() {
        let mut last = -1.0;
        for gpu_rate in [50.0, 100.0, 200.0, 400.0, 800.0] {
            let s = solve(&prob(1000, 100.0, gpu_rate, 0.0, 1.0, 1));
            assert!(s.beta > last);
            last = s.beta;
        }
    }

    #[test]
    fn beta_monotone_decreasing_in_transfer_gap() {
        let mut last = 2.0;
        for bpi in [0.0, 1.0, 2.0, 4.0, 8.0, 16.0] {
            let s = solve(&prob(1000, 100.0, 400.0, bpi, 400.0, 1));
            assert!(s.beta < last, "bpi={bpi} beta={}", s.beta);
            last = s.beta;
        }
    }

    #[test]
    fn zero_items() {
        let s = solve(&prob(0, 100.0, 400.0, 0.0, 1.0, 32));
        assert_eq!(s.gpu_items, 0);
        assert_eq!(s.cpu_items, 0);
        assert_eq!(s.predicted_time, 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid partitioning problem")]
    fn rejects_bad_rates() {
        let mut p = prob(10, 1.0, 1.0, 0.0, 1.0, 1);
        p.gpu_rate = f64::NAN;
        let _ = solve(&p);
    }
}
