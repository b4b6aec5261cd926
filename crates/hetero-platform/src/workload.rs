//! Kernel workload profiles.
//!
//! A data-parallel kernel is characterised — for the purpose of predicting
//! its execution time on a device — by how much arithmetic and how much
//! memory traffic it performs per data item, plus fixed per-invocation
//! costs. This is the information the paper's partitioning models consume:
//! the workload of a partition of `k` items is proportional to `k`
//! (Section I of the paper), and a device's speed on it follows a roofline.

use serde::{Deserialize, Serialize};

/// Floating-point precision of a kernel, selecting which peak-FLOPS figure
/// of a device applies (Table III lists SP and DP peaks separately).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub enum Precision {
    /// Single precision (f32) — used by all six paper applications.
    #[default]
    Single,
    /// Double precision (f64).
    Double,
}

/// Per-item and per-invocation resource demands of one kernel, together with
/// the achieved-fraction-of-peak efficiencies on each device class.
///
/// The efficiencies encode what in reality is determined by the kernel's
/// implementation quality and its fit to the architecture (e.g. a stencil
/// kernel reaches a far smaller fraction of a GPU's peak than a dense GEMM).
/// They are the calibration knobs of the reproduction and are documented per
/// application in the `hetero-apps` crate.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct KernelProfile {
    /// Floating-point operations per data item.
    pub flops_per_item: f64,
    /// Bytes of device-memory (DRAM) traffic per data item.
    pub bytes_per_item: f64,
    /// Fixed floating-point operations per kernel invocation (independent of
    /// the partition size).
    pub fixed_flops: f64,
    /// Fixed bytes of device-memory traffic per invocation.
    pub fixed_bytes: f64,
    /// Precision, selecting the peak-FLOPS column.
    pub precision: Precision,
    /// Fraction of peak compute/bandwidth achieved on a CPU core.
    pub cpu_efficiency: Efficiency,
    /// Fraction of peak compute/bandwidth achieved on a GPU.
    pub gpu_efficiency: Efficiency,
}

/// Achieved fraction of a device's peak compute throughput and peak memory
/// bandwidth for a particular kernel.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Efficiency {
    /// Fraction of peak FLOPS achieved, in `(0, 1]`.
    pub compute: f64,
    /// Fraction of peak memory bandwidth achieved, in `(0, 1]`.
    pub bandwidth: f64,
}

impl Efficiency {
    /// An efficiency profile achieving the given identical fraction of both
    /// peaks.
    pub const fn uniform(f: f64) -> Self {
        Efficiency {
            compute: f,
            bandwidth: f,
        }
    }

    /// Full efficiency (useful in unit tests where exact roofline arithmetic
    /// is asserted).
    pub const IDEAL: Efficiency = Efficiency::uniform(1.0);
}

impl KernelProfile {
    /// A compute-only profile with ideal efficiency — handy for tests.
    pub fn compute_only(flops_per_item: f64) -> Self {
        KernelProfile {
            flops_per_item,
            bytes_per_item: 0.0,
            fixed_flops: 0.0,
            fixed_bytes: 0.0,
            precision: Precision::Single,
            cpu_efficiency: Efficiency::IDEAL,
            gpu_efficiency: Efficiency::IDEAL,
        }
    }

    /// A memory-only (streaming) profile with ideal efficiency.
    pub fn memory_only(bytes_per_item: f64) -> Self {
        KernelProfile {
            flops_per_item: 0.0,
            bytes_per_item,
            fixed_flops: 0.0,
            fixed_bytes: 0.0,
            precision: Precision::Single,
            cpu_efficiency: Efficiency::IDEAL,
            gpu_efficiency: Efficiency::IDEAL,
        }
    }

    /// Total FLOPs for a partition of `items` data items.
    pub fn flops(&self, items: u64) -> f64 {
        self.fixed_flops + self.flops_per_item * items as f64
    }

    /// Total device-memory bytes for a partition of `items` data items.
    pub fn bytes(&self, items: u64) -> f64 {
        self.fixed_bytes + self.bytes_per_item * items as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_scale_linearly_with_items() {
        let p = KernelProfile {
            flops_per_item: 2.0,
            bytes_per_item: 8.0,
            fixed_flops: 100.0,
            fixed_bytes: 50.0,
            ..KernelProfile::compute_only(0.0)
        };
        assert_eq!(p.flops(10), 120.0);
        assert_eq!(p.bytes(10), 130.0);
        assert_eq!(p.flops(0), 100.0);
    }
}
