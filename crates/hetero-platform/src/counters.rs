//! Execution counters collected during a simulated run.
//!
//! These feed the paper's figures directly: per-device item counts become
//! the *partitioning ratios* of Figures 6, 8 and 10; transfer counters
//! explain the transfer-dominated behaviours discussed in the text.

use crate::device::DeviceId;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// Per-device accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeviceCounters {
    /// Total busy time summed over the device's slots.
    pub busy: SimTime,
    /// Task instances executed.
    pub tasks: u64,
    /// Data items processed (sum of instance partition sizes).
    pub items: u64,
}

impl DeviceCounters {
    /// Slot utilisation over a window: `busy / (window × slots)`, clamped
    /// to `[0, 1]`. Zero for an empty window.
    pub fn utilization(&self, window: SimTime, slots: usize) -> f64 {
        let cap = window.as_secs_f64() * slots.max(1) as f64;
        if cap <= 0.0 {
            0.0
        } else {
            (self.busy.as_secs_f64() / cap).clamp(0.0, 1.0)
        }
    }
}

/// Transfer accounting across all links.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransferCounters {
    /// Number of individual transfers issued.
    pub count: u64,
    /// Total bytes moved.
    pub bytes: u64,
    /// Total time spent in transfers (not necessarily on the critical path).
    pub time: SimTime,
}

/// Aggregated run counters.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct PlatformCounters {
    /// Per-device counters, indexed by `DeviceId.0`.
    pub devices: Vec<DeviceCounters>,
    /// Transfer totals.
    pub transfers: TransferCounters,
    /// Total virtual time spent on dynamic scheduling decisions.
    pub sched_overhead: SimTime,
    /// Number of scheduling decisions taken.
    pub sched_decisions: u64,
}

impl PlatformCounters {
    /// Counters for a platform with `n_devices` devices.
    pub fn new(n_devices: usize) -> Self {
        PlatformCounters {
            devices: vec![DeviceCounters::default(); n_devices],
            transfers: TransferCounters::default(),
            sched_overhead: SimTime::ZERO,
            sched_decisions: 0,
        }
    }

    /// Record a task instance of `items` items running for `busy` on `dev`.
    pub fn record_task(&mut self, dev: DeviceId, items: u64, busy: SimTime) {
        let c = &mut self.devices[dev.0];
        c.tasks += 1;
        c.items += items;
        c.busy += busy;
    }

    /// Record one transfer.
    pub fn record_transfer(&mut self, bytes: u64, time: SimTime) {
        self.transfers.count += 1;
        self.transfers.bytes += bytes;
        self.transfers.time += time;
    }

    /// Record one scheduling decision costing `t`.
    pub fn record_sched(&mut self, t: SimTime) {
        self.sched_decisions += 1;
        self.sched_overhead += t;
    }

    /// Fraction of all processed items handled by `dev` — the partitioning
    /// ratio reported in the paper's Figures 6, 8 and 10.
    pub fn item_share(&self, dev: DeviceId) -> f64 {
        let total: u64 = self.devices.iter().map(|d| d.items).sum();
        if total == 0 {
            0.0
        } else {
            self.devices[dev.0].items as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_sum_to_one() {
        let mut c = PlatformCounters::new(2);
        c.record_task(DeviceId(0), 30, SimTime::from_millis(1));
        c.record_task(DeviceId(1), 70, SimTime::from_millis(2));
        assert!((c.item_share(DeviceId(0)) - 0.3).abs() < 1e-12);
        assert!((c.item_share(DeviceId(1)) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn empty_counters_have_zero_share() {
        let c = PlatformCounters::new(2);
        assert_eq!(c.item_share(DeviceId(0)), 0.0);
    }

    #[test]
    fn utilization_normalises_by_slots_and_window() {
        let mut c = PlatformCounters::new(1);
        c.record_task(DeviceId(0), 10, SimTime::from_millis(6));
        let d = c.devices[0];
        // 6 ms of slot-busy over a 2 ms window on 4 slots = 75%.
        assert!((d.utilization(SimTime::from_millis(2), 4) - 0.75).abs() < 1e-12);
        assert_eq!(d.utilization(SimTime::ZERO, 4), 0.0);
        // Saturates at 1.0 even if busy accounting exceeds the window.
        assert_eq!(d.utilization(SimTime::from_millis(1), 1), 1.0);
    }

    #[test]
    fn transfer_and_sched_accounting() {
        let mut c = PlatformCounters::new(1);
        c.record_transfer(1024, SimTime::from_micros(3));
        c.record_transfer(2048, SimTime::from_micros(5));
        assert_eq!(c.transfers.count, 2);
        assert_eq!(c.transfers.bytes, 3072);
        assert_eq!(c.transfers.time, SimTime::from_micros(8));
        c.record_sched(SimTime::from_micros(8));
        assert_eq!(c.sched_decisions, 1);
        assert_eq!(c.sched_overhead, SimTime::from_micros(8));
    }
}
