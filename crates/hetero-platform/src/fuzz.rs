//! Seed-deterministic random platform and fault-schedule generators — the
//! platform half of the scenario fuzzing harness (see DESIGN.md §8.5).
//!
//! Both generators draw exclusively from a caller-supplied [`FaultRng`]
//! (SplitMix64), so a scenario seed reproduces the exact same platform and
//! schedule on every run, every machine. Generated schedules are valid *by
//! construction* and additionally asserted through
//! [`FaultSchedule::validate_for`] before being returned: the fuzzer's job
//! is to explore the behaviour of valid inputs, not the validator's
//! rejection paths (those have dedicated unit tests).

use crate::fault::{FaultRng, FaultSchedule};
use crate::{DeviceId, DeviceKind, DeviceSpec, LinkSpec, Platform, SimTime};
use serde::{Deserialize, Serialize};

/// A serializable platform description: everything [`Platform::builder`]
/// needs, in builder order. [`Platform`] itself keys its link table by
/// memory-space pairs (not JSON-friendly), so fuzz scenarios persist this
/// spec form and rebuild the platform on replay.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PlatformSpec {
    /// The host CPU.
    pub cpu: DeviceSpec,
    /// Each accelerator with its host link, in device-id order (device `i+1`).
    pub accels: Vec<(DeviceSpec, LinkSpec)>,
    /// Per-decision dynamic-scheduling overhead.
    pub sched_overhead: SimTime,
}

impl PlatformSpec {
    /// Instantiate the platform this spec describes.
    pub fn build(&self) -> Platform {
        let mut b = Platform::builder().cpu(self.cpu.clone());
        for (spec, link) in &self.accels {
            b = b.accelerator(spec.clone(), link.clone());
        }
        b.sched_overhead(self.sched_overhead).build()
    }

    /// Total device count (host + accelerators).
    pub fn device_count(&self) -> usize {
        1 + self.accels.len()
    }
}

/// Uniform integer in `[0, n)`. SplitMix64 output is uniform enough for
/// scenario generation; modulo bias at these tiny ranges is irrelevant.
pub fn pick(rng: &mut FaultRng, n: usize) -> usize {
    debug_assert!(n > 0);
    (rng.next_u64() % n as u64) as usize
}

/// Uniform float in `[lo, hi)`.
pub fn range_f64(rng: &mut FaultRng, lo: f64, hi: f64) -> f64 {
    lo + rng.next_f64() * (hi - lo)
}

/// `true` with probability `p`.
pub fn chance(rng: &mut FaultRng, p: f64) -> bool {
    rng.next_f64() < p
}

/// Generate a random-but-plausible heterogeneous platform: one host CPU
/// (2–8 hardware threads) plus 1–3 GPU accelerators with randomized peak
/// rates, link bandwidths (1–16 GB/s) and latencies (0–30 µs), and a
/// random dynamic-scheduling overhead (0–10 µs). Device counts stay small
/// so shrunk reproducers stay readable; rates span enough orders of
/// magnitude to exercise both CPU-favoured and GPU-favoured plans. Returns
/// the serializable [`PlatformSpec`] form the fuzz corpus persists.
pub fn gen_platform_spec(rng: &mut FaultRng) -> PlatformSpec {
    let threads = [2u32, 4, 6, 8][pick(rng, 4)];
    let cpu_peak = range_f64(rng, 40.0, 500.0);
    let cpu = DeviceSpec {
        name: format!("fuzz-cpu-{threads}t"),
        kind: DeviceKind::Cpu {
            cores: threads,
            threads,
        },
        frequency_ghz: range_f64(rng, 1.0, 3.0),
        peak_gflops_sp: cpu_peak,
        peak_gflops_dp: cpu_peak / 2.0,
        mem_bandwidth_gbs: range_f64(rng, 15.0, 60.0),
        mem_capacity_gb: 16.0,
        launch_overhead: SimTime::from_nanos(pick(rng, 20_000) as u64),
    };
    let mut accels = Vec::new();
    let n_accels = 1 + pick(rng, 3);
    for a in 0..n_accels {
        let gpu_peak = range_f64(rng, 150.0, 4000.0);
        let spec = DeviceSpec {
            name: format!("fuzz-gpu-{a}"),
            kind: DeviceKind::Gpu {
                sms: [2u32, 4, 8, 13][pick(rng, 4)],
                warp_size: 32,
            },
            frequency_ghz: range_f64(rng, 0.7, 1.5),
            peak_gflops_sp: gpu_peak,
            peak_gflops_dp: gpu_peak / 3.0,
            mem_bandwidth_gbs: range_f64(rng, 80.0, 300.0),
            mem_capacity_gb: 6.0,
            launch_overhead: SimTime::from_nanos(pick(rng, 20_000) as u64),
        };
        let link = LinkSpec::new(
            range_f64(rng, 1.0, 16.0),
            SimTime::from_nanos(pick(rng, 30_000) as u64),
        );
        accels.push((spec, link));
    }
    PlatformSpec {
        cpu,
        accels,
        sched_overhead: SimTime::from_nanos(pick(rng, 10_000) as u64),
    }
}

/// A random window inside `[0, horizon)`, occasionally open-ended
/// (`until = SimTime::MAX`). Always non-empty (`from < until`).
fn gen_window(rng: &mut FaultRng, horizon: SimTime) -> (SimTime, SimTime) {
    let h = horizon.as_nanos().max(2);
    let from = SimTime::from_nanos(rng.next_u64() % (h / 2));
    if chance(rng, 0.2) {
        return (from, SimTime::MAX);
    }
    let len = 1 + rng.next_u64() % (h / 2);
    (from, from + SimTime::from_nanos(len))
}

/// A random non-host device on `platform`.
fn gen_accel(rng: &mut FaultRng, platform: &Platform) -> DeviceId {
    DeviceId(1 + pick(rng, platform.devices.len() - 1))
}

/// Generate a random valid [`FaultSchedule`] for `platform`: 0–4 events
/// drawn across every fault kind (transient task/transfer faults, dropout,
/// throttle ramps, silent corruption, flaky windows, profile perturbation,
/// link degradation, correlated domain outages), with windows inside
/// `[0, horizon)` and probabilities/factors inside the validated ranges.
/// When the platform has ≥ 3 devices, the schedule may carry one correlated
/// fault domain over a random subset of accelerators, and domain events may
/// reference it. The result always passes
/// [`FaultSchedule::validate_for`] — asserted before returning.
pub fn gen_fault_schedule(
    rng: &mut FaultRng,
    platform: &Platform,
    horizon: SimTime,
) -> FaultSchedule {
    let mut s = FaultSchedule::new(rng.next_u64());
    // Maybe one correlated domain over ≥ 2 accelerators (never the host, so
    // both outage flavours stay valid).
    let accel_count = platform.devices.len() - 1;
    if accel_count >= 2 && chance(rng, 0.4) {
        let members: Vec<DeviceId> = (1..=accel_count).map(DeviceId).collect();
        s = s.with_domain(
            "fuzz-rail",
            members,
            range_f64(rng, 0.0, 1.0),
            range_f64(rng, 0.1, 0.6),
            SimTime::from_nanos(1 + rng.next_u64() % horizon.as_nanos().max(2)),
        );
    }
    let n_events = pick(rng, 5);
    for _ in 0..n_events {
        let (from, until) = gen_window(rng, horizon);
        let kinds = if s.domains.is_empty() { 8 } else { 9 };
        s = match pick(rng, kinds) {
            0 => {
                let dev = if chance(rng, 0.3) {
                    None
                } else {
                    Some(DeviceId(pick(rng, platform.devices.len())))
                };
                s.with_task_faults(dev, range_f64(rng, 0.0, 0.4), from, until)
            }
            1 => s.with_transfer_faults(range_f64(rng, 0.0, 0.4), from, until),
            2 => s.with_dropout(gen_accel(rng, platform), from),
            3 => {
                let dev = DeviceId(pick(rng, platform.devices.len()));
                let (a, b) = (range_f64(rng, 1.0, 6.0), range_f64(rng, 1.0, 6.0));
                s.with_throttle(dev, from, until, a, b)
            }
            4 => s.with_silent_corruption(
                DeviceId(pick(rng, platform.devices.len())),
                range_f64(rng, 0.0, 0.2),
                from,
                until,
            ),
            5 => s.with_flaky(
                DeviceId(pick(rng, platform.devices.len())),
                range_f64(rng, 0.0, 0.3),
                from,
                until,
            ),
            6 => {
                // Stay inside the proven misprediction envelope: clearly
                // under- or over-estimated, never exactly nominal.
                let factor = if chance(rng, 0.5) {
                    range_f64(rng, 0.3, 0.85)
                } else {
                    range_f64(rng, 1.2, 3.0)
                };
                s.with_profile_perturb(
                    DeviceId(pick(rng, platform.devices.len())),
                    factor,
                    from,
                    until,
                )
            }
            7 => s.with_link_degrade(
                gen_accel(rng, platform),
                range_f64(rng, 0.1, 1.0),
                range_f64(rng, 1.0, 4.0),
                from,
                until,
            ),
            _ => {
                if chance(rng, 0.5) {
                    s.with_domain_throttle(0, from, until, range_f64(rng, 1.5, 4.0))
                } else {
                    s.with_domain_dropout(0, from)
                }
            }
        };
    }
    assert_eq!(
        s.validate_for(platform),
        Ok(()),
        "generated schedules must be valid by construction"
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_seed_deterministic() {
        for seed in 0..50u64 {
            let mk = || {
                let mut rng = FaultRng::new(seed);
                let p = gen_platform_spec(&mut rng).build();
                let s = gen_fault_schedule(&mut rng, &p, SimTime::from_millis(20));
                (p, s)
            };
            let (p1, s1) = mk();
            let (p2, s2) = mk();
            assert_eq!(p1.devices.len(), p2.devices.len());
            assert_eq!(
                serde_json::to_string(&p1).unwrap(),
                serde_json::to_string(&p2).unwrap()
            );
            assert_eq!(s1, s2);
        }
    }

    #[test]
    fn generated_platforms_are_well_formed() {
        for seed in 0..100u64 {
            let mut rng = FaultRng::new(seed);
            let p = gen_platform_spec(&mut rng).build();
            assert!(p.devices.len() >= 2 && p.devices.len() <= 4);
            assert!(p.cpu().spec.kind.is_cpu());
            for acc in p.accelerators() {
                assert!(acc.spec.kind.is_gpu());
                assert!(p.link(crate::MemSpaceId::HOST, acc.mem_space).is_some());
            }
        }
    }

    #[test]
    fn generated_schedules_validate_for_their_platform() {
        for seed in 0..200u64 {
            let mut rng = FaultRng::new(seed);
            let p = gen_platform_spec(&mut rng).build();
            let s = gen_fault_schedule(&mut rng, &p, SimTime::from_millis(50));
            assert_eq!(s.validate_for(&p), Ok(()));
            assert!(s.events.len() <= 4);
        }
    }
}
