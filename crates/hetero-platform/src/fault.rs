//! Seeded fault injection: what can go wrong on the platform, and when.
//!
//! The paper's dynamic strategies exist because real platforms misbehave —
//! contention, throttling, degraded links, failing devices. A
//! [`FaultSchedule`] describes such misbehaviour as *timed events* over the
//! simulation's virtual clock:
//!
//! * **transient task faults** — a dispatched task instance fails with a
//!   probability, wasting the attempt's execution time;
//! * **transfer faults** — a host↔device transfer fails and must be
//!   re-issued, paying the wire time again;
//! * **device dropout** — a device permanently disappears at time *t*
//!   (the host CPU can never drop out: it is the failover target of last
//!   resort);
//! * **throttle ramps** — time-varying execution-time multipliers
//!   (thermal throttling, co-tenant contention) interpolated linearly
//!   across a window;
//! * **silent data corruption** — a task completes on time but its output
//!   is wrong; nothing fails, so only an explicit verification policy in
//!   the runtime can catch it;
//! * **flaky devices** — an elevated transient-fault rate on one device:
//!   retries keep succeeding eventually, but the device keeps faulting —
//!   the *gray* failure a health monitor exists to quarantine;
//! * **link degradation** — a host↔device link loses bandwidth and/or
//!   gains latency over a window (a renegotiated PCIe lane width, bus
//!   contention): transfers priced while the window is open cost more;
//! * **correlated fault domains** — devices grouped by a shared failure
//!   root ([`FaultDomain`]: a power rail, a PCIe switch, a thermal zone)
//!   fail *together*: a [`FaultEvent::DomainOutage`] drops or throttles
//!   every member at once, and a fault on one member conditionally raises
//!   its siblings' fault probability for a window (synthesized
//!   [`FaultEvent::TaskFaults`] events, recorded so the run can be
//!   replayed).
//!
//! All randomness comes from a small seeded PRNG ([`FaultRng`], SplitMix64):
//! identical seeds replay identical runs, so every faulty execution is as
//! reproducible as a healthy one. The resilient executor in `hetero-runtime`
//! consumes the schedule together with a [`RetryPolicy`] and reports what
//! happened through [`FaultCounters`]. A schedule plus the events a run
//! synthesized (correlated triggers) exports as a [`FaultTrace`] —
//! deterministic JSON that replays the observed disturbance verbatim.

use crate::device::DeviceId;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// SplitMix64: a tiny, fast, seedable PRNG. Statistically solid for fault
/// sampling and — crucially — fully deterministic across platforms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultRng {
    state: u64,
}

impl FaultRng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        FaultRng { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Next uniform sample in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 mantissa bits of the raw output.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// The generator's current position. `from_cursor(cursor())` rebuilds a
    /// generator whose future draws are identical — the hook the run
    /// journal uses to checkpoint every RNG stream at an epoch boundary.
    pub fn cursor(&self) -> u64 {
        self.state
    }

    /// Rebuild a generator at a previously saved [`FaultRng::cursor`].
    pub fn from_cursor(cursor: u64) -> Self {
        FaultRng { state: cursor }
    }
}

/// FNV-1a over `bytes`, 64-bit. The integrity hash both the run journal
/// and the versioned [`FaultTrace`] header machinery use: tiny, stable,
/// dependency-free, and byte-exact across platforms.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Version check shared by every durable format in the workspace: `Ok` iff
/// `found == expected`, the mismatch pair otherwise. Callers wrap the
/// `Err` payload in their own typed error (`FaultError::TraceVersion`,
/// `JournalError::VersionMismatch`).
pub fn validate_version(found: u32, expected: u32) -> Result<(), (u32, u32)> {
    if found == expected {
        Ok(())
    } else {
        Err((found, expected))
    }
}

/// Deterministic coordinator-death injection: abort a journaled run after
/// the k-th journal record is committed, or at the first event processed at
/// simulated time ≥ `at_time`. Models `kill -9` on the coordinating
/// process mid-run — the crash half of the crash-resume-equivalence
/// oracle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KillSchedule {
    /// Die once this many journal records (header excluded) have been
    /// committed. `Some(0)` dies right after the header.
    pub after_records: Option<u64>,
    /// Die at the first simulation event processed at `now >= at_time`.
    pub at_time: Option<SimTime>,
    /// Tear the write that the kill interrupts: the journal line that
    /// would have committed at the kill point is left half-written
    /// (truncated, no trailing newline), exercising the torn-line
    /// tolerance of recovery.
    pub torn: bool,
}

impl KillSchedule {
    /// Kill after `n` committed journal records.
    pub fn after_records(n: u64) -> Self {
        KillSchedule {
            after_records: Some(n),
            ..KillSchedule::default()
        }
    }

    /// Kill at the first event at simulated time ≥ `t`.
    pub fn at_time(t: SimTime) -> Self {
        KillSchedule {
            at_time: Some(t),
            ..KillSchedule::default()
        }
    }

    /// Same kill point, but the interrupted journal write is torn.
    pub fn torn(mut self) -> Self {
        self.torn = true;
        self
    }
}

/// One timed platform fault. Windows are half-open: an event is active at
/// `now` when `from <= now < until`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// Transient kernel failures: while the window is open, each task
    /// attempt dispatched on a matching device fails with probability
    /// `prob` (the attempt's execution time is wasted and the runtime's
    /// retry policy takes over).
    TaskFaults {
        /// Affected device, or `None` for every device.
        dev: Option<DeviceId>,
        /// Per-attempt failure probability in `[0, 1]`.
        prob: f64,
        /// Window start (inclusive).
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
    },
    /// Transfer (PCIe) errors: while the window is open, each transfer
    /// attempt fails with probability `prob` and is re-issued at full wire
    /// cost.
    TransferFaults {
        /// Per-attempt failure probability in `[0, 1]`.
        prob: f64,
        /// Window start (inclusive).
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
    },
    /// Permanent device dropout at `at`: the device stops executing, its
    /// queued and in-flight work must fail over to survivors, and data
    /// resident only in its memory is lost (recovered from the host's
    /// epoch checkpoint). The host (device 0) cannot drop out.
    DeviceDropout {
        /// The device that dies.
        dev: DeviceId,
        /// Virtual time of the failure.
        at: SimTime,
    },
    /// Thermal throttling / contention: execution time on `dev` is
    /// multiplied by a factor interpolated linearly from `start_factor`
    /// (at `from`) to `end_factor` (at `until`) while the window is open.
    /// A factor of 1.0 is nominal speed; 8.0 means 8× slower.
    ThrottleRamp {
        /// Affected device.
        dev: DeviceId,
        /// Window start (inclusive).
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
        /// Multiplier at `from`.
        start_factor: f64,
        /// Multiplier approached at `until`.
        end_factor: f64,
    },
    /// Silent data corruption: while the window is open, each *successful*
    /// task attempt on `dev` produces a wrong result with probability
    /// `prob`. The attempt completes on time and nothing faults — only a
    /// runtime verification policy (`VerificationPolicy::DupCheck`) can
    /// detect the corruption and roll the epoch back to its checkpoint.
    SilentCorruption {
        /// Affected device.
        dev: DeviceId,
        /// Per-successful-attempt corruption probability in `[0, 1]`.
        prob: f64,
        /// Window start (inclusive).
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
    },
    /// A flaky device: an elevated transient-fault rate on `dev` while the
    /// window is open. Mechanically this composes with [`FaultEvent::TaskFaults`]
    /// windows as one more independent failure source; semantically it is
    /// the gray failure a device-health circuit breaker quarantines —
    /// retries keep passing, yet the device keeps faulting.
    Flaky {
        /// Affected device.
        dev: DeviceId,
        /// Per-attempt failure probability in `[0, 1]`.
        fault_prob: f64,
        /// Window start (inclusive).
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
    },
    /// Model misprediction: while the window is open, the throughput the
    /// *planner* estimates for `dev` is multiplied by `factor` — the device
    /// itself runs at true speed. A factor of 0.5 makes the profile claim
    /// the device is half as fast as it really is (so a static plan
    /// under-assigns it); 2.0 makes it look twice as fast (over-assigning
    /// it). This is the misprediction injector for adaptive repartitioning:
    /// nothing faults, nothing throttles — the plan is simply wrong, and
    /// only observing real per-device throughput at run time can reveal it.
    ProfilePerturb {
        /// Device whose *estimated* throughput is skewed.
        dev: DeviceId,
        /// Multiplier applied to the planner-visible rate (> 0, finite).
        factor: f64,
        /// Window start (inclusive).
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
    },
    /// Link degradation: while the window is open, the host↔`dev` link
    /// runs at `bandwidth_factor` × its nominal bandwidth and
    /// `latency_factor` × its nominal latency (a renegotiated PCIe lane
    /// width, bus contention). The link is identified by its accelerator
    /// endpoint — every link in a [`crate::Platform`] connects the host
    /// space to one accelerator's space — so `dev` must not be the host.
    /// `bandwidth_factor: 0.25` means a quarter of nominal bandwidth
    /// (4× slower wire time); both factors must be positive and finite.
    LinkDegrade {
        /// Accelerator endpoint of the degraded host↔device link.
        dev: DeviceId,
        /// Multiplier on the link's nominal bandwidth (> 0, finite).
        bandwidth_factor: f64,
        /// Multiplier on the link's nominal latency (> 0, finite).
        latency_factor: f64,
        /// Window start (inclusive).
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
    },
    /// A correlated outage of every member of one [`FaultDomain`] (indexed
    /// into [`FaultSchedule::domains`]): the shared failure root itself
    /// fails. With `throttle: Some(f)` every member runs `f`× slower while
    /// the window is open (a browning power rail, a shared heat sink);
    /// with `throttle: None` every member permanently drops out at `from`
    /// (`until` is conventionally [`SimTime::MAX`]) — which is why a
    /// drop-outage domain must not contain the host.
    DomainOutage {
        /// Index into [`FaultSchedule::domains`].
        domain: usize,
        /// Window start (inclusive); the drop instant when `throttle` is
        /// `None`.
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
        /// `Some(factor)` throttles members over the window; `None` drops
        /// them permanently at `from`.
        throttle: Option<f64>,
    },
}

fn in_window(now: SimTime, from: SimTime, until: SimTime) -> bool {
    from <= now && now < until
}

/// A group of devices sharing one failure root — a power rail, a PCIe
/// switch, a thermal zone. Membership makes faults *correlated* in two
/// ways: a [`FaultEvent::DomainOutage`] hits every member at once, and a
/// sampled fault (or dropout) on one member conditionally raises its
/// siblings' transient-fault probability for a window — with probability
/// `trigger_prob` per sibling, a `TaskFaults { prob: sibling_fault_prob }`
/// window of length `window` opens on that sibling at the moment of the
/// member fault. Conditional draws come from a dedicated RNG stream, so
/// enabling correlation never perturbs the base fault sampling, and every
/// synthesized window is recorded (see `RunReport::synthesized_faults` and
/// [`FaultTrace`]) so the observed run replays byte-identically.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultDomain {
    /// Human-readable failure root ("pcie-switch-0", "rail-B", …).
    pub name: String,
    /// The devices sharing the root (at least two).
    pub members: Vec<DeviceId>,
    /// Probability that a member fault opens a sibling window, per sibling
    /// (`0.0` disables conditional triggering for this domain).
    pub trigger_prob: f64,
    /// Per-attempt fault probability of a synthesized sibling window.
    pub sibling_fault_prob: f64,
    /// Length of a synthesized sibling window.
    pub window: SimTime,
}

impl FaultDomain {
    /// Whether `dev` belongs to this domain.
    pub fn contains(&self, dev: DeviceId) -> bool {
        self.members.contains(&dev)
    }
}

/// Why a [`FaultSchedule`] failed validation. Carries the offending event
/// (or domain) index so callers can point at the exact entry; the `Display`
/// form is the human-readable message the executor panics with.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultError {
    /// A fault probability outside `[0, 1]`.
    BadProbability {
        /// Index into [`FaultSchedule::events`].
        event: usize,
        /// The offending probability.
        prob: f64,
    },
    /// An empty or inverted window (`from >= until`).
    BadWindow {
        /// Index into [`FaultSchedule::events`].
        event: usize,
        /// Window start.
        from: SimTime,
        /// Window end.
        until: SimTime,
    },
    /// A dropout of device 0 — the host is the failover target of last
    /// resort and can never drop out.
    HostDropout {
        /// Index into [`FaultSchedule::events`].
        event: usize,
    },
    /// A non-positive throttle factor.
    BadThrottleFactor {
        /// Index into [`FaultSchedule::events`].
        event: usize,
    },
    /// A profile-perturbation factor that is not positive and finite.
    BadProfileFactor {
        /// Index into [`FaultSchedule::events`].
        event: usize,
        /// The offending factor.
        factor: f64,
    },
    /// A link-degradation factor that is not positive and finite.
    BadLinkFactor {
        /// Index into [`FaultSchedule::events`].
        event: usize,
        /// The offending factor.
        factor: f64,
    },
    /// A [`FaultEvent::LinkDegrade`] naming the host: links are identified
    /// by their accelerator endpoint, and the host has no host↔host link.
    HostLink {
        /// Index into [`FaultSchedule::events`].
        event: usize,
    },
    /// A [`FaultEvent::DomainOutage`] whose `domain` index does not name a
    /// domain in [`FaultSchedule::domains`].
    UnknownDomain {
        /// Index into [`FaultSchedule::events`].
        event: usize,
        /// The out-of-range domain index.
        domain: usize,
    },
    /// A drop-outage (`throttle: None`) of a domain containing the host.
    HostInDroppedDomain {
        /// Index into [`FaultSchedule::events`].
        event: usize,
        /// Index into [`FaultSchedule::domains`].
        domain: usize,
    },
    /// A malformed [`FaultDomain`] (too few members, or a probability
    /// outside `[0, 1]`).
    BadDomain {
        /// Index into [`FaultSchedule::domains`].
        domain: usize,
        /// What is wrong with it.
        reason: &'static str,
    },
    /// An event (or domain membership) naming a device id the platform does
    /// not have. Only reported by [`FaultSchedule::validate_for`] — plain
    /// [`FaultSchedule::validate`] has no platform to check against.
    UnknownDevice {
        /// Index into [`FaultSchedule::events`], or the offending domain's
        /// index when `in_domain` is set.
        event: usize,
        /// The out-of-range device id.
        dev: DeviceId,
        /// `true` when `event` indexes [`FaultSchedule::domains`] instead
        /// of [`FaultSchedule::events`].
        in_domain: bool,
    },
    /// A [`FaultTrace`] JSON document that does not parse (truncated,
    /// corrupted, or not a trace at all).
    TraceParse {
        /// The underlying parse error, rendered.
        error: String,
    },
    /// A [`FaultTrace`] written by a different format version. Files
    /// predating the version header deserialize as version 0 and are
    /// rejected here instead of being silently misread.
    TraceVersion {
        /// The version the file declares (0 when absent).
        found: u32,
        /// The version this build writes ([`TRACE_VERSION`]).
        expected: u32,
    },
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::BadProbability { event, prob } => {
                write!(f, "event {event}: probability {prob} outside [0, 1]")
            }
            FaultError::BadWindow { event, from, until } => {
                write!(f, "event {event}: window {from} >= {until}")
            }
            FaultError::HostDropout { event } => {
                write!(f, "event {event}: the host CPU cannot drop out")
            }
            FaultError::BadThrottleFactor { event } => {
                write!(f, "event {event}: throttle factors must be positive")
            }
            FaultError::BadProfileFactor { event, factor } => {
                write!(
                    f,
                    "event {event}: profile factor {factor} must be positive and finite"
                )
            }
            FaultError::BadLinkFactor { event, factor } => {
                write!(
                    f,
                    "event {event}: link factor {factor} must be positive and finite"
                )
            }
            FaultError::HostLink { event } => {
                write!(f, "event {event}: the host has no host link to degrade")
            }
            FaultError::UnknownDomain { event, domain } => {
                write!(f, "event {event}: unknown fault domain {domain}")
            }
            FaultError::HostInDroppedDomain { event, domain } => {
                write!(
                    f,
                    "event {event}: domain {domain} contains the host CPU, which cannot drop out"
                )
            }
            FaultError::BadDomain { domain, reason } => {
                write!(f, "domain {domain}: {reason}")
            }
            FaultError::UnknownDevice {
                event,
                dev,
                in_domain,
            } => {
                let kind = if *in_domain { "domain" } else { "event" };
                write!(f, "{kind} {event}: unknown device {dev}")
            }
            FaultError::TraceParse { error } => {
                write!(f, "trace does not parse: {error}")
            }
            FaultError::TraceVersion { found, expected } => {
                write!(
                    f,
                    "trace format version {found} (this build reads version {expected})"
                )
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// A seeded, replayable schedule of platform faults.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultSchedule {
    /// PRNG seed: identical seeds replay identical runs.
    pub seed: u64,
    /// The timed fault events.
    pub events: Vec<FaultEvent>,
    /// Correlated fault domains referenced by [`FaultEvent::DomainOutage`]
    /// and consulted for conditional sibling triggering (empty for
    /// uncorrelated schedules — the pre-domain behaviour).
    pub domains: Vec<FaultDomain>,
    /// Index into `events` from which entries are *replayed synthesized*
    /// windows ([`FaultTrace::replay_schedule`] appends them after the
    /// base events). In the recorded run a window opened by correlated
    /// triggering can never affect a task whose attempts were already
    /// computed when its dispatch was processed, so on replay these
    /// entries apply only to tasks dispatched at or after the window's
    /// `from` — see [`FaultSchedule::task_fault_prob_dispatched`].
    /// `None` for ordinary schedules: every event applies purely by
    /// attempt time.
    pub synthesized_after: Option<usize>,
}

impl FaultSchedule {
    /// An empty (fault-free) schedule with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultSchedule {
            seed,
            events: Vec::new(),
            domains: Vec::new(),
            synthesized_after: None,
        }
    }

    /// Add a transient-task-fault window (`dev: None` hits every device).
    pub fn with_task_faults(
        mut self,
        dev: Option<DeviceId>,
        prob: f64,
        from: SimTime,
        until: SimTime,
    ) -> Self {
        self.events.push(FaultEvent::TaskFaults {
            dev,
            prob,
            from,
            until,
        });
        self
    }

    /// Add a transfer-fault window.
    pub fn with_transfer_faults(mut self, prob: f64, from: SimTime, until: SimTime) -> Self {
        self.events
            .push(FaultEvent::TransferFaults { prob, from, until });
        self
    }

    /// Add a permanent dropout of `dev` at `at`. Panics for the host
    /// (device 0), which is the failover target of last resort.
    pub fn with_dropout(mut self, dev: DeviceId, at: SimTime) -> Self {
        assert!(dev.0 != 0, "the host CPU cannot drop out");
        self.events.push(FaultEvent::DeviceDropout { dev, at });
        self
    }

    /// Add a throttle ramp on `dev` (constant when the factors are equal).
    pub fn with_throttle(
        mut self,
        dev: DeviceId,
        from: SimTime,
        until: SimTime,
        start_factor: f64,
        end_factor: f64,
    ) -> Self {
        self.events.push(FaultEvent::ThrottleRamp {
            dev,
            from,
            until,
            start_factor,
            end_factor,
        });
        self
    }

    /// Add a silent-data-corruption window on `dev`.
    pub fn with_silent_corruption(
        mut self,
        dev: DeviceId,
        prob: f64,
        from: SimTime,
        until: SimTime,
    ) -> Self {
        self.events.push(FaultEvent::SilentCorruption {
            dev,
            prob,
            from,
            until,
        });
        self
    }

    /// Add a flaky window on `dev` (elevated transient-fault rate).
    pub fn with_flaky(
        mut self,
        dev: DeviceId,
        fault_prob: f64,
        from: SimTime,
        until: SimTime,
    ) -> Self {
        self.events.push(FaultEvent::Flaky {
            dev,
            fault_prob,
            from,
            until,
        });
        self
    }

    /// Add a profile perturbation on `dev` (planner-visible rate skew).
    pub fn with_profile_perturb(
        mut self,
        dev: DeviceId,
        factor: f64,
        from: SimTime,
        until: SimTime,
    ) -> Self {
        self.events.push(FaultEvent::ProfilePerturb {
            dev,
            factor,
            from,
            until,
        });
        self
    }

    /// Add a link-degradation window on the host↔`dev` link. Panics for
    /// the host (device 0): links are identified by their accelerator
    /// endpoint.
    pub fn with_link_degrade(
        mut self,
        dev: DeviceId,
        bandwidth_factor: f64,
        latency_factor: f64,
        from: SimTime,
        until: SimTime,
    ) -> Self {
        assert!(dev.0 != 0, "the host has no host link to degrade");
        self.events.push(FaultEvent::LinkDegrade {
            dev,
            bandwidth_factor,
            latency_factor,
            from,
            until,
        });
        self
    }

    /// Register a correlated fault domain and return its index for
    /// [`FaultSchedule::with_domain_dropout`] /
    /// [`FaultSchedule::with_domain_throttle`]. `trigger_prob` is the
    /// per-sibling probability that a member fault opens a
    /// `sibling_fault_prob` window of length `window` on each sibling
    /// (`0.0` disables conditional triggering).
    pub fn with_domain(
        mut self,
        name: &str,
        members: Vec<DeviceId>,
        trigger_prob: f64,
        sibling_fault_prob: f64,
        window: SimTime,
    ) -> Self {
        self.domains.push(FaultDomain {
            name: name.to_string(),
            members,
            trigger_prob,
            sibling_fault_prob,
            window,
        });
        self
    }

    /// Add a correlated drop-outage: every member of `domain` permanently
    /// drops out at `at` (the shared root — a power rail, a switch —
    /// fails).
    pub fn with_domain_dropout(mut self, domain: usize, at: SimTime) -> Self {
        self.events.push(FaultEvent::DomainOutage {
            domain,
            from: at,
            until: SimTime::MAX,
            throttle: None,
        });
        self
    }

    /// Add a correlated throttle: every member of `domain` runs `factor`×
    /// slower while the window is open (a browning rail, a shared thermal
    /// zone).
    pub fn with_domain_throttle(
        mut self,
        domain: usize,
        from: SimTime,
        until: SimTime,
        factor: f64,
    ) -> Self {
        self.events.push(FaultEvent::DomainOutage {
            domain,
            from,
            until,
            throttle: Some(factor),
        });
        self
    }

    /// `true` when the schedule contains no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// `true` when any domain has conditional triggering enabled — the
    /// executor only then allocates the correlated RNG stream, so
    /// domain-free schedules replay exactly as before.
    pub fn has_correlation(&self) -> bool {
        self.domains.iter().any(|d| d.trigger_prob > 0.0)
    }

    /// `true` when the schedule contains any [`FaultEvent::LinkDegrade`]
    /// window — the executor's fast path prices transfers nominally
    /// otherwise.
    pub fn has_link_degrade(&self) -> bool {
        self.events
            .iter()
            .any(|ev| matches!(ev, FaultEvent::LinkDegrade { .. }))
    }

    /// A fresh PRNG seeded from the schedule's seed.
    pub fn rng(&self) -> FaultRng {
        FaultRng::new(self.seed)
    }

    /// Probability that one task attempt dispatched on `dev` at `now`
    /// fails: overlapping windows — [`FaultEvent::TaskFaults`] and
    /// [`FaultEvent::Flaky`] alike — compose as independent failure
    /// sources (`1 - Π(1 - pᵢ)`).
    pub fn task_fault_prob(&self, dev: DeviceId, now: SimTime) -> f64 {
        self.task_fault_prob_with(dev, now, &[])
    }

    /// [`FaultSchedule::task_fault_prob`] with `extra` windows appended to
    /// the schedule's events — the executor composes the sibling windows it
    /// synthesized mid-run through this, and because the product runs over
    /// `events ++ extra` in order, it is bit-identical to evaluating a
    /// [`FaultTrace::replay_schedule`] (which appends the synthesized
    /// events to the event list) with no extras.
    pub fn task_fault_prob_with(&self, dev: DeviceId, now: SimTime, extra: &[FaultEvent]) -> f64 {
        self.task_fault_prob_dispatched(dev, now, SimTime::MAX, extra)
    }

    /// [`FaultSchedule::task_fault_prob_with`] for an attempt of a task
    /// dispatched at `dispatched`: events at or past `synthesized_after`
    /// are skipped unless they had already opened (`from <= dispatched`)
    /// when the task was dispatched. This reproduces the causality of the
    /// recorded run — the executor computes a task's attempt outcomes at
    /// dispatch time, so a sibling window synthesized later cannot reach
    /// them — and is a no-op when `synthesized_after` is `None`.
    pub fn task_fault_prob_dispatched(
        &self,
        dev: DeviceId,
        now: SimTime,
        dispatched: SimTime,
        extra: &[FaultEvent],
    ) -> f64 {
        let gated_from = self
            .synthesized_after
            .unwrap_or(usize::MAX)
            .min(self.events.len());
        let mut survive = 1.0;
        for (i, ev) in self.events.iter().chain(extra).enumerate() {
            // Synthesized windows — baked-in (`events[synthesized_after..]`)
            // or live (`extra`) — apply only to tasks dispatched *strictly
            // after* they opened, so a live run and its replay agree on
            // exactly which attempts each window can reach. Strictness
            // matters at a shared instant: a correlated dropout can
            // synthesize windows and re-dispatch killed work at the same
            // timestamp, and which windows exist mid-instant depends on
            // event processing order the replay cannot reconstruct.
            if i >= gated_from {
                let opened_by_dispatch = match ev {
                    FaultEvent::TaskFaults { from, .. } | FaultEvent::Flaky { from, .. } => {
                        *from < dispatched
                    }
                    _ => true,
                };
                if !opened_by_dispatch {
                    continue;
                }
            }
            let (prob, hit) = match ev {
                FaultEvent::TaskFaults {
                    dev: d,
                    prob,
                    from,
                    until,
                } => (
                    prob,
                    (d.is_none() || *d == Some(dev)) && in_window(now, *from, *until),
                ),
                FaultEvent::Flaky {
                    dev: d,
                    fault_prob,
                    from,
                    until,
                } => (fault_prob, *d == dev && in_window(now, *from, *until)),
                _ => continue,
            };
            if hit {
                survive *= 1.0 - prob.clamp(0.0, 1.0);
            }
        }
        (1.0 - survive).clamp(0.0, 1.0)
    }

    /// Probability that one *successful* task attempt on `dev` at `now`
    /// silently corrupts its output (independent composition across open
    /// windows, like [`FaultSchedule::task_fault_prob`]).
    pub fn corruption_prob(&self, dev: DeviceId, now: SimTime) -> f64 {
        let mut survive = 1.0;
        for ev in &self.events {
            if let FaultEvent::SilentCorruption {
                dev: d,
                prob,
                from,
                until,
            } = ev
            {
                if *d == dev && in_window(now, *from, *until) {
                    survive *= 1.0 - prob.clamp(0.0, 1.0);
                }
            }
        }
        (1.0 - survive).clamp(0.0, 1.0)
    }

    /// Probability that one transfer attempt at `now` fails.
    pub fn transfer_fault_prob(&self, now: SimTime) -> f64 {
        let mut survive = 1.0;
        for ev in &self.events {
            if let FaultEvent::TransferFaults { prob, from, until } = ev {
                if in_window(now, *from, *until) {
                    survive *= 1.0 - prob.clamp(0.0, 1.0);
                }
            }
        }
        (1.0 - survive).clamp(0.0, 1.0)
    }

    /// All scheduled dropouts as `(device, time)` pairs — individual
    /// [`FaultEvent::DeviceDropout`]s plus every member of each
    /// drop-outage domain (in event order, members in domain order).
    pub fn dropouts(&self) -> Vec<(DeviceId, SimTime)> {
        let mut out = Vec::new();
        for ev in &self.events {
            match ev {
                FaultEvent::DeviceDropout { dev, at } => out.push((*dev, *at)),
                FaultEvent::DomainOutage {
                    domain,
                    from,
                    throttle: None,
                    ..
                } => {
                    if let Some(d) = self.domains.get(*domain) {
                        out.extend(d.members.iter().map(|&m| (m, *from)));
                    }
                }
                _ => {}
            }
        }
        out
    }

    /// Execution-time multiplier for `dev` at `now`: the product of every
    /// open ramp's interpolated factor and every open domain throttle the
    /// device is a member of (1.0 when none is open).
    pub fn throttle_factor(&self, dev: DeviceId, now: SimTime) -> f64 {
        let mut factor = 1.0;
        for ev in &self.events {
            match ev {
                FaultEvent::ThrottleRamp {
                    dev: d,
                    from,
                    until,
                    start_factor,
                    end_factor,
                } if *d == dev && in_window(now, *from, *until) => {
                    let span = until.saturating_sub(*from).as_secs_f64();
                    let frac = if span > 0.0 {
                        (now.saturating_sub(*from).as_secs_f64() / span).clamp(0.0, 1.0)
                    } else {
                        0.0
                    };
                    factor *= start_factor + (end_factor - start_factor) * frac;
                }
                FaultEvent::DomainOutage {
                    domain,
                    from,
                    until,
                    throttle: Some(f),
                } if in_window(now, *from, *until)
                    && self.domains.get(*domain).is_some_and(|d| d.contains(dev)) =>
                {
                    factor *= f;
                }
                _ => {}
            }
        }
        factor
    }

    /// `(bandwidth_factor, latency_factor)` for the host↔`dev` link at
    /// `now`: the product over every open [`FaultEvent::LinkDegrade`]
    /// window on that link, `(1.0, 1.0)` when none is open.
    pub fn link_factors(&self, dev: DeviceId, now: SimTime) -> (f64, f64) {
        let (mut bw, mut lat) = (1.0, 1.0);
        for ev in &self.events {
            if let FaultEvent::LinkDegrade {
                dev: d,
                bandwidth_factor,
                latency_factor,
                from,
                until,
            } = ev
            {
                if *d == dev && in_window(now, *from, *until) {
                    bw *= bandwidth_factor;
                    lat *= latency_factor;
                }
            }
        }
        (bw, lat)
    }

    /// Whether any *runtime* disturbance is open at `now`: a fault,
    /// throttle, corruption, flaky, link-degradation or domain-throttle
    /// window containing `now`, or any dropout (individual or domain) that
    /// has already happened — a dead device never comes back, so its
    /// disturbance never closes. [`FaultEvent::ProfilePerturb`] is *not* a
    /// runtime disturbance (it skews only the planner's view), so a
    /// mispredicted-but-healthy platform reads as calm. The adapt
    /// controller consults this before de-escalating: a run only returns
    /// to its static plan once the platform is actually quiet.
    pub fn disturbance_open(&self, now: SimTime) -> bool {
        self.events.iter().any(|ev| match ev {
            FaultEvent::TaskFaults { from, until, .. }
            | FaultEvent::TransferFaults { from, until, .. }
            | FaultEvent::ThrottleRamp { from, until, .. }
            | FaultEvent::SilentCorruption { from, until, .. }
            | FaultEvent::Flaky { from, until, .. }
            | FaultEvent::LinkDegrade { from, until, .. }
            | FaultEvent::DomainOutage {
                from,
                until,
                throttle: Some(_),
                ..
            } => in_window(now, *from, *until),
            FaultEvent::DeviceDropout { at, .. } => *at <= now,
            FaultEvent::DomainOutage {
                from,
                throttle: None,
                ..
            } => *from <= now,
            FaultEvent::ProfilePerturb { .. } => false,
        })
    }

    /// Multiplier on the *planner-visible* throughput estimate for `dev`
    /// at `now`: the product of every open [`FaultEvent::ProfilePerturb`]
    /// window's factor (1.0 when none is open). True execution is never
    /// touched by this — only profiling/planning paths consult it.
    pub fn profile_factor(&self, dev: DeviceId, now: SimTime) -> f64 {
        let mut factor = 1.0;
        for ev in &self.events {
            if let FaultEvent::ProfilePerturb {
                dev: d,
                factor: f,
                from,
                until,
            } = ev
            {
                if *d == dev && in_window(now, *from, *until) {
                    factor *= f;
                }
            }
        }
        factor
    }

    /// `base` scaled by the throttle factor for `dev` at `now` — the one
    /// place execution time meets throttling, shared by the resilient
    /// executor's attempt loop, safe-mode completion, and the straggler
    /// watchdog's hedge/verification predictions.
    pub fn throttled_exec(&self, dev: DeviceId, now: SimTime, base: SimTime) -> SimTime {
        let factor = self.throttle_factor(dev, now);
        if factor == 1.0 {
            base
        } else {
            SimTime::from_secs_f64(base.as_secs_f64() * factor)
        }
    }

    /// Check internal consistency: probabilities in `[0, 1]`, positive
    /// throttle/link factors, non-empty ordered windows (`from < until`),
    /// no host dropout (individual or via a dropped domain), and
    /// well-formed domains. Errors are typed ([`FaultError`]) so callers
    /// can match on the exact defect; `Display` gives the human-readable
    /// message.
    pub fn validate(&self) -> Result<(), FaultError> {
        for (i, d) in self.domains.iter().enumerate() {
            if d.members.len() < 2 {
                return Err(FaultError::BadDomain {
                    domain: i,
                    reason: "a fault domain needs at least two members",
                });
            }
            if !(0.0..=1.0).contains(&d.trigger_prob) {
                return Err(FaultError::BadDomain {
                    domain: i,
                    reason: "trigger probability outside [0, 1]",
                });
            }
            if !(0.0..=1.0).contains(&d.sibling_fault_prob) {
                return Err(FaultError::BadDomain {
                    domain: i,
                    reason: "sibling fault probability outside [0, 1]",
                });
            }
        }
        for (i, ev) in self.events.iter().enumerate() {
            let window = |from: &SimTime, until: &SimTime| {
                if from >= until {
                    Err(FaultError::BadWindow {
                        event: i,
                        from: *from,
                        until: *until,
                    })
                } else {
                    Ok(())
                }
            };
            match ev {
                FaultEvent::TaskFaults {
                    prob, from, until, ..
                }
                | FaultEvent::TransferFaults { prob, from, until }
                | FaultEvent::SilentCorruption {
                    prob, from, until, ..
                }
                | FaultEvent::Flaky {
                    fault_prob: prob,
                    from,
                    until,
                    ..
                } => {
                    if !(0.0..=1.0).contains(prob) {
                        return Err(FaultError::BadProbability {
                            event: i,
                            prob: *prob,
                        });
                    }
                    window(from, until)?;
                }
                FaultEvent::DeviceDropout { dev, .. } => {
                    if dev.0 == 0 {
                        return Err(FaultError::HostDropout { event: i });
                    }
                }
                FaultEvent::ThrottleRamp {
                    from,
                    until,
                    start_factor,
                    end_factor,
                    ..
                } => {
                    if *start_factor <= 0.0 || *end_factor <= 0.0 {
                        return Err(FaultError::BadThrottleFactor { event: i });
                    }
                    window(from, until)?;
                }
                FaultEvent::ProfilePerturb {
                    factor,
                    from,
                    until,
                    ..
                } => {
                    if !(factor.is_finite() && *factor > 0.0) {
                        return Err(FaultError::BadProfileFactor {
                            event: i,
                            factor: *factor,
                        });
                    }
                    window(from, until)?;
                }
                FaultEvent::LinkDegrade {
                    dev,
                    bandwidth_factor,
                    latency_factor,
                    from,
                    until,
                } => {
                    if dev.0 == 0 {
                        return Err(FaultError::HostLink { event: i });
                    }
                    for factor in [bandwidth_factor, latency_factor] {
                        if !(factor.is_finite() && *factor > 0.0) {
                            return Err(FaultError::BadLinkFactor {
                                event: i,
                                factor: *factor,
                            });
                        }
                    }
                    window(from, until)?;
                }
                FaultEvent::DomainOutage {
                    domain,
                    from,
                    until,
                    throttle,
                } => {
                    let Some(d) = self.domains.get(*domain) else {
                        return Err(FaultError::UnknownDomain {
                            event: i,
                            domain: *domain,
                        });
                    };
                    match throttle {
                        Some(f) => {
                            if !(f.is_finite() && *f > 0.0) {
                                return Err(FaultError::BadThrottleFactor { event: i });
                            }
                            window(from, until)?;
                        }
                        None => {
                            if d.members.iter().any(|m| m.0 == 0) {
                                return Err(FaultError::HostInDroppedDomain {
                                    event: i,
                                    domain: *domain,
                                });
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// [`FaultSchedule::validate`] plus a platform-aware check: every
    /// device id named by an event or a domain membership must exist on
    /// `platform`. A schedule written for a 3-device platform silently
    /// no-ops (or panics deep in the executor) on a 2-device one; this
    /// catches the mismatch up front with a typed
    /// [`FaultError::UnknownDevice`].
    pub fn validate_for(&self, platform: &crate::Platform) -> Result<(), FaultError> {
        self.validate()?;
        let n = platform.devices.len();
        let check = |event: usize, dev: DeviceId, in_domain: bool| {
            if dev.0 >= n {
                Err(FaultError::UnknownDevice {
                    event,
                    dev,
                    in_domain,
                })
            } else {
                Ok(())
            }
        };
        for (i, d) in self.domains.iter().enumerate() {
            for &m in &d.members {
                check(i, m, true)?;
            }
        }
        for (i, ev) in self.events.iter().enumerate() {
            match ev {
                FaultEvent::TaskFaults { dev: Some(dev), .. }
                | FaultEvent::DeviceDropout { dev, .. }
                | FaultEvent::ThrottleRamp { dev, .. }
                | FaultEvent::SilentCorruption { dev, .. }
                | FaultEvent::Flaky { dev, .. }
                | FaultEvent::ProfilePerturb { dev, .. }
                | FaultEvent::LinkDegrade { dev, .. } => check(i, *dev, false)?,
                FaultEvent::TaskFaults { dev: None, .. }
                | FaultEvent::TransferFaults { .. }
                | FaultEvent::DomainOutage { .. } => {}
            }
        }
        Ok(())
    }
}

/// A recorded disturbance: the [`FaultSchedule`] a run executed under plus
/// every event the run *synthesized* while it ran (conditional sibling
/// windows opened by correlated triggering). Exports as deterministic JSON
/// so an observed run can be archived, diffed, replayed byte-identically,
/// or handed to the analyzer's degradation ranking as a what-if.
///
/// [`FaultTrace::replay_schedule`] folds the synthesized events into the
/// base schedule and zeroes every domain's `trigger_prob`: replaying that
/// schedule injects exactly the disturbance the recorded run observed —
/// the sibling windows open at the recorded instants instead of being
/// re-drawn — so the same seed reproduces the run bit for bit. (Window
/// composition is commutative, and conditional draws come from a separate
/// RNG stream, so moving a window from "synthesized during the run" to
/// "scheduled up front" changes nothing the base fault sampling sees.)
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct FaultTrace {
    /// Format version stamp ([`TRACE_VERSION`]). Defaulted to 0 when
    /// absent (see the hand-written `Deserialize`) so a pre-version file
    /// is rejected with a typed [`FaultError::TraceVersion`] instead of
    /// being silently misread.
    pub version: u32,
    /// The schedule the recorded run executed under.
    pub schedule: FaultSchedule,
    /// Events synthesized during the run, in trigger order.
    pub synthesized: Vec<FaultEvent>,
}

// Hand-written (the vendored serde derive has no `#[serde(default)]`): a
// missing `version` key reads as 0 so versionless legacy files surface as
// a typed version mismatch rather than a missing-field parse error.
impl Deserialize for FaultTrace {
    fn from_value(v: &serde::Value) -> Result<Self, serde::de::Error> {
        let m = v
            .as_map()
            .ok_or_else(|| serde::de::Error::custom("expected map for FaultTrace"))?;
        let version = match serde::de::entry(m, "version") {
            Some(v) => <u32 as Deserialize>::from_value(v)?,
            None => 0,
        };
        Ok(FaultTrace {
            version,
            schedule: serde::de::field(m, "schedule", "FaultTrace")?,
            synthesized: serde::de::field(m, "synthesized", "FaultTrace")?,
        })
    }

    // As derived (first occurrence of a key wins, unknown keys skipped),
    // except that a missing `version` reads as 0.
    fn read_json(r: &mut serde::json::Reader<'_>) -> Result<Self, serde::de::Error> {
        let (mut version, mut schedule, mut synthesized) = (None, None, None);
        r.begin_map()?;
        while let Some(k) = r.next_key()? {
            match &*k {
                "version" if version.is_none() => version = Some(u32::read_json(r)?),
                "schedule" if schedule.is_none() => schedule = Some(Deserialize::read_json(r)?),
                "synthesized" if synthesized.is_none() => {
                    synthesized = Some(Deserialize::read_json(r)?)
                }
                _ => r.skip_value()?,
            }
        }
        let missing = |f| serde::de::missing(f, "FaultTrace");
        Ok(FaultTrace {
            version: version.unwrap_or(0),
            schedule: schedule.ok_or_else(|| missing("schedule"))?,
            synthesized: synthesized.ok_or_else(|| missing("synthesized"))?,
        })
    }
}

/// The [`FaultTrace`] JSON format version this build writes and reads.
pub const TRACE_VERSION: u32 = 1;

impl FaultTrace {
    /// Pair a schedule with the events a run synthesized under it (see
    /// `RunReport::synthesized_faults`).
    pub fn new(schedule: FaultSchedule, synthesized: Vec<FaultEvent>) -> Self {
        FaultTrace {
            version: TRACE_VERSION,
            schedule,
            synthesized,
        }
    }

    /// Deterministic pretty-printed JSON (field order is declaration
    /// order; identical traces render identical bytes).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("fault trace serialization cannot fail")
    }

    /// Parse a trace previously written by [`FaultTrace::to_json`].
    ///
    /// Typed rejection instead of a panic or a silent misparse: a document
    /// that does not parse (truncated, corrupted) is
    /// [`FaultError::TraceParse`]; a version other than [`TRACE_VERSION`]
    /// (including files predating the version header, which default to 0)
    /// is [`FaultError::TraceVersion`]; a trace whose schedule fails
    /// validation reports the schedule's own [`FaultError`].
    pub fn from_json(text: &str) -> Result<Self, FaultError> {
        let trace: FaultTrace = serde_json::from_str(text).map_err(|e| FaultError::TraceParse {
            error: e.to_string(),
        })?;
        validate_version(trace.version, TRACE_VERSION)
            .map_err(|(found, expected)| FaultError::TraceVersion { found, expected })?;
        trace.schedule.validate()?;
        Ok(trace)
    }

    /// The deterministic replay schedule: base events plus the synthesized
    /// windows, with conditional triggering disabled so nothing is drawn
    /// twice. Running any executor under this schedule (same seed)
    /// reproduces the recorded run's fault behaviour exactly.
    pub fn replay_schedule(&self) -> FaultSchedule {
        let mut schedule = self.schedule.clone();
        // Synthesized windows are appended *after* the base events and the
        // boundary recorded, so replay gates them on task dispatch time:
        // in the recorded run a window opened mid-flight could not touch a
        // task whose attempts were already computed at dispatch.
        schedule.synthesized_after = Some(schedule.events.len());
        schedule.events.extend(self.synthesized.iter().cloned());
        for d in &mut schedule.domains {
            d.trigger_prob = 0.0;
        }
        schedule
    }
}

/// How the runtime retries a faulted task on its device before failing it
/// over to a survivor.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Attempts on the bound device before the task fails over (≥ 1).
    pub max_attempts: u32,
    /// Backoff charged (as simulated time) before the first retry.
    pub backoff: SimTime,
    /// Multiplier applied to the backoff for each further retry.
    pub backoff_multiplier: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff: SimTime::from_micros(10),
            backoff_multiplier: 2.0,
        }
    }
}

impl RetryPolicy {
    /// Backoff before the retry following failed attempt number `attempt`
    /// (1-based): `backoff × multiplier^(attempt − 1)`.
    pub fn backoff_for(&self, attempt: u32) -> SimTime {
        let scale = self
            .backoff_multiplier
            .powi(attempt.saturating_sub(1) as i32);
        SimTime::from_secs_f64(self.backoff.as_secs_f64() * scale)
    }
}

/// What the fault machinery did during one run (all zeros for a healthy
/// run). Reported through `RunReport::faults`.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultCounters {
    /// Transient task-attempt failures sampled.
    pub task_faults: u64,
    /// Retries performed on the same device after a task fault.
    pub task_retries: u64,
    /// Transfer attempts that failed.
    pub transfer_faults: u64,
    /// Transfer re-issues (equal to `transfer_faults`; every failed
    /// transfer is re-issued).
    pub transfer_retries: u64,
    /// Tasks forcibly moved to a surviving device (retry exhaustion, or a
    /// binding that named a dead device).
    pub failovers: u64,
    /// Completed-but-uncommitted tasks re-executed after a device dropout
    /// (their epoch had not reached its taskwait checkpoint).
    pub reexecutions: u64,
    /// Devices permanently lost.
    pub device_dropouts: u64,
    /// Tasks finished in safe mode (fault sampling disabled after retries
    /// were exhausted with no surviving failover target).
    pub safe_mode_tasks: u64,
    /// Sibling fault windows opened by correlated triggering (a member
    /// fault conditionally raising its domain siblings' fault rate).
    pub correlated_triggers: u64,
    /// Simulated time spent in retry backoff.
    pub backoff_time: SimTime,
    /// Simulated time wasted on faults: failed attempts, backoff, and
    /// progress discarded by dropouts.
    pub time_lost: SimTime,
}

impl FaultCounters {
    /// Total faults injected (task + transfer + dropouts).
    pub fn faults_injected(&self) -> u64 {
        self.task_faults + self.transfer_faults + self.device_dropouts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_per_seed() {
        let mut a = FaultRng::new(42);
        let mut b = FaultRng::new(42);
        let xs: Vec<u64> = (0..100).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..100).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mut c = FaultRng::new(43);
        assert_ne!(xs[0], c.next_u64());
    }

    #[test]
    fn rng_f64_in_unit_interval() {
        let mut r = FaultRng::new(7);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x), "{x}");
        }
    }

    #[test]
    fn task_fault_prob_respects_window_and_device() {
        let s = FaultSchedule::new(1).with_task_faults(
            Some(DeviceId(1)),
            0.5,
            SimTime::from_millis(10),
            SimTime::from_millis(20),
        );
        assert_eq!(s.task_fault_prob(DeviceId(1), SimTime::from_millis(5)), 0.0);
        assert_eq!(
            s.task_fault_prob(DeviceId(1), SimTime::from_millis(15)),
            0.5
        );
        assert_eq!(
            s.task_fault_prob(DeviceId(1), SimTime::from_millis(20)),
            0.0
        );
        assert_eq!(
            s.task_fault_prob(DeviceId(0), SimTime::from_millis(15)),
            0.0
        );
    }

    #[test]
    fn overlapping_windows_compose_independently() {
        let s = FaultSchedule::new(1)
            .with_task_faults(None, 0.5, SimTime::ZERO, SimTime::MAX)
            .with_task_faults(None, 0.5, SimTime::ZERO, SimTime::MAX);
        let p = s.task_fault_prob(DeviceId(0), SimTime::from_millis(1));
        assert!((p - 0.75).abs() < 1e-12, "{p}");
    }

    #[test]
    fn throttle_ramp_interpolates_linearly() {
        let s = FaultSchedule::new(1).with_throttle(
            DeviceId(1),
            SimTime::from_millis(0),
            SimTime::from_millis(100),
            1.0,
            9.0,
        );
        assert_eq!(s.throttle_factor(DeviceId(1), SimTime::from_millis(0)), 1.0);
        let mid = s.throttle_factor(DeviceId(1), SimTime::from_millis(50));
        assert!((mid - 5.0).abs() < 1e-9, "{mid}");
        // Outside the window: nominal.
        assert_eq!(
            s.throttle_factor(DeviceId(1), SimTime::from_millis(100)),
            1.0
        );
        assert_eq!(
            s.throttle_factor(DeviceId(0), SimTime::from_millis(50)),
            1.0
        );
    }

    #[test]
    fn backoff_grows_exponentially() {
        let p = RetryPolicy {
            max_attempts: 5,
            backoff: SimTime::from_micros(10),
            backoff_multiplier: 2.0,
        };
        assert_eq!(p.backoff_for(1), SimTime::from_micros(10));
        assert_eq!(p.backoff_for(2), SimTime::from_micros(20));
        assert_eq!(p.backoff_for(3), SimTime::from_micros(40));
    }

    #[test]
    #[should_panic(expected = "host CPU cannot drop out")]
    fn host_dropout_is_rejected() {
        let _ = FaultSchedule::new(1).with_dropout(DeviceId(0), SimTime::ZERO);
    }

    #[test]
    fn corruption_prob_respects_window_and_device() {
        let s = FaultSchedule::new(1).with_silent_corruption(
            DeviceId(1),
            0.5,
            SimTime::from_millis(10),
            SimTime::from_millis(20),
        );
        assert_eq!(s.corruption_prob(DeviceId(1), SimTime::from_millis(5)), 0.0);
        assert_eq!(
            s.corruption_prob(DeviceId(1), SimTime::from_millis(15)),
            0.5
        );
        assert_eq!(
            s.corruption_prob(DeviceId(1), SimTime::from_millis(20)),
            0.0
        );
        assert_eq!(
            s.corruption_prob(DeviceId(0), SimTime::from_millis(15)),
            0.0
        );
        // Corruption never feeds the fault-sampling path.
        assert_eq!(
            s.task_fault_prob(DeviceId(1), SimTime::from_millis(15)),
            0.0
        );
    }

    #[test]
    fn flaky_composes_with_task_faults() {
        let s = FaultSchedule::new(1)
            .with_task_faults(Some(DeviceId(1)), 0.5, SimTime::ZERO, SimTime::MAX)
            .with_flaky(DeviceId(1), 0.5, SimTime::ZERO, SimTime::MAX);
        let p = s.task_fault_prob(DeviceId(1), SimTime::from_millis(1));
        assert!((p - 0.75).abs() < 1e-12, "{p}");
        // Both windows are device-scoped.
        assert_eq!(s.task_fault_prob(DeviceId(0), SimTime::from_millis(1)), 0.0);
    }

    #[test]
    fn throttled_exec_scales_by_factor() {
        let s =
            FaultSchedule::new(1).with_throttle(DeviceId(1), SimTime::ZERO, SimTime::MAX, 4.0, 4.0);
        let base = SimTime::from_millis(10);
        assert_eq!(
            s.throttled_exec(DeviceId(1), SimTime::from_millis(1), base),
            SimTime::from_millis(40)
        );
        // Factor 1.0 passes `base` through exactly (no float round-trip).
        assert_eq!(
            s.throttled_exec(DeviceId(0), SimTime::from_millis(1), base),
            base
        );
    }

    #[test]
    fn validate_catches_bad_gray_events() {
        let mut s = FaultSchedule::new(1);
        s.events.push(FaultEvent::SilentCorruption {
            dev: DeviceId(1),
            prob: -0.1,
            from: SimTime::ZERO,
            until: SimTime::MAX,
        });
        assert!(s.validate().is_err());
        let mut s = FaultSchedule::new(1);
        s.events.push(FaultEvent::Flaky {
            dev: DeviceId(1),
            fault_prob: 0.5,
            from: SimTime::from_millis(2),
            until: SimTime::from_millis(1),
        });
        assert!(s.validate().is_err());
        assert!(FaultSchedule::new(1)
            .with_silent_corruption(DeviceId(1), 0.5, SimTime::ZERO, SimTime::MAX)
            .with_flaky(DeviceId(1), 0.5, SimTime::ZERO, SimTime::MAX)
            .validate()
            .is_ok());
    }

    #[test]
    fn profile_perturb_skews_only_the_planner_view() {
        let s = FaultSchedule::new(1).with_profile_perturb(
            DeviceId(1),
            0.5,
            SimTime::ZERO,
            SimTime::from_millis(10),
        );
        assert_eq!(s.profile_factor(DeviceId(1), SimTime::ZERO), 0.5);
        // Outside the window and on other devices: nominal.
        assert_eq!(s.profile_factor(DeviceId(1), SimTime::from_millis(10)), 1.0);
        assert_eq!(s.profile_factor(DeviceId(0), SimTime::ZERO), 1.0);
        // True execution paths never see the perturbation.
        assert_eq!(s.throttle_factor(DeviceId(1), SimTime::ZERO), 1.0);
        assert_eq!(s.task_fault_prob(DeviceId(1), SimTime::ZERO), 0.0);
        // Overlapping windows compose multiplicatively.
        let s2 = s.with_profile_perturb(DeviceId(1), 0.5, SimTime::ZERO, SimTime::MAX);
        assert_eq!(s2.profile_factor(DeviceId(1), SimTime::ZERO), 0.25);
    }

    #[test]
    fn validate_catches_bad_profile_factor() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut s = FaultSchedule::new(1);
            s.events.push(FaultEvent::ProfilePerturb {
                dev: DeviceId(1),
                factor: bad,
                from: SimTime::ZERO,
                until: SimTime::MAX,
            });
            assert!(s.validate().is_err(), "factor {bad} should be rejected");
        }
        assert!(FaultSchedule::new(1)
            .with_profile_perturb(DeviceId(1), 0.5, SimTime::ZERO, SimTime::MAX)
            .validate()
            .is_ok());
    }

    #[test]
    fn validate_catches_bad_probability() {
        let mut s = FaultSchedule::new(1);
        s.events.push(FaultEvent::TaskFaults {
            dev: None,
            prob: 1.5,
            from: SimTime::ZERO,
            until: SimTime::MAX,
        });
        assert_eq!(
            s.validate(),
            Err(FaultError::BadProbability {
                event: 0,
                prob: 1.5
            })
        );
        assert!(FaultSchedule::new(1).validate().is_ok());
    }

    #[test]
    fn validate_rejects_empty_windows() {
        // `from == until` is a half-open window containing nothing: it can
        // never fire, so it is a schedule bug, not a no-op.
        let mut s = FaultSchedule::new(1);
        s.events.push(FaultEvent::TaskFaults {
            dev: None,
            prob: 0.5,
            from: SimTime::from_millis(3),
            until: SimTime::from_millis(3),
        });
        assert_eq!(
            s.validate(),
            Err(FaultError::BadWindow {
                event: 0,
                from: SimTime::from_millis(3),
                until: SimTime::from_millis(3),
            })
        );
    }

    fn two_dev_domain(trigger: f64) -> FaultSchedule {
        FaultSchedule::new(1).with_domain(
            "pcie-switch",
            vec![DeviceId(1), DeviceId(2)],
            trigger,
            0.5,
            SimTime::from_millis(1),
        )
    }

    #[test]
    fn domain_dropout_drops_every_member() {
        let s = two_dev_domain(0.0).with_domain_dropout(0, SimTime::from_millis(5));
        assert_eq!(
            s.dropouts(),
            vec![
                (DeviceId(1), SimTime::from_millis(5)),
                (DeviceId(2), SimTime::from_millis(5)),
            ]
        );
        assert!(s.validate().is_ok());
        assert!(!s.has_correlation());
        assert!(two_dev_domain(0.5).has_correlation());
    }

    #[test]
    fn domain_throttle_hits_members_only() {
        let s = two_dev_domain(0.0).with_domain_throttle(
            0,
            SimTime::ZERO,
            SimTime::from_millis(10),
            4.0,
        );
        assert_eq!(s.throttle_factor(DeviceId(1), SimTime::from_millis(1)), 4.0);
        assert_eq!(s.throttle_factor(DeviceId(2), SimTime::from_millis(1)), 4.0);
        assert_eq!(s.throttle_factor(DeviceId(0), SimTime::from_millis(1)), 1.0);
        assert_eq!(
            s.throttle_factor(DeviceId(1), SimTime::from_millis(10)),
            1.0
        );
    }

    #[test]
    fn link_factors_compose_and_respect_window() {
        let s = FaultSchedule::new(1)
            .with_link_degrade(
                DeviceId(1),
                0.5,
                2.0,
                SimTime::ZERO,
                SimTime::from_millis(10),
            )
            .with_link_degrade(
                DeviceId(1),
                0.5,
                1.0,
                SimTime::from_millis(5),
                SimTime::from_millis(10),
            );
        assert_eq!(
            s.link_factors(DeviceId(1), SimTime::from_millis(1)),
            (0.5, 2.0)
        );
        assert_eq!(
            s.link_factors(DeviceId(1), SimTime::from_millis(6)),
            (0.25, 2.0)
        );
        assert_eq!(
            s.link_factors(DeviceId(1), SimTime::from_millis(10)),
            (1.0, 1.0)
        );
        assert_eq!(
            s.link_factors(DeviceId(2), SimTime::from_millis(1)),
            (1.0, 1.0)
        );
    }

    #[test]
    #[should_panic(expected = "host has no host link")]
    fn host_link_degrade_is_rejected() {
        let _ = FaultSchedule::new(1).with_link_degrade(
            DeviceId(0),
            0.5,
            1.0,
            SimTime::ZERO,
            SimTime::MAX,
        );
    }

    #[test]
    fn validate_catches_bad_domains_and_outages() {
        // Unknown domain index.
        let s = FaultSchedule::new(1).with_domain_dropout(0, SimTime::ZERO);
        assert_eq!(
            s.validate(),
            Err(FaultError::UnknownDomain {
                event: 0,
                domain: 0
            })
        );
        // Host inside a dropped domain.
        let s = FaultSchedule::new(1)
            .with_domain(
                "rail",
                vec![DeviceId(0), DeviceId(1)],
                0.0,
                0.0,
                SimTime::ZERO,
            )
            .with_domain_dropout(0, SimTime::ZERO);
        assert_eq!(
            s.validate(),
            Err(FaultError::HostInDroppedDomain {
                event: 0,
                domain: 0
            })
        );
        // ... but a throttled domain may include the host.
        let s = FaultSchedule::new(1)
            .with_domain(
                "rail",
                vec![DeviceId(0), DeviceId(1)],
                0.0,
                0.0,
                SimTime::ZERO,
            )
            .with_domain_throttle(0, SimTime::ZERO, SimTime::MAX, 2.0);
        assert!(s.validate().is_ok());
        // A one-member domain is no domain.
        let s =
            FaultSchedule::new(1).with_domain("solo", vec![DeviceId(1)], 0.5, 0.5, SimTime::ZERO);
        assert!(matches!(
            s.validate(),
            Err(FaultError::BadDomain { domain: 0, .. })
        ));
        // Bad link factor.
        let mut s = FaultSchedule::new(1);
        s.events.push(FaultEvent::LinkDegrade {
            dev: DeviceId(1),
            bandwidth_factor: 0.0,
            latency_factor: 1.0,
            from: SimTime::ZERO,
            until: SimTime::MAX,
        });
        assert_eq!(
            s.validate(),
            Err(FaultError::BadLinkFactor {
                event: 0,
                factor: 0.0
            })
        );
    }

    #[test]
    fn disturbance_open_tracks_windows_and_dropouts() {
        let s = FaultSchedule::new(1)
            .with_throttle(
                DeviceId(1),
                SimTime::from_millis(1),
                SimTime::from_millis(2),
                4.0,
                4.0,
            )
            .with_dropout(DeviceId(2), SimTime::from_millis(10));
        assert!(!s.disturbance_open(SimTime::ZERO));
        assert!(s.disturbance_open(SimTime::from_millis(1)));
        // The throttle window closed and the dropout has not happened yet.
        assert!(!s.disturbance_open(SimTime::from_millis(5)));
        // A dropout never closes: the device stays dead.
        assert!(s.disturbance_open(SimTime::from_millis(11)));
        // Profile perturbation skews only the planner: never a runtime
        // disturbance.
        let p = FaultSchedule::new(1).with_profile_perturb(
            DeviceId(1),
            0.5,
            SimTime::ZERO,
            SimTime::MAX,
        );
        assert!(!p.disturbance_open(SimTime::from_millis(1)));
    }

    #[test]
    fn fault_trace_replay_schedule_bakes_synthesized_windows() {
        let base = two_dev_domain(0.8).with_task_faults(
            Some(DeviceId(1)),
            0.5,
            SimTime::ZERO,
            SimTime::from_millis(2),
        );
        let synth = vec![FaultEvent::TaskFaults {
            dev: Some(DeviceId(2)),
            prob: 0.5,
            from: SimTime::from_millis(1),
            until: SimTime::from_millis(2),
        }];
        let trace = FaultTrace::new(base.clone(), synth.clone());
        let replay = trace.replay_schedule();
        // Same seed, triggering disabled, synthesized windows folded in.
        assert_eq!(replay.seed, base.seed);
        assert!(!replay.has_correlation());
        assert_eq!(replay.events.len(), base.events.len() + synth.len());
        assert_eq!(
            replay.task_fault_prob(DeviceId(2), SimTime::from_micros(1500)),
            0.5
        );
        // JSON round trip is exact and deterministic.
        let json = trace.to_json();
        let back = FaultTrace::from_json(&json).unwrap();
        assert_eq!(back, trace);
        assert_eq!(back.to_json(), json);
    }

    // ---- dedicated validate() error-case coverage -----------------------

    #[test]
    fn validate_rejects_zero_length_and_inverted_windows() {
        // Zero-length: from == until.
        let t = SimTime::from_millis(3);
        let zero = FaultSchedule::new(0).with_transfer_faults(0.1, t, t);
        assert_eq!(
            zero.validate(),
            Err(FaultError::BadWindow {
                event: 0,
                from: t,
                until: t
            })
        );
        // Inverted: from > until.
        let inv = FaultSchedule::new(0).with_throttle(
            DeviceId(1),
            SimTime::from_millis(5),
            SimTime::from_millis(1),
            2.0,
            2.0,
        );
        assert!(matches!(
            inv.validate(),
            Err(FaultError::BadWindow { event: 0, .. })
        ));
    }

    #[test]
    fn validate_accepts_overlapping_windows() {
        // Overlap is legal by design: windows compose as independent
        // failure sources (see `overlapping_windows_compose_independently`).
        let s = FaultSchedule::new(0)
            .with_task_faults(
                Some(DeviceId(1)),
                0.2,
                SimTime::ZERO,
                SimTime::from_millis(5),
            )
            .with_task_faults(
                Some(DeviceId(1)),
                0.3,
                SimTime::from_millis(2),
                SimTime::from_millis(8),
            );
        assert_eq!(s.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_out_of_unit_probabilities() {
        for prob in [-0.1, 1.5, f64::NAN] {
            let s = FaultSchedule::new(0).with_task_faults(None, prob, SimTime::ZERO, SimTime::MAX);
            let Err(FaultError::BadProbability { event: 0, prob: p }) = s.validate() else {
                panic!("probability {prob} must be rejected");
            };
            // NaN != NaN, so compare via bits.
            assert_eq!(p.to_bits(), prob.to_bits());
        }
    }

    #[test]
    fn validate_for_rejects_out_of_range_device_ids() {
        let platform = crate::Platform::test_small(); // 2 devices: 0, 1
        let ghost = DeviceId(7);

        // Every event shape naming a device is checked.
        let cases: Vec<FaultSchedule> = vec![
            FaultSchedule::new(0).with_task_faults(Some(ghost), 0.1, SimTime::ZERO, SimTime::MAX),
            FaultSchedule::new(0).with_dropout(ghost, SimTime::ZERO),
            FaultSchedule::new(0).with_throttle(ghost, SimTime::ZERO, SimTime::MAX, 2.0, 2.0),
            FaultSchedule::new(0).with_silent_corruption(ghost, 0.1, SimTime::ZERO, SimTime::MAX),
            FaultSchedule::new(0).with_flaky(ghost, 0.1, SimTime::ZERO, SimTime::MAX),
            FaultSchedule::new(0).with_profile_perturb(ghost, 0.5, SimTime::ZERO, SimTime::MAX),
            FaultSchedule::new(0).with_link_degrade(ghost, 0.5, 2.0, SimTime::ZERO, SimTime::MAX),
        ];
        for s in cases {
            // Plain validate has no platform, so it cannot object…
            assert_eq!(s.validate(), Ok(()));
            // …but the platform-aware check does, with the typed error.
            assert_eq!(
                s.validate_for(&platform),
                Err(FaultError::UnknownDevice {
                    event: 0,
                    dev: ghost,
                    in_domain: false
                })
            );
        }

        // Domain membership is checked too, flagged as a domain index.
        let s = FaultSchedule::new(0).with_domain(
            "ghost-rail",
            vec![DeviceId(1), ghost],
            0.5,
            0.5,
            SimTime::from_millis(1),
        );
        assert_eq!(s.validate(), Ok(()));
        assert_eq!(
            s.validate_for(&platform),
            Err(FaultError::UnknownDevice {
                event: 0,
                dev: ghost,
                in_domain: true
            })
        );

        // An in-range schedule passes both.
        let ok = FaultSchedule::new(0).with_task_faults(
            Some(DeviceId(1)),
            0.1,
            SimTime::ZERO,
            SimTime::MAX,
        );
        assert_eq!(ok.validate_for(&platform), Ok(()));
    }

    #[test]
    fn rng_cursor_round_trips() {
        let mut a = FaultRng::new(0xDEAD_BEEF);
        a.next_u64();
        a.next_f64();
        let mut b = FaultRng::from_cursor(a.cursor());
        assert_eq!(a.next_u64(), b.next_u64());
        assert_eq!(a.next_f64(), b.next_f64());
        assert_eq!(a.cursor(), b.cursor());
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Standard FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn trace_load_rejects_corrupt_and_mismatched_inputs() {
        let trace = FaultTrace::new(
            FaultSchedule::new(7).with_dropout(DeviceId(1), SimTime::from_millis(1)),
            Vec::new(),
        );
        let json = trace.to_json();

        // The happy path round-trips, version included.
        let back = FaultTrace::from_json(&json).unwrap();
        assert_eq!(back, trace);
        assert_eq!(back.version, TRACE_VERSION);

        // Truncation: cut mid-document.
        let truncated = &json[..json.len() / 2];
        assert!(matches!(
            FaultTrace::from_json(truncated),
            Err(FaultError::TraceParse { .. })
        ));

        // Corruption: flip a structural byte.
        let corrupted = json.replacen("\"schedule\"", "\"schedul!\"", 1);
        assert!(matches!(
            FaultTrace::from_json(&corrupted),
            Err(FaultError::TraceParse { .. })
        ));

        // A pre-version file deserializes as version 0 and is rejected as a
        // version mismatch, not misread.
        let unversioned = json.replacen("  \"version\": 1,\n", "", 1);
        assert_ne!(unversioned, json, "version stamp must be present to strip");
        assert_eq!(
            FaultTrace::from_json(&unversioned),
            Err(FaultError::TraceVersion {
                found: 0,
                expected: TRACE_VERSION
            })
        );

        // A future version is rejected the same way.
        let future = json.replacen("\"version\": 1", "\"version\": 99", 1);
        assert_eq!(
            FaultTrace::from_json(&future),
            Err(FaultError::TraceVersion {
                found: 99,
                expected: TRACE_VERSION
            })
        );

        // A parsing trace whose schedule is invalid reports the schedule's
        // own typed error.
        let mut bad = trace.clone();
        bad.schedule.events.push(FaultEvent::TaskFaults {
            dev: None,
            prob: 2.0,
            from: SimTime::ZERO,
            until: SimTime::MAX,
        });
        assert!(matches!(
            FaultTrace::from_json(&bad.to_json()),
            Err(FaultError::BadProbability { .. })
        ));
    }
}
