//! The planning service (DESIGN.md §8.9): an overload-hardened, long-lived
//! front-end over the immutable [`Analyzer`].
//!
//! PRs 1–9 hardened a *single run*; this module hardens *sustained
//! traffic*. It is built from four pieces:
//!
//! * a **wire codec** — a minimal HTTP/1.1-style frame carrying a JSON
//!   [`PlanRequest`] body. [`decode_request`] is total: any byte string
//!   yields either a request or a typed [`ServiceError`], never a panic
//!   and never an unbounded read (oversized payloads are rejected on the
//!   *claimed* length, before the body is touched).
//! * a **deterministic service engine** ([`PlanService`]) — a
//!   discrete-event simulation over virtual time with a bounded admission
//!   queue, a concurrency-limited worker pool, per-client token-bucket
//!   rate limits, per-request deadline budgets enforced at queue-pop and
//!   at mid-solve checkpoints, and graceful degradation through a
//!   plan-memoization cache keyed by (app class, platform digest, problem
//!   size). Every admitted byte string gets exactly one terminal response
//!   (the *shed-or-serve* invariant, oracle 10).
//! * a seeded [`ChaosSchedule`] — burst arrivals, slow-loris/torn bodies,
//!   malformed JSON, oversized payloads and worker stalls, drawn from
//!   pinned RNG streams ([`LOAD_STREAM`], [`CHAOS_STREAM`]) so every
//!   overload scenario is byte-replayable.
//! * a **load generator** ([`generate_load`], [`run_load`]) — seeded
//!   request mixes over a small template-app pool, publishing
//!   `hm_service_*` series (docs/METRICS.md) and a deterministic summary
//!   CI double-runs and byte-diffs.
//!
//! The engine runs on virtual time precisely so overload behaviour is
//! reproducible: two same-seed executions produce byte-identical
//! responses, metrics and summaries, which is what lets CI pin the
//! service's shedding decisions the same way it pins fault handling.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use hetero_platform::{fnv1a_64, FaultRng, Platform, SimTime};
use hetero_runtime::{LogHistogram, MetricsRegistry, OracleKind, OracleViolation};
use serde::{Deserialize, Serialize};

use crate::analyzer::Analyzer;
use crate::class::AppClass;
use crate::descriptor::{
    AccessPattern, AppDescriptor, BufferSpec, ExecutionFlow, KernelSpec, SyncPolicy,
};
use crate::strategy::ExecutionConfig;
use hetero_platform::{Efficiency, KernelProfile, Precision};
use hetero_runtime::AccessMode;

// ---------------------------------------------------------------------------
// Pinned RNG streams
// ---------------------------------------------------------------------------

/// Dedicated stream for the load generator's arrival process and request
/// mix, seeded as `seed ^ LOAD_STREAM`. Pinned by
/// `service_stream_constants_are_pinned` alongside the executor streams.
pub const LOAD_STREAM: u64 = 0x10AD_9E4E_CA70_12F5;

/// Dedicated stream for chaos-injection draws (which arrivals get torn,
/// corrupted or inflated), seeded as `chaos.seed ^ CHAOS_STREAM`. Separate
/// from [`LOAD_STREAM`] so enabling chaos never shifts the healthy arrival
/// sequence.
pub const CHAOS_STREAM: u64 = 0xC4A0_5C4A_05C4_A05C;

// ---------------------------------------------------------------------------
// Wire types
// ---------------------------------------------------------------------------

/// A typed planning request: the JSON body of one service frame.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PlanRequest {
    /// Client-chosen request id, echoed in the response.
    pub id: u64,
    /// Client identity, the rate-limiting key.
    pub client: String,
    /// The application to plan.
    pub app: AppDescriptor,
    /// Requested execution configuration; `None` lets the analyzer pick
    /// the best strategy (Table I).
    pub config: Option<ExecutionConfig>,
    /// What-if mode: also simulate the chosen plan and report its
    /// predicted makespan.
    pub what_if: bool,
    /// Per-request deadline budget in virtual microseconds, measured from
    /// arrival; `None` falls back to the service default.
    pub deadline_us: Option<u64>,
}

/// A terminal success: the planned (or cached) answer for one request.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PlanResponse {
    /// Echoed request id.
    pub id: u64,
    /// Echoed application name.
    pub app: String,
    /// Detected application class.
    pub class: AppClass,
    /// The execution configuration the plan uses.
    pub config: ExecutionConfig,
    /// Number of tasks the lowered program submits.
    pub tasks: u64,
    /// Predicted makespan in microseconds (what-if mode only).
    pub makespan_us: Option<u64>,
    /// The answer came from the memoization cache.
    pub cached: bool,
    /// The answer is a stale cached plan served because the solver pool
    /// was saturated (graceful degradation instead of rejection).
    pub degraded: bool,
    /// Virtual time spent queued, microseconds.
    pub queue_us: u64,
    /// Virtual time spent in service (solve or cache serve), microseconds.
    pub service_us: u64,
}

/// A typed terminal failure. Every rejected request gets exactly one of
/// these — the service never panics, never hangs, and never drops a
/// request silently.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ServiceError {
    /// The byte string is not a well-formed service frame.
    BadFrame {
        /// What was wrong with the frame.
        reason: String,
    },
    /// The frame claims a body larger than the service accepts; rejected
    /// on the claim, before any body bytes are read.
    Oversized {
        /// Claimed body length in bytes.
        bytes: u64,
        /// The service's limit.
        limit: u64,
    },
    /// The body ended before `content-length` bytes arrived (a torn write
    /// or a slow-loris client).
    TornBody {
        /// Bytes actually present.
        got: u64,
        /// Bytes the header promised.
        want: u64,
    },
    /// The body is not valid request JSON.
    BadJson {
        /// Parser diagnostic.
        error: String,
    },
    /// The request parsed but is semantically unacceptable (invalid
    /// descriptor, or resource caps exceeded).
    InvalidRequest {
        /// Validation diagnostic.
        reason: String,
    },
    /// The bounded admission queue is full and no cached plan could be
    /// served in its place.
    QueueFull {
        /// Queue depth at rejection.
        depth: u64,
        /// Configured capacity.
        capacity: u64,
    },
    /// The client exhausted its token bucket.
    RateLimited {
        /// The offending client.
        client: String,
    },
    /// The deadline budget expired while the request sat in the queue
    /// (checked at queue-pop).
    DeadlineQueue {
        /// Time spent queued, microseconds.
        waited_us: u64,
        /// The budget, microseconds.
        budget_us: u64,
    },
    /// The deadline budget expired mid-solve (checked at solve
    /// checkpoints; the partial solve is abandoned).
    DeadlineSolve {
        /// Time from arrival to the aborting checkpoint, microseconds.
        elapsed_us: u64,
        /// The budget, microseconds.
        budget_us: u64,
    },
}

impl ServiceError {
    /// Stable short name, used for metrics labels and summaries.
    pub fn verdict(&self) -> &'static str {
        match self {
            ServiceError::BadFrame { .. } => "bad_frame",
            ServiceError::Oversized { .. } => "oversized",
            ServiceError::TornBody { .. } => "torn_body",
            ServiceError::BadJson { .. } => "bad_json",
            ServiceError::InvalidRequest { .. } => "invalid_request",
            ServiceError::QueueFull { .. } => "queue_full",
            ServiceError::RateLimited { .. } => "rate_limited",
            ServiceError::DeadlineQueue { .. } => "deadline_queue",
            ServiceError::DeadlineSolve { .. } => "deadline_solve",
        }
    }

    /// HTTP status the wire encoding reports for this error.
    pub fn status(&self) -> u16 {
        match self {
            ServiceError::BadFrame { .. }
            | ServiceError::BadJson { .. }
            | ServiceError::TornBody { .. }
            | ServiceError::InvalidRequest { .. } => 400,
            ServiceError::Oversized { .. } => 413,
            ServiceError::RateLimited { .. } => 429,
            ServiceError::QueueFull { .. } => 503,
            ServiceError::DeadlineQueue { .. } | ServiceError::DeadlineSolve { .. } => 504,
        }
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::BadFrame { reason } => write!(f, "bad frame: {reason}"),
            ServiceError::Oversized { bytes, limit } => {
                write!(f, "oversized body: {bytes} bytes (limit {limit})")
            }
            ServiceError::TornBody { got, want } => {
                write!(f, "torn body: got {got} of {want} bytes")
            }
            ServiceError::BadJson { error } => write!(f, "bad request JSON: {error}"),
            ServiceError::InvalidRequest { reason } => write!(f, "invalid request: {reason}"),
            ServiceError::QueueFull { depth, capacity } => {
                write!(f, "admission queue full: depth {depth} of {capacity}")
            }
            ServiceError::RateLimited { client } => write!(f, "rate limited: client {client}"),
            ServiceError::DeadlineQueue {
                waited_us,
                budget_us,
            } => write!(
                f,
                "deadline expired in queue: waited {waited_us}us of {budget_us}us"
            ),
            ServiceError::DeadlineSolve {
                elapsed_us,
                budget_us,
            } => write!(
                f,
                "deadline expired mid-solve: {elapsed_us}us of {budget_us}us"
            ),
        }
    }
}

impl std::error::Error for ServiceError {}

// ---------------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------------

/// Default body-size cap, bytes ([`ServiceConfig::max_body_bytes`]).
pub const DEFAULT_MAX_BODY_BYTES: u64 = 64 * 1024;

const REQUEST_LINE: &str = "POST /plan HTTP/1.1";
const LENGTH_FIELD: &str = "\r\ncontent-length: ";
const HEADER_END: &str = "\r\n\r\n";

/// A frame: `start_line`, a `content-length` header, a blank line and
/// `body`'s JSON. The body's length goes before it, so the body is written
/// first into a temporary buffer sized for a typical frame; the frame is
/// then assembled once at its exact size, since arrivals keep their frames
/// for the whole run and a service window holds a thousand responses.
fn frame<T: Serialize + ?Sized>(start_line: &str, body: &T) -> String {
    let mut w = serde::json::Writer::compact_into(String::with_capacity(1024));
    body.write_json(&mut w);
    let body = w.into_string();
    let length = body.len().to_string();
    let parts = [start_line, LENGTH_FIELD, &length, HEADER_END, &body];
    let mut out = String::with_capacity(parts.iter().map(|p| p.len()).sum());
    parts.iter().for_each(|p| out.push_str(p));
    out
}

/// Encode `req` as its canonical wire frame: a `POST /plan` request line,
/// a `content-length` header, a blank line, then the JSON body.
pub fn encode_request(req: &PlanRequest) -> Vec<u8> {
    frame(REQUEST_LINE, req).into_bytes()
}

/// A frame's header block: the bytes before its first blank line, which
/// must be UTF-8. The decoder and `matchmake serve`'s stream splitter both
/// read frames through [`frame_head`], so they cut and reject alike.
#[derive(Clone, Copy, Debug)]
pub struct FrameHead<'a> {
    /// The header block, `\r\n`-separated: the request line, then the
    /// header lines.
    head: &'a str,
    /// Offset of the first body byte, just past the blank line.
    pub body_at: usize,
}

/// Find the header block at the start of `bytes`.
pub fn frame_head(bytes: &[u8]) -> Result<FrameHead<'_>, ServiceError> {
    let Some(head_end) = bytes
        .windows(4)
        .position(|w| matches!(w, [b'\r', b'\n', b'\r', b'\n']))
    else {
        return Err(ServiceError::BadFrame {
            reason: "missing header terminator".into(),
        });
    };
    let head = std::str::from_utf8(&bytes[..head_end]).map_err(|_| ServiceError::BadFrame {
        reason: "headers are not UTF-8".into(),
    })?;
    Ok(FrameHead {
        head,
        body_at: head_end + HEADER_END.len(),
    })
}

impl<'a> FrameHead<'a> {
    /// The first line.
    pub fn request_line(&self) -> &'a str {
        self.lines().next().unwrap_or_default()
    }

    /// The block's lines, as `split("\r\n")` cuts them.
    fn lines(&self) -> impl Iterator<Item = &'a str> {
        let mut rest = Some(self.head);
        std::iter::from_fn(move || {
            let line = rest?;
            let cut = line
                .as_bytes()
                .windows(2)
                .position(|w| matches!(w, [b'\r', b'\n']));
            rest = cut.map(|i| &line[i + 2..]);
            Some(cut.map_or(line, |i| &line[..i]))
        })
    }

    /// The body length the `content-length` header claims. Every header
    /// line needs a `:` with no whitespace before it (RFC 9112 §5.1), and
    /// repeated `content-length` headers must agree (RFC 9112 §6.3): a
    /// frame that breaks either rule cannot be delimited.
    pub fn content_length(&self) -> Result<u64, ServiceError> {
        let bad = |reason: String| ServiceError::BadFrame { reason };
        let mut claim = None;
        for line in self.lines().skip(1) {
            let Some((name, value)) = line.split_once(':') else {
                return Err(bad(format!("malformed header line {line:?}")));
            };
            if name.ends_with(|c: char| c.is_ascii_whitespace()) {
                return Err(bad(format!(
                    "whitespace before `:` in header line {line:?}"
                )));
            }
            if !name.eq_ignore_ascii_case("content-length") {
                continue;
            }
            let n: u64 = value
                .trim()
                .parse()
                .map_err(|_| bad(format!("unparseable content-length {:?}", value.trim())))?;
            if let Some(first) = claim.filter(|&first| first != n) {
                return Err(bad(format!(
                    "conflicting content-length headers {first} and {n}"
                )));
            }
            claim = Some(n);
        }
        claim.ok_or_else(|| bad("missing content-length header".into()))
    }
}

/// Decode one wire frame. Total over arbitrary bytes: every input yields
/// either a [`PlanRequest`] or a typed [`ServiceError`] — no panics, no
/// hangs, and bodies larger than `max_body` are rejected on the *claimed*
/// length before a single body byte is examined.
pub fn decode_request(bytes: &[u8], max_body: u64) -> Result<PlanRequest, ServiceError> {
    let head = frame_head(bytes)?;
    let request_line = head.request_line();
    if request_line != REQUEST_LINE {
        return Err(ServiceError::BadFrame {
            reason: format!("unsupported request line {request_line:?}"),
        });
    }
    let want = head.content_length()?;
    if want > max_body {
        return Err(ServiceError::Oversized {
            bytes: want,
            limit: max_body,
        });
    }
    let body = &bytes[head.body_at..];
    let got = body.len() as u64;
    if got < want {
        return Err(ServiceError::TornBody { got, want });
    }
    if got > want {
        return Err(ServiceError::BadFrame {
            reason: format!("{} trailing bytes after body", got - want),
        });
    }
    let body = std::str::from_utf8(body).map_err(|_| ServiceError::BadJson {
        error: "body is not UTF-8".into(),
    })?;
    serde_json::from_str(body).map_err(|e| ServiceError::BadJson {
        error: e.to_string(),
    })
}

/// Encode a terminal response as its wire frame (status line + JSON body).
pub fn encode_response(result: &Result<PlanResponse, ServiceError>) -> String {
    match result {
        Ok(resp) => frame("HTTP/1.1 200 OK", resp),
        Err(e) => {
            let reason = match e.status() {
                400 => "Bad Request",
                413 => "Payload Too Large",
                429 => "Too Many Requests",
                503 => "Service Unavailable",
                504 => "Gateway Timeout",
                _ => "Error",
            };
            frame(&format!("HTTP/1.1 {} {reason}", e.status()), e)
        }
    }
}

// ---------------------------------------------------------------------------
// Chaos schedule
// ---------------------------------------------------------------------------

/// One service-level disturbance window. Windows are half-open in virtual
/// time — active while `from <= now < until` — mirroring `FaultEvent`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ChaosEvent {
    /// Multiply the arrival rate by `factor` (divide inter-arrival gaps).
    Burst {
        /// Rate multiplier (10 = a 10× burst).
        factor: u32,
        /// Window start (inclusive).
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
    },
    /// Tear request bodies short of their claimed length (slow-loris).
    SlowLoris {
        /// Per-arrival probability, in permille.
        permille: u32,
        /// Window start (inclusive).
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
    },
    /// Corrupt request bodies into invalid JSON.
    MalformedJson {
        /// Per-arrival probability, in permille.
        permille: u32,
        /// Window start (inclusive).
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
    },
    /// Inflate the claimed `content-length` past the service cap.
    Oversized {
        /// Per-arrival probability, in permille.
        permille: u32,
        /// Window start (inclusive).
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
    },
    /// Slow one worker down (a stalling solver thread): solve costs are
    /// multiplied by `factor_milli / 1000` while the window is active.
    WorkerStall {
        /// The stalled worker's index.
        worker: usize,
        /// Cost multiplier in milli-units (3000 = 3× slower).
        factor_milli: u32,
        /// Window start (inclusive).
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
    },
}

/// A seeded, replayable overload scenario: the service-plane analogue of
/// `FaultSchedule`. The seed feeds [`CHAOS_STREAM`]; the events carry the
/// windows. Same schedule, same arrivals — byte-identical outcome.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ChaosSchedule {
    /// Base seed for the chaos draws.
    pub seed: u64,
    /// The disturbance windows.
    pub events: Vec<ChaosEvent>,
}

impl ChaosSchedule {
    /// No chaos: healthy arrivals, clean bodies, honest workers.
    pub fn calm(seed: u64) -> Self {
        ChaosSchedule {
            seed,
            events: Vec::new(),
        }
    }

    /// The canonical overload scenario the acceptance run uses: a
    /// `factor`× arrival burst over the middle half of `span`, with
    /// slow-loris, malformed-JSON and oversized-payload windows inside the
    /// burst and a 3× stall on worker 0.
    pub fn burst(seed: u64, factor: u32, span: SimTime) -> Self {
        let q = SimTime::from_nanos(span.as_nanos() / 4);
        let mid_from = q;
        let mid_until = SimTime::from_nanos(3 * (span.as_nanos() / 4));
        ChaosSchedule {
            seed,
            events: vec![
                ChaosEvent::Burst {
                    factor,
                    from: mid_from,
                    until: mid_until,
                },
                ChaosEvent::SlowLoris {
                    permille: 40,
                    from: mid_from,
                    until: mid_until,
                },
                ChaosEvent::MalformedJson {
                    permille: 40,
                    from: mid_from,
                    until: mid_until,
                },
                ChaosEvent::Oversized {
                    permille: 20,
                    from: mid_from,
                    until: mid_until,
                },
                ChaosEvent::WorkerStall {
                    worker: 0,
                    factor_milli: 3000,
                    from: mid_from,
                    until: mid_until,
                },
            ],
        }
    }

    /// The arrival-rate multiplier active at `t` (1 when no burst window
    /// covers `t`; overlapping bursts take the largest factor).
    pub fn burst_factor(&self, t: SimTime) -> u32 {
        let mut factor = 1;
        for e in &self.events {
            if let ChaosEvent::Burst {
                factor: f,
                from,
                until,
            } = e
            {
                if *from <= t && t < *until && *f > factor {
                    factor = *f;
                }
            }
        }
        factor
    }

    /// The solve-cost multiplier (milli-units) for `worker` at `t`.
    pub fn stall_factor_milli(&self, worker: usize, t: SimTime) -> u32 {
        let mut factor = 1000;
        for e in &self.events {
            if let ChaosEvent::WorkerStall {
                worker: w,
                factor_milli,
                from,
                until,
            } = e
            {
                if *w == worker && *from <= t && t < *until && *factor_milli > factor {
                    factor = *factor_milli;
                }
            }
        }
        factor
    }
}

/// How chaos mangles one encoded request (drawn per arrival from the
/// chaos stream).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Corruption {
    Torn,
    Malformed,
    Oversized,
}

/// Decide the corruption (if any) for an arrival at `t`. One draw is
/// consumed per *active window*, never per event list, so the stream stays
/// aligned across schedules that differ only in inactive windows.
fn draw_corruption(chaos: &ChaosSchedule, t: SimTime, rng: &mut FaultRng) -> Option<Corruption> {
    let mut hit = None;
    for e in &chaos.events {
        let (kind, permille, from, until) = match e {
            ChaosEvent::SlowLoris {
                permille,
                from,
                until,
            } => (Corruption::Torn, *permille, *from, *until),
            ChaosEvent::MalformedJson {
                permille,
                from,
                until,
            } => (Corruption::Malformed, *permille, *from, *until),
            ChaosEvent::Oversized {
                permille,
                from,
                until,
            } => (Corruption::Oversized, *permille, *from, *until),
            _ => continue,
        };
        if from <= t && t < until {
            let draw = rng.next_u64() % 1000;
            if hit.is_none() && draw < u64::from(permille) {
                hit = Some(kind);
            }
        }
    }
    hit
}

/// Apply `corruption` to an encoded frame, deterministically.
fn corrupt_frame(bytes: &mut Vec<u8>, corruption: Corruption, rng: &mut FaultRng) {
    match corruption {
        Corruption::Torn => {
            // Keep the headers, lose a suffix of the body.
            let head = bytes
                .windows(4)
                .position(|w| w == b"\r\n\r\n")
                .map(|i| i + 4)
                .unwrap_or(0);
            let body_len = bytes.len() - head;
            if body_len > 1 {
                let keep = (rng.next_u64() % (body_len as u64 - 1)) as usize;
                bytes.truncate(head + keep);
            } else {
                bytes.truncate(head);
            }
        }
        Corruption::Malformed => {
            // Stamp garbage over a body byte: still the claimed length,
            // no longer JSON.
            let head = bytes
                .windows(4)
                .position(|w| w == b"\r\n\r\n")
                .map(|i| i + 4)
                .unwrap_or(0);
            if head < bytes.len() {
                let i = head + (rng.next_u64() % (bytes.len() - head) as u64) as usize;
                bytes[i] = b'\x01';
            }
            // Always corrupt the first byte too so a draw landing on
            // whitespace cannot accidentally stay valid.
            if head < bytes.len() {
                bytes[head] = b'\x01';
            }
        }
        Corruption::Oversized => {
            // Rewrite the claim far past any cap; the service must reject
            // on the claim without reading a body this size.
            let text = String::from_utf8_lossy(bytes).into_owned();
            if let Some((head, body)) = text.split_once("\r\n\r\n") {
                let line = head.lines().next().unwrap_or(REQUEST_LINE);
                *bytes = format!("{line}\r\ncontent-length: {}\r\n\r\n{body}", u64::MAX / 2)
                    .into_bytes();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Service configuration and engine
// ---------------------------------------------------------------------------

/// Per-client token-bucket rate limit, refilled on virtual time.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RateLimit {
    /// Bucket capacity (maximum burst a client may send).
    pub burst: u32,
    /// Refill rate, tokens per virtual second.
    pub per_sec: u32,
}

/// Service tuning knobs. Defaults suit the load generator; tests shrink
/// them to force each admission verdict deterministically.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ServiceConfig {
    /// Concurrency limit: simulated solver workers.
    pub workers: usize,
    /// Bounded admission-queue capacity.
    pub queue_capacity: usize,
    /// Queue depth at (or above) which a cache hit is served `degraded`
    /// instead of queued.
    pub degrade_depth: usize,
    /// Optional per-client token bucket.
    pub rate_limit: Option<RateLimit>,
    /// Default deadline budget (microseconds) for requests that carry
    /// none; `None` means no deadline.
    pub default_deadline_us: Option<u64>,
    /// Mid-solve deadline checkpoints per solve (≥ 1).
    pub solve_checkpoints: u32,
    /// Body-size cap for the codec, bytes.
    pub max_body_bytes: u64,
    /// Plan-memoization cache capacity (entries).
    pub cache_capacity: usize,
    /// Fixed virtual cost of a solve, microseconds.
    pub base_solve_us: u64,
    /// Additional virtual cost per kernel in the request, microseconds.
    pub per_kernel_solve_us: u64,
    /// Virtual cost of serving a memoized plan, microseconds.
    pub cache_serve_us: u64,
    /// Caps on accepted requests: kernels per app.
    pub max_kernels: usize,
    /// Caps on accepted requests: total domain items per app.
    pub max_domain: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            queue_capacity: 64,
            degrade_depth: 32,
            rate_limit: Some(RateLimit {
                burst: 256,
                per_sec: 20_000,
            }),
            default_deadline_us: Some(200_000),
            solve_checkpoints: 4,
            max_body_bytes: DEFAULT_MAX_BODY_BYTES,
            cache_capacity: 64,
            base_solve_us: 150,
            per_kernel_solve_us: 50,
            cache_serve_us: 15,
            max_kernels: 16,
            max_domain: 1 << 22,
        }
    }
}

/// The memoization key: the ROADMAP's (app class, platform digest, problem
/// size), plus the requested configuration and what-if mode so a cached
/// answer is only ever substituted for a request it actually answers.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct CacheKey {
    class: u8,
    platform_digest: u64,
    problem_size: u64,
    config: String,
    what_if: bool,
}

#[derive(Clone, Debug)]
struct CacheEntry {
    class: AppClass,
    config: ExecutionConfig,
    tasks: u64,
    makespan_us: Option<u64>,
    /// Virtual time the producing solve completed: the entry is invisible
    /// before this instant, so a cached answer can never causally precede
    /// the solve that produced it.
    ready_at: SimTime,
}

/// One arrival at the service boundary: raw frame bytes from `client` at
/// virtual time `at`.
#[derive(Clone, Debug, PartialEq)]
pub struct Arrival {
    /// Arrival time (virtual).
    pub at: SimTime,
    /// Client identity (rate-limit key); also recoverable from the body,
    /// but rejections must be attributable even when the body is garbage.
    pub client: String,
    /// The encoded frame.
    pub bytes: Vec<u8>,
}

/// One terminal outcome: exactly one per arrival, in arrival order.
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceOutcome {
    /// Index of the arrival this outcome answers.
    pub seq: u64,
    /// Arrival time.
    pub arrival: SimTime,
    /// Terminal-response time.
    pub done: SimTime,
    /// The terminal response.
    pub result: Result<PlanResponse, ServiceError>,
}

struct Pending {
    seq: u64,
    arrival: SimTime,
    req: PlanRequest,
    deadline_us: Option<u64>,
}

struct Bucket {
    /// Nano-tokens (1 token = 1e9) for exact integer refill.
    tokens: u64,
    last: SimTime,
}

impl Bucket {
    const SCALE: u64 = 1_000_000_000;

    /// Refill for the time since the last request, then spend one token if
    /// a whole one is available.
    fn take(&mut self, now: SimTime, limit: RateLimit) -> bool {
        let elapsed_ns = now.saturating_sub(self.last).as_nanos();
        let earned = (elapsed_ns as u128 * u128::from(limit.per_sec)) as u64;
        self.tokens = self
            .tokens
            .saturating_add(earned)
            .min(u64::from(limit.burst) * Self::SCALE);
        self.last = now;
        if self.tokens >= Self::SCALE {
            self.tokens -= Self::SCALE;
            true
        } else {
            false
        }
    }
}

/// The deterministic service engine: a discrete-event simulation of the
/// admission queue, worker pool and cache over virtual time. Drive it with
/// [`PlanService::run`]; read the `hm_service_*` series back with
/// [`PlanService::registry`].
pub struct PlanService<'a> {
    analyzer: Analyzer<'a>,
    cfg: ServiceConfig,
    chaos: ChaosSchedule,
    platform_digest: u64,
    cache: BTreeMap<CacheKey, CacheEntry>,
    buckets: BTreeMap<String, Bucket>,
    registry: MetricsRegistry,
    latency: LogHistogram,
}

const H_REQ: &str = "Requests presented to the service";
const H_ADM: &str = "Admission verdicts";
const H_SERVED: &str = "Terminal successes by serving mode";
const H_MISS: &str = "Deadline budgets expired, by checkpoint";
const H_CHIT: &str = "Plan-memoization cache hits";
const H_CMISS: &str = "Plan-memoization cache misses";
const H_DEPTH: &str = "Peak admission-queue depth";
const H_LAT: &str = "Terminal latency (arrival to response)";
const H_WAIT: &str = "Queue wait of dispatched requests";

impl<'a> PlanService<'a> {
    /// A service over `platform` with `cfg` and `chaos` (use
    /// [`ChaosSchedule::calm`] for a healthy service).
    pub fn new(platform: &'a Platform, cfg: ServiceConfig, chaos: ChaosSchedule) -> Self {
        let digest = fnv1a_64(
            serde_json::to_string(platform)
                .expect("Platform serializes")
                .as_bytes(),
        );
        PlanService {
            analyzer: Analyzer::new(platform),
            cfg,
            chaos,
            platform_digest: digest,
            cache: BTreeMap::new(),
            buckets: BTreeMap::new(),
            registry: MetricsRegistry::new(),
            latency: LogHistogram::default(),
        }
    }

    /// The service's metrics registry (`hm_service_*` series).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Terminal-latency quantile in seconds (p50/p95/p99 come from here).
    pub fn latency_quantile(&self, q: f64) -> f64 {
        self.latency.quantile(q)
    }

    /// Process every arrival to its terminal response. Outcomes are
    /// returned in arrival order, exactly one per arrival (the
    /// shed-or-serve invariant; [`check_shed_or_serve`] enforces it).
    pub fn run(&mut self, arrivals: &[Arrival]) -> Vec<ServiceOutcome> {
        let mut outcomes: Vec<ServiceOutcome> = Vec::with_capacity(arrivals.len());
        let mut queue: VecDeque<Pending> = VecDeque::new();
        let mut workers: Vec<SimTime> = vec![SimTime::ZERO; self.cfg.workers.max(1)];
        for (seq, arrival) in arrivals.iter().enumerate() {
            self.dispatch_until(arrival.at, &mut queue, &mut workers, &mut outcomes);
            self.admit(seq as u64, arrival, &mut queue, &workers, &mut outcomes);
            self.dispatch_until(arrival.at, &mut queue, &mut workers, &mut outcomes);
        }
        self.dispatch_until(SimTime::MAX, &mut queue, &mut workers, &mut outcomes);
        outcomes.sort_by_key(|o| o.seq);
        outcomes
    }

    fn count(&mut self, name: &str, help: &str, labels: &[(&str, &str)]) {
        self.registry.counter_add(name, help, labels, 1);
    }

    fn terminal(
        &mut self,
        outcomes: &mut Vec<ServiceOutcome>,
        seq: u64,
        arrival: SimTime,
        done: SimTime,
        result: Result<PlanResponse, ServiceError>,
    ) {
        self.latency.observe(done.saturating_sub(arrival));
        self.registry.observe(
            "hm_service_latency_seconds",
            H_LAT,
            &[],
            done.saturating_sub(arrival),
        );
        if let Err(e) = &result {
            let v = e.verdict();
            self.count("hm_service_admission_total", H_ADM, &[("verdict", v)]);
            match e {
                ServiceError::DeadlineQueue { .. } => {
                    self.count("hm_service_deadline_miss_total", H_MISS, &[("at", "queue")]);
                }
                ServiceError::DeadlineSolve { .. } => {
                    self.count("hm_service_deadline_miss_total", H_MISS, &[("at", "solve")]);
                }
                _ => {}
            }
        }
        outcomes.push(ServiceOutcome {
            seq,
            arrival,
            done,
            result,
        });
    }

    /// Admission control at arrival time: decode, rate-limit, then queue,
    /// degrade or shed.
    fn admit(
        &mut self,
        seq: u64,
        arrival: &Arrival,
        queue: &mut VecDeque<Pending>,
        workers: &[SimTime],
        outcomes: &mut Vec<ServiceOutcome>,
    ) {
        let now = arrival.at;
        self.count("hm_service_requests_total", H_REQ, &[]);
        let req = match decode_request(&arrival.bytes, self.cfg.max_body_bytes) {
            Ok(req) => req,
            Err(e) => {
                self.terminal(outcomes, seq, now, now, Err(e));
                return;
            }
        };
        if let Err(reason) = self.validate(&req) {
            self.terminal(
                outcomes,
                seq,
                now,
                now,
                Err(ServiceError::InvalidRequest { reason }),
            );
            return;
        }
        if let Some(limit) = self.cfg.rate_limit {
            if !self.take_token(&arrival.client, now, limit) {
                self.terminal(
                    outcomes,
                    seq,
                    now,
                    now,
                    Err(ServiceError::RateLimited {
                        client: arrival.client.clone(),
                    }),
                );
                return;
            }
        }
        let deadline_us = req.deadline_us.or(self.cfg.default_deadline_us);
        let depth = queue.len();
        let saturated = depth >= self.cfg.degrade_depth && workers.iter().all(|free| *free > now);
        if saturated || depth >= self.cfg.queue_capacity {
            // Graceful degradation: a saturated pool serves a stale cached
            // plan instead of queueing (or shedding) when it can.
            let hit = self
                .cache
                .get(&self.key_for(&req))
                .filter(|e| e.ready_at <= now)
                .cloned();
            if let Some(entry) = hit {
                self.count("hm_service_cache_hits_total", H_CHIT, &[]);
                let done = now + SimTime::from_micros(self.cfg.cache_serve_us);
                self.count(
                    "hm_service_admission_total",
                    H_ADM,
                    &[("verdict", "degraded")],
                );
                self.count("hm_service_served_total", H_SERVED, &[("mode", "degraded")]);
                let resp = self.response_from(&req, &entry, true, true, 0, self.cfg.cache_serve_us);
                self.terminal(outcomes, seq, now, done, Ok(resp));
                return;
            }
            if depth >= self.cfg.queue_capacity {
                self.terminal(
                    outcomes,
                    seq,
                    now,
                    now,
                    Err(ServiceError::QueueFull {
                        depth: depth as u64,
                        capacity: self.cfg.queue_capacity as u64,
                    }),
                );
                return;
            }
        }
        self.count(
            "hm_service_admission_total",
            H_ADM,
            &[("verdict", "enqueued")],
        );
        queue.push_back(Pending {
            seq,
            arrival: now,
            req,
            deadline_us,
        });
        self.registry.gauge_max(
            "hm_service_queue_depth_peak",
            H_DEPTH,
            &[],
            queue.len() as f64,
        );
    }

    /// Dispatch queued requests onto workers that free up no later than
    /// `until` (deadline checks at queue-pop, then checkpointed solve).
    fn dispatch_until(
        &mut self,
        until: SimTime,
        queue: &mut VecDeque<Pending>,
        workers: &mut [SimTime],
        outcomes: &mut Vec<ServiceOutcome>,
    ) {
        loop {
            let Some(front) = queue.front() else { return };
            // Earliest-free worker, lowest index breaking ties.
            let (wi, free) = workers
                .iter()
                .copied()
                .enumerate()
                .min_by_key(|(i, f)| (*f, *i))
                .expect("worker pool is non-empty");
            let start = free.max(front.arrival);
            if start > until {
                return;
            }
            let p = queue.pop_front().expect("front() was Some");
            let waited = start.saturating_sub(p.arrival);
            self.registry
                .observe("hm_service_queue_wait_seconds", H_WAIT, &[], waited);
            // Queue-pop deadline checkpoint.
            if let Some(budget_us) = p.deadline_us {
                if waited > SimTime::from_micros(budget_us) {
                    let waited_us = waited.as_nanos() / 1_000;
                    self.terminal(
                        outcomes,
                        p.seq,
                        p.arrival,
                        start,
                        Err(ServiceError::DeadlineQueue {
                            waited_us,
                            budget_us,
                        }),
                    );
                    continue;
                }
            }
            // Cache hit: memoized serve at a fraction of the solve cost.
            let key = self.key_for(&p.req);
            let hit = self
                .cache
                .get(&key)
                .filter(|e| e.ready_at <= start)
                .cloned();
            let (entry, cached, cost_us) = match hit {
                Some(entry) => {
                    self.count("hm_service_cache_hits_total", H_CHIT, &[]);
                    (Some(entry), true, self.cfg.cache_serve_us)
                }
                None => {
                    self.count("hm_service_cache_misses_total", H_CMISS, &[]);
                    (None, false, self.solve_cost_us(&p.req))
                }
            };
            // Worker stall chaos stretches the virtual cost.
            let stall = self.chaos.stall_factor_milli(wi, start);
            let cost_us = cost_us.saturating_mul(u64::from(stall)) / 1000;
            // Checkpointed solve: the deadline is re-checked after each of
            // `solve_checkpoints` equal segments; an expired budget aborts
            // the solve at that checkpoint and frees the worker there.
            let ncp = u64::from(self.cfg.solve_checkpoints.max(1));
            let mut aborted = None;
            if let Some(budget_us) = p.deadline_us {
                let budget = SimTime::from_micros(budget_us);
                for c in 1..=ncp {
                    let elapsed_cost = SimTime::from_micros(cost_us * c / ncp);
                    let elapsed = waited + elapsed_cost;
                    if elapsed > budget {
                        aborted = Some((start + elapsed_cost, budget_us, elapsed));
                        break;
                    }
                }
            }
            if let Some((at, budget_us, elapsed)) = aborted {
                workers[wi] = at;
                let elapsed_us = elapsed.as_nanos() / 1_000;
                self.terminal(
                    outcomes,
                    p.seq,
                    p.arrival,
                    at,
                    Err(ServiceError::DeadlineSolve {
                        elapsed_us,
                        budget_us,
                    }),
                );
                continue;
            }
            let finish = start + SimTime::from_micros(cost_us);
            workers[wi] = finish;
            let entry = match entry {
                Some(entry) => entry,
                None => {
                    let entry = self.solve(&p.req, finish);
                    if self.cache.len() >= self.cfg.cache_capacity {
                        // Deterministic eviction: drop the smallest key.
                        let _ = self.cache.pop_first();
                    }
                    self.cache.insert(key, entry.clone());
                    entry
                }
            };
            let mode = if cached { "cached" } else { "fresh" };
            self.count("hm_service_served_total", H_SERVED, &[("mode", mode)]);
            let resp = self.response_from(
                &p.req,
                &entry,
                cached,
                false,
                waited.as_nanos() / 1_000,
                cost_us,
            );
            self.terminal(outcomes, p.seq, p.arrival, finish, Ok(resp));
        }
    }

    /// Semantic request validation: the descriptor must be well-formed and
    /// within the service's resource caps (a planner fed unbounded domains
    /// would allocate unbounded programs — the caps are the service's
    /// memory-safety admission check).
    fn validate(&self, req: &PlanRequest) -> Result<(), String> {
        req.app.validate()?;
        if req.app.kernels.len() > self.cfg.max_kernels {
            return Err(format!(
                "too many kernels: {} (cap {})",
                req.app.kernels.len(),
                self.cfg.max_kernels
            ));
        }
        let domain: u64 = req
            .app
            .kernels
            .iter()
            .fold(0u64, |a, k| a.saturating_add(k.domain));
        if domain > self.cfg.max_domain {
            return Err(format!(
                "domain too large: {domain} items (cap {})",
                self.cfg.max_domain
            ));
        }
        Ok(())
    }

    fn key_for(&self, req: &PlanRequest) -> CacheKey {
        let problem_size: u64 = req
            .app
            .kernels
            .iter()
            .fold(0u64, |a, k| a.saturating_add(k.domain));
        CacheKey {
            class: crate::class::classify(&req.app) as u8,
            platform_digest: self.platform_digest,
            problem_size,
            config: match req.config {
                Some(c) => c.to_string(),
                None => "auto".to_string(),
            },
            what_if: req.what_if,
        }
    }

    /// Deterministic virtual solve cost, derived from the request alone so
    /// the admission plane never needs the plan to price it.
    fn solve_cost_us(&self, req: &PlanRequest) -> u64 {
        self.cfg.base_solve_us + self.cfg.per_kernel_solve_us * req.app.kernels.len() as u64
    }

    /// The real planning work (runs when a solve completes): classify,
    /// select, lower — and simulate in what-if mode. The entry becomes
    /// cache-visible at `ready_at`, the solve's virtual completion.
    fn solve(&self, req: &PlanRequest, ready_at: SimTime) -> CacheEntry {
        let analysis = self.analyzer.analyze(&req.app);
        let config = req
            .config
            .unwrap_or(ExecutionConfig::Strategy(analysis.best));
        let plan = self.analyzer.plan(&req.app, config);
        let tasks = plan.program.tasks().len() as u64;
        let makespan_us = req
            .what_if
            .then(|| self.analyzer.simulate(&req.app, config).makespan.as_nanos() / 1_000);
        CacheEntry {
            class: analysis.class,
            config,
            tasks,
            makespan_us,
            ready_at,
        }
    }

    fn response_from(
        &self,
        req: &PlanRequest,
        entry: &CacheEntry,
        cached: bool,
        degraded: bool,
        queue_us: u64,
        service_us: u64,
    ) -> PlanResponse {
        PlanResponse {
            id: req.id,
            app: req.app.name.clone(),
            class: entry.class,
            config: entry.config,
            tasks: entry.tasks,
            makespan_us: entry.makespan_us,
            cached,
            degraded,
            queue_us,
            service_us,
        }
    }

    fn take_token(&mut self, client: &str, now: SimTime, limit: RateLimit) -> bool {
        if let Some(bucket) = self.buckets.get_mut(client) {
            return bucket.take(now, limit);
        }
        // Only a client's first request allocates its key.
        let mut bucket = Bucket {
            tokens: u64::from(limit.burst) * Bucket::SCALE,
            last: SimTime::ZERO,
        };
        let taken = bucket.take(now, limit);
        self.buckets.insert(client.to_string(), bucket);
        taken
    }
}

// ---------------------------------------------------------------------------
// Shed-or-serve oracle (oracle 10)
// ---------------------------------------------------------------------------

/// Oracle 10 (PROPERTY-TESTS.md): every arrival gets **exactly one**
/// terminal response — served, or shed with a typed [`ServiceError`] —
/// never dropped, never answered twice. `outcomes` must be in the
/// arrival order [`PlanService::run`] returns.
pub fn check_shed_or_serve(
    arrivals: usize,
    outcomes: &[ServiceOutcome],
) -> Result<(), OracleViolation> {
    if outcomes.len() != arrivals {
        return Err(OracleViolation::new(
            OracleKind::ShedOrServe,
            format!(
                "{arrivals} arrivals but {} terminal responses",
                outcomes.len()
            ),
        ));
    }
    for (i, o) in outcomes.iter().enumerate() {
        if o.seq != i as u64 {
            return Err(OracleViolation::new(
                OracleKind::ShedOrServe,
                format!(
                    "position {i} answers arrival {} (dropped or duplicated)",
                    o.seq
                ),
            ));
        }
        if o.done < o.arrival {
            return Err(OracleViolation::new(
                OracleKind::ShedOrServe,
                format!("arrival {i} answered before it arrived"),
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Load generation
// ---------------------------------------------------------------------------

/// Load-generator shape: how many requests, how fast, from how many
/// clients, with what deadline stamps.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LoadConfig {
    /// Number of requests to generate.
    pub requests: u64,
    /// Base seed (feeds [`LOAD_STREAM`]).
    pub seed: u64,
    /// Mean healthy inter-arrival gap, microseconds.
    pub mean_gap_us: u64,
    /// Number of distinct clients (`c0..cN-1`).
    pub clients: u32,
    /// Per-request probability of what-if mode, permille.
    pub what_if_permille: u32,
    /// Deadline stamped on each request, microseconds (`None` = rely on
    /// the service default).
    pub deadline_us: Option<u64>,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            requests: 1000,
            seed: 0,
            mean_gap_us: 120,
            clients: 8,
            what_if_permille: 250,
            deadline_us: None,
        }
    }
}

/// The template-app pool the load generator draws from: small instances of
/// the paper's classes (SK-One, SK-Loop, MK-Seq, MK-Loop) at a few problem
/// sizes, so the memoization cache sees realistic key reuse.
pub fn template_app(index: u64) -> AppDescriptor {
    fn profile(flops_per_item: f64) -> KernelProfile {
        KernelProfile {
            flops_per_item,
            bytes_per_item: 8.0,
            fixed_flops: 0.0,
            fixed_bytes: 0.0,
            precision: Precision::Single,
            cpu_efficiency: Efficiency {
                compute: 0.25,
                bandwidth: 0.6,
            },
            gpu_efficiency: Efficiency {
                compute: 0.35,
                bandwidth: 0.7,
            },
        }
    }
    let sizes: [u64; 3] = [1 << 12, 1 << 14, 1 << 16];
    // A size multiplier stretches the 12 base shapes into 60 distinct
    // cache keys (scales 1..16): more keys than the default cache holds,
    // so a sustained load keeps a realistic fresh-solve fraction instead
    // of warming up once and coasting on hits forever.
    let scale = 1u64 << ((index / 12) % 5);
    let n = sizes[(index % 3) as usize] * scale;
    let kind = (index / 3) % 4;
    let kernel = |name: &str, flops: f64, buf: usize| KernelSpec {
        name: name.into(),
        profile: profile(flops),
        domain: n,
        accesses: vec![AccessPattern::part(buf, AccessMode::InOut)],
        weights: None,
    };
    let buffer = |name: &str| BufferSpec {
        name: name.into(),
        items: n,
        item_bytes: 8,
    };
    match kind {
        0 => AppDescriptor {
            name: format!("svc-sk-one-{n}"),
            buffers: vec![buffer("data")],
            kernels: vec![kernel("k0", 64.0, 0)],
            flow: ExecutionFlow::Sequence,
            sync: SyncPolicy {
                between_kernels: false,
                between_iterations: false,
            },
        },
        1 => AppDescriptor {
            name: format!("svc-sk-loop-{n}"),
            buffers: vec![buffer("data")],
            kernels: vec![kernel("k0", 48.0, 0)],
            flow: ExecutionFlow::Loop { iterations: 4 },
            sync: SyncPolicy {
                between_kernels: false,
                between_iterations: true,
            },
        },
        2 => AppDescriptor {
            name: format!("svc-mk-seq-{n}"),
            buffers: vec![buffer("a"), buffer("b")],
            kernels: vec![kernel("k0", 32.0, 0), kernel("k1", 96.0, 1)],
            flow: ExecutionFlow::Sequence,
            sync: SyncPolicy {
                between_kernels: true,
                between_iterations: false,
            },
        },
        _ => AppDescriptor {
            name: format!("svc-mk-loop-{n}"),
            buffers: vec![buffer("a"), buffer("b")],
            kernels: vec![kernel("k0", 24.0, 0), kernel("k1", 72.0, 1)],
            flow: ExecutionFlow::Loop { iterations: 3 },
            sync: SyncPolicy {
                between_kernels: true,
                between_iterations: true,
            },
        },
    }
}

/// Generate the seeded arrival sequence for `cfg` under `chaos`: arrival
/// times come off [`LOAD_STREAM`] (gaps compressed inside burst windows),
/// frame corruption comes off [`CHAOS_STREAM`]. Same inputs, same bytes.
pub fn generate_load(cfg: &LoadConfig, chaos: &ChaosSchedule) -> Vec<Arrival> {
    let mut load_rng = FaultRng::new(cfg.seed ^ LOAD_STREAM);
    let mut chaos_rng = FaultRng::new(chaos.seed ^ CHAOS_STREAM);
    let mut arrivals = Vec::with_capacity(cfg.requests as usize);
    let mut t = SimTime::ZERO;
    for i in 0..cfg.requests {
        // Gap in [0.5, 1.5) × mean, divided by the active burst factor.
        let jitter = 500 + load_rng.next_u64() % 1000;
        let gap_ns = (cfg.mean_gap_us * 1_000).saturating_mul(jitter) / 1000;
        let factor = u64::from(chaos.burst_factor(t));
        t += SimTime::from_nanos((gap_ns / factor).max(1));
        let template = load_rng.next_u64() % 60;
        let client = format!("c{}", load_rng.next_u64() % u64::from(cfg.clients.max(1)));
        let what_if = load_rng.next_u64() % 1000 < u64::from(cfg.what_if_permille);
        let req = PlanRequest {
            id: i,
            client: client.clone(),
            app: template_app(template),
            config: None,
            what_if,
            deadline_us: cfg.deadline_us,
        };
        let mut bytes = encode_request(&req);
        if let Some(corruption) = draw_corruption(chaos, t, &mut chaos_rng) {
            corrupt_frame(&mut bytes, corruption, &mut chaos_rng);
        }
        arrivals.push(Arrival {
            at: t,
            client,
            bytes,
        });
    }
    arrivals
}

/// A complete load-generator run: outcomes, the service registry and the
/// deterministic human-readable summary CI byte-diffs.
pub struct LoadOutcome {
    /// One terminal outcome per generated arrival, in arrival order.
    pub outcomes: Vec<ServiceOutcome>,
    /// The service's `hm_service_*` registry (JSON/Prometheus exportable).
    pub registry: MetricsRegistry,
    /// Deterministic summary text (counts, latency quantiles, throughput).
    pub summary: String,
}

/// Generate load, run the service, and summarize. The whole pipeline is a
/// pure function of `(service_cfg, load_cfg, chaos, platform)`.
pub fn run_load(
    platform: &Platform,
    service_cfg: &ServiceConfig,
    load_cfg: &LoadConfig,
    chaos: &ChaosSchedule,
) -> LoadOutcome {
    let arrivals = generate_load(load_cfg, chaos);
    let mut service = PlanService::new(platform, service_cfg.clone(), chaos.clone());
    let outcomes = service.run(&arrivals);
    let mut verdicts: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut served = 0u64;
    let mut degraded = 0u64;
    let mut cached = 0u64;
    let mut last_done = SimTime::ZERO;
    for o in &outcomes {
        match &o.result {
            Ok(resp) => {
                served += 1;
                if resp.degraded {
                    degraded += 1;
                }
                if resp.cached {
                    cached += 1;
                }
            }
            Err(e) => *verdicts.entry(e.verdict()).or_insert(0) += 1,
        }
        last_done = last_done.max(o.done);
    }
    let span_s = last_done.as_secs_f64();
    let throughput = if span_s > 0.0 {
        outcomes.len() as f64 / span_s
    } else {
        0.0
    };
    let mut summary = String::new();
    use std::fmt::Write as _;
    let _ = writeln!(
        summary,
        "service load: {} request(s), {} served ({} cached, {} degraded), {} shed",
        outcomes.len(),
        served,
        cached,
        degraded,
        outcomes.len() as u64 - served
    );
    for (verdict, n) in &verdicts {
        let _ = writeln!(summary, "  shed {verdict:<15} {n}");
    }
    let _ = writeln!(
        summary,
        "  latency p50 {:.6}s p95 {:.6}s p99 {:.6}s",
        service.latency_quantile(0.50),
        service.latency_quantile(0.95),
        service.latency_quantile(0.99)
    );
    let _ = writeln!(
        summary,
        "  virtual span {:.6}s, throughput {:.0} req/s",
        span_s, throughput
    );
    LoadOutcome {
        outcomes,
        registry: service.registry.clone(),
        summary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Strategy;

    fn plat() -> Platform {
        Platform::icpp15()
    }

    fn small_cfg() -> ServiceConfig {
        ServiceConfig {
            workers: 2,
            queue_capacity: 4,
            degrade_depth: 2,
            rate_limit: None,
            default_deadline_us: None,
            ..ServiceConfig::default()
        }
    }

    fn frame(i: u64, what_if: bool) -> Vec<u8> {
        encode_request(&PlanRequest {
            id: i,
            client: "c0".into(),
            app: template_app(i % 12),
            config: None,
            what_if,
            deadline_us: None,
        })
    }

    #[test]
    fn codec_round_trips() {
        let req = PlanRequest {
            id: 7,
            client: "alice".into(),
            app: template_app(5),
            config: Some(ExecutionConfig::Strategy(Strategy::SpUnified)),
            what_if: true,
            deadline_us: Some(5000),
        };
        let bytes = encode_request(&req);
        let back = decode_request(&bytes, DEFAULT_MAX_BODY_BYTES).expect("round trip");
        assert_eq!(back, req);
    }

    #[test]
    fn codec_rejects_typed() {
        let e = decode_request(b"GET / HTTP/1.1\r\n\r\n", 1024).unwrap_err();
        assert_eq!(e.verdict(), "bad_frame");
        let e = decode_request(b"no terminator at all", 1024).unwrap_err();
        assert_eq!(e.verdict(), "bad_frame");
        let e = decode_request(
            b"POST /plan HTTP/1.1\r\ncontent-length: 999999999\r\n\r\nx",
            1024,
        )
        .unwrap_err();
        assert!(matches!(
            e,
            ServiceError::Oversized {
                bytes: 999999999,
                limit: 1024
            }
        ));
        let e = decode_request(b"POST /plan HTTP/1.1\r\ncontent-length: 10\r\n\r\nxx", 1024)
            .unwrap_err();
        assert!(matches!(e, ServiceError::TornBody { got: 2, want: 10 }));
        let e = decode_request(
            b"POST /plan HTTP/1.1\r\ncontent-length: 4\r\n\r\n{{{{",
            1024,
        )
        .unwrap_err();
        assert_eq!(e.verdict(), "bad_json");
    }

    #[test]
    fn serves_and_memoizes() {
        let p = plat();
        let mut svc = PlanService::new(&p, small_cfg(), ChaosSchedule::calm(0));
        let arrivals: Vec<Arrival> = (0..4)
            .map(|i| Arrival {
                at: SimTime::from_millis(10 * (i + 1)),
                client: "c0".into(),
                bytes: frame(0, false),
            })
            .collect();
        let outcomes = svc.run(&arrivals);
        assert_eq!(outcomes.len(), 4);
        let first = outcomes[0].result.as_ref().expect("served");
        assert!(!first.cached && !first.degraded);
        let later = outcomes[3].result.as_ref().expect("served");
        assert!(later.cached && !later.degraded);
        check_shed_or_serve(4, &outcomes).expect("shed-or-serve holds");
    }

    #[test]
    fn queue_full_sheds_typed_and_cache_degrades() {
        let p = plat();
        let mut svc = PlanService::new(&p, small_cfg(), ChaosSchedule::calm(0));
        // Everything at t=0: 2 dispatch immediately, 4 queue, the rest
        // must shed (no cache yet) — then a second volley after the cache
        // warmed must serve degraded.
        let volley: Vec<Arrival> = (0..10)
            .map(|_| Arrival {
                at: SimTime::from_micros(1),
                client: "c0".into(),
                bytes: frame(0, false),
            })
            .collect();
        let outcomes = svc.run(&volley);
        let shed: Vec<_> = outcomes
            .iter()
            .filter_map(|o| o.result.as_ref().err())
            .collect();
        assert!(
            shed.iter()
                .all(|e| matches!(e, ServiceError::QueueFull { .. })),
            "sheds are typed queue-full: {shed:?}"
        );
        assert!(!shed.is_empty(), "saturation must shed something");
        // A second volley after the first solve completes in virtual time
        // (~201us): the cache is warm *and* the pool is still saturated
        // draining the first volley's queue, so the service degrades.
        let volley2: Vec<Arrival> = (0..10)
            .map(|_| Arrival {
                at: SimTime::from_micros(205),
                client: "c0".into(),
                bytes: frame(0, false),
            })
            .collect();
        let mut svc2 = PlanService::new(&p, small_cfg(), ChaosSchedule::calm(0));
        let mut all = volley.clone();
        all.extend(volley2);
        let outcomes = svc2.run(&all);
        let degraded = outcomes
            .iter()
            .filter(|o| o.result.as_ref().is_ok_and(|r| r.degraded))
            .count();
        assert!(degraded > 0, "warm cache must degrade under saturation");
        check_shed_or_serve(all.len(), &outcomes).expect("shed-or-serve holds");
    }

    #[test]
    fn deadlines_fire_at_queue_pop_and_mid_solve() {
        let p = plat();
        let cfg = ServiceConfig {
            workers: 1,
            queue_capacity: 8,
            degrade_depth: 8,
            rate_limit: None,
            default_deadline_us: Some(300),
            base_solve_us: 200,
            per_kernel_solve_us: 0,
            ..ServiceConfig::default()
        };
        let mut svc = PlanService::new(&p, cfg, ChaosSchedule::calm(0));
        // Distinct templates per arrival: each is a cache miss, so the
        // single worker must pay the full 200us solve every time and the
        // queue wait blows the 300us budget.
        let arrivals: Vec<Arrival> = (0..4)
            .map(|i| Arrival {
                at: SimTime::from_micros(1),
                client: "c0".into(),
                bytes: frame(i, false),
            })
            .collect();
        let outcomes = svc.run(&arrivals);
        let kinds: Vec<&'static str> = outcomes
            .iter()
            .map(|o| match &o.result {
                Ok(_) => "ok",
                Err(e) => e.verdict(),
            })
            .collect();
        assert_eq!(kinds[0], "ok");
        assert!(
            kinds.contains(&"deadline_solve") || kinds.contains(&"deadline_queue"),
            "a 300us budget behind a 200us solve must miss: {kinds:?}"
        );
        check_shed_or_serve(4, &outcomes).expect("shed-or-serve holds");
    }

    #[test]
    fn rate_limit_sheds_typed() {
        let p = plat();
        let cfg = ServiceConfig {
            rate_limit: Some(RateLimit {
                burst: 2,
                per_sec: 1,
            }),
            ..small_cfg()
        };
        let mut svc = PlanService::new(&p, cfg, ChaosSchedule::calm(0));
        let arrivals: Vec<Arrival> = (0..5)
            .map(|i| Arrival {
                at: SimTime::from_micros(i + 1),
                client: "greedy".into(),
                bytes: frame(2, false),
            })
            .collect();
        let outcomes = svc.run(&arrivals);
        let limited = outcomes
            .iter()
            .filter(|o| {
                matches!(
                    o.result.as_ref(),
                    Err(ServiceError::RateLimited { client }) if client == "greedy"
                )
            })
            .count();
        assert_eq!(limited, 3, "burst of 2 admits 2, sheds 3");
    }

    #[test]
    fn double_run_is_byte_identical_under_chaos() {
        let p = plat();
        let load = LoadConfig {
            requests: 400,
            seed: 42,
            ..LoadConfig::default()
        };
        let span = SimTime::from_millis(48);
        let chaos = ChaosSchedule::burst(42, 10, span);
        let a = run_load(&p, &ServiceConfig::default(), &load, &chaos);
        let b = run_load(&p, &ServiceConfig::default(), &load, &chaos);
        assert_eq!(a.summary, b.summary);
        assert_eq!(a.registry.to_json(), b.registry.to_json());
        assert_eq!(a.outcomes, b.outcomes);
        check_shed_or_serve(load.requests as usize, &a.outcomes).expect("shed-or-serve");
    }

    #[test]
    fn chaos_produces_typed_sheds_only() {
        let p = plat();
        let load = LoadConfig {
            requests: 600,
            seed: 7,
            mean_gap_us: 40,
            ..LoadConfig::default()
        };
        let span = SimTime::from_millis(20);
        let chaos = ChaosSchedule::burst(7, 10, span);
        let out = run_load(&p, &ServiceConfig::default(), &load, &chaos);
        check_shed_or_serve(600, &out.outcomes).expect("shed-or-serve");
        let verdicts: std::collections::BTreeSet<&'static str> = out
            .outcomes
            .iter()
            .filter_map(|o| o.result.as_ref().err().map(|e| e.verdict()))
            .collect();
        // The canonical chaos schedule must exercise the client-misbehavior
        // rejects; overload rejects depend on tuning but sheds stay typed.
        assert!(verdicts.contains("torn_body"), "{verdicts:?}");
        assert!(verdicts.contains("bad_json"), "{verdicts:?}");
        assert!(verdicts.contains("oversized"), "{verdicts:?}");
    }

    #[test]
    fn service_stream_constants_are_pinned() {
        use hetero_runtime::{ADAPT_STREAM, CORRELATED_STREAM, HEALTH_STREAM, REPLAN_STREAM};
        assert_eq!(LOAD_STREAM, 0x10AD_9E4E_CA70_12F5);
        assert_eq!(CHAOS_STREAM, 0xC4A0_5C4A_05C4_A05C);
        let first = |s: u64| FaultRng::new(s).next_u64();
        assert_eq!(first(LOAD_STREAM), 0xd1ad_a757_6605_3d5a);
        assert_eq!(first(CHAOS_STREAM), 0x1d30_16a4_849e_5b8b);
        let all = [
            LOAD_STREAM,
            CHAOS_STREAM,
            HEALTH_STREAM,
            ADAPT_STREAM,
            CORRELATED_STREAM,
            REPLAN_STREAM,
        ];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b, "stream constants must be pairwise distinct");
            }
        }
    }
}
