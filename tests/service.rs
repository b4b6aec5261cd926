//! Planning-service robustness (DESIGN.md §8.9, PROPERTY-TESTS.md §10):
//! the wire codec never panics on arbitrary bytes — every malformed frame
//! becomes a typed [`ServiceError`] — and the shed-or-serve oracle holds
//! over seeded chaos schedules: every arrival gets exactly one terminal
//! response, sheds are typed, and same-seed runs are byte-identical on
//! the wire and in the exported registry.

use hetero_match::matchmaker::{
    check_shed_or_serve, decode_request, encode_request, encode_response, run_load, template_app,
    Arrival, ChaosSchedule, LoadConfig, PlanRequest, PlanService, ServiceConfig, ServiceError,
};
use hetero_match::platform::{Platform, SimTime};
use proptest::prelude::*;

fn frame(template: u64, what_if: bool) -> Vec<u8> {
    encode_request(&PlanRequest {
        id: template,
        client: "t".into(),
        app: template_app(template),
        config: None,
        what_if,
        deadline_us: None,
    })
}

/// Re-encoded wire transcript of a whole run — the byte-level identity
/// the determinism CI job diffs.
fn wire(outcomes: &[hetero_match::matchmaker::ServiceOutcome]) -> String {
    outcomes
        .iter()
        .map(|o| encode_response(&o.result))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn directed_malformed_frames_are_typed_not_panics() {
    for (bytes, want) in [
        (&b""[..], "bad_frame"),
        (&b"POST /plan HTTP/1.1"[..], "bad_frame"),
        (&b"GET /plan HTTP/1.1\r\n\r\n"[..], "bad_frame"),
        (
            &b"POST /plan HTTP/1.1\r\ncontent-length: 99\r\n\r\n{}"[..],
            "torn_body",
        ),
        (
            &b"POST /plan HTTP/1.1\r\ncontent-length: 4\r\n\r\n{{{{"[..],
            "bad_json",
        ),
        (
            &b"POST /plan HTTP/1.1\r\ncontent-length: 1000000\r\n\r\n"[..],
            "oversized",
        ),
    ] {
        let err = decode_request(bytes, 64 * 1024).expect_err("malformed frame must fail");
        assert_eq!(
            err.verdict(),
            want,
            "for {:?}",
            String::from_utf8_lossy(bytes)
        );
    }
}

/// Bodies that once crashed the decoder: a high surrogate followed by an
/// escape that is not a low one (an overflow panic in debug builds, U+2441
/// in release), and nesting deep enough to overflow the stack.
#[test]
fn hostile_json_bodies_are_typed_errors() {
    let post = |body: &str| {
        let frame = format!(
            "POST /plan HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        decode_request(frame.as_bytes(), 64 * 1024)
    };
    let bad_json = |body: &str| match post(body) {
        Err(ServiceError::BadJson { error }) => error,
        other => panic!("expected bad_json, got {other:?}"),
    };
    let req = String::from_utf8(frame(0, false)).unwrap();
    let body = req.split_once("\r\n\r\n").unwrap().1;
    assert!(body.contains(r#""client":"t""#));
    for lo in [r"\u0041", r"\uD800", r"\uE000"] {
        let bad = body.replace(r#""client":"t""#, &format!(r#""client":"\uD800{lo}""#));
        assert_eq!(bad_json(&bad), r"invalid \u escape");
    }
    let astral = body.replace(r#""client":"t""#, r#""client":"\uD83D\uDE00""#);
    assert_eq!(post(&astral).expect("a valid pair decodes").client, "😀");

    // 65,000 bytes fits under the 64 KiB body cap.
    assert_eq!(
        bad_json(&"[".repeat(65_000)),
        "recursion limit exceeded at byte 128"
    );
    // 128 levels parse; the body then fails as the wrong shape, not as depth.
    let deep = format!("{}{}", "[".repeat(128), "]".repeat(128));
    assert_eq!(bad_json(&deep), "expected map for PlanRequest");
}

#[test]
fn burst_chaos_load_sheds_typed_and_stays_deterministic() {
    let platform = Platform::icpp15();
    let load = LoadConfig {
        requests: 2_000,
        seed: 9,
        ..LoadConfig::default()
    };
    let span = SimTime::from_micros(load.requests * load.mean_gap_us);
    let chaos = ChaosSchedule::burst(9, 10, span);
    let a = run_load(&platform, &ServiceConfig::default(), &load, &chaos);
    let b = run_load(&platform, &ServiceConfig::default(), &load, &chaos);

    check_shed_or_serve(load.requests as usize, &a.outcomes).expect("shed-or-serve");
    assert_eq!(
        wire(&a.outcomes),
        wire(&b.outcomes),
        "wire transcripts diverged"
    );
    assert_eq!(a.summary, b.summary, "summaries diverged");
    assert_eq!(
        a.registry.to_json(),
        b.registry.to_json(),
        "registries diverged"
    );
    // Under 10x burst something must actually shed, and every shed is a
    // recognised typed verdict — never a silent drop or a panic.
    let sheds: Vec<&'static str> = a
        .outcomes
        .iter()
        .filter_map(|o| o.result.as_ref().err().map(|e| e.verdict()))
        .collect();
    assert!(!sheds.is_empty(), "10x burst chaos must shed");
    const VERDICTS: &[&str] = &[
        "bad_frame",
        "oversized",
        "torn_body",
        "bad_json",
        "invalid_request",
        "queue_full",
        "rate_limited",
        "deadline_queue",
        "deadline_solve",
    ];
    for v in &sheds {
        assert!(VERDICTS.contains(v), "unknown shed verdict {v}");
    }
}

#[test]
fn saturated_warm_cache_serves_degraded() {
    let platform = Platform::icpp15();
    let cfg = ServiceConfig {
        workers: 2,
        queue_capacity: 4,
        degrade_depth: 2,
        rate_limit: None,
        default_deadline_us: None,
        ..ServiceConfig::default()
    };
    let mut svc = PlanService::new(&platform, cfg, ChaosSchedule::calm(0));
    // Saturating volley at t=1us, then a second volley after the first
    // solves complete in virtual time: cache warm, pool still draining.
    let mut arrivals: Vec<Arrival> = (0..8)
        .map(|_| Arrival {
            at: SimTime::from_micros(1),
            client: "c0".into(),
            bytes: frame(0, false),
        })
        .collect();
    arrivals.push(Arrival {
        at: SimTime::from_micros(205),
        client: "c0".into(),
        bytes: frame(0, false),
    });
    let outcomes = svc.run(&arrivals);
    check_shed_or_serve(arrivals.len(), &outcomes).expect("shed-or-serve");
    let last = outcomes.last().expect("second volley answered");
    let resp = last.result.as_ref().expect("degraded serve, not shed");
    assert!(
        resp.degraded && resp.cached,
        "saturated warm cache must degrade"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The codec never panics: arbitrary bytes decode to a request or a
    /// typed error whose verdict and HTTP status are well-formed.
    #[test]
    fn codec_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        max_body in 0u64..100_000,
    ) {
        match decode_request(&bytes, max_body) {
            // A random frame that happens to parse must re-encode into a
            // frame that parses back to the same request.
            Ok(req) => prop_assert_eq!(decode_request(&encode_request(&req), u64::MAX), Ok(req)),
            Err(e) => {
                prop_assert!(!e.verdict().is_empty());
                prop_assert!((400..=503).contains(&e.status()));
            }
        }
    }

    /// Prefixes of a *valid* frame also never panic — the torn-body and
    /// truncated-header paths return typed errors, the full frame round
    /// trips.
    #[test]
    fn codec_handles_every_truncation_of_a_valid_frame(
        template in 0u64..60,
        what_if in any::<bool>(),
    ) {
        let full = frame(template, what_if);
        let req = decode_request(&full, 1 << 20).expect("full frame round trips");
        prop_assert_eq!(&req.app, &template_app(template));
        for cut in (0..full.len()).step_by(7) {
            match decode_request(&full[..cut], 1 << 20) {
                Ok(_) => prop_assert_eq!(cut, full.len()),
                Err(e) => prop_assert!(!e.verdict().is_empty()),
            }
        }
    }

    /// Shed-or-serve over seeded chaos: for any seed and burst factor the
    /// service answers every arrival exactly once, in causal order, and a
    /// same-seed re-run reproduces the wire transcript byte for byte.
    #[test]
    fn shed_or_serve_holds_over_seeded_chaos(
        seed in 0u64..1_000,
        factor in 1u32..12,
        calm in any::<bool>(),
    ) {
        let platform = Platform::icpp15();
        let load = LoadConfig { requests: 96, seed, ..LoadConfig::default() };
        let span = SimTime::from_micros(load.requests * load.mean_gap_us);
        let chaos = if calm {
            ChaosSchedule::calm(seed)
        } else {
            ChaosSchedule::burst(seed, factor, span)
        };
        let a = run_load(&platform, &ServiceConfig::default(), &load, &chaos);
        prop_assert!(check_shed_or_serve(load.requests as usize, &a.outcomes).is_ok());
        let b = run_load(&platform, &ServiceConfig::default(), &load, &chaos);
        prop_assert_eq!(wire(&a.outcomes), wire(&b.outcomes));
        prop_assert_eq!(a.summary, b.summary);
    }
}
