//! Typed JSON is written and read straight from the text, without the
//! `Value` tree; the tree stays as the reference. Over every kind of
//! document the workspace writes — service frames and responses, fuzz
//! scenarios, journals, snapshot streams, fault traces and metrics
//! exports — the direct writer must give the tree writer's bytes, and
//! the direct reader the tree reader's value. Mutated documents (flipped
//! bytes, truncations, reordered, duplicate, unknown and escaped keys,
//! missing fields, `-0` numbers) must give the same value or the same
//! error text as the tree path, and never panic.

use std::path::PathBuf;

use hetero_match::matchmaker::{
    generate_load, load_corpus, Analyzer, ChaosSchedule, JournalSink, LoadConfig, PlanRequest,
    PlanResponse, PlanService, RunSpec, Scenario, ServiceConfig, ServiceError,
};
use hetero_match::platform::{FaultRng, FaultTrace, Platform, SimTime};
use hetero_match::runtime::{
    fold_stream, AdaptConfig, EpochRecord, EpochSnapshot, HealthConfig, JournalHeader,
    MetricsRegistry, ReplanConfig, RngCursors, RunReport, SnapshotObserver,
};
use serde::json::Reader;
use serde::{Deserialize, Serialize};
use serde_json::Value;

/// A document and the reader check for its type.
struct Doc {
    what: String,
    text: String,
    check: fn(&str, &str) -> bool,
}

/// The tree writer's bytes: the identity two values are compared by.
fn fingerprint<T: Serialize>(x: &T) -> String {
    serde_json::to_string(&x.to_value()).expect("a value tree serializes")
}

/// Read `text` as a `T` three ways: the tree path, `from_str`, and the
/// direct reader alone. `from_str` must agree with the tree exactly (the
/// same value, or the same error text); the direct reader must accept what
/// the tree accepts, with the same value, and reject what it rejects.
/// Returns whether the tree accepted.
fn same<T: Serialize + Deserialize>(what: &str, text: &str) -> bool {
    let tree = serde_json::from_str::<Value>(text)
        .map_err(|e| e.to_string())
        .and_then(|v| T::from_value(&v).map_err(|e| e.to_string()));
    let got = serde_json::from_str::<T>(text).map_err(|e| e.to_string());
    let mut r = Reader::new(text);
    let direct = T::read_json(&mut r).and_then(|v| r.finish().map(|()| v));
    match (&tree, &got, &direct) {
        (Ok(t), Ok(g), Ok(d)) => {
            let want = fingerprint(t);
            assert_eq!(fingerprint(g), want, "{what}: from_str value on {text:?}");
            assert_eq!(fingerprint(d), want, "{what}: direct value on {text:?}");
        }
        (Err(t), Err(g), Err(_)) => assert_eq!(g, t, "{what}: error text on {text:?}"),
        _ => panic!(
            "{what}: paths disagree on {text:?}: tree {:?}, from_str {:?}, direct {:?}",
            tree.as_ref().err(),
            got.as_ref().err(),
            direct.as_ref().err().map(ToString::to_string),
        ),
    }
    tree.is_ok()
}

/// Add `x` to the corpus, checking that the direct writer gives the tree
/// writer's bytes, compact and pretty.
fn add<T: Serialize + Deserialize>(docs: &mut Vec<Doc>, what: String, x: &T) {
    let tree = x.to_value();
    let compact = serde_json::to_string(x).expect("serializes");
    assert_eq!(
        compact,
        serde_json::to_string(&tree).unwrap(),
        "{what}: compact"
    );
    let pretty = serde_json::to_string_pretty(x).expect("serializes");
    assert_eq!(
        pretty,
        serde_json::to_string_pretty(&tree).unwrap(),
        "{what}: pretty"
    );
    add_text::<T>(docs, what, compact);
}

/// Add a document as text, for a reader of type `T`.
fn add_text<T: Serialize + Deserialize>(docs: &mut Vec<Doc>, what: String, text: String) {
    docs.push(Doc {
        what,
        text,
        check: same::<T>,
    });
}

/// A frame's body, when the frame has one and it is UTF-8.
fn frame_body(bytes: &[u8]) -> Option<String> {
    let at = bytes.windows(4).position(|w| w == b"\r\n\r\n")?;
    String::from_utf8(bytes[at + 4..].to_vec()).ok()
}

/// A journal line's body: the line is `{"h":"<16 hex>","body":<body>}`.
fn journal_body(line: &str) -> String {
    let start = r#"{"h":""#.len() + 16 + r#"","body":"#.len();
    line[start..line.len() - 1].to_string()
}

fn service_docs(docs: &mut Vec<Doc>) {
    let platform = Platform::icpp15();
    let load = LoadConfig {
        requests: 1500,
        seed: 42,
        ..LoadConfig::default()
    };
    let span = SimTime::from_micros(load.requests * load.mean_gap_us);
    for (name, chaos) in [
        ("calm", ChaosSchedule::calm(42)),
        ("chaos", ChaosSchedule::burst(42, 10, span)),
    ] {
        let arrivals = generate_load(&load, &chaos);
        for (i, a) in arrivals.iter().enumerate() {
            if let Some(body) = frame_body(&a.bytes) {
                add_text::<PlanRequest>(docs, format!("{name} request {i}"), body);
            }
        }
        let mut svc = PlanService::new(&platform, ServiceConfig::default(), chaos);
        for o in svc.run(&arrivals) {
            let what = format!("{name} response {}", o.seq);
            match &o.result {
                Ok(resp) => add::<PlanResponse>(docs, what, resp),
                Err(e) => add::<ServiceError>(docs, what, e),
            }
        }
    }
}

fn scenario_docs(docs: &mut Vec<Doc>) {
    for i in 0..200 {
        let seed = FaultRng::new(0xC0FFEE_u64.wrapping_add(i)).next_u64();
        add(
            docs,
            format!("scenario {seed:#x}"),
            &Scenario::generate(seed),
        );
    }
}

/// Every run mode on each checked-in fuzz-corpus scenario, journaled and
/// streamed: the journal header and records, the snapshot lines, the
/// folded registry, the report and the fault trace.
fn run_docs(docs: &mut Vec<Doc>) {
    let corpus = load_corpus(&PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fuzz_corpus"));
    assert!(!corpus.is_empty());
    for (_, entry) in &corpus {
        let sc = &entry.scenario;
        let platform = sc.platform.build();
        let analyzer = Analyzer::new(&platform);
        let health = HealthConfig::monitored();
        let schedule = &sc.schedule;
        for spec in [
            RunSpec::plain(),
            RunSpec::faulty(schedule.clone()),
            RunSpec::resilient(schedule.clone(), health),
            RunSpec::adaptive(schedule.clone(), health, AdaptConfig::enabled_default()),
            RunSpec::repairing(
                schedule.clone(),
                health,
                AdaptConfig::disabled(),
                ReplanConfig::enabled_default(),
            ),
        ] {
            let what = format!("{} {:?}", sc.name, spec.mode);
            let mut snap = SnapshotObserver::new(&platform, &what);
            let mut sink = JournalSink::record();
            let report = analyzer
                .run(&sc.descriptor, sc.config, &spec, &mut snap, Some(&mut sink))
                .expect("corpus scenarios run");
            let journal = sink.text();
            let mut lines = journal.lines();
            let header = lines.next().expect("a journal has a header");
            add_text::<JournalHeader>(docs, format!("{what} header"), journal_body(header));
            for (i, line) in lines.enumerate() {
                add_text::<EpochRecord>(docs, format!("{what} record {i}"), journal_body(line));
            }
            for (i, line) in snap.lines().iter().enumerate() {
                add_text::<EpochSnapshot>(docs, format!("{what} snapshot {i}"), line.clone());
            }
            let registry = fold_stream(&snap.stream()).expect("the stream folds");
            add::<MetricsRegistry>(docs, format!("{what} registry"), &registry);
            add_text::<MetricsRegistry>(docs, format!("{what} export"), registry.to_json());
            add::<RunReport>(docs, format!("{what} report"), &report);
            let trace = FaultTrace::new(schedule.clone(), report.synthesized_faults.clone());
            add_text::<FaultTrace>(docs, format!("{what} trace"), trace.to_json());
        }
    }
}

/// Deterministic positions for byte flips and cuts.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) % n.max(1) as u64) as usize
    }
}

/// An object's members, in order.
type Members = Vec<(String, Value)>;

/// Apply `f` to every object in the tree, innermost first.
fn each_map(v: &mut Value, f: &mut dyn FnMut(&mut Members)) {
    match v {
        Value::Seq(items) => items.iter_mut().for_each(|x| each_map(x, f)),
        Value::Map(entries) => {
            entries.iter_mut().for_each(|(_, x)| each_map(x, f));
            f(entries);
        }
        _ => {}
    }
}

/// Replace every leaf `f` maps to `Some`.
fn each_leaf(v: &mut Value, f: &mut dyn FnMut(&Value) -> Option<Value>) {
    match v {
        Value::Seq(items) => items.iter_mut().for_each(|x| each_leaf(x, f)),
        Value::Map(entries) => entries.iter_mut().for_each(|(_, x)| each_leaf(x, f)),
        leaf => {
            if let Some(new) = f(leaf) {
                *leaf = new;
            }
        }
    }
}

/// Remove the first member whose value is `null`; returns whether one was.
fn drop_first_null(v: &mut Value) -> bool {
    match v {
        Value::Seq(items) => items.iter_mut().any(drop_first_null),
        Value::Map(entries) => {
            if let Some(i) = entries.iter().position(|(_, x)| *x == Value::Null) {
                entries.remove(i);
                return true;
            }
            entries.iter_mut().any(|(_, x)| drop_first_null(x))
        }
        _ => false,
    }
}

fn text_of(v: &Value) -> String {
    serde_json::to_string(v).expect("a value tree serializes")
}

/// Marks the first character of a key or string for `\u` escaping.
const ESC: &str = "@@esc@@";

/// Replace every `"@@esc@@c` with `"\u00XX` for an ASCII char `c` that the
/// writer left unescaped; drop the marker elsewhere.
fn escape_marked(text: &str) -> String {
    let mut out = String::new();
    let mut rest = text;
    while let Some(at) = rest.find(ESC) {
        out.push_str(&rest[..at]);
        rest = &rest[at + ESC.len()..];
        match rest.chars().next() {
            Some(c) if c.is_ascii() && c != '"' && c != '\\' => {
                out.push_str(&format!("\\u{:04X}", c as u32));
                rest = &rest[1..];
            }
            _ => {}
        }
    }
    out.push_str(rest);
    out
}

/// The structural mutations of one document.
fn structural_mutations(tree: &Value) -> Vec<(&'static str, String)> {
    let mut out = Vec::new();
    let mut v = tree.clone();
    each_map(&mut v, &mut |m| m.reverse());
    out.push(("reordered keys", text_of(&v)));

    let mut v = tree.clone();
    each_map(&mut v, &mut |m| {
        if let Some((k, _)) = m.first() {
            let k = k.clone();
            m.push((k, Value::Str("dup".into())));
        }
    });
    out.push(("duplicate keys", text_of(&v)));

    let mut v = tree.clone();
    each_map(&mut v, &mut |m| {
        let junk = Value::Map(vec![
            (
                "a".into(),
                Value::Seq(vec![Value::U64(1), Value::I64(-2), Value::F64(0.5)]),
            ),
            ("b".into(), Value::Str("x\"y".into())),
        ]);
        m.insert(0, ("zz_unknown".into(), junk));
    });
    out.push(("unknown keys", text_of(&v)));

    let mut v = tree.clone();
    each_map(&mut v, &mut |m| {
        m.iter_mut().for_each(|(k, _)| k.insert_str(0, ESC));
    });
    each_leaf(&mut v, &mut |x| match x {
        Value::Str(s) => Some(Value::Str(format!("{ESC}{s}"))),
        _ => None,
    });
    out.push(("escaped keys and strings", escape_marked(&text_of(&v))));

    let mut v = tree.clone();
    if drop_first_null(&mut v) {
        out.push(("missing null field", text_of(&v)));
    }

    for (name, pick) in [
        (
            "-0 for every float",
            (|x: &Value| matches!(x, Value::F64(_))) as fn(&Value) -> bool,
        ),
        ("-0 for every integer", |x| matches!(x, Value::U64(_))),
    ] {
        let mut v = tree.clone();
        each_leaf(&mut v, &mut |x| {
            pick(x).then(|| Value::Str("@@negzero@@".into()))
        });
        out.push((name, text_of(&v).replace("\"@@negzero@@\"", "-0")));
    }

    let mut v = tree.clone();
    let mut first = true;
    each_leaf(&mut v, &mut |x| {
        let hit = first && matches!(x, Value::Str(_));
        first &= !hit;
        hit.then(|| Value::Str("@@surrogate@@".into()))
    });
    let lone = text_of(&v);
    out.push((
        "surrogate pair",
        lone.replace("@@surrogate@@", "\\uD83D\\uDE00"),
    ));
    out.push((
        "broken surrogate pair",
        lone.replace("@@surrogate@@", "\\uD800\\u0041"),
    ));
    out.push(("pretty", serde_json::to_string_pretty(tree).unwrap()));
    out
}

/// Byte flips (ASCII positions to JSON-significant bytes) and cuts.
fn byte_mutations(text: &str, rng: &mut Lcg) -> Vec<String> {
    const SWAPS: &[u8] = b"\"{}[],:\\0-9e.nt \x01";
    let mut out = Vec::new();
    if text.is_empty() {
        return out;
    }
    for _ in 0..6 {
        let at = rng.below(text.len());
        if text.as_bytes()[at].is_ascii() {
            let mut b = text.as_bytes().to_vec();
            b[at] = SWAPS[rng.below(SWAPS.len())];
            out.push(String::from_utf8(b).expect("an ASCII swap keeps UTF-8"));
        }
    }
    for cut in [
        text.len() / 2,
        text.len().saturating_sub(1),
        rng.below(text.len()),
    ] {
        if text.is_char_boundary(cut) {
            out.push(text[..cut].to_string());
        }
    }
    out
}

#[test]
fn direct_codec_matches_the_value_tree_on_every_document_kind() {
    let mut docs = Vec::new();
    service_docs(&mut docs);
    scenario_docs(&mut docs);
    run_docs(&mut docs);

    let mut rng = Lcg(0x5EED);
    let (mut mutated, mut accepted) = (0usize, 0usize);
    // Service frames repeat 60 templates, so mutate a sample of them; every
    // other kind is mutated whole.
    for (n, doc) in docs.iter().enumerate() {
        let accepts = (doc.check)(&doc.what, &doc.text);
        let service = doc.what.contains("request") || doc.what.contains("response");
        if !accepts || (service && n % 16 != 0) {
            continue;
        }
        let tree: Value = serde_json::from_str(&doc.text).expect("accepted documents parse");
        let mut texts = structural_mutations(&tree);
        texts.extend(
            byte_mutations(&doc.text, &mut rng)
                .into_iter()
                .map(|t| ("bytes", t)),
        );
        for (how, text) in texts {
            mutated += 1;
            accepted += usize::from((doc.check)(&format!("{} ({how})", doc.what), &text));
        }
    }
    assert!(docs.len() > 5000, "corpus holds {} documents", docs.len());
    // Both outcomes are exercised: mutations the readers accept (reordered,
    // duplicate, unknown and escaped keys) and ones they reject.
    assert!(
        accepted > 1000 && mutated - accepted > 1000,
        "{accepted} of {mutated} accepted"
    );
}

#[test]
fn nesting_past_the_limit_is_an_error_on_every_path() {
    let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
    let v: Value = serde_json::from_str(&deep(128)).expect("128 levels are allowed");
    assert!(v.as_array().is_some());
    for text in [
        deep(129),
        "[".repeat(65_000),
        format!("{{\"a\":{}}}", deep(200)),
    ] {
        let err = serde_json::from_str::<Value>(&text)
            .unwrap_err()
            .to_string();
        assert!(err.starts_with("recursion limit exceeded"), "{err}");
        // A typed read skipping an unknown key nests through the same reader.
        let err = serde_json::from_str::<FaultTrace>(&text)
            .unwrap_err()
            .to_string();
        assert!(err.starts_with("recursion limit exceeded"), "{err}");
    }

    // File-loading surfaces turn it into their own typed error.
    let unknown = format!(
        "{{\"version\":1,\"junk\":{},\"schedule\":null}}",
        "[".repeat(20_000)
    );
    let err = FaultTrace::from_json(&unknown).unwrap_err().to_string();
    assert!(
        err.contains("recursion limit exceeded at byte 147"),
        "{err}"
    );
    let err = fold_stream(&"[".repeat(20_000)).unwrap_err().to_string();
    assert_eq!(err, "stream line 1: recursion limit exceeded at byte 128");
}

#[test]
fn writer_escapes_and_number_forms_match_the_reference_rules() {
    // Escapes: quote, backslash, \n \r \t by name, other controls as
    // lowercase \u00xx; DEL and non-ASCII as themselves.
    let s = "a\"b\\c\nd\re\tf\u{1}g\u{1f}h\u{7f}é😀";
    let text = serde_json::to_string(s).unwrap();
    assert_eq!(text, "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001g\\u001fh\u{7f}é😀\"");
    assert_eq!(serde_json::from_str::<String>(&text).unwrap(), s);
    // Floats keep a decimal point; non-finite floats are null.
    assert_eq!(serde_json::to_string(&1.0f64).unwrap(), "1.0");
    assert_eq!(serde_json::to_string(&-0.0f64).unwrap(), "-0.0");
    assert_eq!(serde_json::to_string(&f64::NAN).unwrap(), "null");
    assert_eq!(
        serde_json::to_string(&1e300f64).unwrap(),
        format!("{}.0", 1e300)
    );
    assert_eq!(
        serde_json::to_string(&0.1f32).unwrap(),
        (0.1f32 as f64).to_string()
    );
    for n in [0, 9, 10, u64::MAX] {
        assert_eq!(serde_json::to_string(&n).unwrap(), n.to_string());
    }
    for n in [i64::MIN, -1, 0, i64::MAX] {
        assert_eq!(serde_json::to_string(&n).unwrap(), n.to_string());
    }
    // `-0` reads as the integer zero, so a float field gets +0.0.
    let x: f64 = serde_json::from_str("-0").unwrap();
    assert!(x == 0.0 && x.is_sign_positive());
    // Empty and nested containers, pretty.
    let v = serde_json::json!({ "a": Vec::<u8>::new(), "b": [Vec::<u8>::new()] });
    assert_eq!(
        serde_json::to_string_pretty(&v).unwrap(),
        "{\n  \"a\": [],\n  \"b\": [\n    []\n  ]\n}"
    );
}

/// The writer's escaping rules, one byte at a time: the reference for the
/// word-at-a-time scan.
fn escaped(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `s` written, compared with the reference escaping, and read back on
/// the direct and tree paths.
fn string_round_trip(s: &str) {
    let text = serde_json::to_string(s).unwrap();
    assert_eq!(text, escaped(s), "writing {s:?}");
    assert_eq!(serde_json::from_str::<String>(&text).unwrap(), s);
    assert_eq!(
        serde_json::from_str::<Value>(&text).unwrap(),
        Value::Str(s.to_string())
    );
    // As a key, where the reader's one-pass key scan applies.
    let text = format!("{{{text}:1}}");
    let v: Value = serde_json::from_str(&text).unwrap();
    assert_eq!(v.as_map().unwrap()[0].0, s, "key {s:?}");
    same::<RngCursors>("escape in an unknown key", &text);
}

#[test]
fn strings_escape_and_read_back_at_every_offset_of_a_word() {
    let specials: Vec<char> = ['"', '\\']
        .into_iter()
        .chain((0u8..0x20).map(char::from))
        .collect();
    for len in 0..=40 {
        string_round_trip(&"a".repeat(len));
        for at in 0..len {
            for &c in &specials {
                let s: String = (0..len).map(|i| if i == at { c } else { 'x' }).collect();
                string_round_trip(&s);
            }
        }
    }
    // Multi-byte characters straddling 8-byte words, next to escapes and
    // next to bytes the scans must not take for `"` or `\` (0xa2, 0xdc in
    // UTF-8 continuation bytes; DEL).
    for lead in 0..16 {
        for c in ['é', '€', '😀', '\u{22a2}', '\u{5cdc}', '\u{7f}'] {
            let mut s = "y".repeat(lead);
            for _ in 0..3 {
                s.push(c);
                s.push('"');
                s.push(c);
                s.push('\u{1}');
            }
            string_round_trip(&s);
        }
    }
}

#[test]
fn integers_at_every_digit_count_write_and_read_back() {
    let mut unsigned = vec![0u64, u64::MAX, u64::MAX - 1];
    let mut p = 1u64;
    while let Some(next) = p.checked_mul(10) {
        unsigned.extend([p - 1, p, p + 1, next - 1]);
        p = next;
    }
    unsigned.extend([p - 1, p, p + 1]);
    for &n in &unsigned {
        let text = serde_json::to_string(&n).unwrap();
        assert_eq!(text, n.to_string());
        assert_eq!(serde_json::from_str::<u64>(&text).unwrap(), n);
        same::<u64>("u64", &text);
        same::<i64>("u64 as i64", &text);
        same::<u32>("u64 as u32", &text);
        same::<f64>("u64 as f64", &text);
    }
    let mut signed = vec![i64::MIN, i64::MIN + 1, i64::MAX, -1, 0];
    signed.extend(
        unsigned
            .iter()
            .filter_map(|&n| i64::try_from(n).ok())
            .flat_map(|n| [n, -n]),
    );
    for &n in &signed {
        let text = serde_json::to_string(&n).unwrap();
        assert_eq!(text, n.to_string());
        assert_eq!(serde_json::from_str::<i64>(&text).unwrap(), n);
        same::<i64>("i64", &text);
        same::<u64>("i64 as u64", &text);
        same::<i8>("i64 as i8", &text);
        same::<f64>("i64 as f64", &text);
    }
}

/// `Display`'s shortest form with the writer's rules: a `.0` when it reads
/// as an integer, `null` when not finite.
fn float_text(x: f64) -> String {
    if !x.is_finite() {
        return "null".into();
    }
    let s = x.to_string();
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        s + ".0"
    }
}

#[test]
fn floats_write_in_shortest_form_and_read_back_exactly() {
    let two53 = (1u64 << 53) as f64;
    let mut floats = vec![
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        5e-324,
        f64::from_bits(0x000F_FFFF_FFFF_FFFF),
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        0.1,
        0.3,
        1.0 / 3.0,
    ];
    for k in -4i32..=4 {
        floats.extend([two53 + f64::from(k), -(two53 + f64::from(k))]);
    }
    for e in 15..=17 {
        let p = 10f64.powi(e);
        floats.extend([p, -p, p + 1.0, p - 1.0, p + 0.5, p * 1.5]);
    }
    // Every kind of bit pattern: integral, fractional, huge and tiny.
    let mut x = 0x2545_F491_4F6C_DD1D_u64;
    for _ in 0..20_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let f = f64::from_bits(x);
        floats.extend([f, f.trunc(), (f.to_bits() % 1_000_000_007) as f64 / 1024.0]);
    }
    for &f in &floats {
        let text = serde_json::to_string(&f).unwrap();
        assert_eq!(text, float_text(f), "writing {f:e}");
        if f.is_finite() {
            let back: f64 = serde_json::from_str(&text).unwrap();
            assert_eq!(back.to_bits(), f.to_bits(), "{text}");
            same::<f64>("float", &text);
        }
    }
    for f in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert_eq!(serde_json::to_string(&f).unwrap(), "null");
        same::<Option<f64>>("non-finite", "null");
    }
    // Decimal text the writer never makes, read as Rust parses it (text
    // without a fraction or exponent is an integer, and `-0` is +0.0).
    for mantissa in [
        "0",
        "1",
        "7",
        "25",
        "9007199254740993",
        "123456789012345678",
    ] {
        for frac in [".0", ".5", ".000001", ".1234567890123"] {
            for exp in [
                "", "e0", "e-5", "E+22", "e22", "e23", "e-22", "e-23", "e308", "e-330",
            ] {
                for sign in ["", "-"] {
                    let text = format!("{sign}{mantissa}{frac}{exp}");
                    let want: f64 = text.parse().unwrap();
                    let got: f64 = serde_json::from_str(&text).unwrap();
                    assert_eq!(got.to_bits(), want.to_bits(), "{text}");
                    same::<f64>("decimal text", &text);
                }
            }
        }
    }
}

#[test]
fn direct_scalar_reads_match_the_tree_at_the_edges() {
    let texts = [
        "007",
        "-0",
        "-0.0",
        "0e0",
        "1e400",
        "-1e400",
        "18446744073709551615",
        "18446744073709551616",
        "-9223372036854775808",
        "-9223372036854775809",
        "1.",
        "-.5",
        "1.e5",
        "1e",
        "1-2",
        "--1",
        "-",
        "2.5",
        "1e2",
        "true",
        "false",
        "null",
        "\"1\"",
        "[1]",
        " 7 ",
    ];
    for text in texts {
        same::<u64>("u64", text);
        same::<u8>("u8", text);
        same::<i64>("i64", text);
        same::<i16>("i16", text);
        same::<f64>("f64", text);
        same::<f32>("f32", text);
        same::<bool>("bool", text);
        same::<Option<u64>>("Option<u64>", text);
    }
    // `-0` reads as +0.0 on both paths; `1e400` as infinity.
    let x: f64 = serde_json::from_str("-0").unwrap();
    assert!(x == 0.0 && x.is_sign_positive());
    assert_eq!(serde_json::from_str::<f64>("1e400").unwrap(), f64::INFINITY);
    assert_eq!(serde_json::from_str::<u64>("007").unwrap(), 7);
    // Escaped, duplicate and spaced keys around scalar fields.
    for text in [
        r#"{"fault":1,"correlated":null,"health":2,"adapt":null,"replan":3}"#,
        r#"{"fault":1,"fault":9,"correlated":null,"health":2,"adapt":null,"replan":3}"#,
        r#"{ "fault" : 1 , "correlated":null,"health":2,"adapt":null,"replan":3 }"#,
        r#"{"fault":-0,"correlated":007,"health":2,"adapt":null,"replan":3}"#,
        r#"{"fault":1e400,"correlated":null,"health":2,"adapt":null,"replan":3}"#,
        r#"{"fault\"":1,"correlated":null,"health":2,"adapt":null,"replan":3}"#,
    ] {
        same::<RngCursors>("cursor keys", text);
    }
}
