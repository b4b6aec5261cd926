//! `trajectory` — the repository's standing benchmark.
//!
//! ```text
//! trajectory --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!            [--trace-out <spans.jsonl>] [--quick]
//! trajectory run     [--sets <n>] [--quick] [--out <results.json>]
//! trajectory trace   [--quick] [--out <results.json>]
//! trajectory compare <base.json> <change.json>
//! trajectory bless
//! ```
//!
//! The first form is one invocation: set up one workload, measure it for
//! about `--seconds`, check its outputs, and print one JSON result as the
//! last line of stdout (end-to-end metrics untraced, per-layer metrics with
//! `--trace 1`). `run` and `trace` drive invocations of this same binary as
//! child processes, at `BENCHMARK.json`'s `run_seconds`, and collect them
//! into a results file; `compare` judges two results files by
//! `BENCHMARK.json`'s bounds; `bless` rewrites the golden outputs. See
//! README.md.

mod golden;
mod metrics;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use serde_json::Value;

use metrics::Metric;
use stats::{Better, Verdict};
use trace::Tracer;
use workloads::{Measured, Params, Service, Workload};

/// An untraced invocation measures in this many segments, each starting
/// with a fresh set-up, so its set-ups and passes are spread over the
/// whole run.
const SEGMENTS: usize = 5;
/// Invocations per workload in one set, interleaved round-robin.
const ROUNDS: usize = 5;
/// Measurement seconds of a `--quick` invocation.
const QUICK_SECONDS: f64 = 0.5;
/// The benchmark's declaration, built in so the run length and the bounds
/// `compare` judges by are the ones the benchmark declares.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
/// Where `run` and `trace` write by default (relative to the repository
/// root, which is where the commands are meant to run from).
const RESULTS_DIR: &str = "benchmark/results";

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("bless") => cmd_bless(&args[1..]),
        _ => invoke(started, &args),
    };
    match result {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("trajectory: {e}");
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------------------
// Argument parsing
// ---------------------------------------------------------------------------

struct Args {
    flags: BTreeMap<String, String>,
    positional: Vec<String>,
}

impl Args {
    /// `valued` flags take the next argument; `switches` take none.
    fn parse(args: &[String], valued: &[&str], switches: &[&str]) -> Result<Args, String> {
        let mut flags = BTreeMap::new();
        let mut positional = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if valued.contains(&a.as_str()) {
                let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                flags.insert(a.clone(), v.clone());
            } else if switches.contains(&a.as_str()) {
                flags.insert(a.clone(), String::new());
            } else if a.starts_with("--") {
                return Err(format!("unknown flag {a}"));
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Args { flags, positional })
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.flags.get(flag).map(String::as_str)
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.contains_key(flag)
    }
}

fn benchmark_json() -> Value {
    serde_json::from_str(BENCHMARK_JSON).expect("the built-in BENCHMARK.json parses")
}

/// Measurement seconds of an invocation without `--seconds`.
fn default_seconds(quick: bool) -> f64 {
    if quick {
        QUICK_SECONDS
    } else {
        benchmark_json()["run_seconds"]
            .as_f64()
            .expect("BENCHMARK.json has run_seconds")
    }
}

fn parse_u64(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|_| format!("expected an integer, got {s:?}"))
}

// ---------------------------------------------------------------------------
// One invocation
// ---------------------------------------------------------------------------

fn invoke(started: Instant, args: &[String]) -> Result<u8, String> {
    let usage = "usage: trajectory --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                 [--trace-out <path>] [--quick] | run | trace | compare | bless";
    let a = Args::parse(
        args,
        &[
            "--workload",
            "--seed",
            "--seconds",
            "--trace",
            "--trace-out",
        ],
        &["--quick"],
    )?;
    if !a.positional.is_empty() {
        return Err(usage.into());
    }
    let name = a.get("--workload").ok_or(usage)?;
    let workload = Workload::parse(name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?}; expected one of {names:?}")
    })?;
    let traced = match a.get("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
    };
    let quick = a.has("--quick");
    let seconds = match a.get("--seconds") {
        None => default_seconds(quick),
        Some(s) => match s.parse::<f64>() {
            Ok(v) if v > 0.0 && v.is_finite() => v,
            _ => return Err(format!("--seconds: expected a positive number, got {s:?}")),
        },
    };
    let seed = a.get("--seed").map(parse_u64).transpose()?;
    let params = Params::new(seed.unwrap_or(workloads::DEFAULT_SEED), quick);

    let (measured, metrics) = if traced {
        // The same passes untraced, then traced: the throughput difference
        // is the tracing overhead.
        let state = workloads::setup(workload, &params);
        let passes = state.passes(seconds / 2.0);
        let mut plain = Measured::default();
        workloads::measure(&state, passes, None, &mut plain);
        let mut tracer = Tracer::new();
        let mut traced_m = Measured::default();
        workloads::measure(&state, passes, Some(&mut tracer), &mut traced_m);
        let overhead_pct = 100.0 * (1.0 - traced_m.throughput() / plain.throughput());
        if let Some(path) = a.get("--trace-out") {
            tracer
                .write_spans(Path::new(path))
                .map_err(|e| format!("writing {path}: {e}"))?;
        }
        let metrics = metrics::per_layer(&tracer, traced_m.attempted as f64, overhead_pct);
        traced_m.merge(plain);
        (traced_m, metrics)
    } else {
        // Each segment sets up afresh (repeatedly where set-up is cheap) and
        // measures its share of the passes. The first set-up is timed from
        // process start. Host-contention episodes last seconds, so
        // spreading the set-ups and passes over the run keeps the median
        // set-up and each input's fastest pass out of them.
        let segments = if quick { 1 } else { SEGMENTS };
        let mut m = Measured::default();
        let mut setup_s = Vec::new();
        for segment in 0..segments {
            let mut state = None;
            for repeat in 0..workload.setups_per_segment() {
                drop(state.take());
                let from = if segment == 0 && repeat == 0 {
                    started
                } else {
                    Instant::now()
                };
                state = Some(workloads::setup(workload, &params));
                setup_s.push(from.elapsed().as_secs_f64());
            }
            let state = state.expect("a segment sets up at least once");
            let passes = state.passes(seconds / segments as f64);
            workloads::measure(&state, passes, None, &mut m);
        }
        let metrics = metrics::end_to_end(stats::quartiles(&setup_s).1, &m);
        (m, metrics)
    };

    for e in &measured.errors {
        eprintln!("{}: check failed: {e}", workload.name());
    }
    for m in &metrics {
        eprintln!(
            "{:<16} {:<30} {:>16.6} {}",
            workload.name(),
            m.name,
            m.value,
            m.unit
        );
    }
    println!(
        "{}",
        serde_json::to_string(&result_json(&measured, &metrics)).expect("serializes")
    );
    Ok(0)
}

fn result_json(m: &Measured, metrics: &[Metric]) -> Value {
    let metrics = metrics
        .iter()
        .map(|x| {
            (
                x.name.to_string(),
                serde_json::json!({ "value": x.value, "unit": x.unit }),
            )
        })
        .collect();
    serde_json::json!({
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": Value::Map(metrics),
    })
}

// ---------------------------------------------------------------------------
// run / trace: drive invocations as child processes
// ---------------------------------------------------------------------------

struct Child<'a> {
    workload: Workload,
    seed: u64,
    quick: bool,
    trace_out: Option<&'a Path>,
}

/// Run one invocation of this binary, at its default length, and parse its
/// result line.
fn spawn(c: &Child) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", c.workload.name()])
        .args(["--seed", &c.seed.to_string()])
        .args(["--trace", if c.trace_out.is_some() { "1" } else { "0" }]);
    if let Some(path) = c.trace_out {
        cmd.arg("--trace-out").arg(path);
    }
    if c.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("starting {}: {e}", c.workload.name()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let last = stdout.lines().last().unwrap_or_default();
    if !out.status.success() {
        return Err(format!(
            "{} (seed {}) exited with {}:\n{stderr}",
            c.workload.name(),
            c.seed,
            out.status
        ));
    }
    let mut v: Value = serde_json::from_str(last).map_err(|e| {
        format!(
            "{}: unreadable result line {last:?}: {e}",
            c.workload.name()
        )
    })?;
    if v["correct"].as_bool() != Some(true) {
        eprint!("{stderr}");
    }
    if let Value::Map(entries) = &mut v {
        entries.insert(0, ("seed".into(), Value::U64(c.seed)));
    }
    Ok(v)
}

fn host_json() -> Value {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let online = std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0);
    serde_json::json!({ "available_parallelism": parallelism, "online_cpus": online })
}

fn metric_value(run: &Value, name: &str) -> Option<f64> {
    run["metrics"][name]["value"].as_f64()
}

/// Median, quartiles and spread of every end-to-end metric over `runs`,
/// plus the share of failed ops.
fn summarize(runs: &[Value]) -> Value {
    let mut entries = Vec::new();
    for name in metrics::END_TO_END {
        let values: Vec<f64> = runs.iter().filter_map(|r| metric_value(r, name)).collect();
        let (q1, median, q3) = stats::quartiles(&values);
        let unit = runs
            .first()
            .and_then(|r| r["metrics"][name]["unit"].as_str())
            .unwrap_or("");
        entries.push((
            name.to_string(),
            serde_json::json!({
                "unit": unit,
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / median,
                "n": values.len(),
            }),
        ));
    }
    let sum = |key: &str| runs.iter().filter_map(|r| r[key].as_u64()).sum::<u64>();
    let failed_share = sum("failed") as f64 / sum("attempted").max(1) as f64;
    entries.push(("failed_share".into(), Value::F64(failed_share)));
    Value::Map(entries)
}

/// Load a results file, or start an empty one.
fn load_results(path: &Path) -> Result<Value, String> {
    match std::fs::read_to_string(path) {
        Ok(text) => serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display())),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Value::Map(Vec::new())),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

fn set_key(doc: &mut Value, key: &str, value: Value) {
    if let Value::Map(entries) = doc {
        match entries.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => entries.push((key.to_string(), value)),
        }
    }
}

fn save_results(path: &Path, doc: &Value) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(doc).expect("serializes") + "\n";
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

fn out_path(a: &Args, default_name: &str) -> PathBuf {
    a.get("--out")
        .map_or_else(|| Path::new(RESULTS_DIR).join(default_name), PathBuf::from)
}

/// `run`: sets of invocations, each set five per workload interleaved
/// round-robin. Sets are appended to the results file, so alternating
/// `run`s of two builds into two files yields paired runs for `compare`.
fn cmd_run(args: &[String]) -> Result<u8, String> {
    let a = Args::parse(args, &["--sets", "--out"], &["--quick"])?;
    if !a.positional.is_empty() {
        return Err("usage: trajectory run [--sets <n>] [--quick] [--out <path>]".into());
    }
    let quick = a.has("--quick");
    let n_sets = a.get("--sets").map(parse_u64).transpose()?.unwrap_or(1) as usize;
    let rounds = if quick { 1 } else { ROUNDS };
    let out = out_path(&a, "run.json");
    let mut doc = load_results(&out)?;
    let mut sets = doc["run"]["sets"].as_array().cloned().unwrap_or_default();
    if !sets.is_empty() && doc["run"]["quick"].as_bool() != Some(quick) {
        return Err(format!(
            "{} holds runs of the other size (--quick); choose another --out",
            out.display()
        ));
    }
    let wall = Instant::now();
    for _ in 0..n_sets {
        let set_index = sets.len();
        let mut runs: Vec<Vec<Value>> = vec![Vec::new(); Workload::ALL.len()];
        for round in 0..rounds {
            for (wi, &workload) in Workload::ALL.iter().enumerate() {
                let seed = workloads::DEFAULT_SEED + (set_index * rounds + round) as u64;
                let run = spawn(&Child {
                    workload,
                    seed,
                    quick,
                    trace_out: None,
                })?;
                eprintln!(
                    "set {set_index} round {round} {:<16} seed {seed:<4} correct {}",
                    workload.name(),
                    run["correct"].as_bool() == Some(true)
                );
                runs[wi].push(run);
            }
        }
        let set = Workload::ALL
            .iter()
            .zip(runs)
            .map(|(w, runs)| {
                let summary = summarize(&runs);
                (
                    w.name().to_string(),
                    serde_json::json!({ "summary": summary, "runs": runs }),
                )
            })
            .collect();
        sets.push(Value::Map(set));
    }
    eprintln!("{:.0} s", wall.elapsed().as_secs_f64());
    let all_correct = sets.iter().all(|set| {
        Workload::ALL
            .iter()
            .all(|w| set[w.name()]["summary"]["failed_share"].as_f64() == Some(0.0))
    });
    set_key(&mut doc, "host", host_json());
    set_key(
        &mut doc,
        "run",
        serde_json::json!({ "quick": quick, "sets": sets }),
    );
    save_results(&out, &doc)?;
    print_run_summary(&sets);
    Ok(if all_correct { 0 } else { 1 })
}

fn print_run_summary(sets: &[Value]) {
    println!(
        "{:<4} {:<16} {:<18} {:>14} {:>14} {:>14} {:>8}  unit",
        "set", "workload", "metric", "median", "q1", "q3", "spread"
    );
    for (i, set) in sets.iter().enumerate() {
        for w in Workload::ALL {
            let summary = &set[w.name()]["summary"];
            for name in metrics::END_TO_END {
                let s = &summary[name];
                println!(
                    "{i:<4} {:<16} {:<18} {:>14.6} {:>14.6} {:>14.6} {:>7.2}%  {}",
                    w.name(),
                    name,
                    s["median"].as_f64().unwrap_or(f64::NAN),
                    s["q1"].as_f64().unwrap_or(f64::NAN),
                    s["q3"].as_f64().unwrap_or(f64::NAN),
                    100.0 * s["spread"].as_f64().unwrap_or(f64::NAN),
                    s["unit"].as_str().unwrap_or("")
                );
            }
            println!(
                "{i:<4} {:<16} {:<18} {:>14.6}",
                w.name(),
                "failed_share",
                summary["failed_share"].as_f64().unwrap_or(f64::NAN)
            );
        }
    }
}

/// `trace`: one traced invocation per workload; spans go to
/// `benchmark/results/spans-<workload>.jsonl`.
fn cmd_trace(args: &[String]) -> Result<u8, String> {
    let a = Args::parse(args, &["--out"], &["--quick"])?;
    if !a.positional.is_empty() {
        return Err("usage: trajectory trace [--quick] [--out <path>]".into());
    }
    let quick = a.has("--quick");
    let out = out_path(&a, "trace.json");
    let mut doc = load_results(&out)?;
    let mut results = Vec::new();
    for workload in Workload::ALL {
        let spans = Path::new(RESULTS_DIR).join(format!("spans-{}.jsonl", workload.name()));
        let run = spawn(&Child {
            workload,
            seed: workloads::DEFAULT_SEED,
            quick,
            trace_out: Some(&spans),
        })?;
        eprintln!(
            "traced {:<16} spans -> {}",
            workload.name(),
            spans.display()
        );
        results.push((workload.name().to_string(), run));
    }
    let all_correct = results
        .iter()
        .all(|(_, r)| r["correct"].as_bool() == Some(true));
    let workloads = Value::Map(results);
    set_key(&mut doc, "host", host_json());
    set_key(
        &mut doc,
        "trace",
        serde_json::json!({ "quick": quick, "workloads": workloads }),
    );
    save_results(&out, &doc)?;
    print_trace_table(&workloads);
    Ok(if all_correct { 0 } else { 1 })
}

/// One row per per-layer metric, one column per workload.
fn print_trace_table(workloads: &Value) {
    let runs = workloads.as_map().unwrap_or_default();
    let header: String = runs.iter().map(|(w, _)| format!("{w:>16}")).collect();
    println!("{:<30} {header}", "metric");
    let Some((_, first)) = runs.first() else {
        return;
    };
    for (name, m) in first["metrics"].as_map().unwrap_or_default() {
        let row: String = runs
            .iter()
            .map(|(_, r)| format!("{:>16.4}", metric_value(r, name).unwrap_or(f64::NAN)))
            .collect();
        println!("{name:<30} {row}  {}", m["unit"].as_str().unwrap_or(""));
    }
}

// ---------------------------------------------------------------------------
// compare
// ---------------------------------------------------------------------------

struct Bound {
    name: String,
    better: Better,
    bound: f64,
}

fn bounds(bench: &Value) -> Result<Vec<Bound>, String> {
    let list = bench["end_to_end"]
        .as_array()
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m["name"].as_str().ok_or("metric without a name")?;
            Ok(Bound {
                name: name.to_string(),
                better: m["better"]
                    .as_str()
                    .and_then(Better::parse)
                    .ok_or_else(|| format!("{name}: better must be higher or lower"))?,
                bound: m["bound"]
                    .as_f64()
                    .ok_or_else(|| format!("{name}: missing bound"))?,
            })
        })
        .collect()
}

/// Every run of `workload` across a results file's sets, in order.
fn runs_of(doc: &Value, workload: Workload) -> Vec<Value> {
    doc["run"]["sets"]
        .as_array()
        .into_iter()
        .flatten()
        .flat_map(|set| {
            set[workload.name()]["runs"]
                .as_array()
                .cloned()
                .unwrap_or_default()
        })
        .collect()
}

fn cmd_compare(args: &[String]) -> Result<u8, String> {
    let a = Args::parse(args, &[], &[])?;
    let [base_path, change_path] = a.positional.as_slice() else {
        return Err("usage: trajectory compare <base.json> <change.json>".into());
    };
    let bounds = bounds(&benchmark_json())?;
    let base = load_results(Path::new(base_path))?;
    let change = load_results(Path::new(change_path))?;

    println!(
        "{:<16} {:<18} {:>14} {:>14} {:>8} {:>7} {:>7} {:>6} {:>7}  verdict",
        "workload", "metric", "base", "change", "gain", "spread", "bound", "pairs", "wins"
    );
    let mut regressed = false;
    for workload in Workload::ALL {
        let (b_runs, c_runs) = (runs_of(&base, workload), runs_of(&change, workload));
        for bound in &bounds {
            let values = |runs: &[Value]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| metric_value(r, &bound.name))
                    .collect()
            };
            let (b, c) = (values(&b_runs), values(&c_runs));
            if b.is_empty() || c.is_empty() {
                println!("{:<16} {:<18} missing runs", workload.name(), bound.name);
                continue;
            }
            let cmp = stats::compare(&b, &c, bound.better, bound.bound);
            regressed |= cmp.verdict == Verdict::Regressed;
            println!(
                "{:<16} {:<18} {:>14.6} {:>14.6} {:>7.2}% {:>6.2}% {:>6.1}% {:>6} {:>7}  {}",
                workload.name(),
                bound.name,
                stats::quartiles(&b).1,
                stats::quartiles(&c).1,
                100.0 * cmp.gain,
                100.0 * cmp.base_spread.max(cmp.change_spread),
                100.0 * bound.bound,
                cmp.pairs,
                cmp.wins,
                cmp.verdict.label()
            );
        }
        // A gain does not count when more operations fail than at the
        // parent.
        let failed = |runs: &[Value]| {
            runs.iter()
                .filter_map(|r| r["failed"].as_u64())
                .sum::<u64>()
        };
        let (bf, cf) = (failed(&b_runs), failed(&c_runs));
        let verdict = if cf > bf {
            Verdict::Regressed
        } else {
            Verdict::Unchanged
        };
        regressed |= verdict == Verdict::Regressed;
        println!(
            "{:<16} {:<18} {:>14} {:>14}  {}",
            workload.name(),
            "failed_ops",
            bf,
            cf,
            verdict.label()
        );
    }
    Ok(u8::from(regressed))
}

// ---------------------------------------------------------------------------
// bless
// ---------------------------------------------------------------------------

/// Rewrite the golden files from the current model. Only for an intended
/// calibration change.
fn cmd_bless(args: &[String]) -> Result<u8, String> {
    if !args.is_empty() {
        return Err("usage: trajectory bless".into());
    }
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let cells = workloads::Matrix::cells();
    save_results(&dir.join(golden::MATRIX_FILE), &serde_json::json!(cells))?;
    let runs: Vec<golden::ServiceRun> = [Workload::ServiceCalm, Workload::ServiceChaos]
        .into_iter()
        .map(|w| Service::golden_run(w, workloads::DEFAULT_SEED))
        .collect();
    save_results(&dir.join(golden::SERVICE_FILE), &serde_json::json!(runs))?;
    Ok(0)
}
