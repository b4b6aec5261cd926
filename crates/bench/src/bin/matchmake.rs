//! `matchmake` — the application analyzer as a command-line tool.
//!
//! Applications are described as JSON (`matchmaker::AppDescriptor`'s serde
//! form); the tool classifies them, ranks the suitable strategies, and —
//! on request — simulates every configuration on a chosen platform.
//!
//! ```text
//! matchmake template                    # print a JSON descriptor template
//! matchmake analyze  app.json           # class + Table I ranking + choice
//! matchmake compare  app.json           # simulate baselines + strategies
//! matchmake timeline app.json           # ASCII utilisation timeline of the best strategy
//! matchmake tune     app.json           # auto-tune the dynamic task size
//! matchmake platforms                   # list built-in platform presets
//! matchmake fuzz                        # random scenarios vs the invariant oracle bank
//! matchmake run      app.json           # journaled run of the selected strategy
//! matchmake resume   run.journal        # crash recovery: finish a killed journaled run
//! matchmake flame    app.json           # causal span profile: folded stacks on stdout
//! matchmake diff     a.json b.json      # per-series regression verdicts between two
//!                                       # metrics/report exports
//! matchmake serve                       # planning service: framed requests on stdin,
//!                                       # one response per request on stdout
//! matchmake load                        # seeded load generator against the in-process
//!                                       # service; prints the deterministic summary
//!
//! options:
//!   --platform icpp15|icpp15-phi        # preset (default icpp15)
//!   --refined                           # enable MK-DAG chain refinement
//!   --width <n>                         # gantt width in buckets, at least 1
//!                                       # (timeline; default 72)
//!   --metrics <path>                    # write Prometheus metrics of each simulated
//!                                       # run (compare/timeline) to <path>
//!   --breakdown                         # print the per-device makespan blame
//!                                       # breakdown after compare/timeline
//!   --profile <path>                    # plan from recorded kernel rates; the file
//!                                       # is created (by probing) if missing
//!   --fault-trace <path>                # compare: simulate every configuration under
//!                                       # the FaultTrace JSON at <path> (replayed
//!                                       # deterministically unless recording)
//!   --fault-trace-out <path>            # compare: run the trace's schedule live
//!                                       # (correlated domains may fire) and write the
//!                                       # selected strategy's effective FaultTrace —
//!                                       # input events plus synthesized triggers — to
//!                                       # <path>; requires --fault-trace
//!   --replan                            # compare: enable degraded-mode plan repair
//!                                       # (survivor re-planning on device death and
//!                                       # quarantine); adds a replans column and exits
//!                                       # non-zero on a typed ReplanError; requires
//!                                       # --fault-trace
//!
//! run/resume options:
//!   --journal <path>                    # run: write the write-ahead journal here
//!                                       # (required); a killed run leaves the
//!                                       # committed prefix for `matchmake resume`
//!   --crash-after <n>                   # run: deterministic kill point — abort after
//!                                       # the n-th journal record commits (exit 3)
//!   --torn                              # run: leave a half-written line after the
//!                                       # kill point (resume must discard it)
//!   --kill-at <ms>                      # run: kill at simulated time <ms> instead of
//!                                       # a record count
//!   --fault-trace <path>                # run: execute under the trace's replay
//!                                       # schedule (recorded into the journal header)
//!   --metrics <path>                    # run/resume: write the run's metrics; a
//!                                       # resumed run's export is byte-identical to
//!                                       # the uninterrupted one
//!   --metrics-stream <path>             # run/resume: write one delta-encoded
//!                                       # EpochSnapshot JSON line per committed
//!                                       # taskwait barrier (plus a run-end line);
//!                                       # folding the deltas reproduces --metrics
//!                                       # byte-for-byte, crash+resume included
//!   --salvage                           # resume: recover the longest valid record
//!                                       # prefix of a mid-file-corrupted journal
//!                                       # (strict resume refuses it) and report the
//!                                       # cut line and reason on stderr
//!
//! load options:
//!   --requests <n>                      # requests to generate, at least 1
//!                                       # (default 1000)
//!   --seed <s>                          # load/chaos seed, decimal or 0x-hex
//!   --chaos                             # run under the canonical 10x burst chaos
//!                                       # schedule (slow-loris, malformed JSON,
//!                                       # oversized bodies, a stalled worker)
//!   --metrics <path>                    # write the service's hm_service_* registry
//!
//! flame options:
//!   --fault-trace <path>                # profile the run under the trace's replay
//!                                       # schedule instead of the fault-free run
//!   --chrome <path>                     # also write a Chrome trace with causal flow
//!                                       # arrows (failover/hedge/repartition/replan
//!                                       # markers -> the task slots they caused)
//!
//! diff options:
//!   --tolerance <pct>                   # relative tolerance before a moved series
//!                                       # counts as improved/regressed (default 0;
//!                                       # a negative or non-finite value is an error)
//!   --report-only                       # print the verdict table but always exit 0
//!
//! fuzz options:
//!   --iters <n>                         # scenarios to fuzz, at least 1
//!                                       # (default 100)
//!   --seed <s>                          # campaign base seed, decimal or 0x-hex
//!                                       # (default 0)
//!   --shrink                            # minimize each failure to a small reproducer
//!   --corpus <dir>                      # persist (shrunk) failures as JSON into <dir>
//!   --self-check                        # plant deliberate invariant breaks and verify
//!                                       # the harness catches, shrinks and archives each
//! ```
//!
//! `fuzz` prints a deterministic campaign summary (no timestamps, ordered
//! maps only) — CI runs the same campaign twice and diffs the output — and
//! exits non-zero if any oracle was violated.

use hetero_platform::{FaultSchedule, FaultTrace, KillSchedule, Platform, SimTime};
use hetero_runtime::{
    AdaptConfig, HealthConfig, MetricsObserver, MetricsRegistry, MultiObserver, NullObserver,
    Observer, RunDiff, SnapshotObserver, SpanTree, TraceObserver, DEFAULT_GANTT_WIDTH,
};
use matchmaker::{
    encode_response, frame_head, run_load, tune_task_size, Analyzer, AppDescriptor, Arrival,
    ChaosSchedule, ExecutionConfig, JournalError, JournalSink, LoadConfig, PlanService,
    ProfileStore, ReplanConfig, RunJournal, RunSpec, ServiceConfig, Strategy,
};
use std::env;
use std::fs;
use std::path::Path;
use std::process::{self, exit};

fn usage() -> ! {
    eprintln!(
        "usage: matchmake <template|analyze|compare|timeline|tune|platforms|fuzz|run|resume|\
         flame|diff|serve|load> [app.json|run.journal] [b.json] \
         [--platform icpp15|icpp15-phi] [--refined] [--width <n>] [--metrics <path>] \
         [--metrics-stream <path>] [--breakdown] [--profile <path>] [--fault-trace <path>] \
         [--fault-trace-out <path>] [--replan] [--iters <n>] [--seed <s>] [--shrink] \
         [--corpus <dir>] [--self-check] [--journal <path>] [--crash-after <n>] [--torn] \
         [--kill-at <ms>] [--chrome <path>] [--tolerance <pct>] [--report-only] [--salvage] \
         [--requests <n>] [--chaos]"
    );
    exit(2);
}

/// Parse a campaign seed: decimal, or hex with an `0x` prefix.
fn parse_seed(text: &str) -> Option<u64> {
    if let Some(hex) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        text.parse().ok()
    }
}

fn platform_by_name(name: &str) -> Platform {
    match name {
        "icpp15" => Platform::icpp15(),
        "icpp15-phi" => Platform::icpp15_with_phi(),
        other => {
            eprintln!("unknown platform '{other}' (try: icpp15, icpp15-phi)");
            exit(2);
        }
    }
}

/// Install kernel-rate profiles into the analyzer's planner: load them from
/// `path` when the file exists, otherwise probe the descriptor's kernels and
/// persist the result so the next invocation plans without probing.
fn install_profiles(analyzer: &mut Analyzer<'_>, desc: &AppDescriptor, path: &str) {
    let path = Path::new(path);
    let store = if path.exists() {
        ProfileStore::load(path).unwrap_or_else(|e| {
            eprintln!("cannot load profile {}: {e}", path.display());
            exit(1);
        })
    } else {
        let store = analyzer.planner().record_profiles(desc);
        if let Err(e) = store.save(path) {
            eprintln!("cannot write profile {}: {e}", path.display());
            exit(1);
        }
        eprintln!(
            "profile: probed {} kernel(s) -> {}",
            store.len(),
            path.display()
        );
        store
    };
    analyzer.planner_mut().profiles = Some(store);
}

/// Write a registry to `path`: Prometheus text exposition by default, JSON
/// when the path ends in `.json`.
fn write_metrics(path: &str, registry: &MetricsRegistry) {
    let text = if path.ends_with(".json") {
        registry.to_json()
    } else {
        registry.to_prometheus()
    };
    if let Err(e) = fs::write(path, text) {
        eprintln!("cannot write metrics {path}: {e}");
        exit(1);
    }
}

/// Write a journaled run's `--metrics` registry and `--metrics-stream`
/// snapshot lines, for each path given.
fn write_snapshot(snap: &SnapshotObserver, metrics: Option<&str>, stream: Option<&str>) {
    if let Some(mp) = metrics {
        write_metrics(mp, snap.registry());
    }
    if let Some(sp) = stream {
        if let Err(e) = fs::write(sp, snap.stream()) {
            eprintln!("cannot write metrics stream {sp}: {e}");
            exit(1);
        }
    }
}

/// One-line run summary, printed identically by `run` and `resume` so CI
/// can diff a crash–resume pair against the uninterrupted run verbatim.
fn report_line(config: ExecutionConfig, report: &hetero_runtime::RunReport) -> String {
    format!(
        "report: {} {} {:.1}% GPU {:.3} GB transferred {} fault(s)",
        config,
        report.makespan,
        100.0 * report.gpu_item_share(),
        report.counters.transfers.bytes as f64 / 1e9,
        report.faults.task_faults
    )
}

/// Load the fault trace at `path` and return the schedule that will run:
/// the recorded input schedule when `record` is set (correlated domains
/// fire live), otherwise its replay form (synthesized events baked in,
/// triggering disabled). A schedule that names devices `platform` lacks is
/// rejected with its typed error instead of a mid-simulation panic.
fn load_fault_trace(
    path: &str,
    platform: &Platform,
    platform_name: &str,
    record: bool,
) -> FaultSchedule {
    let text = fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read fault trace {path}: {e}");
        exit(1);
    });
    let trace = FaultTrace::from_json(&text).unwrap_or_else(|e| {
        eprintln!("{path}: invalid fault trace: {e}");
        exit(1);
    });
    let schedule = if record {
        trace.schedule
    } else {
        trace.replay_schedule()
    };
    if let Err(e) = schedule.validate_for(platform) {
        eprintln!("fault trace: schedule invalid for platform '{platform_name}': {e}");
        exit(1);
    }
    schedule
}

/// The spec `run` and `flame` execute: the replayed `--fault-trace` as a
/// faulty run, or a plain run without one.
fn fault_spec(trace: Option<&str>, platform: &Platform, platform_name: &str) -> RunSpec {
    match trace {
        Some(p) => RunSpec::faulty(load_fault_trace(p, platform, platform_name, false)),
        None => RunSpec::plain(),
    }
}

fn load_descriptor(path: &str) -> AppDescriptor {
    let text = fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1);
    });
    let desc: AppDescriptor = serde_json::from_str(&text).unwrap_or_else(|e| {
        eprintln!("{path}: invalid descriptor JSON: {e}");
        exit(1);
    });
    if let Err(e) = desc.validate() {
        eprintln!("{path}: invalid descriptor: {e}");
        exit(1);
    }
    desc
}

fn main() {
    // Restore the default SIGPIPE disposition so `repro ... | head` ends
    // quietly instead of panicking on a broken pipe.
    #[cfg(unix)]
    unsafe {
        libc::signal(libc::SIGPIPE, libc::SIG_DFL);
    }

    let args: Vec<String> = env::args().skip(1).collect();
    let mut command = None;
    let mut file = None;
    let mut platform_name = "icpp15".to_string();
    let mut refined = false;
    let mut width = DEFAULT_GANTT_WIDTH;
    let mut metrics_path: Option<String> = None;
    let mut breakdown = false;
    let mut profile_path: Option<String> = None;
    let mut fault_trace_path: Option<String> = None;
    let mut fault_trace_out: Option<String> = None;
    let mut replan = false;
    let mut iters: u64 = 100;
    let mut seed: u64 = 0;
    let mut shrink = false;
    let mut corpus_dir: Option<String> = None;
    let mut self_check = false;
    let mut journal_path: Option<String> = None;
    let mut crash_after: Option<u64> = None;
    let mut torn = false;
    let mut kill_at_ms: Option<f64> = None;
    let mut metrics_stream_path: Option<String> = None;
    let mut chrome_out: Option<String> = None;
    let mut tolerance: f64 = 0.0;
    let mut report_only = false;
    let mut salvage = false;
    let mut requests: u64 = 1000;
    let mut chaos = false;
    let mut file2 = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--iters" => {
                iters = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage());
            }
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|v| parse_seed(v))
                    .unwrap_or_else(|| usage());
            }
            "--shrink" => shrink = true,
            "--corpus" => {
                corpus_dir = Some(it.next().cloned().unwrap_or_else(|| usage()));
            }
            "--self-check" => self_check = true,
            "--platform" => {
                platform_name = it.next().cloned().unwrap_or_else(|| usage());
            }
            "--refined" => refined = true,
            "--width" => {
                width = it
                    .next()
                    .and_then(|w| w.parse().ok())
                    .filter(|&w| w > 0)
                    .unwrap_or_else(|| usage());
            }
            "--metrics" => {
                metrics_path = Some(it.next().cloned().unwrap_or_else(|| usage()));
            }
            "--breakdown" => breakdown = true,
            "--profile" => {
                profile_path = Some(it.next().cloned().unwrap_or_else(|| usage()));
            }
            "--fault-trace" => {
                fault_trace_path = Some(it.next().cloned().unwrap_or_else(|| usage()));
            }
            "--fault-trace-out" => {
                fault_trace_out = Some(it.next().cloned().unwrap_or_else(|| usage()));
            }
            "--replan" => replan = true,
            "--journal" => {
                journal_path = Some(it.next().cloned().unwrap_or_else(|| usage()));
            }
            "--crash-after" => {
                crash_after = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--torn" => torn = true,
            "--kill-at" => {
                kill_at_ms = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--metrics-stream" => {
                metrics_stream_path = Some(it.next().cloned().unwrap_or_else(|| usage()));
            }
            "--chrome" => {
                chrome_out = Some(it.next().cloned().unwrap_or_else(|| usage()));
            }
            "--tolerance" => {
                tolerance = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--report-only" => report_only = true,
            "--salvage" => salvage = true,
            "--requests" => {
                requests = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage());
            }
            "--chaos" => chaos = true,
            _ if a.starts_with("--") => usage(),
            _ if command.is_none() => command = Some(a.clone()),
            _ if file.is_none() => file = Some(a.clone()),
            _ if file2.is_none() => file2 = Some(a.clone()),
            _ => usage(),
        }
    }
    let Some(command) = command else { usage() };

    match command.as_str() {
        "platforms" => {
            for (name, p) in [
                ("icpp15", Platform::icpp15()),
                ("icpp15-phi", Platform::icpp15_with_phi()),
            ] {
                println!("{name}:");
                for d in &p.devices {
                    println!(
                        "  {:<26} {} slots, {:.0} GFLOPS SP, {:.0} GB/s",
                        d.spec.name,
                        d.spec.kind.slots(),
                        d.spec.peak_gflops_sp,
                        d.spec.mem_bandwidth_gbs
                    );
                }
            }
        }
        "template" => {
            let template = hetero_apps::synth::single_kernel(
                "my-app",
                1 << 20,
                64.0,
                matchmaker::ExecutionFlow::Sequence,
                false,
            );
            println!("{}", serde_json::to_string_pretty(&template).unwrap());
        }
        "analyze" => {
            let desc = load_descriptor(file.as_deref().unwrap_or_else(|| usage()));
            let platform = platform_by_name(&platform_name);
            let analyzer = Analyzer::new(&platform);
            let analysis = if refined {
                analyzer.analyze_refined(&desc)
            } else {
                analyzer.analyze(&desc)
            };
            println!("application : {}", analysis.app);
            println!(
                "class       : {} (class {})",
                analysis.class,
                analysis.class.number()
            );
            println!(
                "sync        : {}",
                if analysis.sync == matchmaker::SyncMode::WithSync {
                    "inter-kernel synchronisation required"
                } else {
                    "no inter-kernel synchronisation"
                }
            );
            println!(
                "ranking     : {}",
                analysis
                    .ranking
                    .iter()
                    .enumerate()
                    .map(|(i, s)| format!("{}. {s}", i + 1))
                    .collect::<Vec<_>>()
                    .join("  ")
            );
            println!("selected    : {}", analysis.best);
        }
        "compare" => {
            let desc = load_descriptor(file.as_deref().unwrap_or_else(|| usage()));
            let platform = platform_by_name(&platform_name);
            let mut analyzer = Analyzer::new(&platform);
            if let Some(p) = &profile_path {
                install_profiles(&mut analyzer, &desc, p);
            }
            if fault_trace_out.is_some() && fault_trace_path.is_none() {
                eprintln!("--fault-trace-out requires --fault-trace (the schedule to run)");
                exit(2);
            }
            if replan && fault_trace_path.is_none() {
                eprintln!("--replan requires --fault-trace (repair reacts to its faults)");
                exit(2);
            }
            // With `--fault-trace` alone the trace is *replayed*: synthesized
            // events are baked in as plain windows and conditional triggering
            // is disabled, so repeated invocations are byte-identical. With
            // `--fault-trace-out` the input schedule runs live (correlated
            // domains may fire) and the selected strategy's effective trace
            // is written out for later replay. Degraded-mode plan repair
            // runs with health and adaptation off, so the only delta
            // against the faulty run is the repair itself.
            let spec = match fault_trace_path.as_deref() {
                None => RunSpec::plain(),
                Some(p) => {
                    let recording = fault_trace_out.is_some();
                    let schedule = load_fault_trace(p, &platform, &platform_name, recording);
                    eprintln!(
                        "fault trace: {p} ({} mode)",
                        if recording { "record" } else { "replay" }
                    );
                    if replan {
                        RunSpec::repairing(
                            schedule,
                            HealthConfig::disabled(),
                            AdaptConfig::disabled(),
                            ReplanConfig::enabled_default(),
                        )
                    } else {
                        RunSpec::faulty(schedule)
                    }
                }
            };
            let analysis = analyzer.analyze(&desc);
            let names: Vec<&str> = platform
                .devices
                .iter()
                .map(|d| d.spec.name.as_str())
                .collect();
            let mut registry = MetricsRegistry::new();
            let mut blames: Vec<(String, String)> = Vec::new();
            let mut best_synth = Vec::new();
            if replan {
                println!(
                    "{:<14} {:>12} {:>11} {:>12} {:>10} {:>8}",
                    "config", "time", "GPU share", "transferred", "decisions", "replans"
                );
            } else {
                println!(
                    "{:<14} {:>12} {:>11} {:>12} {:>10}",
                    "config", "time", "GPU share", "transferred", "decisions"
                );
            }
            for config in analyzer.candidates(&desc) {
                let label = config.to_string();
                let mut mobs = metrics_path
                    .is_some()
                    .then(|| MetricsObserver::new(&platform, &label));
                let mut null = NullObserver;
                let obs: &mut dyn Observer = match &mut mobs {
                    Some(m) => m,
                    None => &mut null,
                };
                let report = analyzer
                    .run(&desc, config, &spec, obs, None)
                    .unwrap_or_else(|e| {
                        eprintln!("compare: {label}: {e}");
                        exit(1);
                    });
                if let Some(m) = &mobs {
                    registry.merge(m.registry());
                }
                // Degraded-mode plan repair: a typed `ReplanError` from any
                // configuration aborts the comparison non-zero — silent
                // fallback would misrepresent the repaired times.
                if let Some(e) = &report.adapt.replan_error {
                    eprintln!("replan: {label}: {e}");
                    exit(1);
                }
                if config == ExecutionConfig::Strategy(analysis.best) {
                    best_synth = report.synthesized_faults.clone();
                }
                if replan {
                    println!(
                        "{:<14} {:>12} {:>10.1}% {:>9.2} GB {:>10} {:>8}",
                        label,
                        report.makespan.to_string(),
                        100.0 * report.gpu_item_share(),
                        report.counters.transfers.bytes as f64 / 1e9,
                        report.counters.sched_decisions,
                        report.adapt.replans + report.adapt.readmissions
                    );
                } else {
                    println!(
                        "{:<14} {:>12} {:>10.1}% {:>9.2} GB {:>10}",
                        label,
                        report.makespan.to_string(),
                        100.0 * report.gpu_item_share(),
                        report.counters.transfers.bytes as f64 / 1e9,
                        report.counters.sched_decisions
                    );
                }
                if breakdown {
                    blames.push((label, report.breakdown.render(&names)));
                }
            }
            for (label, table) in blames {
                println!();
                println!("{label} blame:");
                print!("{table}");
            }
            if let Some(p) = &metrics_path {
                write_metrics(p, &registry);
            }
            if let (Some(out), Some(schedule)) = (&fault_trace_out, &spec.schedule) {
                let trace = FaultTrace::new(schedule.clone(), best_synth);
                if let Err(e) = fs::write(out, trace.to_json()) {
                    eprintln!("cannot write fault trace {out}: {e}");
                    exit(1);
                }
                eprintln!(
                    "fault trace: recorded {} synthesized event(s) -> {out}",
                    trace.synthesized.len()
                );
            }
        }
        "timeline" => {
            let desc = load_descriptor(file.as_deref().unwrap_or_else(|| usage()));
            let platform = platform_by_name(&platform_name);
            let mut analyzer = Analyzer::new(&platform);
            if let Some(p) = &profile_path {
                install_profiles(&mut analyzer, &desc, p);
            }
            let analysis = analyzer.analyze(&desc);
            let mut tobs = TraceObserver::new();
            let mut mobs = MetricsObserver::new(&platform, &analysis.best.to_string());
            let report = {
                let mut multi = MultiObserver::new().with(&mut tobs).with(&mut mobs);
                let config = ExecutionConfig::Strategy(analysis.best);
                analyzer
                    .run(&desc, config, &RunSpec::plain(), &mut multi, None)
                    .expect("an unjournaled plain run cannot fail")
            };
            println!(
                "{} under {} — {}",
                analysis.app, analysis.best, report.makespan
            );
            print!("{}", tobs.trace().gantt(&platform, width));
            if breakdown {
                let names: Vec<&str> = platform
                    .devices
                    .iter()
                    .map(|d| d.spec.name.as_str())
                    .collect();
                println!();
                println!("{} blame:", analysis.best);
                print!("{}", report.breakdown.render(&names));
            }
            if let Some(p) = &metrics_path {
                write_metrics(p, mobs.registry());
            }
        }
        "tune" => {
            let desc = load_descriptor(file.as_deref().unwrap_or_else(|| usage()));
            let platform = platform_by_name(&platform_name);
            let mut analyzer = Analyzer::new(&platform);
            if let Some(p) = &profile_path {
                install_profiles(&mut analyzer, &desc, p);
            }
            let result = tune_task_size(&mut analyzer, &desc, Strategy::DpPerf, None);
            println!("{:<10} {:>12}", "m", "DP-Perf time");
            for (m, t) in &result.sweep {
                let mark = if *m == result.best_m { "  <- best" } else { "" };
                println!("{:<10} {:>12}{mark}", m, t.to_string());
            }
            println!(
                "sensitivity: worst/best = {:.2}x (the paper's §V observation)",
                result.sensitivity()
            );
        }
        "fuzz" => {
            use matchmaker::{fuzz_campaign, FuzzConfig, InjectedBreak, OracleKind};
            use std::path::PathBuf;
            if self_check {
                // Plant two deliberate invariant breaks in turn — a dropped
                // blame component and a panic inside the oracle bank — and
                // require the harness to catch each, shrink it to a small
                // reproducer, and archive it: the end-to-end proof that the
                // fuzzer would notice a real executor bug, a crash included.
                let dir = corpus_dir.clone().map(PathBuf::from).unwrap_or_else(|| {
                    env::temp_dir().join(format!("matchmake-fuzz-self-check-{}", process::id()))
                });
                let planted = [
                    (
                        InjectedBreak {
                            skip_blame_component: true,
                            ..InjectedBreak::NONE
                        },
                        OracleKind::BlameIdentity,
                    ),
                    (
                        InjectedBreak {
                            panic_in_bank: true,
                            ..InjectedBreak::NONE
                        },
                        OracleKind::NoPanic,
                    ),
                ];
                for (inject, oracle) in planted {
                    let cfg = FuzzConfig {
                        iters: iters.min(10),
                        base_seed: seed,
                        shrink: true,
                        corpus: Some(dir.clone()),
                        inject,
                        max_failures: 1,
                    };
                    // The planted panic is expected: silence its hook output
                    // (the caught message is the failure's detail).
                    let hook = std::panic::take_hook();
                    if inject.panic_in_bank {
                        std::panic::set_hook(Box::new(|_| {}));
                    }
                    let report = fuzz_campaign(&cfg);
                    std::panic::set_hook(hook);
                    print!("{}", report.summary());
                    let Some(f) = report.failures.first() else {
                        eprintln!("self-check FAILED: planted {oracle} break was not caught");
                        exit(1);
                    };
                    let ok = f.oracle == oracle
                        && f.kernels <= 5
                        && f.tasks <= 5
                        && f.devices <= 2
                        && f.corpus_file
                            .as_ref()
                            .is_some_and(|name| dir.join(name).is_file());
                    if !ok {
                        eprintln!(
                            "self-check FAILED: expected a shrunk (<=5 tasks, <=2 devices) \
                             {oracle} reproducer in {}, got {f:?}",
                            dir.display()
                        );
                        exit(1);
                    }
                    println!(
                        "self-check: planted {oracle} break caught, shrunk to {} task(s) / \
                         {} device(s), archived as {}",
                        f.tasks,
                        f.devices,
                        dir.join(f.corpus_file.as_deref().unwrap()).display()
                    );
                }
                if corpus_dir.is_none() {
                    let _ = fs::remove_dir_all(&dir);
                }
                return;
            }
            let cfg = FuzzConfig {
                iters,
                base_seed: seed,
                shrink,
                corpus: corpus_dir.map(PathBuf::from),
                inject: InjectedBreak::NONE,
                max_failures: 5,
            };
            let report = fuzz_campaign(&cfg);
            print!("{}", report.summary());
            if !report.failures.is_empty() {
                exit(1);
            }
        }
        "run" => {
            let desc = load_descriptor(file.as_deref().unwrap_or_else(|| usage()));
            let platform = platform_by_name(&platform_name);
            let mut analyzer = Analyzer::new(&platform);
            if let Some(p) = &profile_path {
                install_profiles(&mut analyzer, &desc, p);
            }
            let Some(journal_path) = &journal_path else {
                eprintln!("run requires --journal <path> (where to write the run journal)");
                exit(2);
            };
            let analysis = analyzer.analyze(&desc);
            let config = ExecutionConfig::Strategy(analysis.best);
            let spec = fault_spec(fault_trace_path.as_deref(), &platform, &platform_name);
            let mut kill = match (crash_after, kill_at_ms) {
                (Some(_), Some(_)) => {
                    eprintln!("--crash-after and --kill-at are mutually exclusive");
                    exit(2);
                }
                (Some(n), None) => Some(KillSchedule::after_records(n)),
                (None, Some(ms)) => Some(KillSchedule::at_time(SimTime::from_secs_f64(ms / 1e3))),
                (None, None) => None,
            };
            if torn {
                match kill.take() {
                    Some(k) => kill = Some(k.torn()),
                    None => {
                        eprintln!("--torn requires --crash-after or --kill-at");
                        exit(2);
                    }
                }
            }
            let mut sink = match kill {
                Some(k) => JournalSink::record_with_kill(k),
                None => JournalSink::record(),
            };
            // The SnapshotObserver wraps the plain MetricsObserver, so
            // `--metrics` output stays byte-identical with or without
            // `--metrics-stream`.
            let mut snap = (metrics_path.is_some() || metrics_stream_path.is_some())
                .then(|| SnapshotObserver::new(&platform, "journaled"));
            let mut null = NullObserver;
            let obs: &mut dyn Observer = match &mut snap {
                Some(s) => s,
                None => &mut null,
            };
            let result = analyzer.run(&desc, config, &spec, obs, Some(&mut sink));
            if let (Ok(_), Some(snap)) = (&result, &snap) {
                write_snapshot(
                    snap,
                    metrics_path.as_deref(),
                    metrics_stream_path.as_deref(),
                );
            }
            // The journal is written either way: a killed run leaves the
            // committed prefix for `matchmake resume` to finish.
            if let Err(e) = fs::write(journal_path, sink.text()) {
                eprintln!("cannot write journal {journal_path}: {e}");
                exit(1);
            }
            match result {
                Ok(report) => {
                    eprintln!("journal: {} record(s) -> {journal_path}", sink.records());
                    println!("{}", report_line(config, &report));
                }
                Err(e @ JournalError::Killed { .. }) => {
                    eprintln!("run killed ({e}); partial journal -> {journal_path}");
                    exit(3);
                }
                Err(e) => {
                    eprintln!("run failed: {e}");
                    exit(1);
                }
            }
        }
        "flame" => {
            let desc = load_descriptor(file.as_deref().unwrap_or_else(|| usage()));
            let platform = platform_by_name(&platform_name);
            let mut analyzer = Analyzer::new(&platform);
            if let Some(p) = &profile_path {
                install_profiles(&mut analyzer, &desc, p);
            }
            let analysis = analyzer.analyze(&desc);
            let config = ExecutionConfig::Strategy(analysis.best);
            let spec = fault_spec(fault_trace_path.as_deref(), &platform, &platform_name);
            let mut tobs = TraceObserver::new();
            let report = analyzer
                .run(&desc, config, &spec, &mut tobs, None)
                .unwrap_or_else(|e| {
                    eprintln!("flame run failed: {e}");
                    exit(1);
                });
            let tree = SpanTree::from_trace(tobs.trace(), &platform);
            if let Some(cp) = &chrome_out {
                let json = tobs.trace().to_chrome_json_with_flows(&platform);
                if let Err(e) = fs::write(cp, json) {
                    eprintln!("cannot write chrome trace {cp}: {e}");
                    exit(1);
                }
                eprintln!("chrome trace with causal flow arrows -> {cp}");
            }
            eprintln!(
                "{} under {} — {}; span tiling per device (task/dead/idle slot-time):",
                analysis.app, analysis.best, report.makespan
            );
            for (d, s) in tree.device_span_seconds().iter().enumerate() {
                eprintln!(
                    "  {:<26} task {:.3}s  dead {:.3}s  idle {:.3}s",
                    platform.devices[d].spec.name,
                    s.task.as_secs_f64(),
                    s.dead.as_secs_f64(),
                    s.idle.as_secs_f64()
                );
            }
            // Folded stacks on stdout: pipe into speedscope / flamegraph.pl.
            print!("{}", tree.to_folded());
        }
        "diff" => {
            let a_path = file.as_deref().unwrap_or_else(|| usage());
            let b_path = file2.as_deref().unwrap_or_else(|| usage());
            let read = |p: &str| {
                fs::read_to_string(p).unwrap_or_else(|e| {
                    eprintln!("cannot read {p}: {e}");
                    exit(1);
                })
            };
            let diff =
                RunDiff::between(&read(a_path), &read(b_path), tolerance).unwrap_or_else(|e| {
                    eprintln!("diff failed: {e}");
                    exit(1);
                });
            print!("{}", diff.render());
            if diff.has_regressions() {
                if report_only {
                    eprintln!(
                        "regressions found ({a_path} -> {b_path}); --report-only, not failing"
                    );
                } else {
                    exit(1);
                }
            }
        }
        "resume" => {
            let path = file.as_deref().unwrap_or_else(|| usage());
            let platform = platform_by_name(&platform_name);
            let analyzer = Analyzer::new(&platform);
            let text = fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read journal {path}: {e}");
                exit(1);
            });
            // The header names the config; surfacing it keeps the report
            // line identical to the original `matchmake run` output. In
            // salvage mode the strict loader may refuse the journal the
            // salvaged resume recovers, so peek through the salvager.
            let config = if salvage {
                RunJournal::load_salvaged(&text).ok().map(|(j, _)| j)
            } else {
                RunJournal::load(&text).ok()
            }
            .and_then(|j| {
                let stored = j.header.inputs.get("config")?.clone();
                serde_json::from_str::<ExecutionConfig>(&stored).ok()
            });
            let resume_with = |obs: &mut dyn Observer| {
                if salvage {
                    analyzer.resume_salvaged(&text, obs)
                } else {
                    analyzer
                        .resume_observed(&text, obs)
                        .map(|(r, t)| (r, t, None))
                }
            };
            // Resume redo-replays from t = 0, so the regenerated stream is
            // byte-identical to the uninterrupted run's.
            let mut snap = (metrics_path.is_some() || metrics_stream_path.is_some())
                .then(|| SnapshotObserver::new(&platform, "journaled"));
            let mut null = NullObserver;
            let obs: &mut dyn Observer = match &mut snap {
                Some(s) => s,
                None => &mut null,
            };
            let result = resume_with(obs);
            if let (Ok(_), Some(snap)) = (&result, &snap) {
                write_snapshot(
                    snap,
                    metrics_path.as_deref(),
                    metrics_stream_path.as_deref(),
                );
            }
            match result {
                Ok((report, full_text, salvaged)) => {
                    if let Some(s) = &salvaged {
                        eprintln!("resume: {s}");
                    }
                    if let Err(e) = fs::write(path, &full_text) {
                        eprintln!("cannot write completed journal {path}: {e}");
                        exit(1);
                    }
                    eprintln!("resume: completed journal regenerated -> {path}");
                    match config {
                        Some(config) => println!("{}", report_line(config, &report)),
                        None => {
                            println!("report: {} {}", report.makespan, report.faults.task_faults)
                        }
                    }
                }
                Err(e) => {
                    eprintln!("resume failed: {path}: {e}");
                    exit(1);
                }
            }
        }
        "serve" => {
            // One-shot in-process service: read HTTP/1.1-framed requests
            // from stdin to EOF, answer each on stdout. Arrivals are
            // spaced one virtual microsecond apart, so the whole exchange
            // is a pure function of the input bytes.
            let platform = platform_by_name(&platform_name);
            let mut input = Vec::new();
            use std::io::Read as _;
            if let Err(e) = std::io::stdin().read_to_end(&mut input) {
                eprintln!("cannot read stdin: {e}");
                exit(1);
            }
            let arrivals: Vec<Arrival> = split_frames(&input)
                .into_iter()
                .enumerate()
                .map(|(i, bytes)| Arrival {
                    at: SimTime::from_micros(i as u64 + 1),
                    client: "stdin".into(),
                    bytes,
                })
                .collect();
            let mut service = PlanService::new(
                &platform,
                ServiceConfig::default(),
                ChaosSchedule::calm(seed),
            );
            for outcome in service.run(&arrivals) {
                println!("{}", encode_response(&outcome.result));
            }
            if let Some(mp) = &metrics_path {
                write_metrics(mp, service.registry());
            }
        }
        "load" => {
            let platform = platform_by_name(&platform_name);
            let load_cfg = LoadConfig {
                requests,
                seed,
                ..LoadConfig::default()
            };
            // The chaos windows cover the healthy-gap span of the load; the
            // burst compresses arrivals inside the middle half of it.
            let span = SimTime::from_micros(requests.saturating_mul(load_cfg.mean_gap_us));
            let schedule = if chaos {
                ChaosSchedule::burst(seed, 10, span)
            } else {
                ChaosSchedule::calm(seed)
            };
            let out = run_load(&platform, &ServiceConfig::default(), &load_cfg, &schedule);
            print!("{}", out.summary);
            if let Some(mp) = &metrics_path {
                write_metrics(mp, &out.registry);
            }
        }
        _ => usage(),
    }
}

/// Split a raw byte stream into HTTP/1.1 request frames: each frame is a
/// header block (terminated by `\r\n\r\n`) plus `content-length` body
/// bytes, read by the service's own [`frame_head`]. A stream whose tail
/// cannot be delimited (no terminator, or a length the service would
/// reject as a framing error, such as two `content-length` headers that
/// disagree) is passed through as one final frame — the codec answers it
/// with a typed `ServiceError` rather than this splitter guessing.
fn split_frames(mut buf: &[u8]) -> Vec<Vec<u8>> {
    let mut frames = Vec::new();
    while !buf.is_empty() {
        let Ok((body_at, len)) = frame_head(buf).and_then(|h| Ok((h.body_at, h.content_length()?)))
        else {
            frames.push(buf.to_vec());
            break;
        };
        let end = usize::try_from(len)
            .map_or(buf.len(), |len| body_at.saturating_add(len).min(buf.len()));
        frames.push(buf[..end].to_vec());
        buf = &buf[end..];
    }
    frames
}

#[cfg(test)]
mod tests {
    use super::*;
    use matchmaker::service::DEFAULT_MAX_BODY_BYTES;
    use matchmaker::{decode_request, encode_request, template_app, PlanRequest, ServiceError};

    /// The verdicts `serve` gives a stream: one per frame the splitter cuts.
    fn verdicts(stream: &[u8]) -> Vec<Result<(), ServiceError>> {
        split_frames(stream)
            .iter()
            .map(|f| decode_request(f, DEFAULT_MAX_BODY_BYTES).map(drop))
            .collect()
    }

    fn frame(headers: &str, body: &str) -> Vec<u8> {
        format!("POST /plan HTTP/1.1\r\n{headers}\r\n\r\n{body}").into_bytes()
    }

    fn bad_frame_reason(verdict: &Result<(), ServiceError>) -> &str {
        match verdict {
            Err(ServiceError::BadFrame { reason }) => reason,
            other => panic!("expected a bad frame, got {other:?}"),
        }
    }

    #[test]
    fn conflicting_content_lengths_end_the_stream_with_one_bad_frame() {
        let good = encode_request(&PlanRequest {
            id: 1,
            client: "t".into(),
            app: template_app(5),
            config: None,
            what_if: false,
            deadline_us: None,
        });
        let at = frame_head(&good)
            .expect("a generated frame has a head")
            .body_at;
        let body = std::str::from_utf8(&good[at..]).expect("bodies are UTF-8");
        let n = body.len();
        let twice = frame(
            &format!("content-length: {n}\r\ncontent-length: {}", n + 5),
            body,
        );
        let got = verdicts(&[good.clone(), twice, good.clone()].concat());
        assert_eq!(got.len(), 2, "the good frame, then the rest as one");
        assert!(got[0].is_ok());
        let reason = bad_frame_reason(&got[1]);
        assert!(reason.starts_with("conflicting content-length"), "{reason}");
        // The same length twice is one claim.
        let same = frame(&format!("content-length: {n}\r\nContent-Length: {n}"), body);
        let got = verdicts(&[same, good].concat());
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(Result::is_ok), "{got:?}");
    }

    #[test]
    fn whitespace_before_the_colon_is_one_bad_frame_for_splitter_and_decoder() {
        let stream = [
            frame("content-length : 2", "{}"),
            frame("content-length: 2", "{}"),
        ]
        .concat();
        let got = verdicts(&stream);
        assert_eq!(got.len(), 1, "the splitter cannot delimit the frame");
        let reason = bad_frame_reason(&got[0]);
        assert!(reason.starts_with("whitespace before `:`"), "{reason}");
    }
}
