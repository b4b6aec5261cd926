//! Live observability end to end: stream delta-encoded per-epoch metrics
//! from a faulty adaptive run as it executes, fold the stream back into
//! the end-of-run registry (the `stream-fold-equivalence` invariant), and
//! diff the faulty run against a fault-free baseline with the run-diff
//! regression engine.
//!
//! Everything printed is deterministic: CI runs this example twice and
//! diffs the output byte for byte.
//!
//! ```sh
//! cargo run --release --example streaming_metrics
//! ```

use hetero_match::apps::synth;
use hetero_match::matchmaker::{
    Analyzer, ExecutionConfig, ExecutionFlow, RunSpec, Strategy, STREAM_STRATEGY_LABEL,
};
use hetero_match::platform::{DeviceId, FaultSchedule, Platform, SimTime};
use hetero_match::runtime::{
    fold_stream, AdaptConfig, EpochSnapshot, HealthConfig, RunDiff, SnapshotObserver,
};

fn main() {
    let platform = Platform::icpp15_with_phi();
    let analyzer = Analyzer::new(&platform);
    let desc = synth::single_kernel(
        "streamed",
        1 << 18,
        4096.0,
        ExecutionFlow::Loop { iterations: 6 },
        true,
    );
    let config = ExecutionConfig::Strategy(Strategy::SpSingle);

    // A mid-run disturbance: a flaky accelerator early on, then a
    // permanent dropout — the adaptive run re-plans around both.
    let schedule = || {
        FaultSchedule::new(29)
            .with_flaky(DeviceId(2), 0.2, SimTime::ZERO, SimTime::from_millis(1))
            .with_dropout(DeviceId(1), SimTime::from_micros(400))
    };

    println!("== live metrics stream: faulty adaptive run ==");
    println!("one delta-encoded EpochSnapshot line per committed taskwait barrier;");
    println!("each line prints the moment its barrier commits, mid-run:");
    println!();
    let spec = RunSpec::adaptive(
        schedule(),
        HealthConfig::monitored(),
        AdaptConfig::enabled_default(),
    );
    let mut faulty_obs =
        SnapshotObserver::new(&platform, STREAM_STRATEGY_LABEL).with_sink(|line| {
            let snap: EpochSnapshot = serde_json::from_str(line).expect("snapshot line parses");
            let epoch = match snap.epoch {
                Some(e) => format!("epoch {e}"),
                None => String::from("run end"),
            };
            println!(
                "  [seq {}] {:<8} @ {:>10.3} ms  tasks={:<3} faults={:<2} changed series={:<2} dead={:?}",
                snap.seq,
                epoch,
                snap.at.as_secs_f64() * 1e3,
                snap.tasks_total,
                snap.faults_total,
                snap.changed.len(),
                snap.open.dead,
            );
        });
    let faulty_report = analyzer
        .run(&desc, config, &spec, &mut faulty_obs, None)
        .expect("faulty adaptive run");
    println!();
    println!(
        "faulty makespan: {:.3} ms  (dropouts={}, task faults={}, replans={})",
        faulty_report.makespan.as_secs_f64() * 1e3,
        faulty_report.faults.device_dropouts,
        faulty_report.faults.task_faults,
        faulty_report.adapt.replans,
    );

    // The hard invariant behind the stream (fuzz oracle 9): folding every
    // delta line reproduces the end-of-run registry byte for byte.
    let folded = fold_stream(&faulty_obs.stream()).expect("stream folds");
    let identical = folded.to_json() == faulty_obs.registry().to_json();
    println!(
        "stream-fold-equivalence: folded {} lines -> registry byte-identical: {identical}",
        faulty_obs.lines().len(),
    );
    assert!(identical, "fold must reproduce the registry");

    // Run-diff regression engine: the same app fault-free is the baseline;
    // the faulty run is the candidate. Counters and seconds-series that
    // moved show up as typed verdicts, new fault series as `new`.
    println!();
    println!("== run diff: fault-free baseline vs faulty adaptive run ==");
    let (_, baseline_obs) = analyzer
        .simulate_streamed(&desc, config, &RunSpec::plain())
        .expect("fault-free baseline run");
    let diff = RunDiff::between(
        &baseline_obs.registry().to_json(),
        &faulty_obs.registry().to_json(),
        5.0,
    )
    .expect("diff parses both registries");
    print!("{}", diff.render());
    println!();
    println!(
        "regressions detected: {} (exit policy: `matchmake diff` returns non-zero)",
        diff.has_regressions(),
    );
}
