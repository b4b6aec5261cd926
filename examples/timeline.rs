//! Execution timelines: trace a run and render per-device utilisation,
//! making the strategies' behaviour visible — SP-Single's single dense GPU
//! block vs DP-Dep's CPU-bound sprawl, and the taskwait gaps of the
//! synchronised STREAM run.
//!
//! ```sh
//! cargo run --release --example timeline
//! ```

use hetero_match::apps::{blackscholes, stream};
use hetero_match::matchmaker::{Analyzer, AppDescriptor, ExecutionConfig, RunSpec, Strategy};
use hetero_match::platform::Platform;
use hetero_match::runtime::{RunReport, Trace, TraceObserver, DEFAULT_GANTT_WIDTH};

/// Run `config` fault-free with a trace recorder installed.
fn traced(
    analyzer: &Analyzer,
    desc: &AppDescriptor,
    config: ExecutionConfig,
) -> (RunReport, Trace) {
    let mut obs = TraceObserver::new();
    let report = analyzer
        .run(desc, config, &RunSpec::plain(), &mut obs, None)
        .expect("a plain run cannot fail");
    (report, obs.into_trace())
}

fn main() {
    let platform = Platform::icpp15();
    let analyzer = Analyzer::new(&platform);
    let width = DEFAULT_GANTT_WIDTH;

    println!("BlackScholes (80.5M options) — slot utilisation over time\n");
    for (label, config) in [
        (
            "SP-Single (matched)",
            ExecutionConfig::Strategy(Strategy::SpSingle),
        ),
        ("Only-GPU", ExecutionConfig::OnlyGpu),
        ("Only-CPU", ExecutionConfig::OnlyCpu),
    ] {
        let (report, trace) = traced(&analyzer, &blackscholes::paper_descriptor(), config);
        println!("-- {label}: {} --", report.makespan);
        print!("{}", trace.gantt(&platform, width));
        println!();
    }

    println!("STREAM-Seq with inter-kernel sync — SP-Varied (matched strategy)\n");
    let (report, trace) = traced(
        &analyzer,
        &stream::paper_seq(true),
        ExecutionConfig::Strategy(Strategy::SpVaried),
    );
    println!("-- SP-Varied: {} --", report.makespan);
    print!("{}", trace.gantt(&platform, width));
    println!();
    let flushes = trace
        .events
        .iter()
        .filter(|e| matches!(e, hetero_match::runtime::TraceEvent::Flush { .. }))
        .count();
    println!(
        "{} taskwait flush windows (one per kernel boundary + the final write-back)",
        flushes
    );
}
