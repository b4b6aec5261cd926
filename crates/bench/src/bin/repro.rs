//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro all                 # everything below, in order
//! repro table1|table2|table3
//! repro fig5|fig6|fig7|fig8|fig9|fig10|fig11|fig12
//! repro validate            # Table I empirical validation
//! repro coverage            # §III-B 86-application coverage study
//! repro accuracy            # Glinda model prediction vs simulated time
//! repro strategy-map        # winning strategy per (capability, link) cell
//! repro ablation-tasksize   # §V task-size sensitivity sweep
//! repro ablation-overheads  # SP-Single vs DP-Perf per scheduling overhead
//! repro ablation-link       # SP-Unified split and baselines per PCIe bandwidth
//! repro json                # full result matrix as JSON (for EXPERIMENTS.md)
//! repro markdown            # regenerated markdown evaluation report
//! ```
//!
//! The last four are not part of `all`, so `docs/repro_output.txt` holds
//! none of them.

use bench::experiments::{self, AppRun};
use bench::{report, validation};
use hetero_platform::Platform;
use std::env;

fn main() {
    // Restore the default SIGPIPE disposition so `repro ... | head` ends
    // quietly instead of panicking on a broken pipe.
    #[cfg(unix)]
    unsafe {
        libc::signal(libc::SIGPIPE, libc::SIG_DFL);
    }

    let args: Vec<String> = env::args().skip(1).collect();
    let what = args.first().map(String::as_str).unwrap_or("all");
    const TARGETS: &[&str] = &[
        "all",
        "table1",
        "table2",
        "table3",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "fig12",
        "validate",
        "coverage",
        "accuracy",
        "strategy-map",
        "ablation-tasksize",
        "ablation-overheads",
        "ablation-link",
        "json",
        "markdown",
    ];
    if !TARGETS.contains(&what) {
        eprintln!(
            "unknown target '{what}'; valid targets: {}",
            TARGETS.join(", ")
        );
        std::process::exit(2);
    }
    let platform = Platform::icpp15();

    // Every figure slices the same evaluation matrix; run it once.
    let needs_matrix = !(what.starts_with("ablation-")
        || matches!(
            what,
            "table1" | "table3" | "coverage" | "accuracy" | "strategy-map"
        ));
    let runs: Vec<AppRun> = if needs_matrix {
        eprintln!("running the evaluation matrix (8 app variants x all configurations)...");
        experiments::run_all(&platform)
    } else {
        Vec::new()
    };
    let by_name = |names: &[&str]| -> Vec<&AppRun> {
        names
            .iter()
            .map(|n| runs.iter().find(|r| r.app == *n).expect("variant"))
            .collect()
    };

    let mut sections: Vec<String> = Vec::new();
    let want = |k: &str| what == "all" || what == k;

    if want("table1") {
        sections.push(report::table1());
    }
    if want("table2") {
        sections.push(report::table2(&runs));
    }
    if want("table3") {
        sections.push(report::table3(&platform));
    }
    if want("fig5") {
        sections.push(report::figure_times(
            "Figure 5 — execution time, SK-One class",
            &by_name(&["MatrixMul", "BlackScholes"]),
        ));
    }
    if want("fig6") {
        sections.push(report::figure_ratios(
            "Figure 6 — partitioning ratios, SK-One class",
            &by_name(&["MatrixMul", "BlackScholes"]),
            &[],
        ));
    }
    if want("fig7") {
        sections.push(report::figure_times(
            "Figure 7 — execution time, SK-Loop class",
            &by_name(&["Nbody", "HotSpot"]),
        ));
    }
    if want("fig8") {
        sections.push(report::figure_ratios(
            "Figure 8 — partitioning ratios, SK-Loop class",
            &by_name(&["Nbody", "HotSpot"]),
            &[],
        ));
    }
    if want("fig9") {
        sections.push(report::figure_times(
            "Figure 9 — execution time, MK-Seq class (STREAM-Seq, w/o and w sync)",
            &by_name(&["STREAM-Seq-w/o", "STREAM-Seq-w"]),
        ));
    }
    if want("fig10") {
        sections.push(report::figure_ratios(
            "Figure 10 — partitioning ratios, MK-Seq class (SP-Varied per kernel)",
            &by_name(&["STREAM-Seq-w/o", "STREAM-Seq-w"]),
            &["SP-Varied"],
        ));
    }
    if want("fig11") {
        sections.push(report::figure_times(
            "Figure 11 — execution time, MK-Loop class (STREAM-Loop, w/o and w sync)",
            &by_name(&["STREAM-Loop-w/o", "STREAM-Loop-w"]),
        ));
    }
    if want("fig12") {
        let (rows, avg_og, avg_oc) = experiments::fig12_speedups(&runs);
        sections.push(report::figure12(&rows, avg_og, avg_oc));
    }
    if want("validate") {
        let checks = validation::validate_rankings(&runs);
        sections.push(report::validation_report(&checks));
        if !validation::all_valid(&checks) {
            eprintln!("RANKING VALIDATION FAILED");
            std::process::exit(1);
        }
    }
    if want("coverage") {
        sections.push(report::coverage_report(&experiments::coverage_study()));
    }
    if want("accuracy") {
        sections.push(report::accuracy_report(&experiments::model_accuracy(
            &platform,
        )));
    }
    if want("strategy-map") {
        let caps = [0.125, 0.25, 0.5, 1.0, 2.0];
        let links = [0.75, 1.5, 3.0, 6.0, 12.0, 24.0, 48.0];
        let cells = experiments::strategy_map(&caps, &links);
        sections.push(report::strategy_map_report(&cells, &caps, &links));
    }
    if want("ablation-tasksize") {
        let mut out =
            String::from("Task-size ablation (§V): DP-Perf time vs dynamic task granularity\n");
        for desc in [
            hetero_apps::stream::paper_seq(false),
            hetero_apps::blackscholes::paper_descriptor(),
            hetero_apps::hotspot::paper_descriptor(),
        ] {
            out.push_str(&format!("  {}\n", desc.name));
            for (m, ms) in
                experiments::task_size_ablation(&platform, &desc, &[12, 24, 48, 96, 192, 384])
            {
                out.push_str(&format!("    m = {m:>4} instances/kernel: {ms:>9.1} ms\n"));
            }
        }
        sections.push(out);
    }
    if what == "ablation-overheads" {
        sections.push(report::overhead_ablation_report(
            &experiments::overhead_ablation(),
        ));
    }
    if what == "ablation-link" {
        sections.push(report::link_ablation_report(&experiments::link_ablation()));
    }
    if what == "json" {
        println!("{}", serde_json::to_string_pretty(&runs).unwrap());
        return;
    }
    if what == "markdown" {
        let checks = validation::validate_rankings(&runs);
        let (rows, avg_og, avg_oc) = experiments::fig12_speedups(&runs);
        let accuracy = experiments::model_accuracy(&platform);
        println!(
            "{}",
            report::markdown_report(&runs, &checks, &rows, avg_og, avg_oc, &accuracy)
        );
        return;
    }

    if sections.is_empty() {
        eprintln!("unknown target '{what}'; see the module docs for options");
        std::process::exit(2);
    }
    for s in sections {
        println!("{s}");
    }
}
