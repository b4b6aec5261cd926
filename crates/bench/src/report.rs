//! Plain-text rendering of experiment results, in the layout of the
//! paper's tables and figures.

use crate::experiments::{AppRun, SpeedupRow};
use crate::validation::{PairOutcome, RankingCheck};
use hetero_platform::Platform;
use matchmaker::{ranking, AppClass, SyncMode};
use std::collections::BTreeMap;
use std::fmt::Write;

/// Table I as text.
pub fn table1() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Table I — suitable partitioning strategies and ranking"
    )
    .unwrap();
    let rows: [(&str, AppClass, SyncMode); 4] = [
        ("SK-One, SK-Loop", AppClass::SkOne, SyncMode::WithoutSync),
        (
            "MK-Seq, MK-Loop (w/o sync)",
            AppClass::MkSeq,
            SyncMode::WithoutSync,
        ),
        (
            "MK-Seq, MK-Loop (w sync)",
            AppClass::MkSeq,
            SyncMode::WithSync,
        ),
        ("MK-DAG", AppClass::MkDag, SyncMode::WithoutSync),
    ];
    for (label, class, sync) in rows {
        let ranked: Vec<String> = ranking(class, sync)
            .iter()
            .enumerate()
            .map(|(i, s)| format!("{}. {s}", i + 1))
            .collect();
        writeln!(out, "  {label:<28} {}", ranked.join(", ")).unwrap();
    }
    out
}

/// Table II: the applications and their (re-)detected classes.
pub fn table2(runs: &[AppRun]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Table II — applications for evaluation (classifier output)"
    )
    .unwrap();
    writeln!(out, "  {:<18} {:<8} sync-required", "Application", "Class").unwrap();
    for run in runs {
        writeln!(
            out,
            "  {:<18} {:<8} {}",
            run.app,
            run.class,
            if run.with_sync { "yes" } else { "no" }
        )
        .unwrap();
    }
    out
}

/// Table III: the simulated platform.
pub fn table3(platform: &Platform) -> String {
    let mut out = String::new();
    writeln!(out, "Table III — simulated platform").unwrap();
    for dev in &platform.devices {
        let s = &dev.spec;
        writeln!(
            out,
            "  {:<22} {:.3} GHz, {} slots, {:.1}/{:.1} GFLOPS (SP/DP), {:.1} GB/s, {:.0} GB",
            s.name,
            s.frequency_ghz,
            s.kind.slots(),
            s.peak_gflops_sp,
            s.peak_gflops_dp,
            s.mem_bandwidth_gbs,
            s.mem_capacity_gb
        )
        .unwrap();
    }
    for ((a, b), link) in &platform.links {
        writeln!(
            out,
            "  link mem{}<->mem{}: {:.1} GB/s, {} latency",
            a.0, b.0, link.bandwidth_gbs, link.latency
        )
        .unwrap();
    }
    out
}

/// One figure's execution-time bars (Figures 5, 7, 9, 11).
pub fn figure_times(title: &str, runs: &[&AppRun]) -> String {
    let mut out = String::new();
    writeln!(out, "{title}").unwrap();
    for run in runs {
        writeln!(out, "  {} [{}]", run.app, run.class).unwrap();
        for c in &run.configs {
            writeln!(
                out,
                "    {:<14} {:>10.1} ms   (transfers: {:>4} moves, {:>7.1} MB, {:>7.1} ms)",
                c.config,
                c.time_ms,
                c.transfers,
                c.transfer_bytes as f64 / 1e6,
                c.transfer_ms
            )
            .unwrap();
        }
    }
    out
}

/// One figure's partitioning-ratio bars (Figures 6, 8, 10).
pub fn figure_ratios(title: &str, runs: &[&AppRun], per_kernel_for: &[&str]) -> String {
    let mut out = String::new();
    writeln!(out, "{title}").unwrap();
    for run in runs {
        writeln!(out, "  {}", run.app).unwrap();
        for c in &run.configs {
            let mut line = format!(
                "    {:<14} GPU {:>5.1}% / CPU {:>5.1}%",
                c.config,
                100.0 * c.gpu_item_share,
                100.0 * (1.0 - c.gpu_item_share)
            );
            if per_kernel_for.contains(&c.config.as_str()) && c.per_kernel_gpu_share.len() > 1 {
                let per: Vec<String> = c
                    .per_kernel_gpu_share
                    .iter()
                    .map(|s| format!("{:.1}%", 100.0 * s))
                    .collect();
                write!(line, "   per-kernel GPU: [{}]", per.join(", ")).unwrap();
            }
            writeln!(out, "{line}").unwrap();
        }
    }
    out
}

/// Figure 12 as text.
pub fn figure12(rows: &[SpeedupRow], avg_og: f64, avg_oc: f64) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Figure 12 — speedup of the best strategy vs Only-GPU / Only-CPU"
    )
    .unwrap();
    writeln!(
        out,
        "  {:<18} {:<12} {:>10} {:>10}",
        "Application", "Best", "vs OG", "vs OC"
    )
    .unwrap();
    for r in rows {
        writeln!(
            out,
            "  {:<18} {:<12} {:>9.2}x {:>9.2}x",
            r.app, r.best, r.vs_only_gpu, r.vs_only_cpu
        )
        .unwrap();
    }
    writeln!(
        out,
        "  {:<18} {:<12} {:>9.2}x {:>9.2}x   (paper: 3.0x / 5.3x)",
        "Average", "", avg_og, avg_oc
    )
    .unwrap();
    out
}

/// The Table I empirical validation summary.
pub fn validation_report(checks: &[RankingCheck]) -> String {
    let mut out = String::new();
    writeln!(out, "Table I empirical validation (adjacent ranking pairs)").unwrap();
    for c in checks {
        let mark = match c.outcome {
            PairOutcome::Ordered => "ok ",
            PairOutcome::Tie => "tie",
            PairOutcome::Deviation => "DEV",
            PairOutcome::Violation => "BAD",
        };
        writeln!(
            out,
            "  [{mark}] {:<18} {:<11} ({:>9.1} ms)  <=  {:<11} ({:>9.1} ms)",
            c.app, c.better, c.better_ms, c.worse, c.worse_ms
        )
        .unwrap();
    }
    let v = checks
        .iter()
        .filter(|c| c.outcome == PairOutcome::Violation)
        .count();
    let d = checks
        .iter()
        .filter(|c| c.outcome == PairOutcome::Deviation)
        .count();
    writeln!(
        out,
        "  {} pairs checked, {} violations, {} documented deviations",
        checks.len(),
        v,
        d
    )
    .unwrap();
    out
}

/// The model-accuracy study as text.
pub fn accuracy_report(rows: &[crate::experiments::AccuracyRow]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Glinda model accuracy (predicted vs simulated, matched static strategy)"
    )
    .unwrap();
    writeln!(
        out,
        "  (the solver and the simulator share the roofline device model by construction,"
    )
    .unwrap();
    writeln!(
        out,
        "   so the residual error isolates what the model omits: launch overheads,"
    )
    .unwrap();
    writeln!(out, "   scheduling epochs and flush serialisation)").unwrap();
    writeln!(
        out,
        "  {:<18} {:<12} {:>12} {:>12} {:>8}",
        "Application", "Strategy", "predicted", "simulated", "error"
    )
    .unwrap();
    for r in rows {
        writeln!(
            out,
            "  {:<18} {:<12} {:>9.1} ms {:>9.1} ms {:>7.1}%",
            r.app,
            r.strategy,
            r.predicted_ms,
            r.simulated_ms,
            100.0 * r.error()
        )
        .unwrap();
    }
    out
}

/// The strategy map as an ASCII grid.
pub fn strategy_map_report(
    cells: &[crate::experiments::MapCell],
    capabilities: &[f64],
    links_gbs: &[f64],
) -> String {
    let code = |winner: &str| match winner {
        "Only-GPU" => 'G',
        "Only-CPU" => 'C',
        "SP-Unified" => 'U',
        "SP-Varied" => 'V',
        "SP-Single" => 'S',
        "DP-Perf" => 'P',
        "DP-Dep" => 'D',
        _ => '?',
    };
    let mut out = String::new();
    writeln!(
        out,
        "Strategy map — winning configuration per (capability, link) cell"
    )
    .unwrap();
    writeln!(
        out,
        "  (U=SP-Unified V=SP-Varied P=DP-Perf D=DP-Dep G=Only-GPU C=Only-CPU)"
    )
    .unwrap();
    write!(out, "  {:>12} |", "cap \\ GB/s").unwrap();
    for l in links_gbs {
        write!(out, " {l:>5.1}").unwrap();
    }
    writeln!(out).unwrap();
    writeln!(
        out,
        "  {:->13}+{:-<width$}",
        "",
        "",
        width = links_gbs.len() * 6
    )
    .unwrap();
    for &cap in capabilities {
        write!(out, "  {:>12.2} |", cap).unwrap();
        for &gbs in links_gbs {
            let cell = cells
                .iter()
                .find(|c| c.capability == cap && c.link_gbs == gbs)
                .expect("cell computed");
            write!(out, " {:>5}", code(&cell.winner)).unwrap();
        }
        writeln!(out).unwrap();
    }
    out
}

/// The scheduling-overhead ablation as text.
pub fn overhead_ablation_report(rows: &[crate::experiments::OverheadRow]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Scheduling-overhead ablation (Proposition 2): BlackScholes per decision overhead"
    )
    .unwrap();
    writeln!(
        out,
        "{:>12} {:>12} {:>12} {:>8}",
        "overhead", "SP-Single", "DP-Perf", "gap"
    )
    .unwrap();
    for r in rows {
        writeln!(
            out,
            "{:>10}us {:>12} {:>12} {:>7.2}x",
            r.overhead_us,
            r.sp_single.to_string(),
            r.dp_perf.to_string(),
            r.dp_perf.as_secs_f64() / r.sp_single.as_secs_f64()
        )
        .unwrap();
    }
    out
}

/// The link-bandwidth ablation as text.
pub fn link_ablation_report(rows: &[crate::experiments::LinkRow]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Link-bandwidth ablation (§II-A gap G): STREAM-Seq w/o sync per PCIe bandwidth"
    )
    .unwrap();
    writeln!(
        out,
        "{:>10} {:>10} {:>12} {:>12} {:>12}",
        "link GB/s", "GPU share", "SP-Unified", "Only-GPU", "Only-CPU"
    )
    .unwrap();
    for r in rows {
        writeln!(
            out,
            "{:>10.1} {:>9.1}% {:>12} {:>12} {:>12}",
            r.link_gbs,
            100.0 * r.gpu_share,
            r.sp_unified.to_string(),
            r.only_gpu.to_string(),
            r.only_cpu.to_string()
        )
        .unwrap();
    }
    out
}

/// The §III-B coverage study as text.
pub fn coverage_report(counts: &BTreeMap<String, usize>) -> String {
    let mut out = String::new();
    let total: usize = counts.values().sum();
    writeln!(
        out,
        "Kernel-structure coverage study ({total} applications, five classes)"
    )
    .unwrap();
    for (class, n) in counts {
        writeln!(out, "  {class:<8} {n}").unwrap();
    }
    out
}

/// A self-contained markdown report regenerated from live runs: the
/// counterpart of EXPERIMENTS.md's measured columns (`repro markdown`).
pub fn markdown_report(
    runs: &[AppRun],
    checks: &[RankingCheck],
    speedups: &[SpeedupRow],
    avg_og: f64,
    avg_oc: f64,
    accuracy: &[crate::experiments::AccuracyRow],
) -> String {
    let mut out = String::new();
    writeln!(out, "# Regenerated evaluation report\n").unwrap();
    writeln!(
        out,
        "Deterministic simulated reproduction of the ICPP'15 matchmaking \
         evaluation; regenerate with `cargo run --release -p bench --bin repro -- markdown`.\n"
    )
    .unwrap();

    writeln!(out, "## Execution times and partitioning ratios\n").unwrap();
    for run in runs {
        writeln!(
            out,
            "### {} ({}, sync: {})\n",
            run.app, run.class, run.with_sync
        )
        .unwrap();
        writeln!(
            out,
            "| config | time (ms) | GPU share | transfers | moved (MB) |"
        )
        .unwrap();
        writeln!(out, "|---|---|---|---|---|").unwrap();
        for c in &run.configs {
            writeln!(
                out,
                "| {} | {:.1} | {:.1}% | {} | {:.1} |",
                c.config,
                c.time_ms,
                100.0 * c.gpu_item_share,
                c.transfers,
                c.transfer_bytes as f64 / 1e6
            )
            .unwrap();
        }
        writeln!(out).unwrap();
    }

    writeln!(out, "## Figure 12 — speedups\n").unwrap();
    writeln!(out, "| application | best | vs Only-GPU | vs Only-CPU |").unwrap();
    writeln!(out, "|---|---|---|---|").unwrap();
    for r in speedups {
        writeln!(
            out,
            "| {} | {} | {:.2}x | {:.2}x |",
            r.app, r.best, r.vs_only_gpu, r.vs_only_cpu
        )
        .unwrap();
    }
    writeln!(
        out,
        "| **average** | | **{avg_og:.2}x** | **{avg_oc:.2}x** |\n"
    )
    .unwrap();

    writeln!(out, "## Table I validation\n").unwrap();
    writeln!(out, "| app | better | worse | outcome |").unwrap();
    writeln!(out, "|---|---|---|---|").unwrap();
    for c in checks {
        writeln!(
            out,
            "| {} | {} ({:.1} ms) | {} ({:.1} ms) | {:?} |",
            c.app, c.better, c.better_ms, c.worse, c.worse_ms, c.outcome
        )
        .unwrap();
    }
    writeln!(out).unwrap();

    writeln!(out, "## Model accuracy\n").unwrap();
    writeln!(
        out,
        "| app | strategy | predicted (ms) | simulated (ms) | error |"
    )
    .unwrap();
    writeln!(out, "|---|---|---|---|---|").unwrap();
    for r in accuracy {
        writeln!(
            out,
            "| {} | {} | {:.1} | {:.1} | {:.1}% |",
            r.app,
            r.strategy,
            r.predicted_ms,
            r.simulated_ms,
            100.0 * r.error()
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_contains_all_rows() {
        let t = table1();
        assert!(t.contains("SK-One"));
        assert!(t.contains("MK-DAG"));
        assert!(t.contains("1. SP-Varied"));
        assert!(t.contains("1. SP-Unified"));
    }

    #[test]
    fn table3_lists_devices_and_link() {
        let t = table3(&Platform::icpp15());
        assert!(t.contains("Xeon E5-2620"));
        assert!(t.contains("K20m"));
        assert!(t.contains("link mem0<->mem1"));
    }

    fn sample_run() -> crate::experiments::AppRun {
        crate::experiments::AppRun {
            app: "App".into(),
            class: "MK-Seq".into(),
            with_sync: true,
            ranking: vec!["SP-Varied".into(), "DP-Perf".into()],
            configs: vec![
                crate::experiments::ConfigRun {
                    config: "SP-Varied".into(),
                    time_ms: 10.0,
                    gpu_item_share: 0.25,
                    gpu_task_share: 0.2,
                    per_kernel_gpu_share: vec![0.25, 0.26],
                    transfers: 4,
                    transfer_bytes: 1_000_000,
                    transfer_ms: 2.0,
                    sched_decisions: 0,
                },
                crate::experiments::ConfigRun {
                    config: "DP-Perf".into(),
                    time_ms: 12.0,
                    gpu_item_share: 0.3,
                    gpu_task_share: 0.3,
                    per_kernel_gpu_share: vec![0.3, 0.3],
                    transfers: 10,
                    transfer_bytes: 2_000_000,
                    transfer_ms: 3.0,
                    sched_decisions: 96,
                },
            ],
        }
    }

    #[test]
    fn figure_renderers_include_all_configs() {
        let run = sample_run();
        let times = figure_times("T", &[&run]);
        assert!(times.contains("SP-Varied") && times.contains("DP-Perf"));
        assert!(times.contains("10.0 ms"));
        let ratios = figure_ratios("R", &[&run], &["SP-Varied"]);
        assert!(ratios.contains("25.0%"));
        assert!(ratios.contains("per-kernel GPU"));
        // Per-kernel breakdown only for the requested config.
        assert_eq!(ratios.matches("per-kernel GPU").count(), 1);
    }

    #[test]
    fn figure12_renders_averages() {
        let rows = vec![crate::experiments::SpeedupRow {
            app: "App".into(),
            best: "SP-Varied".into(),
            vs_only_gpu: 2.0,
            vs_only_cpu: 3.0,
        }];
        let out = figure12(&rows, 2.0, 3.0);
        assert!(out.contains("2.00x"));
        assert!(out.contains("paper: 3.0x / 5.3x"));
    }

    #[test]
    fn markdown_report_is_wellformed() {
        let run = sample_run();
        let checks = crate::validation::validate_rankings(std::slice::from_ref(&run));
        let md = markdown_report(&[run], &checks, &[], 1.0, 1.0, &[]);
        assert!(md.starts_with("# Regenerated evaluation report"));
        assert!(md.contains("| SP-Varied | 10.0 | 25.0% | 4 | 1.0 |"));
        assert!(md.contains("## Table I validation"));
    }
}
