//! Structured experiment runners, one per table, figure and ablation.

use hetero_apps::{blackscholes, corpus, hotspot, matrixmul, nbody, stream};
use hetero_platform::{LinkSpec, Platform, SimTime};
use matchmaker::{classify, Analyzer, AppDescriptor, ExecutionConfig, Strategy, SyncMode};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One execution configuration's measurements for one application — the
/// content of one bar of Figures 5/7/9/11 plus the ratio of Figures 6/8/10.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ConfigRun {
    /// Configuration label ("Only-GPU", "SP-Single", ...).
    pub config: String,
    /// Simulated end-to-end time in milliseconds.
    pub time_ms: f64,
    /// Fraction of data items processed on the GPU (Figures 6/8/10).
    pub gpu_item_share: f64,
    /// Fraction of task instances placed on the GPU.
    pub gpu_task_share: f64,
    /// Per-kernel GPU item shares, in kernel order (Figure 10 reports
    /// per-kernel ratios for SP-Varied).
    pub per_kernel_gpu_share: Vec<f64>,
    /// Number of host↔device transfers.
    pub transfers: u64,
    /// Total bytes moved.
    pub transfer_bytes: u64,
    /// Total virtual time spent in transfers, ms.
    pub transfer_ms: f64,
    /// Dynamic scheduling decisions taken.
    pub sched_decisions: u64,
}

/// All configurations of one application variant.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AppRun {
    /// Application name (e.g. "STREAM-Seq-w/o").
    pub app: String,
    /// Detected class.
    pub class: String,
    /// Sync mode used for the Table I row.
    pub with_sync: bool,
    /// Theoretical ranking (Table I), best first.
    pub ranking: Vec<String>,
    /// Per-configuration results: Only-GPU, Only-CPU, then the suitable
    /// strategies in Table I rank order.
    pub configs: Vec<ConfigRun>,
}

impl AppRun {
    /// Find a configuration's result by label.
    pub fn get(&self, config: &str) -> Option<&ConfigRun> {
        self.configs.iter().find(|c| c.config == config)
    }

    /// The best (fastest) strategy result, excluding the two baselines.
    pub fn best_strategy(&self) -> &ConfigRun {
        self.configs[2..]
            .iter()
            .min_by(|a, b| a.time_ms.partial_cmp(&b.time_ms).unwrap())
            .expect("at least one strategy")
    }
}

/// The eight application variants of the paper's evaluation, in figure
/// order: the six Table II applications, with STREAM evaluated both with
/// and without the artificial inter-kernel synchronisation.
pub fn paper_variants() -> Vec<AppDescriptor> {
    vec![
        matrixmul::paper_descriptor(),
        blackscholes::paper_descriptor(),
        nbody::paper_descriptor(),
        hotspot::paper_descriptor(),
        stream::paper_seq(false),
        stream::paper_seq(true),
        stream::paper_loop(false),
        stream::paper_loop(true),
    ]
}

/// Run one variant under every configuration of its Table I row (plus the
/// two baselines).
pub fn run_app(platform: &Platform, desc: &AppDescriptor) -> AppRun {
    let analyzer = Analyzer::new(platform);
    let analysis = analyzer.analyze(desc);
    let mut configs = Vec::new();
    for (config, report) in analyzer.compare_all(desc) {
        configs.push(ConfigRun {
            config: config.to_string(),
            time_ms: report.makespan.as_millis_f64(),
            gpu_item_share: report.gpu_item_share(),
            gpu_task_share: report.gpu_task_share(),
            per_kernel_gpu_share: (0..desc.kernels.len())
                .map(|k| report.kernel_gpu_share(hetero_runtime::KernelId(k)))
                .collect(),
            transfers: report.counters.transfers.count,
            transfer_bytes: report.counters.transfers.bytes,
            transfer_ms: report.counters.transfers.time.as_millis_f64(),
            sched_decisions: report.counters.sched_decisions,
        });
    }
    AppRun {
        app: desc.name.clone(),
        class: analysis.class.to_string(),
        with_sync: analysis.sync == SyncMode::WithSync,
        ranking: analysis.ranking.iter().map(|s| s.to_string()).collect(),
        configs,
    }
}

/// Run the full evaluation matrix (every figure's data in one pass).
pub fn run_all(platform: &Platform) -> Vec<AppRun> {
    paper_variants()
        .iter()
        .map(|d| run_app(platform, d))
        .collect()
}

/// One row of Figure 12.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SpeedupRow {
    /// Application variant.
    pub app: String,
    /// Best strategy name.
    pub best: String,
    /// Speedup of the best strategy vs Only-GPU.
    pub vs_only_gpu: f64,
    /// Speedup vs Only-CPU.
    pub vs_only_cpu: f64,
}

/// Figure 12: the speedup of the best partitioning strategy vs the two
/// baselines, per application, plus the averages the paper headlines
/// (3.0× / 5.3×).
pub fn fig12_speedups(runs: &[AppRun]) -> (Vec<SpeedupRow>, f64, f64) {
    let mut rows = Vec::new();
    for run in runs {
        let og = run.get("Only-GPU").expect("baseline").time_ms;
        let oc = run.get("Only-CPU").expect("baseline").time_ms;
        let best = run.best_strategy();
        rows.push(SpeedupRow {
            app: run.app.clone(),
            best: best.config.clone(),
            vs_only_gpu: og / best.time_ms,
            vs_only_cpu: oc / best.time_ms,
        });
    }
    let n = rows.len() as f64;
    let avg_og = rows.iter().map(|r| r.vs_only_gpu).sum::<f64>() / n;
    let avg_oc = rows.iter().map(|r| r.vs_only_cpu).sum::<f64>() / n;
    (rows, avg_og, avg_oc)
}

/// §III-B coverage study: classify the synthetic 86-application corpus and
/// return the per-class counts (all 86 must classify — the paper's claim).
pub fn coverage_study() -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    for desc in corpus::corpus() {
        let class = classify(&desc);
        *counts.entry(class.to_string()).or_insert(0) += 1;
    }
    counts
}

/// One row of the model-accuracy study: the Glinda model's predicted
/// co-execution time vs the simulated makespan of the planned program.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AccuracyRow {
    /// Application variant.
    pub app: String,
    /// Strategy whose prediction is checked.
    pub strategy: String,
    /// The solver's predicted time, ms.
    pub predicted_ms: f64,
    /// The simulated makespan, ms.
    pub simulated_ms: f64,
}

impl AccuracyRow {
    /// Relative prediction error (signed; positive = under-prediction).
    pub fn error(&self) -> f64 {
        (self.simulated_ms - self.predicted_ms) / self.simulated_ms
    }
}

/// Model-accuracy study: how well Glinda's partitioning model predicts the
/// executed time of the plan it produced (Glinda's own evaluations report
/// this; it also quantifies what the model leaves out — scheduling epochs,
/// launch overheads, flush serialisation).
pub fn model_accuracy(platform: &Platform) -> Vec<AccuracyRow> {
    use matchmaker::KernelSplit;
    let analyzer = Analyzer::new(platform);
    let mut rows = Vec::new();
    // Single-kernel apps: SP-Single, prediction × iterations.
    for desc in [
        matrixmul::paper_descriptor(),
        blackscholes::paper_descriptor(),
        nbody::paper_descriptor(),
        hotspot::paper_descriptor(),
    ] {
        let plan = analyzer.plan(&desc, ExecutionConfig::Strategy(Strategy::SpSingle));
        let Some(KernelSplit::Single(glinda::HardwareConfig::Hybrid(sol))) =
            plan.kernel_configs[0].clone()
        else {
            continue;
        };
        let simulated = analyzer
            .simulate(&desc, ExecutionConfig::Strategy(Strategy::SpSingle))
            .makespan;
        rows.push(AccuracyRow {
            app: desc.name.clone(),
            strategy: "SP-Single".into(),
            predicted_ms: sol.predicted_time * 1e3 * desc.iterations() as f64,
            simulated_ms: simulated.as_millis_f64(),
        });
    }
    // STREAM: SP-Unified prediction covers the whole (iterated) sequence.
    for desc in [stream::paper_seq(false), stream::paper_loop(false)] {
        let planner = analyzer.planner();
        let split = planner.decide_unified(&desc);
        let KernelSplit::Single(glinda::HardwareConfig::Hybrid(sol)) = split else {
            continue;
        };
        let simulated = analyzer
            .simulate(&desc, ExecutionConfig::Strategy(Strategy::SpUnified))
            .makespan;
        rows.push(AccuracyRow {
            app: desc.name.clone(),
            strategy: "SP-Unified".into(),
            predicted_ms: sol.predicted_time * 1e3,
            simulated_ms: simulated.as_millis_f64(),
        });
    }
    rows
}

/// One cell of the strategy map.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MapCell {
    /// Relative-capability axis value (GPU compute-efficiency multiplier).
    pub capability: f64,
    /// Link bandwidth, GB/s.
    pub link_gbs: f64,
    /// The winning configuration's label.
    pub winner: String,
    /// The winning time, ms.
    pub time_ms: f64,
}

/// The strategy map: sweep the two Glinda metrics' drivers — relative
/// hardware capability (via the GPU's efficiency) and the compute-to-
/// transfer gap (via the link bandwidth) — over a synthetic MK-Seq
/// application, and record which configuration wins each cell. This is
/// the landscape behind Table I: static splits win the interior, the
/// single-device baselines win the extremes.
pub fn strategy_map(capabilities: &[f64], links_gbs: &[f64]) -> Vec<MapCell> {
    let mut cells = Vec::new();
    for &cap in capabilities {
        for &gbs in links_gbs {
            let platform = icpp15_with_link(gbs);
            let mut desc = hetero_apps::synth::multi_kernel(
                "map-probe",
                1 << 21,
                2,
                512.0,
                matchmaker::ExecutionFlow::Sequence,
                false,
            );
            for k in &mut desc.kernels {
                k.profile.gpu_efficiency.compute = (0.35 * cap).min(1.0);
                k.profile.gpu_efficiency.bandwidth = (0.7 * cap).min(1.0);
            }
            let analyzer = Analyzer::new(&platform);
            let (winner, time) = analyzer
                .compare_all(&desc)
                .into_iter()
                .map(|(c, r)| (c.to_string(), r.makespan))
                .min_by(|a, b| a.1.cmp(&b.1))
                .expect("configurations ran");
            cells.push(MapCell {
                capability: cap,
                link_gbs: gbs,
                winner,
                time_ms: time.as_millis_f64(),
            });
        }
    }
    cells
}

/// The paper platform with its PCIe link replaced by one of `gbs` GB/s.
fn icpp15_with_link(gbs: f64) -> Platform {
    let base = Platform::icpp15();
    Platform::builder()
        .cpu(base.cpu().spec.clone())
        .accelerator(
            base.gpu().unwrap().spec.clone(),
            LinkSpec::new(gbs, SimTime::from_micros(15)),
        )
        .sched_overhead(base.sched_overhead)
        .build()
}

/// One row of the scheduling-overhead ablation.
#[derive(Debug)]
pub struct OverheadRow {
    /// Per-decision scheduling overhead of the platform, µs.
    pub overhead_us: u64,
    /// SP-Single's makespan.
    pub sp_single: SimTime,
    /// DP-Perf's makespan.
    pub dp_perf: SimTime,
}

/// Scheduling-overhead ablation: BlackScholes under SP-Single and DP-Perf
/// at 0, 8, 32, 128 and 512 µs per scheduling decision. The paper blames
/// dynamic partitioning's deficit on "runtime scheduling overhead"; a
/// static plan takes no decisions, so SP-Single stays flat while DP-Perf
/// pays for every one — the mechanism behind Proposition 2.
pub fn overhead_ablation() -> Vec<OverheadRow> {
    let desc = blackscholes::paper_descriptor();
    [0, 8, 32, 128, 512]
        .into_iter()
        .map(|us| {
            let mut platform = Platform::icpp15();
            platform.sched_overhead = SimTime::from_micros(us);
            let analyzer = Analyzer::new(&platform);
            let time = |s| {
                analyzer
                    .simulate(&desc, ExecutionConfig::Strategy(s))
                    .makespan
            };
            OverheadRow {
                overhead_us: us,
                sp_single: time(Strategy::SpSingle),
                dp_perf: time(Strategy::DpPerf),
            }
        })
        .collect()
}

/// One row of the link-bandwidth ablation.
#[derive(Debug)]
pub struct LinkRow {
    /// PCIe bandwidth, GB/s.
    pub link_gbs: f64,
    /// Fraction of data items SP-Unified places on the GPU.
    pub gpu_share: f64,
    /// SP-Unified's makespan.
    pub sp_unified: SimTime,
    /// Only-GPU's makespan.
    pub only_gpu: SimTime,
    /// Only-CPU's makespan.
    pub only_cpu: SimTime,
}

/// Link-bandwidth ablation: STREAM-Seq without sync on the paper platform
/// with its PCIe link at 1.5 to 48 GB/s. The compute-to-transfer gap G
/// (§II-A) predicts the split: the faster the link, the more of the work
/// SP-Unified hands the GPU.
pub fn link_ablation() -> Vec<LinkRow> {
    let desc = stream::paper_seq(false);
    [1.5, 3.0, 6.0, 12.0, 24.0, 48.0]
        .into_iter()
        .map(|gbs| {
            let platform = icpp15_with_link(gbs);
            let analyzer = Analyzer::new(&platform);
            let sp = analyzer.simulate(&desc, ExecutionConfig::Strategy(Strategy::SpUnified));
            LinkRow {
                link_gbs: gbs,
                gpu_share: sp.gpu_item_share(),
                sp_unified: sp.makespan,
                only_gpu: analyzer.simulate(&desc, ExecutionConfig::OnlyGpu).makespan,
                only_cpu: analyzer.simulate(&desc, ExecutionConfig::OnlyCpu).makespan,
            }
        })
        .collect()
}

/// §V task-size ablation: sweep the dynamic task granularity and report
/// DP-Perf's time for each, demonstrating the sensitivity that motivates
/// the paper's auto-tuning recommendation.
pub fn task_size_ablation(
    platform: &Platform,
    desc: &AppDescriptor,
    instance_counts: &[u64],
) -> Vec<(u64, f64)> {
    instance_counts
        .iter()
        .map(|&m| {
            let mut analyzer = Analyzer::new(platform);
            analyzer.planner_mut().dynamic_instances_per_kernel = m;
            let report = analyzer.simulate(desc, ExecutionConfig::Strategy(Strategy::DpPerf));
            (m, report.makespan.as_millis_f64())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_list_matches_figures() {
        let names: Vec<String> = paper_variants().iter().map(|d| d.name.clone()).collect();
        assert_eq!(
            names,
            vec![
                "MatrixMul",
                "BlackScholes",
                "Nbody",
                "HotSpot",
                "STREAM-Seq-w/o",
                "STREAM-Seq-w",
                "STREAM-Loop-w/o",
                "STREAM-Loop-w",
            ]
        );
    }

    #[test]
    fn coverage_study_covers_86() {
        let counts = coverage_study();
        assert_eq!(counts.values().sum::<usize>(), 86);
        assert_eq!(counts.len(), 5);
    }

    #[test]
    fn run_app_produces_baselines_plus_ranking() {
        let platform = Platform::icpp15();
        let run = run_app(&platform, &stream::descriptor(1 << 20, None, true));
        assert_eq!(run.configs.len(), 2 + run.ranking.len());
        assert_eq!(run.configs[0].config, "Only-GPU");
        assert_eq!(run.configs[1].config, "Only-CPU");
        assert_eq!(run.class, "MK-Seq");
        assert!(run.with_sync);
        assert_eq!(run.ranking[0], "SP-Varied");
    }

    #[test]
    fn fig12_math() {
        let platform = Platform::icpp15();
        let runs = vec![run_app(&platform, &blackscholes::descriptor(1 << 22))];
        let (rows, avg_og, avg_oc) = fig12_speedups(&runs);
        assert_eq!(rows.len(), 1);
        assert!((rows[0].vs_only_gpu - avg_og).abs() < 1e-12);
        assert!((rows[0].vs_only_cpu - avg_oc).abs() < 1e-12);
        assert!(avg_og > 0.0 && avg_oc > 0.0);
    }

    #[test]
    fn strategy_map_covers_grid_and_finds_hybrid_interior() {
        let caps = [0.25, 2.0];
        let links = [1.5, 48.0];
        let cells = strategy_map(&caps, &links);
        assert_eq!(cells.len(), 4);
        // Weak GPU + slow link: the hybrid static split wins.
        let weak = cells
            .iter()
            .find(|c| c.capability == 0.25 && c.link_gbs == 1.5)
            .unwrap();
        assert_eq!(weak.winner, "SP-Unified");
        // Strong GPU + fast link: the single GPU takes over.
        let strong = cells
            .iter()
            .find(|c| c.capability == 2.0 && c.link_gbs == 48.0)
            .unwrap();
        assert!(strong.winner == "Only-GPU" || strong.winner == "SP-Unified");
    }

    #[test]
    fn model_accuracy_predictions_are_tight() {
        let platform = Platform::icpp15();
        let rows = model_accuracy(&platform);
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(
                r.error().abs() < 0.05,
                "{} {}: predicted {} vs simulated {}",
                r.app,
                r.strategy,
                r.predicted_ms,
                r.simulated_ms
            );
        }
    }

    #[test]
    fn overhead_ablation_taxes_only_the_dynamic_strategy() {
        let rows = overhead_ablation();
        let times = |f: fn(&OverheadRow) -> SimTime| -> Vec<String> {
            rows.iter().map(|r| f(r).to_string()).collect()
        };
        assert_eq!(times(|r| r.sp_single), ["227.48ms"; 5]);
        assert_eq!(
            times(|r| r.dp_perf),
            ["255.95ms", "256.45ms", "257.97ms", "264.01ms", "288.21ms"]
        );
        // Static plans take no decisions; DP-Perf pays for every one and
        // trails SP-Single even when decisions are free.
        assert!(rows.iter().all(|r| r.sp_single == rows[0].sp_single));
        assert!(rows.windows(2).all(|w| w[0].dp_perf < w[1].dp_perf));
        assert!(rows[0].dp_perf > rows[0].sp_single);
    }

    #[test]
    fn link_ablation_shifts_work_to_the_gpu_and_unified_always_wins() {
        let rows = link_ablation();
        let shares: Vec<String> = rows
            .iter()
            .map(|r| format!("{:.1}", 100.0 * r.gpu_share))
            .collect();
        assert_eq!(shares, ["17.6", "29.4", "44.0", "58.7", "70.4", "78.3"]);
        assert_eq!(rows[0].sp_unified.to_string(), "121.70ms");
        assert_eq!(rows[5].sp_unified.to_string(), "32.14ms");
        assert!(rows.iter().all(|r| r.only_cpu.to_string() == "147.70ms"));
        assert!(rows.windows(2).all(|w| w[0].gpu_share < w[1].gpu_share));
        for r in &rows {
            assert!(
                r.sp_unified < r.only_gpu && r.sp_unified < r.only_cpu,
                "{} GB/s: {:?}",
                r.link_gbs,
                r
            );
        }
    }

    #[test]
    fn task_size_ablation_varies_performance() {
        let platform = Platform::icpp15();
        let desc = stream::descriptor(1 << 22, None, false);
        let sweep = task_size_ablation(&platform, &desc, &[12, 48, 192]);
        assert_eq!(sweep.len(), 3);
        // Performance varies with task size (the paper's §V observation).
        let times: Vec<f64> = sweep.iter().map(|&(_, t)| t).collect();
        let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = times.iter().cloned().fold(0.0f64, f64::max);
        assert!(max / min > 1.01, "no sensitivity: {times:?}");
    }
}
