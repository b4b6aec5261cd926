//! End-to-end tests of the scenario-fuzzing harness: clean campaigns,
//! deterministic summaries, planted invariant breaks caught and shrunk to
//! small reproducers, and shrinker soundness under proptest.

use std::fs;
use std::path::PathBuf;

use hetero_match::matchmaker::{
    fuzz_campaign, load_corpus, run_oracles, run_seed, shrink, Analyzer, FuzzConfig, InjectedBreak,
    OracleKind, Scenario,
};
use proptest::prelude::*;

/// A private scratch directory under the system temp dir, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("hetero-fuzz-test-{tag}-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

#[test]
fn small_campaign_is_clean_and_summary_deterministic() {
    let cfg = FuzzConfig::new(8, 0xC0FFEE);
    let a = fuzz_campaign(&cfg);
    let b = fuzz_campaign(&cfg);
    assert!(
        a.failures.is_empty(),
        "clean seeds must produce no failures:\n{}",
        a.summary()
    );
    assert_eq!(a.summary(), b.summary(), "summary must be byte-identical");
    // Every oracle family was exercised at least once over 8 seeds.
    assert!(a.checks.contains_key("differential"));
    assert!(a.checks.contains_key("blame-identity"));
    assert!(a.checks.contains_key("double-run-determinism"));
    assert!(a.checks.contains_key("replay-determinism"));
    assert!(a.checks.contains_key("crash-resume-equivalence"));
}

#[test]
fn fuzz_one_matches_campaign_verdict() {
    for seed in [1u64, 2, 3] {
        let outcome = Analyzer::fuzz_one(seed);
        assert!(
            outcome.violations.is_empty(),
            "seed {seed} violated: {:?}",
            outcome.violations
        );
        assert!(outcome.scenario.is_valid());
    }
}

/// Run a 10-scenario campaign with `inject` planted and require the harness
/// to catch it as `oracle`, shrink it to a <=5-task, <=2-device reproducer,
/// and archive a scenario that still fails the same way — and is clean
/// without the injection.
fn assert_caught_shrunk_and_archived(tag: &str, inject: InjectedBreak, oracle: OracleKind) {
    let scratch = ScratchDir::new(tag);
    let cfg = FuzzConfig {
        shrink: true,
        corpus: Some(scratch.0.clone()),
        inject,
        max_failures: 1,
        ..FuzzConfig::new(10, 0xC0FFEE)
    };
    let report = fuzz_campaign(&cfg);
    let f = report
        .failures
        .first()
        .unwrap_or_else(|| panic!("planted {oracle} break must be caught"));
    assert_eq!(f.oracle, oracle);
    // The self-check bound: a <=5-task, <=2-device reproducer.
    assert!(f.tasks <= 5, "want <=5 tasks, got {}", f.tasks);
    assert!(f.devices <= 2, "want <=2 devices, got {}", f.devices);
    // The archived reproducer loads back and still fails the same oracle.
    let corpus = load_corpus(&scratch.0);
    assert_eq!(corpus.len(), 1);
    let (_, entry) = &corpus[0];
    assert_eq!(entry.oracle, Some(oracle));
    assert!(entry.scenario.is_valid());
    assert!(run_oracles(&entry.scenario, &cfg.inject)
        .iter()
        .any(|v| v.oracle == oracle));
    // And without the injection the reproducer is clean.
    assert!(run_oracles(&entry.scenario, &InjectedBreak::NONE).is_empty());
}

#[test]
fn planted_blame_break_is_caught_shrunk_and_archived() {
    let inject = InjectedBreak {
        skip_blame_component: true,
        ..InjectedBreak::NONE
    };
    assert_caught_shrunk_and_archived("blame", inject, OracleKind::BlameIdentity);
}

#[test]
fn planted_panic_is_caught_shrunk_and_archived() {
    let inject = InjectedBreak {
        panic_in_bank: true,
        ..InjectedBreak::NONE
    };
    assert_caught_shrunk_and_archived("panic", inject, OracleKind::NoPanic);
}

#[test]
fn planted_nondeterminism_is_caught() {
    let inject = InjectedBreak {
        break_double_run: true,
        ..InjectedBreak::NONE
    };
    let outcome = run_seed(5, &inject);
    assert!(
        outcome
            .violations
            .iter()
            .any(|v| v.oracle == OracleKind::DoubleRunDeterminism),
        "planted double-run break must be caught: {:?}",
        outcome.violations
    );
}

#[test]
fn planted_resume_divergence_is_caught() {
    let inject = InjectedBreak {
        break_resume: true,
        ..InjectedBreak::NONE
    };
    let outcome = run_seed(5, &inject);
    assert!(
        outcome
            .violations
            .iter()
            .any(|v| v.oracle == OracleKind::CrashResumeEquivalence),
        "planted resume break must be caught: {:?}",
        outcome.violations
    );
}

#[test]
fn planted_stream_fold_break_is_caught() {
    let inject = InjectedBreak {
        break_stream_fold: true,
        ..InjectedBreak::NONE
    };
    let outcome = run_seed(5, &inject);
    assert!(
        outcome
            .violations
            .iter()
            .any(|v| v.oracle == OracleKind::StreamFoldEquivalence),
        "planted stream-fold break must be caught: {:?}",
        outcome.violations
    );
}

#[test]
fn planted_service_drop_is_caught() {
    let inject = InjectedBreak {
        break_service: true,
        ..InjectedBreak::NONE
    };
    let outcome = run_seed(5, &inject);
    assert!(
        outcome
            .violations
            .iter()
            .any(|v| v.oracle == OracleKind::ShedOrServe),
        "planted service drop must be caught: {:?}",
        outcome.violations
    );
    // And the clean bank holds shed-or-serve on the same scenario.
    assert!(run_seed(5, &InjectedBreak::NONE).violations.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Shrinker soundness: for any seed and any planted break the shrunk
    /// scenario is still valid, still fails the *same* oracle, and is no
    /// larger than the original along every shrink axis.
    #[test]
    fn shrinker_preserves_failure_and_never_grows(
        seed in 0u64..1_000,
        break_blame in any::<bool>(),
    ) {
        let inject = InjectedBreak {
            skip_blame_component: break_blame,
            break_double_run: !break_blame,
            ..InjectedBreak::NONE
        };
        let scenario = Scenario::generate(seed);
        let target = if break_blame {
            OracleKind::BlameIdentity
        } else {
            OracleKind::DoubleRunDeterminism
        };
        let before = run_oracles(&scenario, &inject);
        if !before.iter().any(|v| v.oracle == target) {
            // Not every scenario trips every planted break (e.g. a config
            // that never reaches the broken component) — nothing to shrink.
            return Ok(());
        }
        let (shrunk, _) = shrink(&scenario, target, 200, &|s| run_oracles(s, &inject));
        prop_assert!(shrunk.is_valid());
        prop_assert!(run_oracles(&shrunk, &inject).iter().any(|v| v.oracle == target));
        prop_assert!(shrunk.descriptor.kernels.len() <= scenario.descriptor.kernels.len());
        prop_assert!(shrunk.platform.device_count() <= scenario.platform.device_count());
        prop_assert!(shrunk.schedule.events.len() <= scenario.schedule.events.len());
        prop_assert!(shrunk.task_count() <= scenario.task_count());
    }
}
