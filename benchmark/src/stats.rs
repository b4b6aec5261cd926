//! Order statistics and the parent-vs-change verdict rule.

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "higher" => Some(Better::Higher),
            "lower" => Some(Better::Lower),
            _ => None,
        }
    }

    /// `true` when `a` reads strictly better than `b`.
    fn beats(self, a: f64, b: f64) -> bool {
        match self {
            Better::Higher => a > b,
            Better::Lower => a < b,
        }
    }
}

/// Linearly interpolated percentile (`q` in `[0, 1]`) of unsorted samples;
/// NaN for an empty slice.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// `(q1, median, q3)` computed exactly as Python's
/// `statistics.quantiles(values, n=4)` does (its default "exclusive"
/// method), so spreads printed here match the ones acceptance checks use.
/// NaN for an empty slice; a single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    match values.len() {
        0 => return (f64::NAN, f64::NAN, f64::NAN),
        1 => return (values[0], values[0], values[0]),
        _ => {}
    }
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    (q3 - q1) / med.abs()
}

/// The verdict for one workload × metric row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Regressed,
    Unchanged,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Everything a comparison row reports besides its verdict.
#[derive(Clone, Debug, PartialEq)]
pub struct Comparison {
    pub verdict: Verdict,
    /// Signed change of the median as a share of the parent's median;
    /// positive means the change reads better.
    pub gain: f64,
    pub pairs: usize,
    /// Pairs the change wins outright (ties count for neither side).
    pub wins: usize,
    pub base_spread: f64,
    pub change_spread: f64,
}

/// Runs needed before a gain can be claimed.
pub const MIN_PAIRS: usize = 10;

/// Judge `change` against `base` (runs in the order they were taken, so
/// run `i` of each side forms pair `i`).
///
/// * Regressed: the change's median is worse than the parent's by more
///   than `bound` (a share of the parent's median).
/// * Improved: at least [`MIN_PAIRS`] pairs, the change wins at least nine
///   tenths of them, and the medians differ by more than the parent's own
///   interquartile range.
/// * Unresolved: either side's spread exceeds `bound`, unless every run of
///   the change reads better than every run of the parent.
/// * Unchanged: otherwise.
pub fn compare(base: &[f64], change: &[f64], better: Better, bound: f64) -> Comparison {
    let (b_q1, b_med, b_q3) = quartiles(base);
    let (_, c_med, _) = quartiles(change);
    let sign = match better {
        Better::Higher => 1.0,
        Better::Lower => -1.0,
    };
    let gain = sign * (c_med - b_med) / b_med.abs();
    let pairs = base.len().min(change.len());
    let wins = base
        .iter()
        .zip(change)
        .filter(|&(&b, &c)| better.beats(c, b))
        .count();
    let base_spread = spread(base);
    let change_spread = spread(change);
    let dominates = base
        .iter()
        .all(|&b| change.iter().all(|&c| better.beats(c, b)));
    let verdict = if gain < -bound {
        Verdict::Regressed
    } else if pairs >= MIN_PAIRS
        && wins * 10 >= pairs * 9
        && gain > 0.0
        && (c_med - b_med).abs() > b_q3 - b_q1
    {
        Verdict::Improved
    } else if (base_spread > bound || change_spread > bound) && !dominates {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    };
    Comparison {
        verdict,
        gain,
        pairs,
        wins,
        base_spread,
        change_spread,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let s = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 0.5), 3.0);
        assert_eq!(percentile(&s, 1.0), 5.0);
        assert!((percentile(&s, 0.9) - 4.6).abs() < 1e-12);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((percentile(&hundred, 0.9) - 90.1).abs() < 1e-9);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        let (q1, med, q3) = quartiles(&ten);
        assert!((spread(&ten) - (q3 - q1) / med).abs() < 1e-12);
    }

    fn jitter(center: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| center * (1.0 + 0.002 * ((i % 5) as f64 - 2.0)))
            .collect()
    }

    #[test]
    fn a_clear_consistent_gain_is_improved() {
        let base = jitter(100.0, 10);
        let change = jitter(90.0, 10);
        let c = compare(&base, &change, Better::Lower, 0.1);
        assert_eq!(c.verdict, Verdict::Improved);
        assert_eq!((c.pairs, c.wins), (10, 10));
        assert!((c.gain - 0.1).abs() < 0.01);
    }

    #[test]
    fn a_gain_needs_ten_pairs() {
        let c = compare(&jitter(100.0, 9), &jitter(90.0, 9), Better::Lower, 0.1);
        assert_eq!(c.verdict, Verdict::Unchanged);
    }

    #[test]
    fn a_gain_needs_nine_wins_in_ten() {
        let base = jitter(100.0, 10);
        let mut change = jitter(95.0, 10);
        change[0] = 120.0;
        change[1] = 120.0;
        let c = compare(&base, &change, Better::Lower, 0.1);
        assert_eq!(c.wins, 8);
        assert_eq!(c.verdict, Verdict::Unchanged);
    }

    #[test]
    fn a_gain_must_exceed_the_parent_spread() {
        let base: Vec<f64> = (0..10).map(|i| 90.0 + 2.0 * i as f64).collect();
        let change: Vec<f64> = base.iter().map(|b| b - 1.0).collect();
        let c = compare(&base, &change, Better::Lower, 0.25);
        assert_eq!(c.wins, 10);
        assert_eq!(c.verdict, Verdict::Unchanged);
    }

    #[test]
    fn worse_than_the_bound_is_regressed_for_either_direction() {
        let c = compare(&jitter(100.0, 5), &jitter(115.0, 5), Better::Lower, 0.1);
        assert_eq!(c.verdict, Verdict::Regressed);
        let c = compare(&jitter(100.0, 5), &jitter(85.0, 5), Better::Higher, 0.1);
        assert_eq!(c.verdict, Verdict::Regressed);
        let c = compare(&jitter(100.0, 5), &jitter(105.0, 5), Better::Lower, 0.1);
        assert_eq!(c.verdict, Verdict::Unchanged);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let base = [80.0, 100.0, 120.0, 90.0, 110.0];
        let change = [82.0, 101.0, 118.0, 93.0, 108.0];
        let c = compare(&base, &change, Better::Lower, 0.1);
        assert!(c.base_spread > 0.1);
        assert_eq!(c.verdict, Verdict::Unresolved);
    }

    #[test]
    fn a_wide_spread_is_resolved_when_every_change_run_is_better() {
        let base = [80.0, 100.0, 120.0, 90.0, 110.0];
        let change = [70.0, 72.0, 75.0, 71.0, 74.0];
        let c = compare(&base, &change, Better::Lower, 0.1);
        assert_eq!(c.verdict, Verdict::Unchanged);
    }
}
