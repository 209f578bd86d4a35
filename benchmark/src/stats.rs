//! The benchmark's estimators: the element-wise minimum over repetitions,
//! the percentile rule, and the quartile spread `--selfcheck` reports.

/// One fixed-work slice of a timed phase (one protocol round, or one batch
/// of N operations) as one repetition executed it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Segment {
    /// Wall time of the whole segment, seconds.
    pub secs: f64,
    /// Per-operation latencies inside the segment, microseconds (empty when
    /// the segment is itself the unit, e.g. one round).
    pub samples_us: Vec<f32>,
}

impl Segment {
    /// A segment that is its own unit of work.
    pub fn of(secs: f64) -> Self {
        Segment { secs, samples_us: Vec::new() }
    }
}

/// The noise-proof estimate of a phase: every repetition runs the same
/// segments on identical fresh state, so segment `i` costs the **minimum**
/// of its executions — interference only ever adds time. Returns, per
/// segment, the winning repetition's record.
///
/// Panics if the repetitions disagree on the segment count: the work is
/// fixed, so a mismatch is a determinism bug, not noise.
pub fn elementwise_min(reps: &[Vec<Segment>]) -> Vec<&Segment> {
    let Some(first) = reps.first() else { return Vec::new() };
    for r in reps {
        assert_eq!(r.len(), first.len(), "repetitions must execute identical segments");
    }
    (0..first.len())
        .map(|i| {
            reps.iter()
                .map(|r| &r[i])
                .min_by(|a, b| a.secs.total_cmp(&b.secs))
                .expect("at least one repetition")
        })
        .collect()
}

/// Sum of the winning segments' wall time, seconds.
pub fn min_wall(reps: &[Vec<Segment>]) -> f64 {
    elementwise_min(reps).iter().map(|s| s.secs).sum()
}

/// Per-operation latencies of the winning repetition of every segment.
pub fn winning_samples(reps: &[Vec<Segment>]) -> Vec<f32> {
    elementwise_min(reps).iter().flat_map(|s| s.samples_us.iter().copied()).collect()
}

/// The value at quantile `q` (nearest-rank on the sorted sample).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentiles a sample of `n` supports beyond the median, highest
/// first: a percentile is reported only with at least ten samples above it.
const TAIL_LADDER: [(f64, &str); 4] =
    [(0.9999, "p99.99"), (0.999, "p99.9"), (0.99, "p99"), (0.9, "p90")];

/// A latency distribution reported by the guide's rule: the median, plus
/// the highest percentile that still has at least ten samples beyond it.
#[derive(Clone, Debug, PartialEq)]
pub struct Percentiles {
    /// Sample count (always printed next to the numbers).
    pub n: usize,
    /// The median.
    pub p50: f64,
    /// `(label, value)` of the highest supported tail percentile, if any.
    pub tail: Option<(&'static str, f64)>,
}

/// The label of the highest tail percentile a sample of `n` supports.
pub fn supported_tail(n: usize) -> Option<(f64, &'static str)> {
    TAIL_LADDER.into_iter().find(|(q, _)| {
        let rank = (q * n as f64).ceil() as usize;
        n >= rank && n - rank >= 10
    })
}

/// Applies the percentile rule to a sample (consumed: it is sorted).
pub fn percentiles(mut sample: Vec<f64>) -> Percentiles {
    sample.sort_by(f64::total_cmp);
    let n = sample.len();
    Percentiles {
        n,
        p50: quantile_sorted(&sample, 0.5),
        tail: supported_tail(n).map(|(q, label)| (label, quantile_sorted(&sample, q))),
    }
}

/// Median of a sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(q1, q3)` by the exclusive method — what Python's
/// `statistics.quantiles(values, n=4)` returns, which is what the driver
/// computes spreads from.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(secs: f64, samples: &[f32]) -> Segment {
        Segment { secs, samples_us: samples.to_vec() }
    }

    #[test]
    fn elementwise_min_picks_each_segments_fastest_repetition() {
        let reps = vec![
            vec![seg(3.0, &[30.0]), seg(1.0, &[10.0]), seg(5.0, &[50.0])],
            vec![seg(2.0, &[20.0]), seg(4.0, &[40.0]), seg(6.0, &[60.0])],
            vec![seg(9.0, &[90.0]), seg(9.0, &[90.0]), seg(0.5, &[5.0])],
        ];
        // Plain wall of the best single repetition is 9.0; the estimator
        // composes 2.0 + 1.0 + 0.5 from three different repetitions.
        assert_eq!(min_wall(&reps), 3.5);
        // Latency samples follow the winner of each segment.
        assert_eq!(winning_samples(&reps), vec![20.0, 10.0, 5.0]);
    }

    #[test]
    fn elementwise_min_of_one_repetition_is_that_repetition() {
        let reps = vec![vec![seg(1.5, &[]), seg(2.5, &[])]];
        assert_eq!(min_wall(&reps), 4.0);
        assert!(elementwise_min(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "identical segments")]
    fn mismatched_segment_counts_are_a_determinism_bug() {
        elementwise_min(&[vec![seg(1.0, &[])], vec![seg(1.0, &[]), seg(1.0, &[])]]);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        // p90 of n leaves n - ceil(0.9 n) samples above it.
        assert_eq!(supported_tail(99), None, "99 samples: 9 above p90");
        assert_eq!(supported_tail(100).map(|t| t.1), Some("p90"), "100: exactly 10 above p90");
        assert_eq!(supported_tail(999).map(|t| t.1), Some("p90"));
        assert_eq!(supported_tail(1_000).map(|t| t.1), Some("p99"));
        assert_eq!(supported_tail(10_000).map(|t| t.1), Some("p99.9"));
        assert_eq!(supported_tail(99_999).map(|t| t.1), Some("p99.9"));
        assert_eq!(supported_tail(100_000).map(|t| t.1), Some("p99.99"));
        assert_eq!(supported_tail(5), None);
    }

    #[test]
    fn percentiles_report_median_tail_and_count() {
        let p = percentiles((1..=1000).map(f64::from).collect());
        assert_eq!(p.n, 1000);
        assert_eq!(p.p50, 500.0);
        assert_eq!(p.tail, Some(("p99", 990.0)));
        let small = percentiles(vec![3.0, 1.0, 2.0]);
        assert_eq!((small.n, small.p50, small.tail), (3, 2.0, None));
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        assert_eq!(spread(&v), 1.0);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
    }
}
