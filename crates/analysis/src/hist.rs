//! Fixed-width histograms over integer samples (virtual-time latencies,
//! hop counts), with quantile estimates and an ASCII bar rendering for the
//! experiment binaries.

/// A histogram over `u64` samples with `buckets` fixed-width bins; bucket
/// `i` covers `[i*width, (i+1)*width)` and everything at or beyond the last
/// edge is clamped into the final bucket (reported by
/// [`Histogram::clamped`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    width: u64,
    counts: Vec<u64>,
    clamped: u64,
    total: u64,
    sum: u128,
    max: u64,
}

impl Histogram {
    /// An empty histogram. `width` is clamped to at least 1, `buckets` to at
    /// least 2.
    pub fn new(width: u64, buckets: usize) -> Self {
        Histogram {
            width: width.max(1),
            counts: vec![0; buckets.max(2)],
            clamped: 0,
            total: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, x: u64) {
        let idx = (x / self.width) as usize;
        if idx >= self.counts.len() {
            self.clamped += 1;
            *self.counts.last_mut().expect(">= 2 buckets") += 1;
        } else {
            self.counts[idx] += 1;
        }
        self.total += 1;
        self.sum += x as u128;
        self.max = self.max.max(x);
    }

    /// Records every sample of an iterator.
    pub fn record_all(&mut self, xs: impl IntoIterator<Item = u64>) {
        for x in xs {
            self.record(x);
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Samples that fell past the last bucket edge (clamped into it).
    pub fn clamped(&self) -> u64 {
        self.clamped
    }

    /// Exact mean of the recorded samples (`0` when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Exact maximum recorded sample (`0` when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile estimated at bucket resolution: the inclusive upper
    /// edge of the first bucket at which the cumulative count reaches
    /// `ceil(q * total)`. The true max is returned for the last bucket (it
    /// is tracked exactly), `0` when empty. `q` is clamped to `[0,1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let need = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut acc = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= need {
                return if i + 1 == self.counts.len() {
                    self.max
                } else {
                    ((i as u64 + 1) * self.width).saturating_sub(1)
                };
            }
        }
        self.max
    }

    /// Renders non-empty buckets as ASCII bars, `bar_width` columns at full
    /// scale. Empty histograms render to an empty string.
    pub fn render(&self, bar_width: usize) -> String {
        if self.total == 0 {
            return String::new();
        }
        let bar_width = bar_width.clamp(8, 120);
        let peak = self.counts.iter().copied().max().unwrap_or(1).max(1);
        let mut out = String::new();
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let lo = i as u64 * self.width;
            let hi = (i as u64 + 1) * self.width - 1;
            let bar = "#".repeat(((c as f64 / peak as f64) * bar_width as f64).ceil() as usize);
            out.push_str(&format!("{lo:>8}..{hi:<8} {c:>7} {bar}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_buckets() {
        let mut h = Histogram::new(10, 4);
        h.record_all([0, 5, 9, 10, 25, 39]);
        assert_eq!(h.count(), 6);
        assert_eq!(h.counts, [3, 1, 1, 1]);
        assert_eq!(h.clamped(), 0);
        assert_eq!(h.max(), 39);
        assert!((h.mean() - 88.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn clamps_overflow_into_last_bucket() {
        let mut h = Histogram::new(10, 3);
        h.record_all([5, 100, 1_000]);
        assert_eq!(h.counts, [1, 0, 2]);
        assert_eq!(h.clamped(), 2);
        assert_eq!(h.max(), 1_000);
    }

    #[test]
    fn quantiles_at_bucket_resolution() {
        let mut h = Histogram::new(10, 10);
        // 90 samples in [0,10), 10 in [50,60)
        for _ in 0..90 {
            h.record(3);
        }
        for _ in 0..10 {
            h.record(55);
        }
        assert_eq!(h.quantile(0.5), 9); // inside the first bucket
        assert_eq!(h.quantile(0.9), 9);
        assert_eq!(h.quantile(0.99), 59);
        assert_eq!(h.quantile(1.0), 59);
        assert_eq!(h.quantile(0.0), 9, "q=0 still needs one sample");
    }

    #[test]
    fn last_bucket_quantile_is_exact_max() {
        let mut h = Histogram::new(10, 2);
        h.record_all([1, 15, 999]);
        assert_eq!(h.quantile(1.0), 999);
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::new(10, 4);
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.render(40).is_empty());
    }

    #[test]
    fn render_shows_nonempty_buckets() {
        let mut h = Histogram::new(100, 4);
        h.record_all([10, 20, 150]);
        let s = h.render(20);
        assert!(s.contains('#'));
        assert_eq!(s.lines().count(), 2, "two non-empty buckets");
    }
}
