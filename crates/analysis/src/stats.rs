//! Summary statistics over trial results.

/// Mean/deviation/order statistics of a sample.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Stats {
    /// Sample size.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (`n-1` denominator; `0` for `n <= 1`).
    pub std_dev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Median (midpoint-interpolated for even sizes).
    pub median: f64,
}

impl Stats {
    /// Computes statistics over `xs`. Empty input yields all-zero stats.
    pub fn from_slice(xs: &[f64]) -> Self {
        let n = xs.len();
        if n == 0 {
            return Stats::default();
        }
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let mut sorted: Vec<f64> = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
        let median =
            if n % 2 == 1 { sorted[n / 2] } else { (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0 };
        Stats { n, mean, std_dev: var.sqrt(), min: sorted[0], max: sorted[n - 1], median }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_sample() {
        let s = Stats::from_slice(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.n, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // sample std dev of this classic sample is ~2.138
        assert!((s.std_dev - 2.13809).abs() < 1e-4);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert!((s.median - 4.5).abs() < 1e-12);
    }

    #[test]
    fn singleton_and_empty() {
        let s = Stats::from_slice(&[3.5]);
        assert_eq!(s.mean, 3.5);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.median, 3.5);
        assert_eq!(Stats::from_slice(&[]), Stats::default());
    }
}
