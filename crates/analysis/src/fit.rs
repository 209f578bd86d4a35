//! Growth-shape fits: the reproduction checks *shapes*, not absolute
//! numbers (README, Interpretations "Shapes") — e.g. Figure 5's connection edges should track
//! `c·n·log²n`, Figure 6's rounds should grow sublinearly, Theorem 4.1's
//! join cost should track `log²n`.

/// Least-squares fit of `y = a·x + b`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinearFit {
    /// Slope `a`.
    pub slope: f64,
    /// Intercept `b`.
    pub intercept: f64,
    /// Coefficient of determination.
    pub r_squared: f64,
}

/// Fits `y = a·x + b` by ordinary least squares. Requires at least two
/// points; degenerate inputs yield a zero fit.
pub fn linear(xs: &[f64], ys: &[f64]) -> LinearFit {
    let n = xs.len().min(ys.len());
    if n < 2 {
        return LinearFit { slope: 0.0, intercept: 0.0, r_squared: 0.0 };
    }
    let nf = n as f64;
    let mx = xs[..n].iter().sum::<f64>() / nf;
    let my = ys[..n].iter().sum::<f64>() / nf;
    let sxy: f64 = xs[..n].iter().zip(&ys[..n]).map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = xs[..n].iter().map(|x| (x - mx) * (x - mx)).sum();
    if sxx == 0.0 {
        return LinearFit { slope: 0.0, intercept: my, r_squared: 0.0 };
    }
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let ss_tot: f64 = ys[..n].iter().map(|y| (y - my) * (y - my)).sum();
    let ss_res: f64 = xs[..n]
        .iter()
        .zip(&ys[..n])
        .map(|(x, y)| {
            let e = y - (slope * x + intercept);
            e * e
        })
        .sum();
    let r_squared = if ss_tot == 0.0 { 1.0 } else { 1.0 - ss_res / ss_tot };
    LinearFit { slope, intercept, r_squared }
}

/// Fits `y` against a transformed x-axis and reports which transform
/// explains the data best — the shape classifier used by EXPERIMENTS.md.
#[derive(Clone, Debug, PartialEq)]
pub struct ShapeReport {
    /// `(label, r²)` per candidate shape, best first.
    pub ranking: Vec<(&'static str, f64)>,
}

/// A labelled x-axis transform tried by [`classify_growth`].
type Transform = (&'static str, fn(f64) -> f64);

/// Candidate growth shapes for `y(n)`: linear, `n log n`, `n log² n`,
/// `log n`, `log² n`, constant-ish (slope ~ 0 on linear).
pub fn classify_growth(ns: &[f64], ys: &[f64]) -> ShapeReport {
    let transforms: [Transform; 5] = [
        ("n", |x| x),
        ("n·log n", |x| x * x.max(2.0).log2()),
        ("n·log²n", |x| {
            let l = x.max(2.0).log2();
            x * l * l
        }),
        ("log n", |x| x.max(2.0).log2()),
        ("log²n", |x| {
            let l = x.max(2.0).log2();
            l * l
        }),
    ];
    let mut ranking: Vec<(&'static str, f64)> = transforms
        .iter()
        .map(|(label, t)| {
            let txs: Vec<f64> = ns.iter().map(|&x| t(x)).collect();
            (*label, linear(&txs, ys).r_squared)
        })
        .collect();
    ranking.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("r² is finite"));
    ShapeReport { ranking }
}

impl ShapeReport {
    /// The best-fitting shape label.
    pub fn best(&self) -> &'static str {
        self.ranking.first().map(|(l, _)| *l).unwrap_or("?")
    }

    /// r² of the named shape, if evaluated.
    pub fn r2_of(&self, label: &str) -> Option<f64> {
        self.ranking.iter().find(|(l, _)| *l == label).map(|(_, r)| *r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_recovered() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [3.0, 5.0, 7.0, 9.0];
        let f = linear(&xs, &ys);
        assert!((f.slope - 2.0).abs() < 1e-12);
        assert!((f.intercept - 1.0).abs() < 1e-12);
        assert!((f.r_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(linear(&[], &[]).slope, 0.0);
        assert_eq!(linear(&[1.0], &[2.0]).slope, 0.0);
        let f = linear(&[2.0, 2.0], &[1.0, 3.0]);
        assert_eq!(f.slope, 0.0);
        assert_eq!(f.intercept, 2.0);
    }

    #[test]
    fn nlogn_data_classified_as_nlogn() {
        let ns: Vec<f64> = (1..=20).map(|k| (k * 10) as f64).collect();
        let ys: Vec<f64> = ns.iter().map(|&n| 3.0 * n * n.log2() + 5.0).collect();
        let report = classify_growth(&ns, &ys);
        assert_eq!(report.best(), "n·log n", "ranking: {:?}", report.ranking);
    }

    #[test]
    fn log_squared_data_classified() {
        let ns: Vec<f64> = (1..=30).map(|k| (k * 8) as f64).collect();
        let ys: Vec<f64> = ns
            .iter()
            .map(|&n| {
                let l = n.log2();
                2.0 * l * l + 1.0
            })
            .collect();
        let report = classify_growth(&ns, &ys);
        assert_eq!(report.best(), "log²n", "ranking: {:?}", report.ranking);
    }

    #[test]
    fn r2_lookup() {
        let ns = [8.0, 16.0, 32.0, 64.0];
        let ys = [8.0, 16.0, 32.0, 64.0];
        let report = classify_growth(&ns, &ys);
        assert!(report.r2_of("n").unwrap() > 0.999);
        assert!(report.r2_of("nonexistent").is_none());
    }
}
