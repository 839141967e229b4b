//! Exact sample statistics over raw samples.
//!
//! Every figure the suite and `bench_diff` report comes from here, never
//! from bucketed histograms: a log2 bucket bound (1023, 4095, ...) is not
//! a measurement. Quartiles follow Python's `statistics.quantiles(values,
//! n=4)` (its default "exclusive" method), so a spread computed here
//! matches one recomputed from the result files with Python.

/// Summary of one set of raw samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median (mean of the two middle samples for an even count).
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarises `samples`; `None` when there are none or any is NaN.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let sorted = sorted(samples)?;
        let [q1, median, q3] = quartiles_sorted(&sorted);
        Some(Summary {
            count: sorted.len(),
            min: sorted[0],
            q1,
            median,
            q3,
            max: sorted[sorted.len() - 1],
        })
    }

    /// Distance between the quartiles.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    /// The IQR as a share of the median (0 when the median is 0).
    pub fn relative_iqr(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            self.iqr() / self.median.abs()
        }
    }
}

fn sorted(samples: &[f64]) -> Option<Vec<f64>> {
    if samples.is_empty() || samples.iter().any(|x| x.is_nan()) {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v)
}

/// Median of `samples`; `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    Summary::of(samples).map(|s| s.median)
}

/// Quartiles of sorted, non-empty data, as Python's
/// `statistics.quantiles(data, n=4)` computes them; a single sample is
/// its own quartiles.
fn quartiles_sorted(data: &[f64]) -> [f64; 3] {
    let n = data.len();
    if n == 1 {
        return [data[0]; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Nearest-rank percentile: the smallest sample with at least `p`% of the
/// samples at or below it. `None` when empty or `p` is outside (0, 100].
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let sorted = sorted(samples)?;
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Geometric mean of positive values; `None` when empty or any value is
/// not positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v.is_nan() || v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let s = Summary::of(&[10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.min, s.max, s.count), (1.0, 10.0, 10));
        assert_eq!(s.iqr(), 5.5);
        assert_eq!(s.relative_iqr(), 1.0);

        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 4.0, 3.0, 2.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));

        // statistics.quantiles([3, 7], n=4) == [2.0, 5.0, 8.0]
        let s = Summary::of(&[7.0, 3.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.0, 5.0, 8.0));

        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64], n=4) == [2.0, 8.0, 32.0]
        let s = Summary::of(&[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.0, 8.0, 32.0));
    }

    #[test]
    fn single_sample_and_empty_input() {
        let s = Summary::of(&[4.5]).unwrap();
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.max),
            (4.5, 4.5, 4.5, 4.5, 4.5)
        );
        assert_eq!(Summary::of(&[]), None);
        assert_eq!(Summary::of(&[1.0, f64::NAN]), None);
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[2.0, 1.0, 3.0, 10.0]), Some(2.5));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 99.5), Some(100.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.5), Some(1.0));
        // Five samples: p50 is rank ceil(2.5) = 3, p90 is rank 5.
        let v = [40.0, 10.0, 30.0, 20.0, 50.0];
        assert_eq!(percentile(&v, 50.0), Some(30.0));
        assert_eq!(percentile(&v, 90.0), Some(50.0));
        assert_eq!(percentile(&v, 20.0), Some(10.0));
        assert_eq!(percentile(&v, 0.0), None);
        assert_eq!(percentile(&v, 101.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn geometric_mean() {
        let close = |g: Option<f64>, want: f64| (g.unwrap() - want).abs() < 1e-12;
        assert!(close(geomean(&[2.0, 8.0]), 4.0));
        assert!(close(geomean(&[5.0]), 5.0));
        assert!(close(geomean(&[1.0, 10.0, 100.0]), 10.0));
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }
}
