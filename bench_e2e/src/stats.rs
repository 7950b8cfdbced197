//! Order statistics for a handful of samples.
//!
//! A run has seven to a dozen sessions, which supports no percentile above
//! the median, so a timing is reported as median, quartiles, extremes and
//! the sample count — nothing else.

use crate::json::Json;

/// Median, quartiles and extremes of one metric's samples.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Summarises `samples`; panics on an empty slice (every caller has
    /// run at least one session).
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "no samples to summarise");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Self {
            n: sorted.len(),
            min: sorted[0],
            q1: quantile(&sorted, 0.25),
            median: quantile(&sorted, 0.5),
            q3: quantile(&sorted, 0.75),
            max: sorted[sorted.len() - 1],
        }
    }

    /// Distance between the quartiles as a share of the median.
    pub fn iqr_share(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("median", Json::Num(self.median)),
            ("q1", Json::Num(self.q1)),
            ("q3", Json::Num(self.q3)),
            ("min", Json::Num(self.min)),
            ("max", Json::Num(self.max)),
            ("n", Json::Num(self.n as f64)),
        ])
    }
}

/// The `q` quantile of ascending `sorted` by the rule Python's
/// `statistics.quantiles` uses by default (position `q * (n + 1)`,
/// linear interpolation, clamped to the extremes), so the quartiles
/// printed here are the ones the acceptance check computes.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    let pos = q * (n as f64 + 1.0);
    let lo = (pos.floor() as usize).clamp(1, n);
    let hi = (lo + 1).min(n);
    let frac = (pos - lo as f64).clamp(0.0, 1.0);
    sorted[lo - 1] + (sorted[hi - 1] - sorted[lo - 1]) * frac
}

/// Median of `samples` (see [`Summary::of`]).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_count_quartiles_match_python() {
        // statistics.quantiles([1..9], n=4) == [2.5, 5.0, 7.5]
        let s = Summary::of(&[9.0, 1.0, 8.0, 2.0, 7.0, 3.0, 6.0, 4.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.5, 5.0, 7.5));
        assert_eq!((s.min, s.max, s.n), (1.0, 9.0, 9));
    }

    #[test]
    fn even_count_quartiles_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert!((s.iqr_share() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tiny_samples_clamp_to_extremes() {
        let one = Summary::of(&[3.0]);
        assert_eq!((one.q1, one.median, one.q3), (3.0, 3.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]; clamped
        // here because a quartile outside the data is not a measurement.
        let two = Summary::of(&[2.0, 1.0]);
        assert_eq!((two.q1, two.median, two.q3), (1.0, 1.5, 2.0));
    }
}
