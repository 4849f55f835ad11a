//! Shared summary statistics: the single nearest-rank percentile
//! implementation used across the workspace.
//!
//! Several subsystems previously carried their own percentile math with
//! subtly different index conventions (truncation vs. rounding). This
//! module fixes one convention — **nearest-rank**: the p-th percentile of a
//! sorted sample of n values is the value at index `ceil(p·n) - 1`
//! (clamped) — so p50/p95/p99 agree everywhere, from the fog simulator's
//! latency report to the bench tables.

/// Nearest-rank percentile of an **already sorted** slice.
///
/// `p` is a fraction in `[0, 1]`. Returns `None` on an empty slice.
/// `p = 0` yields the minimum, `p = 1` the maximum, and the result is
/// always an element of the sample (no interpolation), which keeps the
/// statistic exact and deterministic.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    debug_assert!(
        (0.0..=1.0).contains(&p),
        "percentile fraction out of range: {p}"
    );
    let n = sorted.len();
    let rank = (p * n as f64).ceil() as usize;
    let idx = rank.saturating_sub(1).min(n - 1);
    Some(sorted[idx])
}

/// A small always-exact summary of one sample: count, sum, min, max and the
/// standard percentile trio. Used for report structs that quote exact
/// order statistics rather than bucketed approximations.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleSummary {
    /// Number of observations.
    pub count: usize,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Median (nearest-rank p50).
    pub p50: f64,
    /// Nearest-rank p95.
    pub p95: f64,
    /// Nearest-rank p99.
    pub p99: f64,
}

impl SampleSummary {
    /// Summarizes a sample; `None` if it is empty.
    pub fn from_sample(sample: &[f64]) -> Option<Self> {
        if sample.is_empty() {
            return None;
        }
        let mut sorted = sample.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        Some(SampleSummary {
            count: sorted.len(),
            sum: sorted.iter().sum(),
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            p50: percentile_sorted(&sorted, 0.50).expect("non-empty"),
            p95: percentile_sorted(&sorted, 0.95).expect("non-empty"),
            p99: percentile_sorted(&sorted, 0.99).expect("non-empty"),
        })
    }

    /// Arithmetic mean of the sample.
    pub fn mean(&self) -> f64 {
        self.sum / self.count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_none() {
        assert_eq!(percentile_sorted(&[], 0.5), None);
        assert!(SampleSummary::from_sample(&[]).is_none());
    }

    #[test]
    fn nearest_rank_convention() {
        // Classic nearest-rank example: 5 values, p50 → ceil(2.5)=3rd value.
        let v = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile_sorted(&v, 0.50), Some(35.0));
        assert_eq!(percentile_sorted(&v, 0.30), Some(20.0));
        assert_eq!(percentile_sorted(&v, 0.40), Some(20.0));
        assert_eq!(percentile_sorted(&v, 0.0), Some(15.0));
        assert_eq!(percentile_sorted(&v, 1.0), Some(50.0));
    }

    #[test]
    fn single_value() {
        for p in [0.0, 0.5, 0.95, 1.0] {
            assert_eq!(percentile_sorted(&[7.0], p), Some(7.0));
        }
    }

    #[test]
    fn summary_orders_percentiles() {
        let s = SampleSummary::from_sample(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]).unwrap();
        assert_eq!(s.count, 8);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 9.0);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
        assert!((s.mean() - 3.875).abs() < 1e-12);
    }
}
