//! Property tests for the metrics layer: whatever is recorded must be
//! reported back faithfully, and percentiles must be ordered.

use proptest::prelude::*;
use sctelemetry::{percentile_sorted, Histogram, SampleSummary, Telemetry};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Recorded counter adds and histogram observations come back with
    /// exactly the recorded count and sum.
    #[test]
    fn recorded_vs_reported_counts(
        adds in proptest::collection::vec(0u64..1_000, 1..40),
        obs in proptest::collection::vec(1e-6f64..1e3, 1..200),
    ) {
        let t = Telemetry::shared();
        let h = t.handle();
        for &n in &adds {
            h.counter_add("p_ops_total", "ops", n);
        }
        for &v in &obs {
            h.observe("p_lat_seconds", "lat", v);
            h.observe_exact("p_exact_seconds", "exact lat", v);
        }

        let reg = t.registry();
        let total: u64 = adds.iter().sum();
        prop_assert_eq!(reg.get("p_ops_total").unwrap().as_counter().unwrap().get(), total);

        for name in ["p_lat_seconds", "p_exact_seconds"] {
            let s = reg.get(name).unwrap().as_histogram().unwrap().snapshot();
            prop_assert_eq!(s.count, obs.len() as u64);
            let sum: f64 = obs.iter().sum();
            prop_assert!((s.sum - sum).abs() <= sum.abs() * 1e-9 + 1e-9);
        }
    }

    /// p50 ≤ p95 ≤ p99 ≤ max in both histogram modes and in the shared
    /// exact summary, for arbitrary inputs.
    #[test]
    fn percentiles_are_monotone(
        obs in proptest::collection::vec(1e-9f64..1e6, 1..300),
    ) {
        let bucketed = Histogram::bucketed();
        let exact = Histogram::exact();
        for &v in &obs {
            bucketed.observe(v);
            exact.observe(v);
        }
        for h in [&bucketed, &exact] {
            let s = h.snapshot();
            let p50 = s.percentile(0.50).unwrap();
            let p95 = s.percentile(0.95).unwrap();
            let p99 = s.percentile(0.99).unwrap();
            prop_assert!(p50 <= p95 && p95 <= p99 && p99 <= s.max,
                "{p50} {p95} {p99} max={}", s.max);
        }

        let sum = SampleSummary::from_sample(&obs).unwrap();
        prop_assert!(sum.p50 <= sum.p95 && sum.p95 <= sum.p99 && sum.p99 <= sum.max);
        prop_assert_eq!(sum.count, obs.len());
    }

    /// A percentile read in place is the snapshot's, in both modes (values
    /// past 1.8e6 land in the bucketed layout's overflow bucket), and a
    /// reset histogram reads as a new one.
    #[test]
    fn an_in_place_percentile_reads_as_the_snapshot(
        obs in proptest::collection::vec(1e-9f64..1e7, 1..200),
        later in proptest::collection::vec(1e-9f64..1e7, 1..20),
        pct in 0u32..=100,
    ) {
        let pct = f64::from(pct) / 100.0;
        for h in [Histogram::bucketed(), Histogram::exact()] {
            for &v in &obs {
                h.observe(v);
            }
            prop_assert_eq!(h.percentile(pct), h.snapshot().percentile(pct));
            h.reset();
            prop_assert_eq!((h.count(), h.sum(), h.percentile(pct)), (0, 0.0, None));
            for &v in &later {
                h.observe(v);
            }
            let s = h.snapshot();
            prop_assert_eq!(h.percentile(pct), s.percentile(pct));
            prop_assert_eq!(s.min, later.iter().copied().fold(f64::MAX, f64::min));
            prop_assert_eq!(s.max, later.iter().copied().fold(f64::MIN, f64::max));
        }
    }

    /// The bucketed percentile brackets the exact nearest-rank value from
    /// below-by-one-bucket and never under-reports it.
    #[test]
    fn bucketed_percentile_dominates_exact(
        obs in proptest::collection::vec(1e-6f64..1e3, 1..200),
        pct in 0.01f64..1.0,
    ) {
        let h = Histogram::bucketed();
        for &v in &obs {
            h.observe(v);
        }
        let mut sorted = obs.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let truth = percentile_sorted(&sorted, pct).unwrap();
        let approx = h.snapshot().percentile(pct).unwrap();
        prop_assert!(approx >= truth - 1e-12, "approx {approx} < truth {truth}");
    }
}
