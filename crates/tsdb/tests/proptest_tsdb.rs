//! Property tests for sctsdb: compression must be bit-exact, and the
//! query layer must agree with naive recomputation from raw samples on
//! aligned windows.

use proptest::prelude::*;
use sctsdb::{quantile_over_time, range_agg, GorillaEncoder, RangeAgg};

/// Strategy: sorted sample streams with irregular cadence and values
/// spanning sign flips, zeros, and repeats — the XOR encoder's worst
/// terrain.
fn stream() -> impl Strategy<Value = Vec<(u64, f64)>> {
    proptest::collection::vec((0u64..5_000_000u64, -1e9f64..1e9), 1..200).prop_map(|mut raw| {
        let mut t = 0u64;
        for (dt, _) in raw.iter_mut() {
            t += *dt;
            *dt = t;
        }
        raw
    })
}

/// Naive reference: values in `(from, to]` with the epoch included when
/// `from == 0` (the query layer's documented range convention).
fn values_in(samples: &[(u64, f64)], from: u64, to: u64) -> Vec<f64> {
    samples
        .iter()
        .filter(|&&(t, _)| (t > from || (from == 0 && t == 0)) && t <= to)
        .map(|&(_, v)| v)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Compressed round-trip is bit-exact: every timestamp equal, every
    /// value equal through `f64::to_bits`.
    #[test]
    fn gorilla_round_trip_is_bit_exact(samples in stream()) {
        let mut enc = GorillaEncoder::new();
        for &(t, v) in &samples {
            enc.push(t, v).expect("sorted by construction");
        }
        let got = enc.decode_all();
        prop_assert_eq!(got.len(), samples.len());
        for (g, s) in got.iter().zip(&samples) {
            prop_assert_eq!(g.0, s.0);
            prop_assert_eq!(g.1.to_bits(), s.1.to_bits());
        }
    }

    /// Special float values survive compression byte-for-byte, NaN
    /// payloads included.
    #[test]
    fn gorilla_round_trips_special_values(seed in 0u64..1_000) {
        let specials = [
            0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::MAX, f64::MIN_POSITIVE,
            f64::from_bits(0x7ff8_0000_0000_0000 | seed),
        ];
        let mut enc = GorillaEncoder::new();
        for (i, &v) in specials.iter().enumerate() {
            enc.push(seed + i as u64 * 17, v).unwrap();
        }
        for (g, &want) in enc.decode_all().iter().zip(&specials) {
            prop_assert_eq!(g.1.to_bits(), want.to_bits());
        }
    }

    /// `quantile_over_time` and the range aggregations agree with naive
    /// recomputation over the same aligned windows.
    #[test]
    fn range_queries_match_naive_recomputation(
        samples in stream(),
        width_s in 1u64..30,
        q in 0.01f64..1.0,
    ) {
        let width = width_s * 1_000_000;
        let last_t = samples.last().unwrap().0;
        for w in 0..(last_t / width + 1) {
            let (from, to) = (w * width, (w + 1) * width);
            let want = values_in(&samples, from, to);
            let quant = quantile_over_time(&samples, from, to, q);
            if want.is_empty() {
                prop_assert_eq!(quant, None);
                prop_assert_eq!(range_agg(&samples, from, to, RangeAgg::Sum), None);
                continue;
            }
            let mut sorted = want.clone();
            sorted.sort_by(f64::total_cmp);
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            prop_assert_eq!(quant, Some(sorted[rank - 1]));
            let mut naive_sum = 0.0;
            for v in &want {
                naive_sum += v;
            }
            prop_assert_eq!(
                range_agg(&samples, from, to, RangeAgg::Sum).unwrap().to_bits(),
                naive_sum.to_bits()
            );
            prop_assert_eq!(
                range_agg(&samples, from, to, RangeAgg::Avg).unwrap().to_bits(),
                (naive_sum / want.len() as f64).to_bits()
            );
            prop_assert_eq!(range_agg(&samples, from, to, RangeAgg::Count), Some(want.len() as f64));
            prop_assert_eq!(range_agg(&samples, from, to, RangeAgg::Last), want.last().copied());
        }
    }
}
