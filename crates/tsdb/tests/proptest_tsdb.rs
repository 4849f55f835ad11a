//! Property tests for sctsdb: compression must be bit-exact, the query
//! layer must agree with naive recomputation from raw samples on aligned
//! windows, and a range cursor must answer every query exactly as the
//! fully decoded series does.

use proptest::prelude::*;
use sctsdb::{
    increase, last_over_time, max_over_time, quantile_over_time, rate, GorillaEncoder, Series,
    SeriesId,
};
use simclock::SeededRng;

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

/// Strategy: a series built to sit awkwardly on the checkpoint grid —
/// lengths around multiples of 64, runs of one timestamp (a third of the
/// steps do not advance the clock, and it stays stuck for the first
/// `stuck` samples, so runs cross checkpoints), a clock that may start at
/// the epoch, counter resets, and NaN payloads.
fn awkward_series() -> impl Strategy<Value = Vec<(u64, f64)>> {
    let len = prop_oneof![
        Just(0usize),
        Just(1usize),
        Just(63usize),
        Just(64usize),
        Just(65usize),
        Just(3 * 64 + 7),
        0usize..300,
    ];
    (len, 0u64..3, 0usize..140, any::<u64>()).prop_map(|(len, start, stuck, seed)| {
        let mut rng = SeededRng::new(seed);
        let mut next = move || rng.next_u64() >> 11;
        let (mut t, mut counter) = (start * 500, 0.0);
        (0..len)
            .map(|i| {
                match next() % 6 {
                    _ if i < stuck => {}
                    0 | 1 => {}
                    2 => t += 1,
                    3 => t += 1_000,
                    _ => t += next() % 3_000_000,
                }
                let v = match next() % 16 {
                    0 => f64::from_bits(0x7ff8_0000_0000_0000 | next()),
                    1 => {
                        counter = 0.0;
                        counter
                    }
                    _ => {
                        counter += (next() % 50) as f64;
                        counter
                    }
                };
                (t, v)
            })
            .collect()
    })
}

/// Query bounds worth trying against `samples`: the epoch, just before
/// and just after the series, every timestamp next to a checkpoint, and
/// a few seeded points in between.
fn bounds(samples: &[(u64, f64)], picks: &[u64]) -> Vec<u64> {
    let mut b = vec![0, 1];
    if let (Some(first), Some(last)) = (samples.first(), samples.last()) {
        b.extend([first.0.saturating_sub(1), first.0, last.0, last.0 + 1]);
        for i in (63..samples.len()).step_by(64) {
            let around = &samples[i - 1..(i + 3).min(samples.len())];
            b.extend(
                around
                    .iter()
                    .flat_map(|&(t, _)| [t.saturating_sub(1), t, t + 1]),
            );
        }
        b.extend(picks.iter().map(|p| first.0 + p % (last.0 - first.0 + 2)));
    }
    b.sort_unstable();
    b.dedup();
    b
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The full decode is the slow, obvious model: over any `(from, to]`
    /// — from the epoch, ending before the first sample, starting past
    /// the last, inverted — every query function reads the same bits
    /// from a range cursor as from `samples()`.
    #[test]
    fn cursor_queries_match_the_full_decode(
        samples in awkward_series(),
        picks in proptest::collection::vec(any::<u64>(), 4),
        q in 0.01f64..1.0,
    ) {
        let mut series = Series::new(SeriesId::new("s"));
        for &(t, v) in &samples {
            series.push(t, v).expect("sorted by construction");
        }
        let all = series.samples();
        prop_assert_eq!(all.len(), samples.len());
        let bits = |v: Option<f64>| v.map(f64::to_bits);
        let bounds = bounds(&samples, &picks);
        for &from in &bounds {
            for &to in &bounds {
                let cur = || series.range(from, to);
                // A cursor ends with the last sample at or before `to`.
                prop_assert!(cur().all(|(t, _)| t <= to));
                prop_assert_eq!(increase(cur(), from, to).to_bits(), increase(&all, from, to).to_bits());
                prop_assert_eq!(rate(cur(), from, to).to_bits(), rate(&all, from, to).to_bits());
                prop_assert_eq!(bits(max_over_time(cur(), from, to)), bits(max_over_time(&all, from, to)));
                prop_assert_eq!(bits(last_over_time(cur(), from, to)), bits(last_over_time(&all, from, to)));
                prop_assert_eq!(
                    bits(quantile_over_time(cur(), from, to, q)),
                    bits(quantile_over_time(&all, from, to, q))
                );
            }
        }
    }

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
                prop_assert_eq!(max_over_time(&samples, from, to), None);
                continue;
            }
            let mut sorted = want.clone();
            sorted.sort_by(f64::total_cmp);
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            prop_assert_eq!(quant, Some(sorted[rank - 1]));
            prop_assert_eq!(max_over_time(&samples, from, to), Some(sorted[sorted.len() - 1]));
            prop_assert_eq!(last_over_time(&samples, from, to), want.last().copied());
        }
    }
}
