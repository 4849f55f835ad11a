//! The query layer: counter and gauge range functions and quantiles.
//!
//! # Range conventions
//!
//! All ranges are `(from, to]` in microseconds, Prometheus-style: a
//! sample stamped exactly at a window's close belongs to that window, so
//! adjacent windows never double-count. Two deliberate refinements keep
//! the math *exact* rather than extrapolated:
//!
//! - **Counters** ([`increase`], [`rate`]): the baseline is the last
//!   sample at or before `from`; the increase is the sum of positive
//!   deltas (a drop is a counter reset and contributes the new value).
//!   No interpolation, ever — on boundary-aligned samples the result is
//!   the exact integer difference.
//! - **Values** ([`max_over_time`], [`last_over_time`],
//!   [`quantile_over_time`]): samples with
//!   `from < t ≤ to` — except that a range starting at the epoch also
//!   includes `t = 0`, since no sample can precede `SimTime::ZERO`.
//!
//! [`quantile_over_time`] uses the same nearest-rank definition as
//! [`sctelemetry::percentile_sorted`], so a quantile computed here is
//! bit-identical to one computed from the raw sample vector.
//!
//! # Inputs
//!
//! Every function takes its samples as "`(t_us, v)` in time order" —
//! a decoded slice (`&db.samples(&id)`) or a lazy
//! [`crate::SampleCursor`] (`db.range(&id, from, to)`) alike — makes one
//! pass, and stops at the first sample past `to`. Samples before the
//! range are skipped, so a cursor may start early.

use std::borrow::Borrow;

use sctelemetry::percentile_sorted;

/// Whether `t` falls in the value-range `(from, to]` (epoch included
/// when `from == 0`).
#[inline]
fn in_range(t: u64, from_us: u64, to_us: u64) -> bool {
    (t > from_us || (from_us == 0 && t == 0)) && t <= to_us
}

/// `samples` by value, up to the last one at or before `to_us`.
fn until(
    samples: impl IntoIterator<Item: Borrow<(u64, f64)>>,
    to_us: u64,
) -> impl Iterator<Item = (u64, f64)> {
    samples
        .into_iter()
        .map(|s| *Borrow::<(u64, f64)>::borrow(&s))
        .take_while(move |&(t, _)| t <= to_us)
}

/// Counter increase over `(from, to]`: exact sum of positive deltas,
/// with drops treated as counter resets.
pub fn increase(
    samples: impl IntoIterator<Item: Borrow<(u64, f64)>>,
    from_us: u64,
    to_us: u64,
) -> f64 {
    // The baseline is the last sample at or before `from`.
    let mut prev = None;
    let mut acc = 0.0;
    for (t, v) in until(samples, to_us) {
        if t > from_us {
            match prev {
                Some(p) if v >= p => acc += v - p,
                // Reset (or first sight of the counter): the new value is
                // all increase.
                _ => acc += v,
            }
        }
        prev = Some(v);
    }
    acc
}

/// Per-second rate over `(from, to]`: [`increase`] divided by the range
/// width in seconds (0 for an empty range).
pub fn rate(samples: impl IntoIterator<Item: Borrow<(u64, f64)>>, from_us: u64, to_us: u64) -> f64 {
    let width_s = to_us.saturating_sub(from_us) as f64 / 1e6;
    if width_s <= 0.0 {
        return 0.0;
    }
    increase(samples, from_us, to_us) / width_s
}

/// The values of `samples` in `(from, to]`.
fn values_in(
    samples: impl IntoIterator<Item: Borrow<(u64, f64)>>,
    from_us: u64,
    to_us: u64,
) -> impl Iterator<Item = f64> {
    until(samples, to_us)
        .filter(move |&(t, _)| in_range(t, from_us, to_us))
        .map(|(_, v)| v)
}

/// Largest value in `(from, to]`; `None` when the range holds no sample.
pub fn max_over_time(
    samples: impl IntoIterator<Item: Borrow<(u64, f64)>>,
    from_us: u64,
    to_us: u64,
) -> Option<f64> {
    let mut values = values_in(samples, from_us, to_us).peekable();
    values.peek()?;
    Some(values.fold(f64::NEG_INFINITY, f64::max))
}

/// Last value in `(from, to]`; `None` when the range holds no sample.
pub fn last_over_time(
    samples: impl IntoIterator<Item: Borrow<(u64, f64)>>,
    from_us: u64,
    to_us: u64,
) -> Option<f64> {
    values_in(samples, from_us, to_us).last()
}

/// Nearest-rank quantile of the values in `(from, to]`, identical to
/// [`sctelemetry::percentile_sorted`] over the same values.
pub fn quantile_over_time(
    samples: impl IntoIterator<Item: Borrow<(u64, f64)>>,
    from_us: u64,
    to_us: u64,
    q: f64,
) -> Option<f64> {
    quantile_in(samples, from_us, to_us, q, &mut Vec::new())
}

/// [`quantile_over_time`], sorting in `values`, a buffer the caller keeps.
pub(crate) fn quantile_in(
    samples: impl IntoIterator<Item: Borrow<(u64, f64)>>,
    from_us: u64,
    to_us: u64,
    q: f64,
    values: &mut Vec<f64>,
) -> Option<f64> {
    values.clear();
    values.extend(values_in(samples, from_us, to_us));
    values.sort_by(f64::total_cmp);
    percentile_sorted(values, q)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter() -> Vec<(u64, f64)> {
        // Cumulative counter sampled each second, reset at t = 4 s.
        vec![
            (0, 0.0),
            (1_000_000, 10.0),
            (2_000_000, 25.0),
            (3_000_000, 25.0),
            (4_000_000, 5.0),
            (5_000_000, 12.0),
        ]
    }

    #[test]
    fn increase_is_exact_on_boundaries() {
        let c = counter();
        assert_eq!(increase(&c, 0, 2_000_000), 25.0);
        assert_eq!(increase(&c, 2_000_000, 3_000_000), 0.0);
        // Reset: 25 → 5 counts 5 new units, then +7.
        assert_eq!(increase(&c, 3_000_000, 5_000_000), 12.0);
        assert_eq!(increase(&c, 0, 5_000_000), 37.0);
    }

    #[test]
    fn rate_divides_by_range_seconds() {
        let c = counter();
        assert_eq!(rate(&c, 0, 2_000_000), 12.5);
        assert_eq!(rate(&c, 0, 0), 0.0);
    }

    #[test]
    fn range_queries_read_max_and_last() {
        let s = vec![(0, 4.0), (1_000_000, 6.0), (2_000_000, 2.0)];
        assert_eq!(max_over_time(&s, 0, 2_000_000), Some(6.0));
        assert_eq!(last_over_time(&s, 0, 2_000_000), Some(2.0));
        // (from, to]: the epoch sample is excluded for from > 0…
        assert_eq!(max_over_time(&s, 1_000_000, 2_000_000), Some(2.0));
        // …and an empty range is None, not 0.
        assert_eq!(max_over_time(&s, 2_000_000, 3_000_000), None);
        assert_eq!(last_over_time(&s, 2_000_000, 3_000_000), None);
    }

    #[test]
    fn quantile_matches_percentile_sorted() {
        let s: Vec<(u64, f64)> = (0..100).map(|i| (i, (i as f64) * 0.5)).collect();
        let mut values: Vec<f64> = s.iter().map(|&(_, v)| v).collect();
        values.sort_by(f64::total_cmp);
        assert_eq!(
            quantile_over_time(&s, 0, 99, 0.99),
            percentile_sorted(&values, 0.99)
        );
    }
}
