//! Interstate-highway corridors as polylines.
//!
//! The DOTD cameras the paper connects to (§II-A1) are "installed along the
//! major interstate highways in Louisiana". A [`Corridor`] models one such
//! highway segment as a polyline; cameras are then placed at regular or
//! randomized mileposts along it.

use crate::point::GeoPoint;

/// A named polyline highway corridor (e.g. "I-10 through Baton Rouge").
///
/// # Examples
///
/// ```
/// use scgeo::corridor::Corridor;
/// use scgeo::GeoPoint;
///
/// let c = Corridor::new(
///     "I-110",
///     vec![GeoPoint::new(30.44, -91.18), GeoPoint::new(30.52, -91.16)],
/// );
/// assert!(c.length_m() > 8_000.0);
/// let midpoint = c.point_at(c.length_m() / 2.0);
/// assert!(midpoint.lat() > 30.44 && midpoint.lat() < 30.52);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Corridor {
    name: String,
    waypoints: Vec<GeoPoint>,
    cumulative_m: Vec<f64>,
}

impl Corridor {
    /// Creates a corridor from an ordered list of waypoints.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two waypoints are given.
    pub fn new(name: impl Into<String>, waypoints: Vec<GeoPoint>) -> Self {
        assert!(
            waypoints.len() >= 2,
            "a corridor needs at least two waypoints"
        );
        let mut cumulative_m = Vec::with_capacity(waypoints.len());
        let mut total = 0.0;
        cumulative_m.push(0.0);
        for w in waypoints.windows(2) {
            total += w[0].haversine_m(w[1]);
            cumulative_m.push(total);
        }
        Corridor {
            name: name.into(),
            waypoints,
            cumulative_m,
        }
    }

    /// The corridor's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The ordered waypoints.
    pub fn waypoints(&self) -> &[GeoPoint] {
        &self.waypoints
    }

    /// Total polyline length in meters.
    pub fn length_m(&self) -> f64 {
        *self.cumulative_m.last().expect("non-empty by construction")
    }

    /// The point at `distance_m` meters from the start, clamped to the ends.
    pub fn point_at(&self, distance_m: f64) -> GeoPoint {
        let d = distance_m.clamp(0.0, self.length_m());
        // Find the segment containing d.
        let seg = match self.cumulative_m.binary_search_by(|c| c.total_cmp(&d)) {
            Ok(i) => i.min(self.waypoints.len() - 2),
            Err(i) => i.saturating_sub(1).min(self.waypoints.len() - 2),
        };
        let seg_start = self.cumulative_m[seg];
        let seg_len = self.cumulative_m[seg + 1] - seg_start;
        let t = if seg_len > 0.0 {
            (d - seg_start) / seg_len
        } else {
            0.0
        };
        self.waypoints[seg].lerp(self.waypoints[seg + 1], t)
    }

    /// Evenly spaced points along the corridor (including both endpoints).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn sample(&self, n: usize) -> Vec<GeoPoint> {
        assert!(n >= 2, "need at least two sample points");
        let step = self.length_m() / (n - 1) as f64;
        (0..n).map(|i| self.point_at(i as f64 * step)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn i10_stub() -> Corridor {
        Corridor::new(
            "I-10",
            vec![
                GeoPoint::new(30.40, -91.30),
                GeoPoint::new(30.45, -91.18),
                GeoPoint::new(30.47, -91.00),
            ],
        )
    }

    #[test]
    fn length_is_sum_of_segments() {
        let c = i10_stub();
        let w = c.waypoints();
        let manual = w[0].haversine_m(w[1]) + w[1].haversine_m(w[2]);
        assert!((c.length_m() - manual).abs() < 1e-6);
    }

    #[test]
    fn point_at_clamps() {
        let c = i10_stub();
        assert_eq!(c.point_at(-100.0), c.waypoints()[0]);
        assert_eq!(
            c.point_at(c.length_m() + 100.0),
            *c.waypoints().last().unwrap()
        );
    }

    #[test]
    fn point_at_interpolates_monotonically() {
        let c = i10_stub();
        let samples = c.sample(20);
        // Longitude increases monotonically along this eastbound stub.
        for w in samples.windows(2) {
            assert!(w[1].lon() >= w[0].lon() - 1e-9);
        }
    }

    #[test]
    fn sample_endpoints_match() {
        let c = i10_stub();
        let s = c.sample(5);
        assert_eq!(s.len(), 5);
        assert_eq!(s[0], c.waypoints()[0]);
        let last = *s.last().unwrap();
        let end = *c.waypoints().last().unwrap();
        assert!(last.haversine_m(end) < 1.0);
    }

    #[test]
    fn sample_spacing_uniform() {
        let c = i10_stub();
        let s = c.sample(11);
        let expected = c.length_m() / 10.0;
        for w in s.windows(2) {
            let d = w[0].haversine_m(w[1]);
            // Polyline kinks can shorten neighbour distances slightly.
            assert!(d <= expected * 1.01 + 1.0, "spacing {d} vs {expected}");
        }
    }

    #[test]
    #[should_panic(expected = "two waypoints")]
    fn rejects_single_waypoint() {
        let _ = Corridor::new("bad", vec![GeoPoint::new(30.0, -91.0)]);
    }
}
