//! Geofences for incident and tweet filtering.

use crate::point::GeoPoint;

/// A circular geographic fence: all points within `radius_m` meters of
/// `center`.
///
/// Used by the social-network narrowing application (§IV-B) to test whether a
/// tweet "falls within the specified ... location field of interest".
///
/// # Examples
///
/// ```
/// use scgeo::{Geofence, GeoPoint};
///
/// let fence = Geofence::circle(GeoPoint::new(30.45, -91.18), 1_000.0);
/// assert!(fence.contains(GeoPoint::new(30.451, -91.181)));
/// assert!(!fence.contains(GeoPoint::new(30.50, -91.18)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Geofence {
    center: GeoPoint,
    radius_m: f64,
}

impl Geofence {
    /// Creates a circular fence.
    ///
    /// # Panics
    ///
    /// Panics if `radius_m` is not positive.
    pub fn circle(center: GeoPoint, radius_m: f64) -> Self {
        assert!(radius_m > 0.0, "radius must be positive");
        Geofence { center, radius_m }
    }

    /// Whether `p` is inside the fence.
    pub fn contains(&self, p: GeoPoint) -> bool {
        self.center.haversine_m(p) <= self.radius_m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn circle_contains_center() {
        let c = GeoPoint::new(30.45, -91.18);
        let f = Geofence::circle(c, 10.0);
        assert!(f.contains(c));
    }

    #[test]
    fn circle_boundary_behaviour() {
        let c = GeoPoint::new(30.45, -91.18);
        let f = Geofence::circle(c, 1_000.0);
        assert!(f.contains(c.offset_m(0.0, 990.0)));
        assert!(!f.contains(c.offset_m(0.0, 1_050.0)));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn circle_needs_positive_radius() {
        let _ = Geofence::circle(GeoPoint::new(0.0, 0.0), 0.0);
    }
}
