//! Geofences for incident and tweet filtering.

use serde::{Deserialize, Serialize};

use crate::point::GeoPoint;

/// A geographic fence: either a circle or a simple (non-self-intersecting)
/// polygon.
///
/// Used by the social-network narrowing application (§IV-B) to test whether a
/// tweet "falls within the specified ... location field of interest", and by
/// the camera applications to bind incidents to districts.
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Geofence {
    /// All points within `radius_m` meters of `center`.
    Circle {
        /// Circle center.
        center: GeoPoint,
        /// Radius in meters.
        radius_m: f64,
    },
    /// All points inside the polygon given by `vertices` (implicitly closed).
    Polygon {
        /// Polygon vertices in order; the last edge connects back to the first.
        vertices: Vec<GeoPoint>,
    },
}

impl Geofence {
    /// Creates a circular fence.
    ///
    /// # Panics
    ///
    /// Panics if `radius_m` is not positive.
    pub fn circle(center: GeoPoint, radius_m: f64) -> Self {
        assert!(radius_m > 0.0, "radius must be positive");
        Geofence::Circle { center, radius_m }
    }

    /// Whether `p` is inside the fence.
    pub fn contains(&self, p: GeoPoint) -> bool {
        match self {
            Geofence::Circle { center, radius_m } => center.haversine_m(p) <= *radius_m,
            Geofence::Polygon { vertices } => point_in_polygon(p, vertices),
        }
    }
}

/// Ray-casting point-in-polygon on lat/lon treated as planar coordinates
/// (fine at city scale).
fn point_in_polygon(p: GeoPoint, vertices: &[GeoPoint]) -> bool {
    let (x, y) = (p.lon(), p.lat());
    let mut inside = false;
    let n = vertices.len();
    let mut j = n - 1;
    for i in 0..n {
        let (xi, yi) = (vertices[i].lon(), vertices[i].lat());
        let (xj, yj) = (vertices[j].lon(), vertices[j].lat());
        if ((yi > y) != (yj > y)) && (x < (xj - xi) * (y - yi) / (yj - yi) + xi) {
            inside = !inside;
        }
        j = i;
    }
    inside
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square() -> Geofence {
        Geofence::Polygon {
            vertices: vec![
                GeoPoint::new(30.0, -92.0),
                GeoPoint::new(30.0, -91.0),
                GeoPoint::new(31.0, -91.0),
                GeoPoint::new(31.0, -92.0),
            ],
        }
    }

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
    fn polygon_inside_outside() {
        let f = square();
        assert!(f.contains(GeoPoint::new(30.5, -91.5)));
        assert!(!f.contains(GeoPoint::new(29.5, -91.5)));
        assert!(!f.contains(GeoPoint::new(30.5, -90.5)));
    }

    #[test]
    fn polygon_concave() {
        // An L-shape; the notch must be outside.
        let f = Geofence::Polygon {
            vertices: vec![
                GeoPoint::new(0.0, 0.0),
                GeoPoint::new(0.0, 2.0),
                GeoPoint::new(1.0, 2.0),
                GeoPoint::new(1.0, 1.0),
                GeoPoint::new(2.0, 1.0),
                GeoPoint::new(2.0, 0.0),
            ],
        };
        assert!(f.contains(GeoPoint::new(0.5, 0.5)));
        assert!(f.contains(GeoPoint::new(0.5, 1.5)));
        assert!(f.contains(GeoPoint::new(1.5, 0.5)));
        assert!(!f.contains(GeoPoint::new(1.5, 1.5)), "the notch is outside");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn circle_needs_positive_radius() {
        let _ = Geofence::circle(GeoPoint::new(0.0, 0.0), 0.0);
    }
}
