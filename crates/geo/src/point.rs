//! Coordinates and distances.

use std::fmt;

/// Mean Earth radius in meters (IUGG).
pub(crate) const EARTH_RADIUS_M: f64 = 6_371_008.8;

/// A WGS-84 latitude/longitude point.
///
/// # Examples
///
/// ```
/// use scgeo::GeoPoint;
/// let baton_rouge = GeoPoint::new(30.4515, -91.1871);
/// let new_orleans = GeoPoint::new(29.9511, -90.0715);
/// let km = baton_rouge.haversine_m(new_orleans) / 1000.0;
/// assert!((km - 126.0).abs() < 10.0, "BR to NOLA is ~126 km, got {km}");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoPoint {
    lat: f64,
    lon: f64,
}

impl GeoPoint {
    /// Creates a point.
    ///
    /// # Panics
    ///
    /// Panics if the latitude is outside `[-90, 90]` or the longitude is
    /// outside `[-180, 180]`.
    pub fn new(lat: f64, lon: f64) -> Self {
        assert!(
            (-90.0..=90.0).contains(&lat),
            "latitude out of range: {lat}"
        );
        assert!(
            (-180.0..=180.0).contains(&lon),
            "longitude out of range: {lon}"
        );
        GeoPoint { lat, lon }
    }

    /// Latitude in degrees.
    pub fn lat(&self) -> f64 {
        self.lat
    }

    /// Longitude in degrees.
    pub fn lon(&self) -> f64 {
        self.lon
    }

    /// Great-circle distance to `other` in meters (haversine formula).
    pub fn haversine_m(&self, other: GeoPoint) -> f64 {
        let (lat1, lon1) = (self.lat.to_radians(), self.lon.to_radians());
        let (lat2, lon2) = (other.lat.to_radians(), other.lon.to_radians());
        let dlat = lat2 - lat1;
        let dlon = lon2 - lon1;
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_M * a.sqrt().asin()
    }

    /// Linear interpolation between `self` and `other` at parameter
    /// `t ∈ [0, 1]`. Adequate for the short (< 100 km) corridor segments used
    /// here; not a true geodesic.
    pub fn lerp(&self, other: GeoPoint, t: f64) -> GeoPoint {
        let t = t.clamp(0.0, 1.0);
        GeoPoint {
            lat: self.lat + (other.lat - self.lat) * t,
            lon: self.lon + (other.lon - self.lon) * t,
        }
    }

    /// Returns a point offset by the given meters north and east (small-angle
    /// approximation, fine for city scales).
    pub fn offset_m(&self, north_m: f64, east_m: f64) -> GeoPoint {
        let dlat = north_m / EARTH_RADIUS_M * 180.0 / std::f64::consts::PI;
        let dlon =
            east_m / (EARTH_RADIUS_M * self.lat.to_radians().cos()) * 180.0 / std::f64::consts::PI;
        GeoPoint::new(
            (self.lat + dlat).clamp(-90.0, 90.0),
            (self.lon + dlon).clamp(-180.0, 180.0),
        )
    }
}

impl fmt::Display for GeoPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.4}, {:.4})", self.lat, self.lon)
    }
}

/// An axis-aligned latitude/longitude rectangle.
///
/// # Examples
///
/// ```
/// use scgeo::{BoundingBox, GeoPoint};
/// let corners = [GeoPoint::new(30.0, -90.0), GeoPoint::new(31.0, -92.0)];
/// let bbox = BoundingBox::enclosing(corners).unwrap();
/// assert_eq!(bbox.min(), GeoPoint::new(30.0, -92.0));
/// assert_eq!(bbox.max(), GeoPoint::new(31.0, -90.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundingBox {
    min: GeoPoint,
    max: GeoPoint,
}

impl BoundingBox {
    /// Creates a box from its south-west and north-east corners.
    ///
    /// # Panics
    ///
    /// Panics if `min` is not south-west of (or equal to) `max`.
    fn new(min: GeoPoint, max: GeoPoint) -> Self {
        assert!(
            min.lat() <= max.lat() && min.lon() <= max.lon(),
            "min corner must be south-west of max corner"
        );
        BoundingBox { min, max }
    }

    /// The smallest box containing every point in `points`.
    ///
    /// Returns `None` for an empty iterator.
    pub fn enclosing<I: IntoIterator<Item = GeoPoint>>(points: I) -> Option<Self> {
        let mut iter = points.into_iter();
        let first = iter.next()?;
        let mut min_lat = first.lat();
        let mut max_lat = first.lat();
        let mut min_lon = first.lon();
        let mut max_lon = first.lon();
        for p in iter {
            min_lat = min_lat.min(p.lat());
            max_lat = max_lat.max(p.lat());
            min_lon = min_lon.min(p.lon());
            max_lon = max_lon.max(p.lon());
        }
        Some(BoundingBox::new(
            GeoPoint::new(min_lat, min_lon),
            GeoPoint::new(max_lat, max_lon),
        ))
    }

    /// South-west corner.
    pub fn min(&self) -> GeoPoint {
        self.min
    }

    /// North-east corner.
    pub fn max(&self) -> GeoPoint {
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn haversine_zero_for_same_point() {
        let p = GeoPoint::new(30.45, -91.18);
        assert!(p.haversine_m(p) < 1e-6);
    }

    #[test]
    fn haversine_symmetric() {
        let a = GeoPoint::new(30.45, -91.18);
        let b = GeoPoint::new(29.95, -90.07);
        assert!((a.haversine_m(b) - b.haversine_m(a)).abs() < 1e-6);
    }

    #[test]
    fn haversine_known_distance() {
        // Baton Rouge to Shreveport: roughly 320 km straight line.
        let br = GeoPoint::new(30.4515, -91.1871);
        let shv = GeoPoint::new(32.5252, -93.7502);
        let km = br.haversine_m(shv) / 1000.0;
        assert!((km - 340.0).abs() < 30.0, "got {km}");
    }

    #[test]
    #[should_panic(expected = "latitude out of range")]
    fn rejects_bad_latitude() {
        let _ = GeoPoint::new(95.0, 0.0);
    }

    #[test]
    fn lerp_endpoints() {
        let a = GeoPoint::new(30.0, -91.0);
        let b = GeoPoint::new(31.0, -90.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        let mid = a.lerp(b, 0.5);
        assert!((mid.lat() - 30.5).abs() < 1e-12);
    }

    #[test]
    fn offset_roundtrip_distance() {
        let p = GeoPoint::new(30.45, -91.18);
        let q = p.offset_m(1000.0, 0.0);
        assert!((p.haversine_m(q) - 1000.0).abs() < 5.0);
        let r = p.offset_m(0.0, 1000.0);
        assert!((p.haversine_m(r) - 1000.0).abs() < 5.0);
    }

    #[test]
    fn bbox_enclosing() {
        let pts = vec![
            GeoPoint::new(30.1, -91.5),
            GeoPoint::new(30.9, -90.2),
            GeoPoint::new(30.4, -91.0),
        ];
        let bbox = BoundingBox::enclosing(pts).unwrap();
        assert_eq!(bbox.min(), GeoPoint::new(30.1, -91.5));
        assert_eq!(bbox.max(), GeoPoint::new(30.9, -90.2));
        assert!(BoundingBox::enclosing(std::iter::empty()).is_none());
    }
}
