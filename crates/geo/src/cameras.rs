//! The DOTD-style traffic camera registry (paper §II-A1, Fig. 2).
//!
//! The paper: *"By connecting to the DOTD network, our cyberinfrastructure can
//! access more than 200 cameras, which constantly provide live feeds from the
//! highways across the state of Louisiana"*, covering "New Orleans, Baton
//! Rouge, Houma, Shreveport, Lafayette, North Shore, Lake Charles, Monroe, and
//! Alexandria". This module builds a synthetic registry with exactly that
//! shape: nine city corridors, >200 cameras, each camera addressable and
//! spatially indexed.

use serde::{Deserialize, Serialize};
use simclock::SeededRng;

use crate::corridor::Corridor;
use crate::grid::GridIndex;
use crate::point::{BoundingBox, GeoPoint};

/// Identifier of a camera in a [`CameraNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CameraId(pub u32);

impl std::fmt::Display for CameraId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cam-{:04}", self.0)
    }
}

/// A single roadside traffic/surveillance camera.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Camera {
    /// Stable identifier.
    pub id: CameraId,
    /// City whose corridor the camera sits on.
    pub city: String,
    /// Highway corridor name (e.g. "I-10").
    pub corridor: String,
    /// Camera position.
    pub position: GeoPoint,
    /// Nominal frames per second of the live feed.
    pub fps: u32,
    /// Horizontal field of view radius in meters covered by the camera.
    pub coverage_m: f64,
}

/// The registry of all cameras, with a spatial index for nearest-camera and
/// coverage queries.
///
/// # Examples
///
/// ```
/// use scgeo::cameras::CameraNetwork;
/// use scgeo::GeoPoint;
///
/// let net = CameraNetwork::louisiana_default(7);
/// let nearest = net.nearest(GeoPoint::new(30.4515, -91.1871), 3);
/// assert_eq!(nearest.len(), 3);
/// assert_eq!(nearest[0].city, "Baton Rouge");
/// ```
#[derive(Debug, Clone)]
pub struct CameraNetwork {
    cameras: Vec<Camera>,
    index: GridIndex<CameraId>,
    cities: Vec<String>,
}

/// Per-city camera statistics produced by [`CameraNetwork::coverage_report`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CityCoverage {
    /// City name.
    pub city: String,
    /// Number of cameras in this city.
    pub cameras: usize,
    /// Total corridor length instrumented, in kilometers.
    pub corridor_km: f64,
    /// Mean spacing between consecutive cameras, in meters.
    pub mean_spacing_m: f64,
}

/// The nine Louisiana cities named in §II-A1 with approximate anchor
/// coordinates and the interstates that pass through them.
fn louisiana_cities() -> Vec<(&'static str, GeoPoint, &'static str, f64)> {
    // (city, anchor, corridor name, corridor length in km)
    vec![
        (
            "New Orleans",
            GeoPoint::new(29.9511, -90.0715),
            "I-10",
            40.0,
        ),
        (
            "Baton Rouge",
            GeoPoint::new(30.4515, -91.1871),
            "I-10/I-110",
            45.0,
        ),
        ("Houma", GeoPoint::new(29.5958, -90.7195), "US-90", 20.0),
        ("Shreveport", GeoPoint::new(32.5252, -93.7502), "I-20", 35.0),
        ("Lafayette", GeoPoint::new(30.2241, -92.0198), "I-10", 30.0),
        (
            "North Shore",
            GeoPoint::new(30.4755, -90.1009),
            "I-12",
            30.0,
        ),
        (
            "Lake Charles",
            GeoPoint::new(30.2266, -93.2174),
            "I-10",
            25.0,
        ),
        ("Monroe", GeoPoint::new(32.5093, -92.1193), "I-20", 22.0),
        ("Alexandria", GeoPoint::new(31.3113, -92.4451), "I-49", 20.0),
    ]
}

impl CameraNetwork {
    /// Builds the default Louisiana network: nine city corridors instrumented
    /// densely enough to exceed the paper's ">200 cameras" total (the default
    /// yields ~240, jittered by `seed`).
    pub fn louisiana_default(seed: u64) -> Self {
        let mut rng = SeededRng::new(seed);
        let mut builder = CameraNetworkBuilder::default();
        for (city, anchor, corridor_name, km) in louisiana_cities() {
            // Corridor as a gently bent 3-point polyline through the anchor.
            let half = km * 500.0; // half length in meters
            let bend = rng.range_f64(-800.0, 800.0);
            let corridor = Corridor::new(
                corridor_name,
                vec![
                    anchor.offset_m(-bend, -half),
                    anchor,
                    anchor.offset_m(bend, half),
                ],
            );
            // Aim for one camera per ~1.1 km with jitter (dense enough that
            // the nine corridors together exceed the paper's 200-camera count).
            let n = ((km * 1000.0 / 1100.0).round() as usize).max(2);
            builder = builder.corridor(city, &corridor, n, &mut rng);
        }
        builder.build()
    }

    /// Number of cameras.
    pub fn len(&self) -> usize {
        self.cameras.len()
    }

    /// Whether the network has no cameras.
    pub fn is_empty(&self) -> bool {
        self.cameras.is_empty()
    }

    /// All cameras in id order.
    pub fn cameras(&self) -> &[Camera] {
        &self.cameras
    }

    /// The `k` cameras nearest to `p`.
    pub fn nearest(&self, p: GeoPoint, k: usize) -> Vec<&Camera> {
        self.index
            .nearest(p, k)
            .into_iter()
            .map(|(_, id)| &self.cameras[id.0 as usize])
            .collect()
    }

    /// Per-city coverage rows — the data behind the Fig. 2 map.
    pub fn coverage_report(&self) -> Vec<CityCoverage> {
        self.cities
            .iter()
            .map(|city| {
                let cams: Vec<&Camera> = self.cameras.iter().filter(|c| &c.city == city).collect();
                let mut positions: Vec<GeoPoint> = cams.iter().map(|c| c.position).collect();
                // Consecutive spacing along the corridor: order by the axis
                // the corridor actually spans (its dominant extent).
                let bbox = BoundingBox::enclosing(positions.iter().copied());
                let lon_major = bbox.is_none_or(|b| {
                    (b.max().lon() - b.min().lon()) >= (b.max().lat() - b.min().lat())
                });
                positions.sort_by(|a, b| {
                    if lon_major {
                        a.lon()
                            .total_cmp(&b.lon())
                            .then(a.lat().total_cmp(&b.lat()))
                    } else {
                        a.lat()
                            .total_cmp(&b.lat())
                            .then(a.lon().total_cmp(&b.lon()))
                    }
                });
                let spacing: Vec<f64> = positions
                    .windows(2)
                    .map(|w| w[0].haversine_m(w[1]))
                    .collect();
                let corridor_km = spacing.iter().sum::<f64>() / 1000.0;
                let mean_spacing_m = if spacing.is_empty() {
                    0.0
                } else {
                    spacing.iter().sum::<f64>() / spacing.len() as f64
                };
                CityCoverage {
                    city: city.clone(),
                    cameras: cams.len(),
                    corridor_km,
                    mean_spacing_m,
                }
            })
            .collect()
    }
}

/// Incremental builder for [`CameraNetwork`].
#[derive(Debug, Default)]
struct CameraNetworkBuilder {
    cameras: Vec<Camera>,
    cities: Vec<String>,
}

impl CameraNetworkBuilder {
    /// Places `n` cameras evenly (with positional jitter) along `corridor`,
    /// attributed to `city`.
    fn corridor(mut self, city: &str, corridor: &Corridor, n: usize, rng: &mut SeededRng) -> Self {
        if !self.cities.iter().any(|c| c == city) {
            self.cities.push(city.to_string());
        }
        let n = n.max(2);
        for p in corridor.sample(n) {
            let jitter_n = rng.range_f64(-60.0, 60.0);
            let jitter_e = rng.range_f64(-60.0, 60.0);
            let id = CameraId(self.cameras.len() as u32);
            self.cameras.push(Camera {
                id,
                city: city.to_string(),
                corridor: corridor.name().to_string(),
                position: p.offset_m(jitter_n, jitter_e),
                fps: *rng.choose(&[15, 24, 30]).expect("non-empty"),
                coverage_m: rng.range_f64(250.0, 600.0),
            });
        }
        self
    }

    /// Finalizes the network and builds its spatial index.
    fn build(self) -> CameraNetwork {
        let mut index = GridIndex::new(1_000.0);
        for cam in &self.cameras {
            index.insert(cam.position, cam.id);
        }
        CameraNetwork {
            cameras: self.cameras,
            index,
            cities: self.cities,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_builder_places_cameras_along_a_corridor() {
        let corridor = Corridor::new(
            "I-10",
            vec![GeoPoint::new(30.40, -91.30), GeoPoint::new(30.47, -91.00)],
        );
        let mut rng = SeededRng::new(1);
        let net = CameraNetworkBuilder::default()
            .corridor("Baton Rouge", &corridor, 12, &mut rng)
            .build();
        assert_eq!(net.len(), 12);
    }

    #[test]
    fn default_network_exceeds_200_cameras() {
        let net = CameraNetwork::louisiana_default(1);
        assert!(
            net.len() > 200,
            "paper claims >200 cameras, got {}",
            net.len()
        );
    }

    #[test]
    fn default_network_has_nine_cities() {
        let net = CameraNetwork::louisiana_default(2);
        assert_eq!(net.cities.len(), 9);
        assert!(net.cities.iter().any(|c| c == "Baton Rouge"));
        assert!(net.cities.iter().any(|c| c == "New Orleans"));
    }

    #[test]
    fn deterministic_for_seed() {
        let a = CameraNetwork::louisiana_default(3);
        let b = CameraNetwork::louisiana_default(3);
        assert_eq!(a.cameras(), b.cameras());
    }

    #[test]
    fn different_seed_different_jitter() {
        let a = CameraNetwork::louisiana_default(4);
        let b = CameraNetwork::louisiana_default(5);
        assert_ne!(a.cameras()[0].position, b.cameras()[0].position);
    }

    #[test]
    fn nearest_returns_local_city() {
        let net = CameraNetwork::louisiana_default(6);
        let near_shreveport = net.nearest(GeoPoint::new(32.5252, -93.7502), 5);
        assert!(near_shreveport.iter().all(|c| c.city == "Shreveport"));
    }

    #[test]
    fn coverage_report_covers_every_city() {
        let net = CameraNetwork::louisiana_default(8);
        let report = net.coverage_report();
        assert_eq!(report.len(), 9);
        for row in &report {
            assert!(row.cameras >= 2, "{row:?}");
            assert!(row.mean_spacing_m > 100.0, "{row:?}");
            assert!(row.mean_spacing_m < 5_000.0, "{row:?}");
        }
        let total: usize = report.iter().map(|r| r.cameras).sum();
        assert_eq!(total, net.len());
    }

    #[test]
    fn camera_id_display() {
        assert_eq!(CameraId(7).to_string(), "cam-0007");
    }
}
