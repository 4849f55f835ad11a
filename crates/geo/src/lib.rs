//! # scgeo — geospatial substrate
//!
//! Geospatial primitives backing the smart-city cyberinfrastructure:
//!
//! - [`GeoPoint`] / [`BoundingBox`]: WGS-84 coordinates with haversine
//!   distances.
//! - [`GridIndex`]: a uniform-cell spatial index supporting range and
//!   nearest-neighbour queries (the paper's "lightweight indexing ... for big
//!   spatial data" reference \[18\]).
//! - [`corridor`]: polyline interstate-highway corridors.
//! - [`cameras`]: the DOTD-style registry of >200 traffic cameras across nine
//!   Louisiana cities (paper §II-A1, Fig. 2).
//! - [`Geofence`]: radius fences for incident filtering.
//!
//! # Examples
//!
//! ```
//! use scgeo::cameras::CameraNetwork;
//!
//! let net = CameraNetwork::louisiana_default(42);
//! assert!(net.len() > 200, "paper: more than 200 DOTD cameras");
//! assert_eq!(net.coverage_report().len(), 9, "nine city corridors");
//! ```

pub mod cameras;
pub mod corridor;
mod geofence;
mod grid;
mod point;

pub use geofence::Geofence;
pub use grid::GridIndex;
pub use point::{BoundingBox, GeoPoint};
