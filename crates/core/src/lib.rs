//! # smartcity-core — the integrated cyberinfrastructure
//!
//! This crate wires every substrate into the four-layer architecture of the
//! paper's Fig. 1 and implements the application layer (§IV):
//!
//! - [`infrastructure`]: the [`infrastructure::Cyberinfrastructure`] facade:
//!   data layer (camera network + generators), hardware layer (fog topology
//!   plus DFS cluster), software layer (stream topics, NoSQL stores,
//!   compute), application layer (the apps below).
//! - [`pipeline`]: Fig. 4's end-to-end flow — raw sources → streaming
//!   ingestion → NoSQL storage → analysis (model inference) → visualization
//!   export.
//! - [`apps::vehicle`]: Fig. 5/6 — early-exit vehicle detection and
//!   classification (tiny model on the device, full model on the server).
//! - [`apps::actions`]: Fig. 7 — ResNet-block CNN + LSTM suspicious-behaviour
//!   recognition with two exit paths and entropy gating.
//! - [`apps::social`]: §IV-B — the investigation service around the
//!   multi-modal narrowing engine.
//! - [`apps::opioid`]: §V — the planned opioid-factor analysis, built on the
//!   MLlib substrate.
//! - [`viz`]: GeoJSON / JSON / SVG exporters (the D3 feed).
//! - [`artifacts`]: the deterministic dashboard artifact builder shared by
//!   the `city_dashboard` example and the golden-master suite.

#![warn(clippy::too_many_lines)] // a run or an artifact build is stages, not one body

pub mod apps;
pub mod artifacts;
pub mod infrastructure;
pub mod pipeline;
pub mod retention;
pub mod viz;
