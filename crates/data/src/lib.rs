//! # scdata — synthetic data layer
//!
//! The paper's data layer (§II-A) ingests four families of data. None of the
//! originals are publicly available (live DOTD camera feeds, Twitter/Waze
//! firehoses, and sensitive monthly law-enforcement transfers), so this crate
//! generates seeded synthetic equivalents with the same schemas and the
//! statistical structure the paper's applications rely on:
//!
//! - [`video`]: raster frames with rendered vehicles/actors and exact ground
//!   truth (for §IV-A detection/recognition), plus multi-frame action clips.
//! - [`vehicles`]: a catalog of vehicle classes — scalable to the paper's
//!   "32,000 images for 400 classes".
//! - [`tweets`]: template-based tweets with authors, geo, time, and optional
//!   gang affiliation (for §IV-B).
//! - [`waze`]: crowd-sourced jam/incident reports (§II-A2).
//! - [`city`]: open-city records and the monthly individual-level violent
//!   crime transfer with offense codes (§II-A3/4).
//!
//! All generators take explicit seeds; identical seeds give identical data.

pub mod actions;
pub mod city;
pub mod tweets;
pub mod vehicles;
pub mod video;
pub mod waze;
