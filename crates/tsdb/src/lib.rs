//! sctsdb: a deterministic in-memory time-series store for the
//! smart-city stack.
//!
//! The observability crates capture end-of-run snapshots; operating a
//! city-scale deployment needs *trajectories* — load, latency, shedding,
//! and scaling over the day. sctsdb supplies the missing layer:
//!
//! - **Scrape** ([`Scraper`]): polls a [`sctelemetry::MetricsRegistry`]
//!   on a fixed sim-time cadence into labeled [`Series`]. Counters and
//!   gauges are one atomic load; histograms scrape their cumulative
//!   `_count`/`_sum`. Steady-state scrapes do zero transient
//!   allocations (asserted by a counting allocator in E14).
//! - **Compress** ([`compress::GorillaEncoder`]): delta-of-delta
//!   timestamps, XOR-compressed values — Gorilla-style, but **bit-exact**
//!   (values round-trip through `f64::to_bits`, NaN payloads included)
//!   and allocation-bounded via up-front reserves. A decoder checkpoint
//!   every 64 samples lets [`Series::range`] / [`Tsdb::range`] read one
//!   window through a lazy [`SampleCursor`] instead of decoding the day.
//! - **Query** ([`rate`], [`max_over_time`]): `rate`/`increase` with exact
//!   counter semantics, `max_over_time`/`last_over_time`, and
//!   [`quantile_over_time`] bit-identical to
//!   [`sctelemetry::percentile_sorted`] — each one implementation over
//!   "samples in time order", a decoded slice or a cursor.
//! - **Recording rules** ([`rules::RuleEngine`]): derived series
//!   materialised at each window close, Prometheus-group style, read
//!   through range cursors.
//! - **Flight recorder** ([`FlightRecorder`]): the whole store plus run
//!   metadata as one canonical JSON artifact with an FNV fingerprint —
//!   what E19 commits as `flight_seed42.tsdb.json`.
//!
//! # Determinism
//!
//! Everything is keyed and iterated through `BTreeMap`s, windows align
//! to `SimTime::ZERO`, float folds run in timestamp order, and nothing
//! reads wall clocks or the environment — so for a given seed the
//! artifact and its fingerprint are byte-identical at any
//! `SCPAR_THREADS` or `SCSIMD_FORCE` setting.

#![warn(missing_docs)]

mod bits;
mod compress;
mod flight;
mod query;
mod rules;
mod scrape;
mod series;
mod store;

pub use compress::{GorillaEncoder, SampleCursor, TimeRegression};
pub use flight::FlightRecorder;
pub use query::{increase, last_over_time, max_over_time, quantile_over_time, rate};
pub use rules::{RecordingRule, RuleEngine, RuleExpr};
pub use scrape::Scraper;
pub use series::{Series, SeriesId};
pub use store::Tsdb;
