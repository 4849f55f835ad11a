//! The store: a sorted map of compressed series.

use std::collections::BTreeMap;

use serde_json::{json, Value};
use simclock::SimTime;

use crate::compress::{SampleCursor, TimeRegression};
use crate::series::{Series, SeriesId};

/// Deterministic in-memory time-series store.
///
/// Series live in a `BTreeMap` keyed by [`SeriesId`], so iteration,
/// export, and the artifact fingerprint are byte-stable. Appends are
/// cheap (Gorilla-encoded, see [`crate::compress`]); reads decompress —
/// the whole series ([`Tsdb::samples`]) or one window ([`Tsdb::range`]).
///
/// # Examples
///
/// ```
/// use sctsdb::{SeriesId, Tsdb};
/// use simclock::SimTime;
///
/// let mut db = Tsdb::new();
/// let id = SeriesId::new("metro_rps");
/// for w in 0..24u64 {
///     db.record(&id, SimTime::from_secs(w * 3600), (w % 7) as f64).unwrap();
/// }
/// assert_eq!(db.total_samples(), 24);
/// assert!(db.compressed_bytes() < db.raw_bytes());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tsdb {
    series: BTreeMap<SeriesId, Series>,
    /// Samples reserved per new series (allocation-bounding hint).
    capacity_hint: usize,
}

impl Tsdb {
    /// An empty store.
    pub fn new() -> Self {
        Tsdb::default()
    }

    /// An empty store whose new series reserve room for `samples`
    /// appends up front.
    pub fn with_capacity_hint(samples: usize) -> Self {
        Tsdb {
            capacity_hint: samples,
            ..Tsdb::default()
        }
    }

    /// Appends `(at, v)` to `id`'s series, creating it on first use.
    pub fn record(&mut self, id: &SeriesId, at: SimTime, v: f64) -> Result<(), TimeRegression> {
        if let Some(s) = self.series.get_mut(id) {
            return s.push(at.as_micros(), v);
        }
        let mut s = Series::with_capacity(id.clone(), self.capacity_hint);
        let r = s.push(at.as_micros(), v);
        self.series.insert(id.clone(), s);
        r
    }

    /// [`Tsdb::record`] for a label-less series named `name`.
    pub fn record_name(&mut self, name: &str, at: SimTime, v: f64) -> Result<(), TimeRegression> {
        self.record(&SeriesId::new(name), at, v)
    }

    /// Inserts (or replaces) a fully-built series, e.g. one exported by
    /// a [`crate::Scraper`].
    pub fn insert_series(&mut self, series: Series) {
        self.series.insert(series.id().clone(), series);
    }

    /// The series for `id`, if any.
    fn get(&self, id: &SeriesId) -> Option<&Series> {
        self.series.get(id)
    }

    /// Decoded samples of `id`'s series (empty when absent).
    pub fn samples(&self, id: &SeriesId) -> Vec<(u64, f64)> {
        self.get(id).map(Series::samples).unwrap_or_default()
    }

    /// [`Series::range`] of `id`'s series (empty when absent): what
    /// window readers use, so a window's cost does not grow with the day.
    pub fn range(&self, id: &SeriesId, from_us: u64, to_us: u64) -> SampleCursor<'_> {
        self.get(id)
            .map_or_else(SampleCursor::empty, |s| s.range(from_us, to_us))
    }

    /// Decoded samples of the label-less series named `name`.
    pub fn samples_name(&self, name: &str) -> Vec<(u64, f64)> {
        self.samples(&SeriesId::new(name))
    }

    /// Series count.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// Whether the store holds no series.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Total samples across all series.
    pub fn total_samples(&self) -> u64 {
        self.series.values().map(Series::len).sum()
    }

    /// Total compressed payload bytes.
    pub fn compressed_bytes(&self) -> usize {
        self.series.values().map(Series::compressed_bytes).sum()
    }

    /// Total uncompressed-equivalent bytes (16 per sample).
    pub fn raw_bytes(&self) -> usize {
        self.series.values().map(Series::raw_bytes).sum()
    }

    /// Canonical JSON rendering: every series in sorted order with its
    /// decoded timestamps and values, and store totals. This is the
    /// flight-recorder payload — byte-stable for a given store.
    pub fn to_json(&self) -> Value {
        let series: Vec<Value> = self
            .series
            .values()
            .map(|s| {
                let samples = s.samples();
                let t_us: Vec<Value> = samples.iter().map(|&(t, _)| json!(t)).collect();
                let v: Vec<Value> = samples.iter().map(|&(_, v)| json!(v)).collect();
                json!({
                    "id": s.id().canonical(),
                    "count": s.len(),
                    "compressed_bytes": s.compressed_bytes(),
                    "t_us": t_us,
                    "v": v,
                })
            })
            .collect();
        json!({
            "series": series,
            // Always empty: the key is part of the `sctsdb-flight-v1`
            // schema, pinned by `flight_seed42.tsdb.json` and the
            // `flight_fingerprint` baseline key.
            "rollups": [],
            "totals": {
                "series": self.len(),
                "samples": self.total_samples(),
                "raw_bytes": self.raw_bytes(),
                "compressed_bytes": self.compressed_bytes(),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_read_back() {
        let mut db = Tsdb::new();
        let id = SeriesId::new("c").with_label("tier", "edge");
        db.record(&id, SimTime::from_secs(1), 10.0).unwrap();
        db.record(&id, SimTime::from_secs(2), 11.0).unwrap();
        db.record_name("g", SimTime::from_secs(1), -3.0).unwrap();
        assert_eq!(db.len(), 2);
        assert_eq!(db.samples(&id), vec![(1_000_000, 10.0), (2_000_000, 11.0)]);
        assert_eq!(db.samples_name("g"), vec![(1_000_000, -3.0)]);
        assert!(db.samples_name("missing").is_empty());
    }

    #[test]
    fn json_is_sorted_and_self_describing() {
        let mut db = Tsdb::new();
        db.record_name("zz", SimTime::ZERO, 1.0).unwrap();
        db.record_name("aa", SimTime::ZERO, 2.0).unwrap();
        let v = db.to_json();
        assert_eq!(v["series"][0]["id"], "aa");
        assert_eq!(v["series"][1]["id"], "zz");
        assert_eq!(v["totals"]["samples"], 2);
    }
}
