//! The flight-recorder artifact: a [`Tsdb`] plus run metadata, rendered
//! as one canonical JSON document.
//!
//! This is the file E19 writes next to `BENCH_metropolis.json`
//! (`flight_seed42.tsdb.json`): the whole day as stored series — RPS,
//! p99, shed fraction, pool and shard sizes, burn rates — byte-identical
//! for a given seed at any thread count or SIMD ISA. The
//! [`FlightRecorder::fingerprint`] rides the BENCH JSON as a
//! deterministic key, so the perf gate pins the artifact exactly.

use std::collections::BTreeMap;

use serde_json::{json, Map, Value};

use crate::store::Tsdb;

/// Schema tag stamped into every artifact.
const FLIGHT_SCHEMA: &str = "sctsdb-flight-v2";

/// A store plus sorted metadata, with a canonical rendering.
///
/// # Examples
///
/// ```
/// use sctsdb::{FlightRecorder, SeriesId, Tsdb};
/// use simclock::SimTime;
///
/// let mut db = Tsdb::new();
/// db.record(&SeriesId::new("rps"), SimTime::ZERO, 1.0).unwrap();
/// let flight = FlightRecorder::new(db).with_meta("seed", serde_json::json!(42));
/// assert!(flight.render().contains("sctsdb-flight-v2"));
/// assert_eq!(flight.fingerprint().len(), 16);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlightRecorder {
    /// The recorded series.
    pub tsdb: Tsdb,
    meta: BTreeMap<String, Value>,
}

impl FlightRecorder {
    /// Wraps a finished store.
    pub fn new(tsdb: Tsdb) -> Self {
        FlightRecorder {
            tsdb,
            meta: BTreeMap::new(),
        }
    }

    /// Attaches one metadata entry (sorted into the artifact).
    pub fn with_meta(mut self, key: &str, value: Value) -> Self {
        self.meta.insert(key.to_string(), value);
        self
    }

    /// The canonical artifact: schema tag, sorted metadata, and the
    /// store's canonical JSON.
    fn to_json(&self) -> Value {
        let meta: Map<String, Value> = self
            .meta
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        match self.tsdb.to_json() {
            Value::Object(mut doc) => {
                doc.insert("schema".to_string(), json!(FLIGHT_SCHEMA));
                doc.insert("meta".to_string(), Value::Object(meta));
                Value::Object(doc)
            }
            other => other,
        }
    }

    /// Pretty-printed artifact text with a trailing newline — the exact
    /// bytes written to `flight_seed42.tsdb.json`.
    pub fn render(&self) -> String {
        let mut out = serde_json::to_string_pretty(&self.to_json()).expect("valid json");
        out.push('\n');
        out
    }

    /// FNV-1a fingerprint (hex) of [`FlightRecorder::render`]'s bytes.
    pub fn fingerprint(&self) -> String {
        let text = self.render();
        format!("{:016x}", simclock::hash::fnv1a(text.as_bytes()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SeriesId;
    use simclock::SimTime;

    #[test]
    fn fingerprint_covers_meta_and_series() {
        let mut db = Tsdb::new();
        db.record(&SeriesId::new("x"), SimTime::ZERO, 1.0).unwrap();
        let a = FlightRecorder::new(db.clone()).with_meta("seed", json!(42));
        let b = FlightRecorder::new(db).with_meta("seed", json!(43));
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
    }

    #[test]
    fn render_is_stable_and_newline_terminated() {
        let flight = FlightRecorder::new(Tsdb::new()).with_meta("windows", json!(24));
        let r = flight.render();
        assert!(r.ends_with('\n'));
        assert_eq!(r, flight.render());
        assert!(r.contains("\"schema\""));
    }
}
