//! Series identity and the compressed series itself.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::compress::{GorillaEncoder, SampleCursor, TimeRegression};

/// A series name plus its sorted label set.
///
/// Labels live in a `BTreeMap`, so the canonical rendering — and with it
/// every artifact, fingerprint, and store ordering — is byte-stable
/// regardless of construction order. The name is shared, so the clones a
/// store keeps of a label-less id (its map key and its series) allocate
/// nothing.
///
/// # Examples
///
/// ```
/// use sctsdb::SeriesId;
///
/// let id = SeriesId::new("serve_requests_total")
///     .with_label("tier", "edge")
///     .with_label("kind", "traffic");
/// assert_eq!(id.canonical(), r#"serve_requests_total{kind="traffic",tier="edge"}"#);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SeriesId {
    name: Arc<str>,
    labels: BTreeMap<String, String>,
}

impl SeriesId {
    /// A label-less series id.
    pub fn new(name: &str) -> Self {
        SeriesId {
            name: Arc::from(name),
            labels: BTreeMap::new(),
        }
    }

    /// Adds (or replaces) one label.
    pub fn with_label(mut self, key: &str, value: &str) -> Self {
        self.labels.insert(key.to_string(), value.to_string());
        self
    }

    /// `name` or `name{k="v",…}` with labels in sorted order.
    pub fn canonical(&self) -> String {
        if self.labels.is_empty() {
            return self.name.to_string();
        }
        let mut out = String::with_capacity(self.name.len() + 16 * self.labels.len());
        out.push_str(&self.name);
        out.push('{');
        for (i, (k, v)) in self.labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(v);
            out.push('"');
        }
        out.push('}');
        out
    }
}

impl fmt::Display for SeriesId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.canonical())
    }
}

/// One compressed, append-only time series.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    id: SeriesId,
    enc: GorillaEncoder,
}

impl Series {
    /// An empty series.
    pub fn new(id: SeriesId) -> Self {
        Series {
            id,
            enc: GorillaEncoder::new(),
        }
    }

    /// An empty series with buffer space reserved for `samples` appends,
    /// so appends within the reserve never allocate.
    pub fn with_capacity(id: SeriesId, samples: usize) -> Self {
        let mut enc = GorillaEncoder::new();
        enc.reserve_samples(samples);
        Series { id, enc }
    }

    /// The series identity.
    pub fn id(&self) -> &SeriesId {
        &self.id
    }

    /// Appends `(t_us, v)`; timestamps must be non-decreasing.
    pub fn push(&mut self, t_us: u64, v: f64) -> Result<(), TimeRegression> {
        self.enc.push(t_us, v)
    }

    /// Sample count.
    pub fn len(&self) -> u64 {
        self.enc.len()
    }

    /// Whether the series holds no sample.
    pub fn is_empty(&self) -> bool {
        self.enc.is_empty()
    }

    /// Compressed payload size in bytes.
    pub fn compressed_bytes(&self) -> usize {
        self.enc.compressed_bytes()
    }

    /// Uncompressed equivalent (16 bytes per sample).
    pub fn raw_bytes(&self) -> usize {
        self.enc.len() as usize * 16
    }

    /// Decompresses every sample (allocates; bit-exact).
    pub fn samples(&self) -> Vec<(u64, f64)> {
        self.enc.decode_all()
    }

    /// A lazy cursor over the samples that answer a question about
    /// `(from_us, to_us]` — see [`GorillaEncoder::range`]. Hand it to any
    /// query function ([`crate::rate`], [`crate::last_over_time`], …) with the
    /// same bounds.
    pub fn range(&self, from_us: u64, to_us: u64) -> SampleCursor<'_> {
        self.enc.range(from_us, to_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_is_construction_order_independent() {
        let a = SeriesId::new("m").with_label("b", "2").with_label("a", "1");
        let b = SeriesId::new("m").with_label("a", "1").with_label("b", "2");
        assert_eq!(a, b);
        assert_eq!(a.canonical(), r#"m{a="1",b="2"}"#);
    }

    #[test]
    fn series_tracks_tail_cheaply() {
        let mut s = Series::new(SeriesId::new("x"));
        assert!(s.is_empty());
        s.push(10, 1.5).unwrap();
        s.push(20, 2.5).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.samples(), vec![(10, 1.5), (20, 2.5)]);
    }
}
