//! An indexed document store in the spirit of MongoDB.
//!
//! Documents are JSON-like trees ([`Doc`]); a [`Collection`] assigns ids,
//! maintains secondary indexes (hash for equality, ordered for ranges), and
//! answers [`Filter`] queries — using an index when one covers the filter,
//! falling back to a scan otherwise.
//!
//! A stored document is an `Arc<Doc>`: the collection never mutates one in
//! place ([`Collection::update`] swaps the `Arc`), so a caller that keeps
//! the `Arc` a read handed out holds that version for as long as it likes,
//! and several collections can store one document without copying it.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::NosqlError;

/// A JSON-like document value.
#[derive(Debug, Clone, PartialEq)]
pub enum Doc {
    /// Null.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    I64(i64),
    /// 64-bit float.
    F64(f64),
    /// UTF-8 string.
    Str(String),
    /// Ordered array.
    Array(Vec<Doc>),
    /// String-keyed object.
    Object(BTreeMap<String, Doc>),
}

impl Doc {
    /// Builds an object from `(key, value)` pairs.
    pub fn object<I, K>(fields: I) -> Doc
    where
        I: IntoIterator<Item = (K, Doc)>,
        K: Into<String>,
    {
        Doc::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Navigates a dotted path (`"geo.lat"`), returning the sub-document.
    pub fn path(&self, path: &str) -> Option<&Doc> {
        let mut cur = self;
        for part in path.split('.') {
            match cur {
                Doc::Object(map) => cur = map.get(part)?,
                _ => return None,
            }
        }
        Some(cur)
    }

    /// Numeric view (`I64` and `F64` unify for comparisons).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Doc::I64(v) => Some(*v as f64),
            Doc::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Doc::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Checks that every number in the tree is finite (orderable), returning
    /// the dotted path of the first offender. The path is only built once
    /// an offender exists, so checking a valid document allocates nothing.
    fn check_finite(&self) -> Result<(), NosqlError> {
        match self.non_finite_path() {
            Some(mut path) => {
                path.reverse();
                Err(NosqlError::NonFiniteNumber {
                    path: path.join("."),
                })
            }
            None => Ok(()),
        }
    }

    /// The path segments of the first non-finite number in the tree,
    /// innermost first; `None` when every number is finite.
    fn non_finite_path(&self) -> Option<Vec<String>> {
        match self {
            Doc::F64(v) => (!v.is_finite()).then(Vec::new),
            Doc::Array(items) => items.iter().enumerate().find_map(|(i, item)| {
                let mut path = item.non_finite_path()?;
                path.push(i.to_string());
                Some(path)
            }),
            Doc::Object(map) => map.iter().find_map(|(k, v)| {
                let mut path = v.non_finite_path()?;
                path.push(k.clone());
                Some(path)
            }),
            _ => None,
        }
    }

    /// A total-order comparison key so values can live in ordered indexes.
    /// Cross-type comparisons order by type tag; numbers unify.
    fn order_key(&self) -> OrderKey {
        match self {
            Doc::Null => OrderKey::Null,
            Doc::Bool(b) => OrderKey::Bool(*b),
            Doc::I64(v) => OrderKey::Num(ordered_f64(*v as f64)),
            Doc::F64(v) => OrderKey::Num(ordered_f64(*v)),
            Doc::Str(s) => OrderKey::Str(s.clone()),
            Doc::Array(_) | Doc::Object(_) => OrderKey::Composite(format!("{self:?}")),
        }
    }
}

fn ordered_f64(v: f64) -> u64 {
    // Total-order bijection for non-NaN floats.
    let bits = v.to_bits();
    if bits >> 63 == 0 {
        bits | (1 << 63)
    } else {
        !bits
    }
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum OrderKey {
    Null,
    Bool(bool),
    Num(u64),
    Str(String),
    Composite(String),
}

/// Document identifier assigned by the collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DocId(pub u64);

impl std::fmt::Display for DocId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "doc-{}", self.0)
    }
}

/// A query filter over document fields (dotted paths).
#[derive(Debug, Clone, PartialEq)]
pub enum Filter {
    /// Field equals value.
    Eq(String, Doc),
    /// Numeric field within `[min, max]` (inclusive).
    Range(String, f64, f64),
    /// Field exists.
    Exists(String),
    /// All sub-filters hold.
    And(Vec<Filter>),
    /// Any sub-filter holds.
    Or(Vec<Filter>),
    /// Geo proximity: object field with `lat`/`lon` within `radius_m` meters
    /// of the given point (equirectangular approximation — city scale).
    Near {
        /// Path to an object holding `lat` and `lon` fields.
        path: String,
        /// Center latitude.
        lat: f64,
        /// Center longitude.
        lon: f64,
        /// Radius in meters.
        radius_m: f64,
    },
}

impl Filter {
    /// Checks the filter is answerable: range bounds must be finite and
    /// ordered, geo centers finite with a non-negative radius. Composite
    /// filters validate every arm.
    pub fn validate(&self) -> Result<(), NosqlError> {
        match self {
            Filter::Range(path, lo, hi) => {
                if !lo.is_finite() || !hi.is_finite() || lo > hi {
                    return Err(NosqlError::InvalidRange {
                        path: path.clone(),
                        lo: *lo,
                        hi: *hi,
                    });
                }
                Ok(())
            }
            Filter::Near {
                path,
                lat,
                lon,
                radius_m,
            } => {
                if !lat.is_finite() || !lon.is_finite() || !radius_m.is_finite() || *radius_m < 0.0
                {
                    return Err(NosqlError::InvalidGeo { path: path.clone() });
                }
                Ok(())
            }
            Filter::And(fs) | Filter::Or(fs) => fs.iter().try_for_each(Filter::validate),
            Filter::Eq(..) | Filter::Exists(..) => Ok(()),
        }
    }

    /// Whether `doc` satisfies this filter.
    pub fn matches(&self, doc: &Doc) -> bool {
        match self {
            Filter::Eq(path, v) => doc.path(path) == Some(v),
            Filter::Range(path, lo, hi) => doc
                .path(path)
                .and_then(Doc::as_f64)
                .is_some_and(|x| x >= *lo && x <= *hi),
            Filter::Exists(path) => doc.path(path).is_some(),
            Filter::And(fs) => fs.iter().all(|f| f.matches(doc)),
            Filter::Or(fs) => fs.iter().any(|f| f.matches(doc)),
            Filter::Near {
                path,
                lat,
                lon,
                radius_m,
            } => {
                let Some(obj) = doc.path(path) else {
                    return false;
                };
                let (Some(dlat), Some(dlon)) = (
                    obj.path("lat").and_then(Doc::as_f64),
                    obj.path("lon").and_then(Doc::as_f64),
                ) else {
                    return false;
                };
                let m_per_deg = 111_320.0;
                let dy = (dlat - lat) * m_per_deg;
                let dx = (dlon - lon) * m_per_deg * lat.to_radians().cos();
                (dx * dx + dy * dy).sqrt() <= *radius_m
            }
        }
    }
}

#[derive(Debug, Default)]
struct FieldIndex {
    // Ordered index doubles as the equality index. No bucket is empty.
    by_value: BTreeMap<OrderKey, Vec<DocId>>,
}

impl FieldIndex {
    /// Lists `id` under `doc`'s value at `path`, if it has one.
    fn add(&mut self, path: &str, doc: &Doc, id: DocId) {
        if let Some(v) = doc.path(path) {
            self.by_value.entry(v.order_key()).or_default().push(id);
        }
    }

    /// Unlists `id` from under `doc`'s value at `path`, dropping the
    /// bucket with its last id.
    fn drop_id(&mut self, path: &str, doc: &Doc, id: DocId) {
        let Some(v) = doc.path(path) else { return };
        if let Entry::Occupied(mut bucket) = self.by_value.entry(v.order_key()) {
            bucket.get_mut().retain(|&d| d != id);
            if bucket.get().is_empty() {
                bucket.remove();
            }
        }
    }
}

/// A collection of documents with optional secondary indexes.
///
/// # Examples
///
/// ```
/// use scnosql::document::{Collection, Doc, Filter};
///
/// let mut tweets = Collection::new("tweets");
/// tweets.create_index("user");
/// tweets.insert(Doc::object([
///     ("user", Doc::Str("amber_watch".into())),
///     ("text", Doc::Str("silver sedan heading east".into())),
/// ])).unwrap();
/// let hits = tweets.find(&Filter::Eq("user".into(), Doc::Str("amber_watch".into()))).unwrap();
/// assert_eq!(hits.len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct Collection {
    name: String,
    docs: BTreeMap<DocId, Arc<Doc>>,
    indexes: HashMap<String, FieldIndex>,
    next_id: u64,
    // Atomics (not `Cell`) so `&Collection` queries can run from the
    // `scpar` worker pool.
    scans: AtomicU64,
    index_hits: AtomicU64,
}

impl Collection {
    /// Creates an empty collection.
    pub fn new(name: impl Into<String>) -> Self {
        Collection {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Collection name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether the collection is empty.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Builds a secondary index on a dotted field path (covers existing
    /// documents immediately).
    pub fn create_index(&mut self, path: &str) {
        let mut index = FieldIndex::default();
        for (&id, doc) in &self.docs {
            index.add(path, doc, id);
        }
        self.indexes.insert(path.to_string(), index);
    }

    /// Whether a field is indexed.
    pub fn has_index(&self, path: &str) -> bool {
        self.indexes.contains_key(path)
    }

    /// Inserts a document — a `Doc`, or an `Arc<Doc>` another collection
    /// may already hold — returning its id.
    ///
    /// # Errors
    ///
    /// Rejects documents carrying non-finite numbers
    /// ([`NosqlError::NonFiniteNumber`]) — they have no total order, so they
    /// can never be indexed or range-queried.
    pub fn insert(&mut self, doc: impl Into<Arc<Doc>>) -> Result<DocId, NosqlError> {
        let doc = doc.into();
        doc.check_finite()?;
        let id = DocId(self.next_id);
        self.next_id += 1;
        for (path, index) in &mut self.indexes {
            index.add(path, &doc, id);
        }
        self.docs.insert(id, doc);
        Ok(id)
    }

    /// Fetches a document by id.
    pub fn get(&self, id: DocId) -> Option<&Arc<Doc>> {
        self.docs.get(&id)
    }

    /// Replaces a document, keeping its id and updating indexes: the slot
    /// takes the new `Arc`, the old document itself is never written to.
    /// Returns the previous document, or `None` (no insert) if the id is
    /// unknown.
    ///
    /// # Errors
    ///
    /// Rejects documents carrying non-finite numbers, like
    /// [`Collection::insert`]; the stored document is untouched.
    pub fn update(
        &mut self,
        id: DocId,
        doc: impl Into<Arc<Doc>>,
    ) -> Result<Option<Arc<Doc>>, NosqlError> {
        let doc = doc.into();
        doc.check_finite()?;
        let Some(slot) = self.docs.get_mut(&id) else {
            return Ok(None);
        };
        let old = std::mem::replace(slot, doc);
        for (path, index) in &mut self.indexes {
            index.drop_id(path, &old, id);
            index.add(path, slot, id);
        }
        Ok(Some(old))
    }

    /// Removes every document matching `filter`, returning how many were
    /// deleted (a retention sweep's primitive).
    ///
    /// # Errors
    ///
    /// Propagates filter validation failures from [`Collection::find`]; no
    /// document is removed on error.
    pub fn remove_where(&mut self, filter: &Filter) -> Result<usize, NosqlError> {
        let ids: Vec<DocId> = self.find(filter)?.into_iter().map(|(id, _)| id).collect();
        for id in &ids {
            self.remove(*id);
        }
        Ok(ids.len())
    }

    /// Removes a document by id, returning it.
    pub fn remove(&mut self, id: DocId) -> Option<Arc<Doc>> {
        let doc = self.docs.remove(&id)?;
        for (path, index) in &mut self.indexes {
            index.drop_id(path, &doc, id);
        }
        Some(doc)
    }

    /// Runs a query, returning matching `(id, document)` pairs in id order.
    ///
    /// Uses an index when the filter (or the first arm of an `And`) is an
    /// indexed `Eq`/`Range`; otherwise scans.
    ///
    /// # Errors
    ///
    /// Rejects malformed filters ([`Filter::validate`]) — an inverted range
    /// on an indexed field previously aborted inside the B-tree.
    pub fn find(&self, filter: &Filter) -> Result<Vec<(DocId, &Arc<Doc>)>, NosqlError> {
        filter.validate()?;
        let candidates = self.candidates(filter);
        Ok(match candidates {
            Some(ids) => {
                self.index_hits.fetch_add(1, Ordering::Relaxed);
                let mut hits: Vec<(DocId, &Arc<Doc>)> = ids
                    .into_iter()
                    .filter_map(|id| self.docs.get(&id).map(|d| (id, d)))
                    .filter(|(_, d)| filter.matches(d))
                    .collect();
                hits.sort_by_key(|(id, _)| *id);
                hits.dedup_by_key(|(id, _)| *id);
                hits
            }
            None => {
                self.scans.fetch_add(1, Ordering::Relaxed);
                self.docs
                    .iter()
                    .filter(|(_, d)| filter.matches(d))
                    .map(|(&id, d)| (id, d))
                    .collect()
            }
        })
    }

    /// Count of matching documents.
    ///
    /// # Errors
    ///
    /// Propagates filter validation failures from [`Collection::find`].
    pub fn count(&self, filter: &Filter) -> Result<usize, NosqlError> {
        Ok(self.find(filter)?.len())
    }

    /// `(full_scans, index_assisted)` query counters — used by E9-style
    /// experiments to verify indexes are actually exercised.
    pub fn query_stats(&self) -> (u64, u64) {
        (
            self.scans.load(Ordering::Relaxed),
            self.index_hits.load(Ordering::Relaxed),
        )
    }

    /// Candidate ids from an index, or `None` if no index applies.
    fn candidates(&self, filter: &Filter) -> Option<Vec<DocId>> {
        match filter {
            Filter::Eq(path, v) => {
                let index = self.indexes.get(path)?;
                Some(
                    index
                        .by_value
                        .get(&v.order_key())
                        .cloned()
                        .unwrap_or_default(),
                )
            }
            Filter::Range(path, lo, hi) => {
                let index = self.indexes.get(path)?;
                let lo_k = OrderKey::Num(ordered_f64(*lo));
                let hi_k = OrderKey::Num(ordered_f64(*hi));
                Some(
                    index
                        .by_value
                        .range(lo_k..=hi_k)
                        .flat_map(|(_, ids)| ids.iter().copied())
                        .collect(),
                )
            }
            Filter::And(fs) => fs.iter().find_map(|f| self.candidates(f)),
            _ => None,
        }
    }

    /// Iterates all documents in id order.
    pub fn iter(&self) -> impl Iterator<Item = (DocId, &Arc<Doc>)> {
        self.docs.iter().map(|(&id, d)| (id, d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn incident(kind: &str, district: i64, lat: f64, lon: f64) -> Doc {
        Doc::object([
            ("kind", Doc::Str(kind.into())),
            ("district", Doc::I64(district)),
            (
                "geo",
                Doc::object([("lat", Doc::F64(lat)), ("lon", Doc::F64(lon))]),
            ),
        ])
    }

    fn seeded() -> Collection {
        let mut c = Collection::new("incidents");
        c.insert(incident("robbery", 1, 30.45, -91.18)).unwrap();
        c.insert(incident("assault", 2, 30.46, -91.17)).unwrap();
        c.insert(incident("robbery", 2, 30.50, -91.10)).unwrap();
        c.insert(incident("homicide", 3, 29.95, -90.07)).unwrap();
        c
    }

    #[test]
    fn insert_get_remove() {
        let mut c = Collection::new("t");
        let id = c.insert(Doc::object([("a", Doc::I64(1))])).unwrap();
        assert!(c.get(id).is_some());
        assert_eq!(c.len(), 1);
        let doc = c.remove(id).unwrap();
        assert_eq!(doc.path("a"), Some(&Doc::I64(1)));
        assert!(c.is_empty());
    }

    #[test]
    fn path_navigation() {
        let d = incident("robbery", 1, 30.0, -91.0);
        assert_eq!(d.path("geo.lat").and_then(Doc::as_f64), Some(30.0));
        assert_eq!(d.path("geo.alt"), None);
        assert_eq!(d.path("kind").and_then(Doc::as_str), Some("robbery"));
    }

    #[test]
    fn eq_filter_scan() {
        let c = seeded();
        let hits = c
            .find(&Filter::Eq("kind".into(), Doc::Str("robbery".into())))
            .unwrap();
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn eq_filter_uses_index() {
        let mut c = seeded();
        c.create_index("kind");
        let hits = c
            .find(&Filter::Eq("kind".into(), Doc::Str("robbery".into())))
            .unwrap();
        assert_eq!(hits.len(), 2);
        let (scans, indexed) = c.query_stats();
        assert_eq!(scans, 0);
        assert_eq!(indexed, 1);
    }

    #[test]
    fn index_covers_preexisting_docs() {
        let mut c = seeded();
        c.create_index("district");
        let hits = c.find(&Filter::Eq("district".into(), Doc::I64(2))).unwrap();
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn range_filter_with_index() {
        let mut c = seeded();
        c.create_index("district");
        let hits = c.find(&Filter::Range("district".into(), 2.0, 3.0)).unwrap();
        assert_eq!(hits.len(), 3);
        assert_eq!(c.query_stats().1, 1);
    }

    #[test]
    fn range_mixes_int_and_float() {
        let mut c = Collection::new("t");
        c.insert(Doc::object([("x", Doc::I64(5))])).unwrap();
        c.insert(Doc::object([("x", Doc::F64(5.5))])).unwrap();
        c.insert(Doc::object([("x", Doc::F64(-1.0))])).unwrap();
        c.create_index("x");
        assert_eq!(c.count(&Filter::Range("x".into(), 0.0, 10.0)).unwrap(), 2);
        assert_eq!(c.count(&Filter::Range("x".into(), -2.0, 0.0)).unwrap(), 1);
    }

    #[test]
    fn and_or_compose() {
        let c = seeded();
        let f = Filter::And(vec![
            Filter::Eq("kind".into(), Doc::Str("robbery".into())),
            Filter::Eq("district".into(), Doc::I64(2)),
        ]);
        assert_eq!(c.count(&f).unwrap(), 1);
        let f = Filter::Or(vec![
            Filter::Eq("district".into(), Doc::I64(1)),
            Filter::Eq("district".into(), Doc::I64(3)),
        ]);
        assert_eq!(c.count(&f).unwrap(), 2);
    }

    #[test]
    fn and_with_indexed_arm_prefilters() {
        let mut c = seeded();
        c.create_index("kind");
        let f = Filter::And(vec![
            Filter::Eq("kind".into(), Doc::Str("robbery".into())),
            Filter::Range("geo.lat".into(), 30.48, 31.0),
        ]);
        let hits = c.find(&f).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(c.query_stats(), (0, 1));
    }

    #[test]
    fn near_filter() {
        let c = seeded();
        // Within 2km of downtown Baton Rouge: the two close incidents.
        let f = Filter::Near {
            path: "geo".into(),
            lat: 30.455,
            lon: -91.175,
            radius_m: 2000.0,
        };
        assert_eq!(c.count(&f).unwrap(), 2);
        // New Orleans incident is ~120 km away.
        let f = Filter::Near {
            path: "geo".into(),
            lat: 29.95,
            lon: -90.07,
            radius_m: 1000.0,
        };
        assert_eq!(c.count(&f).unwrap(), 1);
    }

    #[test]
    fn exists_filter() {
        let mut c = seeded();
        c.insert(Doc::object([("kind", Doc::Str("pothole".into()))]))
            .unwrap(); // no geo
        assert_eq!(c.count(&Filter::Exists("geo".into())).unwrap(), 4);
        assert_eq!(c.count(&Filter::Exists("nope".into())).unwrap(), 0);
    }

    #[test]
    fn remove_updates_index() {
        let mut c = seeded();
        c.create_index("kind");
        let id = c
            .find(&Filter::Eq("kind".into(), Doc::Str("homicide".into())))
            .unwrap()[0]
            .0;
        c.remove(id);
        assert_eq!(
            c.count(&Filter::Eq("kind".into(), Doc::Str("homicide".into())))
                .unwrap(),
            0
        );
    }

    #[test]
    fn insert_rejects_non_finite_numbers() {
        let mut c = Collection::new("t");
        let err = c
            .insert(Doc::object([(
                "geo",
                Doc::object([("lat", Doc::F64(f64::NAN))]),
            )]))
            .unwrap_err();
        assert_eq!(
            err,
            NosqlError::NonFiniteNumber {
                path: "geo.lat".into()
            }
        );
        assert!(c.is_empty(), "rejected insert must not store anything");
    }

    #[test]
    fn find_rejects_inverted_range_instead_of_panicking() {
        let mut c = seeded();
        c.create_index("district");
        let err = c
            .find(&Filter::Range("district".into(), 3.0, 1.0))
            .unwrap_err();
        assert!(matches!(err, NosqlError::InvalidRange { .. }));
        // Composite filters validate every arm.
        let nested = Filter::And(vec![
            Filter::Exists("kind".into()),
            Filter::Range("district".into(), f64::NAN, 1.0),
        ]);
        assert!(c.find(&nested).is_err());
    }

    #[test]
    fn find_rejects_bad_geo() {
        let c = seeded();
        let err = c
            .find(&Filter::Near {
                path: "geo".into(),
                lat: 30.0,
                lon: -91.0,
                radius_m: -5.0,
            })
            .unwrap_err();
        assert_eq!(err, NosqlError::InvalidGeo { path: "geo".into() });
    }

    #[test]
    fn index_and_scan_agree() {
        let mut with_idx = seeded();
        with_idx.create_index("district");
        let without_idx = seeded();
        let f = Filter::Range("district".into(), 1.0, 2.0);
        let a: Vec<DocId> = with_idx
            .find(&f)
            .unwrap()
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        let b: Vec<DocId> = without_idx
            .find(&f)
            .unwrap()
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        assert_eq!(a, b);
    }
}

#[cfg(test)]
mod update_tests {
    use super::*;

    fn doc(kind: &str, v: i64) -> Doc {
        Doc::object([("kind", Doc::Str(kind.into())), ("v", Doc::I64(v))])
    }

    #[test]
    fn update_replaces_and_reindexes() {
        let mut c = Collection::new("t");
        c.create_index("kind");
        let id = c.insert(doc("a", 1)).unwrap();
        let old = c.update(id, doc("b", 2)).unwrap().unwrap();
        assert_eq!(old.path("kind").and_then(Doc::as_str), Some("a"));
        assert_eq!(
            c.count(&Filter::Eq("kind".into(), Doc::Str("a".into())))
                .unwrap(),
            0
        );
        assert_eq!(
            c.count(&Filter::Eq("kind".into(), Doc::Str("b".into())))
                .unwrap(),
            1
        );
        assert_eq!(c.len(), 1, "same id, no growth");
    }

    #[test]
    fn emptied_index_buckets_are_dropped() {
        let mut c = Collection::new("t");
        c.create_index("v");
        let id = c.insert(doc("a", 0)).unwrap();
        let other = c.insert(doc("a", -1)).unwrap();
        for v in 1..=1_000 {
            c.update(id, doc("a", v)).unwrap();
        }
        // One bucket per live value, not one per value ever stored.
        assert_eq!(c.indexes["v"].by_value.len(), 2);
        assert_eq!(
            c.count(&Filter::Eq("v".into(), Doc::I64(1_000))).unwrap(),
            1
        );
        assert_eq!(c.count(&Filter::Eq("v".into(), Doc::I64(999))).unwrap(), 0);
        c.remove(id);
        c.remove(other);
        assert!(c.indexes["v"].by_value.is_empty());
    }

    #[test]
    fn an_update_swaps_the_arc_and_leaves_the_old_document_alone() {
        let mut c = Collection::new("t");
        let id = c.insert(doc("a", 1)).unwrap();
        let held = Arc::clone(c.get(id).unwrap());
        let old = c.update(id, doc("b", 2)).unwrap().unwrap();
        assert!(Arc::ptr_eq(&held, &old), "update hands back the stored Arc");
        assert_eq!(*held, doc("a", 1), "a reader's copy is never written to");
        assert_eq!(**c.get(id).unwrap(), doc("b", 2));
    }

    #[test]
    fn update_unknown_id_is_noop() {
        let mut c = Collection::new("t");
        assert!(c.update(DocId(99), doc("a", 1)).unwrap().is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn remove_where_deletes_matching() {
        let mut c = Collection::new("t");
        c.create_index("kind");
        for i in 0..10 {
            c.insert(doc(if i % 2 == 0 { "keep" } else { "purge" }, i))
                .unwrap();
        }
        let removed = c
            .remove_where(&Filter::Eq("kind".into(), Doc::Str("purge".into())))
            .unwrap();
        assert_eq!(removed, 5);
        assert_eq!(c.len(), 5);
        assert_eq!(
            c.count(&Filter::Eq("kind".into(), Doc::Str("purge".into())))
                .unwrap(),
            0
        );
        assert_eq!(
            c.count(&Filter::Eq("kind".into(), Doc::Str("keep".into())))
                .unwrap(),
            5
        );
    }

    #[test]
    fn remove_where_range() {
        let mut c = Collection::new("t");
        for i in 0..10 {
            c.insert(doc("x", i)).unwrap();
        }
        let removed = c
            .remove_where(&Filter::Range("v".into(), 0.0, 4.0))
            .unwrap();
        assert_eq!(removed, 5);
        assert_eq!(c.len(), 5);
    }
}
