//! An indexed document store in the spirit of MongoDB.
//!
//! Documents are JSON-like trees ([`Doc`]); a [`Collection`] assigns ids,
//! maintains secondary indexes (one ordered map per indexed path, serving
//! equality and ranges), and answers [`Filter`] queries — from an index
//! when one covers the filter, falling back to a scan otherwise.
//!
//! An index is *covering*: each value's bucket holds the `(id, document)`
//! pairs themselves, in id order, so an equality query on a string, bool
//! or null is answered by handing the bucket out — no per-candidate lookup
//! in the primary map, no re-check, no sort. That costs 16 bytes per
//! document per index. The exactness rule is in [`Collection::find`].
//!
//! A stored document is an `Arc<Doc>`: the collection never mutates one in
//! place ([`Collection::update`] swaps the `Arc`), so a caller that keeps
//! the `Arc` a read handed out holds that version for as long as it likes,
//! and several collections can store one document without copying it.

use std::borrow::{Borrow, Cow};
use std::cmp::Ordering as KeyOrdering;
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
    Object(Fields),
}

/// An object's fields, sorted by name with names unique: everything a
/// `BTreeMap<String, Doc>` gives — iteration in name order, equality
/// whatever the insertion order, the last value written under a name wins,
/// the same `Debug` text — without a 632-byte B-tree leaf per document to
/// hold a handful of fields. A serving tier's heap is its documents.
///
/// A name is a `Cow<'static, str>`: a literal name is borrowed and costs
/// nothing, an owned `String` name is stored as it is. Which one a field
/// holds is invisible to `Debug`, equality and the index keys.
#[derive(Clone, PartialEq, Default)]
pub struct Fields(Vec<(Cow<'static, str>, Doc)>);

impl Fields {
    /// The value stored under `name`.
    fn get(&self, name: &str) -> Option<&Doc> {
        let at = self.0.binary_search_by(|(held, _)| (**held).cmp(name));
        at.ok().map(|i| &self.0[i].1)
    }

    /// `(name, value)` pairs in name order.
    fn iter(&self) -> impl Iterator<Item = (&str, &Doc)> {
        self.0.iter().map(|(name, value)| (&**name, value))
    }
}

impl<K: Into<Cow<'static, str>>> FromIterator<(K, Doc)> for Fields {
    fn from_iter<I: IntoIterator<Item = (K, Doc)>>(fields: I) -> Self {
        let fields = fields.into_iter().map(|(name, value)| (name.into(), value));
        let mut fields: Vec<(Cow<'static, str>, Doc)> = fields.collect();
        // Stable, so a name's values stay in the order written; of each run
        // the last one is kept.
        fields.sort_by(|(a, _), (b, _)| a.cmp(b));
        fields.dedup_by(|later, earlier| {
            let same = later.0 == earlier.0;
            if same {
                std::mem::swap(later, earlier);
            }
            same
        });
        Fields(fields)
    }
}

impl std::fmt::Debug for Fields {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl Doc {
    /// Builds an object from `(key, value)` pairs. A `&'static str` key is
    /// borrowed, a `String` key is kept: neither is copied.
    pub fn object<I, K>(fields: I) -> Doc
    where
        I: IntoIterator<Item = (K, Doc)>,
        K: Into<Cow<'static, str>>,
    {
        Doc::Object(fields.into_iter().collect())
    }

    /// Navigates a dotted path (`"geo.lat"`), returning the sub-document.
    pub fn path(&self, path: &str) -> Option<&Doc> {
        let mut cur = self;
        for part in path.split('.') {
            match cur {
                Doc::Object(fields) => cur = fields.get(part)?,
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
            Doc::Object(fields) => fields.iter().find_map(|(k, v)| {
                let mut path = v.non_finite_path()?;
                path.push(k.to_string());
                Some(path)
            }),
            _ => None,
        }
    }

    /// A total-order comparison key so values can live in ordered indexes.
    /// Cross-type comparisons order by type tag; numbers unify. The key
    /// borrows a string's text, so only an array or object (keyed by its
    /// debug form) allocates.
    fn order_key(&self) -> OrderKey<'_> {
        match self {
            Doc::Null => OrderKey::Null,
            Doc::Bool(b) => OrderKey::Bool(*b),
            Doc::I64(v) => OrderKey::Num(ordered_f64(*v as f64)),
            Doc::F64(v) => OrderKey::Num(ordered_f64(*v)),
            Doc::Str(s) => OrderKey::Str(Cow::Borrowed(s)),
            Doc::Array(_) | Doc::Object(_) => OrderKey::Composite(Cow::Owned(format!("{self:?}"))),
        }
    }
}

fn ordered_f64(v: f64) -> u64 {
    // Order-preserving map of the non-NaN floats; `+ 0.0` folds -0.0 into
    // 0.0, which `==` and range bounds cannot tell apart either.
    let bits = (v + 0.0).to_bits();
    if bits >> 63 == 0 {
        bits | (1 << 63)
    } else {
        !bits
    }
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum OrderKey<'a> {
    Null,
    Bool(bool),
    Num(u64),
    Str(Cow<'a, str>),
    Composite(Cow<'a, str>),
}

impl OrderKey<'_> {
    /// Whether a value with this key is `==` every other value with it,
    /// and no `==` value has another key: true of strings, bools and null.
    /// Not of numbers (`I64(1)` and `F64(1.0)` share a key), and nothing is
    /// claimed for composites, which are keyed by their debug text.
    fn is_exact(&self) -> bool {
        matches!(self, OrderKey::Null | OrderKey::Bool(_) | OrderKey::Str(_))
    }

    fn into_owned(self) -> OrderKey<'static> {
        match self {
            OrderKey::Null => OrderKey::Null,
            OrderKey::Bool(b) => OrderKey::Bool(b),
            OrderKey::Num(n) => OrderKey::Num(n),
            OrderKey::Str(s) => OrderKey::Str(Cow::Owned(s.into_owned())),
            OrderKey::Composite(s) => OrderKey::Composite(Cow::Owned(s.into_owned())),
        }
    }
}

/// What lets a map keyed by `OrderKey<'static>` be searched — and, unlike
/// a lifetime coercion of the map, edited — by a key that borrows from
/// the document in hand: the map's keys and the probe meet as `dyn Key`.
trait Key {
    fn key(&self) -> &OrderKey<'_>;
}

impl Key for OrderKey<'_> {
    fn key(&self) -> &OrderKey<'_> {
        self
    }
}

impl<'a> Borrow<dyn Key + 'a> for OrderKey<'static> {
    fn borrow(&self) -> &(dyn Key + 'a) {
        self
    }
}

impl PartialEq for dyn Key + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for dyn Key + '_ {}

impl PartialOrd for dyn Key + '_ {
    fn partial_cmp(&self, other: &Self) -> Option<KeyOrdering> {
        Some(self.cmp(other))
    }
}

impl Ord for dyn Key + '_ {
    fn cmp(&self, other: &Self) -> KeyOrdering {
        self.key().cmp(other.key())
    }
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
    fn validate(&self) -> Result<(), NosqlError> {
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

    /// The path an index would have to cover to serve this filter: that of
    /// a top-level `Eq`/`Range`, or of the first such arm of an `And`;
    /// `None` when no index can help. [`Collection::find`] looks for its
    /// index along the same walk, so a caller that indexes this path has
    /// indexed the filter.
    pub fn index_path(&self) -> Option<&str> {
        match self {
            Filter::Eq(path, _) | Filter::Range(path, ..) => Some(path),
            Filter::And(fs) => fs.iter().find_map(Filter::index_path),
            _ => None,
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

/// The documents sharing one index key, in id order.
type Bucket = Vec<(DocId, Arc<Doc>)>;

/// A bucket entry in the shape `find` answers in.
fn listed(entry: &(DocId, Arc<Doc>)) -> (DocId, &Arc<Doc>) {
    (entry.0, &entry.1)
}

#[derive(Debug, Default)]
struct FieldIndex {
    // Ordered index doubles as the equality index. No bucket is empty, and
    // a document sits in at most one: it has one value per path. Buckets
    // are found by a key borrowed from the document, so maintaining the
    // index allocates only when a bucket is born (or outgrows itself).
    by_value: BTreeMap<OrderKey<'static>, Bucket>,
}

impl FieldIndex {
    /// Lists `doc` under its value at `path`, if it has one.
    fn add(&mut self, path: &str, doc: &Arc<Doc>, id: DocId) {
        let Some(v) = doc.path(path) else { return };
        let key = v.order_key();
        let entry = (id, Arc::clone(doc));
        match self.by_value.get_mut(&key as &dyn Key) {
            Some(bucket) => {
                // Ids are handed out in order: an insert lands at the end.
                let at = bucket.partition_point(|(held, _)| *held < id);
                bucket.insert(at, entry);
            }
            None => {
                self.by_value.insert(key.into_owned(), vec![entry]);
            }
        }
    }

    /// Unlists `id` from under `doc`'s value at `path`, dropping the
    /// bucket with its last entry.
    fn drop_id(&mut self, path: &str, doc: &Doc, id: DocId) {
        let Some(v) = doc.path(path) else { return };
        let key = v.order_key();
        let Some(bucket) = self.by_value.get_mut(&key as &dyn Key) else {
            return;
        };
        if let Ok(at) = bucket.binary_search_by_key(&id, |(held, _)| *held) {
            bucket.remove(at);
        }
        if bucket.is_empty() {
            self.by_value.remove(&key as &dyn Key);
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
    /// documents immediately). A path that is already indexed stays as it
    /// is: its index is current by construction.
    pub fn create_index(&mut self, path: &str) {
        if self.has_index(path) {
            return;
        }
        let mut index = FieldIndex::default();
        for (&id, doc) in &self.docs {
            index.add(path, doc, id);
        }
        self.indexes.insert(path.to_string(), index);
    }

    /// Whether a field is indexed.
    fn has_index(&self, path: &str) -> bool {
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
    /// Answers from an index when the filter is an indexed `Eq`/`Range`, or
    /// an `And` with such an arm (the first one found along
    /// [`Filter::index_path`]'s walk); otherwise scans. What an index hands
    /// back is re-checked against the whole filter with one exception: a
    /// top-level `Eq` on a string, bool or null is answered with the
    /// value's bucket as it stands, because equal index keys of those types
    /// mean equal values. Numbers and composites are re-checked (`I64(1)`
    /// and `F64(1.0)` share a bucket and are not `==`), as is everything an
    /// `And` or a `Range` finds. Buckets are kept in id order, so only a
    /// `Range`, which concatenates several, sorts.
    ///
    /// # Errors
    ///
    /// Rejects malformed filters — an inverted range
    /// on an indexed field previously aborted inside the B-tree.
    pub fn find(&self, filter: &Filter) -> Result<Vec<(DocId, &Arc<Doc>)>, NosqlError> {
        filter.validate()?;
        let Some((arm, index)) = self.indexed_arm(filter) else {
            self.scans.fetch_add(1, Ordering::Relaxed);
            return Ok(self
                .docs
                .iter()
                .filter(|(_, d)| filter.matches(d))
                .map(|(&id, d)| (id, d))
                .collect());
        };
        self.index_hits.fetch_add(1, Ordering::Relaxed);
        Ok(match arm {
            Filter::Eq(_, v) => {
                let key = v.order_key();
                let bucket = index.by_value.get(&key as &dyn Key);
                let bucket = bucket.map_or(&[][..], Vec::as_slice);
                if key.is_exact() && std::ptr::eq(arm, filter) {
                    bucket.iter().map(listed).collect()
                } else {
                    let checked = bucket.iter().filter(|(_, d)| filter.matches(d));
                    checked.map(listed).collect()
                }
            }
            Filter::Range(_, lo, hi) => {
                let (lo, hi) = (ordered_f64(*lo), ordered_f64(*hi));
                let buckets = index.by_value.range(OrderKey::Num(lo)..=OrderKey::Num(hi));
                let mut hits: Vec<_> = buckets
                    .flat_map(|(_, bucket)| bucket)
                    .filter(|(_, d)| filter.matches(d))
                    .map(listed)
                    .collect();
                hits.sort_unstable_by_key(|(id, _)| *id);
                hits
            }
            _ => unreachable!("only Eq and Range arms are indexed"),
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

    /// The first `Eq`/`Range` arm of `filter` whose path is indexed, with
    /// that index — [`Filter::index_path`]'s walk, stopping only at arms an
    /// index exists for.
    fn indexed_arm<'f>(&self, filter: &'f Filter) -> Option<(&'f Filter, &FieldIndex)> {
        match filter {
            Filter::Eq(path, _) | Filter::Range(path, ..) => {
                Some((filter, self.indexes.get(path)?))
            }
            Filter::And(fs) => fs.iter().find_map(|f| self.indexed_arm(f)),
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

    /// What the `BTreeMap` this list replaced gave for free.
    #[test]
    fn fields_behave_like_the_sorted_map_they_replaced() {
        let pairs = [
            ("v", Doc::I64(1)),
            ("kind", Doc::Str("air".into())),
            (
                "geo",
                Doc::object([("lon", Doc::F64(-91.0)), ("lat", Doc::Null)]),
            ),
            ("v", Doc::I64(2)),
        ];
        let doc = Doc::object(pairs.clone());
        assert_eq!(
            format!("{doc:?}"),
            r#"Object({"geo": Object({"lat": Null, "lon": F64(-91.0)}), "kind": Str("air"), "v": I64(2)})"#,
            "name order, in the text a map prints"
        );
        assert_eq!(doc.path("v"), Some(&Doc::I64(2)), "the last write wins");
        let Doc::Object(fields) = &doc else {
            unreachable!()
        };
        let names: Vec<&str> = fields.iter().map(|(name, _)| name).collect();
        assert_eq!(names, ["geo", "kind", "v"]);
        assert_eq!(fields.get("nope"), None);
        let mut reordered = pairs.clone();
        reordered.swap(1, 2);
        reordered.swap(0, 1);
        assert_eq!(
            doc,
            Doc::object(reordered),
            "equality ignores insertion order"
        );
        assert_ne!(doc, Doc::object(pairs[..3].to_vec()));
        assert!(Doc::object::<_, String>([]) == Doc::Object(Fields::default()));
    }

    /// Whether a name is borrowed or owned is invisible: a document keeps
    /// its equality, its debug text and so its composite index key (and a
    /// query's fingerprint) whichever way its names were given.
    #[test]
    fn owned_and_static_names_make_the_same_document() {
        let fixed = Doc::object([
            ("kind", Doc::Str("air".into())),
            ("geo", Doc::object([("lat", Doc::F64(30.4))])),
            ("v", Doc::I64(3)),
        ]);
        let owned = Doc::object([
            ("v".to_string(), Doc::I64(3)),
            (
                "geo".to_string(),
                Doc::object([("lat".to_string(), Doc::F64(30.4))]),
            ),
            ("kind".to_string(), Doc::Str("air".into())),
        ]);
        assert_eq!(fixed, owned);
        assert_eq!(format!("{fixed:?}"), format!("{owned:?}"));
        assert!(matches!(fixed.order_key(), OrderKey::Composite(_)));
        assert_eq!(fixed.order_key(), owned.order_key());
        assert_eq!(fixed.path("geo.lat"), owned.path("geo.lat"));
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
mod index_tests {
    use super::*;

    fn x(v: Doc) -> Doc {
        Doc::object([("x", v)])
    }

    fn ids(c: &Collection, f: &Filter) -> Vec<u64> {
        c.find(f).unwrap().iter().map(|(id, _)| id.0).collect()
    }

    #[test]
    fn an_eq_on_a_number_is_rechecked_inside_its_bucket() {
        let mut c = Collection::new("t");
        c.create_index("x");
        for v in [Doc::I64(1), Doc::F64(1.0), Doc::I64(1), Doc::F64(1.5)] {
            c.insert(x(v)).unwrap();
        }
        assert_eq!(c.indexes["x"].by_value.len(), 2, "1 and 1.0 share a key");
        assert_eq!(ids(&c, &Filter::Eq("x".into(), Doc::I64(1))), [0, 2]);
        assert_eq!(ids(&c, &Filter::Eq("x".into(), Doc::F64(1.0))), [1]);
        assert_eq!(ids(&c, &Filter::Range("x".into(), 1.0, 1.0)), [0, 1, 2]);
        assert_eq!(c.query_stats(), (0, 3));
    }

    #[test]
    fn negative_zero_is_zero_to_the_index_as_it_is_to_the_scan() {
        let mut c = Collection::new("t");
        c.insert(x(Doc::F64(-0.0))).unwrap();
        c.insert(x(Doc::F64(0.0))).unwrap();
        let probes = [
            Filter::Eq("x".into(), Doc::F64(0.0)),
            Filter::Eq("x".into(), Doc::F64(-0.0)),
            Filter::Range("x".into(), 0.0, 1.0),
            Filter::Range("x".into(), -1.0, -0.0),
        ];
        let scanned: Vec<_> = probes.iter().map(|f| ids(&c, f)).collect();
        c.create_index("x");
        let indexed: Vec<_> = probes.iter().map(|f| ids(&c, f)).collect();
        assert_eq!(indexed, scanned);
        assert_eq!(indexed[0], [0, 1]);
    }

    #[test]
    fn buckets_stay_in_id_order_when_an_update_moves_an_old_id_in() {
        let mut c = Collection::new("t");
        c.create_index("x");
        let moved = c.insert(x(Doc::Str("a".into()))).unwrap();
        for _ in 0..3 {
            c.insert(x(Doc::Str("b".into()))).unwrap();
        }
        c.update(moved, x(Doc::Str("b".into()))).unwrap();
        let f = Filter::Eq("x".into(), Doc::Str("b".into()));
        assert_eq!(ids(&c, &f), [0, 1, 2, 3], "no sort ran: the bucket is");
        assert!(Arc::ptr_eq(c.find(&f).unwrap()[0].1, c.get(moved).unwrap()));
    }

    #[test]
    fn indexing_a_path_twice_keeps_the_index_it_has() {
        let mut c = Collection::new("t");
        c.insert(x(Doc::Str("a".into()))).unwrap();
        c.create_index("x");
        let built = c.indexes["x"].by_value.values().next().unwrap().as_ptr();
        c.create_index("x");
        let kept = c.indexes["x"].by_value.values().next().unwrap().as_ptr();
        assert_eq!(built, kept, "nothing was rebuilt");
    }

    #[test]
    fn index_path_is_the_first_eq_or_range_arm() {
        let eq = |p: &str| Filter::Eq(p.into(), Doc::Null);
        assert_eq!(eq("a").index_path(), Some("a"));
        assert_eq!(Filter::Range("r".into(), 0.0, 1.0).index_path(), Some("r"));
        let nested = Filter::And(vec![
            Filter::Exists("e".into()),
            Filter::Or(vec![eq("o")]),
            Filter::And(vec![Filter::Exists("e".into()), eq("inner")]),
            eq("later"),
        ]);
        assert_eq!(nested.index_path(), Some("inner"));
        assert_eq!(Filter::Or(vec![eq("o")]).index_path(), None);
        assert_eq!(Filter::Exists("e".into()).index_path(), None);

        // `find` takes the same walk, but only stops where an index is.
        let mut c = Collection::new("t");
        c.insert(Doc::object([("inner", Doc::Null), ("later", Doc::Null)]))
            .unwrap();
        c.create_index("later");
        assert_eq!(c.count(&nested).unwrap(), 0, "no field `e`");
        assert_eq!(c.query_stats(), (0, 1), "answered through `later`");
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
}
