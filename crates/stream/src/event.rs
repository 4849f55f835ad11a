//! Stream events.

use std::sync::Arc;

use bytes::Bytes;
use simclock::SimTime;

/// A single ingested record: payload, optional partitioning key, headers,
/// an event timestamp, and — once a
/// [`ResilientProducer`](crate::ResilientProducer) has sent it — the
/// producer's typed stamp.
///
/// Payload, key, header strings and the stamp's producer id are shared,
/// not copied: an event built from an `Arc<str>` key and a [`Bytes`]
/// payload that other events also hold allocates nothing for either, and
/// a send through a producer stores the event it was given, stamped
/// without allocating. A clone allocates at most one thing: the (short,
/// key-sorted) header list, which a producer leaves empty.
///
/// # Examples
///
/// ```
/// use scstream::Event;
///
/// let e = Event::with_key("cam-0007", b"frame bytes".to_vec())
///     .header("source", "dotd")
///     .header("city", "Baton Rouge");
/// assert_eq!(e.key(), Some("cam-0007"));
/// assert_eq!(
///     e.headers().collect::<Vec<_>>(),
///     [("city", "Baton Rouge"), ("source", "dotd")]
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    payload: Bytes,
    key: Option<Arc<str>>,
    /// Sorted by name, names unique: what a map would give — iteration in
    /// key order, equality whatever the insertion order — without a
    /// 544-byte B-tree node per event for a couple of entries.
    headers: Vec<(Arc<str>, Arc<str>)>,
    timestamp: SimTime,
    /// `(producer id, sequence number)`, set by the producer that sent it.
    stamp: Option<(Arc<str>, u64)>,
}

impl Event {
    /// Creates an event with no key. A [`Bytes`] payload is shared, not
    /// copied; a `Vec<u8>` is copied into one.
    pub fn new(payload: impl Into<Bytes>) -> Self {
        Event {
            payload: payload.into(),
            key: None,
            headers: Vec::new(),
            timestamp: SimTime::ZERO,
            stamp: None,
        }
    }

    /// Creates an event with a partitioning key (events with the same key
    /// land in the same partition and stay ordered).
    pub fn with_key(key: impl Into<Arc<str>>, payload: impl Into<Bytes>) -> Self {
        let mut e = Event::new(payload);
        e.key = Some(key.into());
        e
    }

    /// Adds a header, replacing any earlier value of `k` (builder style).
    /// An `Arc<str>` passed for either side is shared, not copied.
    pub fn header(mut self, k: impl Into<Arc<str>>, v: impl Into<Arc<str>>) -> Self {
        let (k, v) = (k.into(), v.into());
        match self.headers.binary_search_by(|(name, _)| name.cmp(&k)) {
            Ok(i) => self.headers[i].1 = v,
            Err(i) => self.headers.insert(i, (k, v)),
        }
        self
    }

    /// Stamps the event as send `seq` of producer `producer`, replacing
    /// any earlier stamp. A producer stamps each send once, before its
    /// first attempt; tests forge the sends an audit counts with it.
    pub(crate) fn stamped(mut self, producer: impl Into<Arc<str>>, seq: u64) -> Self {
        self.stamp = Some((producer.into(), seq));
        self
    }

    /// Sets the event timestamp (builder style).
    pub fn at(mut self, t: SimTime) -> Self {
        self.timestamp = t;
        self
    }

    /// The payload bytes.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// The partitioning key, if any.
    pub fn key(&self) -> Option<&str> {
        self.key.as_deref()
    }

    /// All headers in key order.
    pub fn headers(&self) -> impl Iterator<Item = (&str, &str)> {
        self.headers.iter().map(|(k, v)| (&**k, &**v))
    }

    /// The `(producer id, sequence number)` the sending producer stamped,
    /// or `None` for an event no producer sent.
    pub fn stamp(&self) -> Option<(&str, u64)> {
        self.stamp.as_ref().map(|(id, seq)| (&**id, *seq))
    }

    /// Event timestamp.
    pub fn timestamp(&self) -> SimTime {
        self.timestamp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates() {
        let e = Event::with_key("k", b"p".to_vec())
            .header("a", "1")
            .header("b", "2")
            .at(SimTime::from_secs(5));
        assert_eq!(e.key(), Some("k"));
        assert_eq!(e.payload(), b"p");
        assert_eq!(e.headers().count(), 2);
        assert_eq!(e.timestamp(), SimTime::from_secs(5));
        assert_eq!(e.payload().len(), 1);
    }

    /// What the `BTreeMap` this list replaced gave for free.
    #[test]
    fn headers_behave_like_a_sorted_map() {
        let e = Event::new(vec![])
            .header("seq", "1")
            .header("city", "Baton Rouge")
            .header("producer", "p0")
            .header("seq", "2");
        assert_eq!(
            e.headers().collect::<Vec<_>>(),
            vec![("city", "Baton Rouge"), ("producer", "p0"), ("seq", "2")],
            "key order, and a second value for a name replaces the first"
        );
        let other = Event::new(vec![])
            .header("producer", "p0")
            .header("seq", "2")
            .header("city", "Baton Rouge");
        assert_eq!(e, other, "equality ignores insertion order");
        assert_ne!(e, other.header("seq", "3"));
    }

    #[test]
    fn keyless_event() {
        let e = Event::new(vec![]);
        assert_eq!(e.key(), None);
        assert!(e.payload().is_empty());
        assert_eq!(e.headers().count(), 0);
        assert_eq!(e.stamp(), None);
    }

    #[test]
    fn a_stamp_is_typed_and_replaced_not_listed() {
        let e = Event::new(vec![])
            .header("city", "Baton Rouge")
            .stamped("p0", 1);
        assert_eq!(e.stamp(), Some(("p0", 1)));
        assert_eq!(
            e.headers().collect::<Vec<_>>(),
            vec![("city", "Baton Rouge")],
            "the stamp is not a header"
        );
        let resent = e.clone().stamped("p0", 2);
        assert_eq!(resent.stamp(), Some(("p0", 2)));
        assert_ne!(e, resent, "equality sees the stamp");
    }
}
