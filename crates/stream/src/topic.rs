//! Partitioned, offset-addressed topics.

use sctelemetry::TelemetryHandle;

use crate::event::Event;

/// Metric name of the published-events counter.
pub const METRIC_PUBLISH: &str = "scstream_topic_publish_total";
/// Metric name of the consumed-events counter (events handed out by reads).
pub const METRIC_CONSUME: &str = "scstream_topic_consume_total";

/// Partition index within a topic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PartitionId(pub u32);

/// Offset of an event within a partition's log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Offset(pub u64);

impl Offset {
    /// The offset after this one.
    pub fn next(self) -> Offset {
        Offset(self.0 + 1)
    }
}

/// A partitioned append-only log: events with the same key always land in
/// the same partition, preserving per-key order.
///
/// An offset names an event for as long as the topic lives: retention
/// ([`Topic::truncate_before`]) drops events from the front of a partition
/// and raises its start offset, and every later offset keeps its meaning.
///
/// # Examples
///
/// ```
/// use scstream::{Event, Offset, PartitionId, Topic};
///
/// let mut t = Topic::new("waze", 2);
/// t.publish(Event::with_key("jam-1", b"slowdown".to_vec()));
/// let p = t.partition_for_key("jam-1");
/// let events = t.read(p, Offset(0), 10);
/// assert_eq!(events.len(), 1);
/// ```
#[derive(Debug)]
pub struct Topic {
    name: String,
    partitions: Vec<Partition>,
    round_robin: u32,
    telemetry: TelemetryHandle,
}

/// One partition's log: the events still held, the first of them at
/// offset `base`.
#[derive(Debug, Default)]
struct Partition {
    base: u64,
    log: Vec<Event>,
}

impl Partition {
    fn end(&self) -> u64 {
        self.base + self.log.len() as u64
    }
}

impl Topic {
    /// Creates a topic with `partitions` partitions.
    ///
    /// # Panics
    ///
    /// Panics if `partitions` is zero.
    pub fn new(name: impl Into<String>, partitions: u32) -> Self {
        assert!(partitions > 0, "need at least one partition");
        Topic {
            name: name.into(),
            partitions: (0..partitions).map(|_| Partition::default()).collect(),
            round_robin: 0,
            telemetry: TelemetryHandle::disabled(),
        }
    }

    /// Attaches telemetry: publishes and reads count into
    /// [`METRIC_PUBLISH`] / [`METRIC_CONSUME`].
    pub fn with_telemetry(mut self, telemetry: TelemetryHandle) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Topic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of partitions.
    pub fn partition_count(&self) -> u32 {
        self.partitions.len() as u32
    }

    /// The partition a key maps to (FNV-1a hash modulo partitions).
    pub fn partition_for_key(&self, key: &str) -> PartitionId {
        let h = simclock::hash::fnv1a(key.as_bytes());
        PartitionId((h % self.partitions.len() as u64) as u32)
    }

    /// Appends an event, routing by key (or round-robin when keyless).
    /// Returns where it landed.
    pub fn publish(&mut self, event: Event) -> (PartitionId, Offset) {
        let pid = match event.key() {
            Some(k) => self.partition_for_key(k),
            None => {
                let pid = PartitionId(self.round_robin % self.partitions.len() as u32);
                self.round_robin = self.round_robin.wrapping_add(1);
                pid
            }
        };
        let partition = &mut self.partitions[pid.0 as usize];
        let offset = Offset(partition.end());
        partition.log.push(event);
        self.telemetry
            .counter_inc(METRIC_PUBLISH, "events published to topics");
        (pid, offset)
    }

    /// Reads up to `max` events from `partition` starting at `from` — or at
    /// [`Topic::start_offset`], when `from` has been truncated away.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range partition.
    pub fn read(&self, partition: PartitionId, from: Offset, max: usize) -> &[Event] {
        let Partition { base, log } = &self.partitions[partition.0 as usize];
        let start = (from.0.saturating_sub(*base)).min(log.len() as u64) as usize;
        let end = start.saturating_add(max).min(log.len());
        if end > start {
            self.telemetry.counter_add(
                METRIC_CONSUME,
                "events handed out by topic reads",
                (end - start) as u64,
            );
        }
        &log[start..end]
    }

    /// The next offset to be written in `partition` (the "log end offset").
    pub fn end_offset(&self, partition: PartitionId) -> Offset {
        Offset(self.partitions[partition.0 as usize].end())
    }

    /// The offset of the oldest event `partition` still holds (the "log
    /// start offset"): 0 until [`Topic::truncate_before`] raises it.
    pub fn start_offset(&self, partition: PartitionId) -> Offset {
        Offset(self.partitions[partition.0 as usize].base)
    }

    /// Retention: drops the events of `partition` below `offset` (clamped
    /// to what the partition holds; never lowers the start offset).
    /// Offsets at and past `offset` read as before.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range partition.
    pub fn truncate_before(&mut self, partition: PartitionId, offset: Offset) {
        let partition = &mut self.partitions[partition.0 as usize];
        let dropped = (offset.0.saturating_sub(partition.base)).min(partition.log.len() as u64);
        partition.log.drain(..dropped as usize);
        partition.base += dropped;
    }

    /// Events held across all partitions (published and not truncated).
    pub fn total_events(&self) -> usize {
        self.partitions.iter().map(|p| p.log.len()).sum()
    }

    /// Events held per partition, in partition order.
    pub fn partition_sizes(&self) -> Vec<usize> {
        self.partitions.iter().map(|p| p.log.len()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_same_partition() {
        let mut t = Topic::new("t", 8);
        let mut pids = Vec::new();
        for _ in 0..5 {
            let (pid, _) = t.publish(Event::with_key("stable", b"x".to_vec()));
            pids.push(pid);
        }
        assert!(pids.iter().all(|&p| p == pids[0]));
        // Pinned: a changed key hash would silently re-partition topics.
        assert_eq!(t.partition_for_key("k-00001"), PartitionId(4));
    }

    #[test]
    fn per_key_order_preserved() {
        let mut t = Topic::new("t", 4);
        for i in 0..10u8 {
            t.publish(Event::with_key("k", vec![i]));
        }
        let p = t.partition_for_key("k");
        let events = t.read(p, Offset(0), 100);
        let payloads: Vec<u8> = events.iter().map(|e| e.payload()[0]).collect();
        assert_eq!(payloads, (0..10).collect::<Vec<u8>>());
    }

    #[test]
    fn keyless_round_robin_spreads() {
        let mut t = Topic::new("t", 3);
        for _ in 0..9 {
            t.publish(Event::new(b"x".to_vec()));
        }
        assert_eq!(t.partition_sizes(), vec![3, 3, 3]);
    }

    #[test]
    fn read_windows() {
        let mut t = Topic::new("t", 1);
        for i in 0..5u8 {
            t.publish(Event::new(vec![i]));
        }
        let p = PartitionId(0);
        assert_eq!(t.read(p, Offset(0), 2).len(), 2);
        assert_eq!(t.read(p, Offset(3), 100).len(), 2);
        assert_eq!(t.read(p, Offset(5), 1).len(), 0);
        assert_eq!(t.read(p, Offset(99), 1).len(), 0);
        assert_eq!(t.end_offset(p), Offset(5));
    }

    #[test]
    fn reads_below_the_base_start_at_the_base() {
        let mut t = Topic::new("t", 2);
        for i in 0..6u8 {
            t.publish(Event::with_key("k", vec![i]));
        }
        let p = t.partition_for_key("k");
        t.truncate_before(p, Offset(4));
        assert_eq!(t.start_offset(p), Offset(4));
        assert_eq!(
            t.end_offset(p),
            Offset(6),
            "later offsets keep their meaning"
        );
        let payloads =
            |events: &[Event]| -> Vec<u8> { events.iter().map(|e| e.payload()[0]).collect() };
        assert_eq!(payloads(t.read(p, Offset(0), 100)), [4, 5]);
        assert_eq!(payloads(t.read(p, Offset(3), 1)), [4]);
        assert_eq!(payloads(t.read(p, Offset(5), 100)), [5]);
        assert!(t.read(p, Offset(6), 100).is_empty());
        assert_eq!(t.total_events(), 2, "what is held, not what was published");

        // A publish continues the numbering; truncation never goes back
        // and never passes the end.
        assert_eq!(t.publish(Event::with_key("k", vec![6])), (p, Offset(6)));
        t.truncate_before(p, Offset(2));
        assert_eq!(t.start_offset(p), Offset(4));
        t.truncate_before(p, Offset(99));
        assert_eq!((t.start_offset(p), t.end_offset(p)), (Offset(7), Offset(7)));
        assert_eq!(t.publish(Event::with_key("k", vec![7])), (p, Offset(7)));
        assert_eq!(payloads(t.read(p, Offset(0), usize::MAX)), [7]);
        // The other partition was never touched.
        let other = PartitionId(1 - p.0);
        assert_eq!(
            (t.start_offset(other), t.end_offset(other)),
            (Offset(0), Offset(0))
        );
    }

    #[test]
    fn keys_spread_over_partitions() {
        let mut t = Topic::new("t", 8);
        for i in 0..200 {
            t.publish(Event::with_key(format!("key-{i}"), b"x".to_vec()));
        }
        let sizes = t.partition_sizes();
        assert!(
            sizes.iter().all(|&s| s > 0),
            "every partition gets traffic: {sizes:?}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn zero_partitions_panics() {
        let _ = Topic::new("t", 0);
    }
}
