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
    partitions: Vec<Vec<Event>>,
    round_robin: u32,
    telemetry: TelemetryHandle,
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
            partitions: (0..partitions).map(|_| Vec::new()).collect(),
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
        let log = &mut self.partitions[pid.0 as usize];
        let offset = Offset(log.len() as u64);
        log.push(event);
        self.telemetry
            .counter_inc(METRIC_PUBLISH, "events published to topics");
        (pid, offset)
    }

    /// Reads up to `max` events from `partition` starting at `from`.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range partition.
    pub fn read(&self, partition: PartitionId, from: Offset, max: usize) -> &[Event] {
        let log = &self.partitions[partition.0 as usize];
        let start = (from.0 as usize).min(log.len());
        let end = (start + max).min(log.len());
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
        Offset(self.partitions[partition.0 as usize].len() as u64)
    }

    /// Total events across all partitions.
    pub fn total_events(&self) -> usize {
        self.partitions.iter().map(Vec::len).sum()
    }

    /// Events per partition, in partition order.
    pub fn partition_sizes(&self) -> Vec<usize> {
        self.partitions.iter().map(Vec::len).collect()
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
