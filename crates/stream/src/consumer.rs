//! Consumer groups: partition assignment, committed offsets, redelivery.

use std::collections::BTreeMap;

use sctelemetry::TelemetryHandle;

use crate::event::Event;
use crate::topic::{Offset, PartitionId, Topic};

/// Metric name of the committed-events counter.
pub const METRIC_COMMITS: &str = "scstream_consumer_commits_total";
/// Metric name of the consumer-group lag gauge (events published but not
/// yet committed), refreshed on every [`ConsumerGroup::lag`] call.
const METRIC_LAG: &str = "scstream_consumer_lag_events";

/// Identifier of a consumer within a group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConsumerId(pub u32);

/// A consumer group over one topic: partitions are divided among members,
/// each partition tracks a *committed* offset, and polling hands out events
/// past the committed offset.
///
/// Delivery is **at-least-once**: events delivered by [`ConsumerGroup::poll`]
/// are re-delivered after a crash unless [`ConsumerGroup::commit`] recorded
/// them first.
///
/// # Examples
///
/// ```
/// use scstream::{ConsumerGroup, ConsumerId, Event, Topic};
///
/// let mut topic = Topic::new("t", 2);
/// topic.publish(Event::with_key("a", b"1".to_vec()));
///
/// let mut group = ConsumerGroup::new("analytics", 2);
/// group.join(ConsumerId(0));
/// let events = group.poll(ConsumerId(0), &topic, 10);
/// assert_eq!(events.len(), 1);
/// ```
#[derive(Debug)]
pub struct ConsumerGroup {
    name: String,
    partitions: u32,
    members: Vec<ConsumerId>,
    committed: BTreeMap<PartitionId, Offset>,
    // Offsets handed out but not yet committed, per partition.
    in_flight: BTreeMap<PartitionId, Offset>,
    telemetry: TelemetryHandle,
}

impl ConsumerGroup {
    /// Creates a group consuming a topic with `partitions` partitions.
    ///
    /// # Panics
    ///
    /// Panics if `partitions` is zero.
    pub fn new(name: impl Into<String>, partitions: u32) -> Self {
        assert!(partitions > 0, "need at least one partition");
        ConsumerGroup {
            name: name.into(),
            partitions,
            members: Vec::new(),
            committed: BTreeMap::new(),
            in_flight: BTreeMap::new(),
            telemetry: TelemetryHandle::disabled(),
        }
    }

    /// Attaches telemetry: commits count into [`METRIC_COMMITS`] and
    /// [`ConsumerGroup::lag`] refreshes the `scstream_consumer_lag_events` gauge.
    pub fn with_telemetry(mut self, telemetry: TelemetryHandle) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Group name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a member, triggering a rebalance.
    pub fn join(&mut self, consumer: ConsumerId) {
        if !self.members.contains(&consumer) {
            self.members.push(consumer);
            self.rebalance();
        }
    }

    /// Removes a member (crash or clean leave), triggering a rebalance.
    /// Uncommitted in-flight events on its partitions become eligible for
    /// redelivery.
    pub fn leave(&mut self, consumer: ConsumerId) {
        self.members.retain(|&c| c != consumer);
        self.rebalance();
    }

    fn rebalance(&mut self) {
        // Reset in-flight positions to committed: anything uncommitted will
        // be redelivered to the partition's (possibly new) owner.
        self.in_flight.clear();
    }

    /// The partitions assigned to `consumer` (range assignment).
    fn assignment(&self, consumer: ConsumerId) -> Vec<PartitionId> {
        let Some(idx) = self.members.iter().position(|&c| c == consumer) else {
            return Vec::new();
        };
        (0..self.partitions)
            .filter(|p| (*p as usize) % self.members.len() == idx)
            .map(PartitionId)
            .collect()
    }

    /// Polls up to `max` events for `consumer` from its assigned partitions,
    /// starting from each partition's in-flight position (≥ committed) — or
    /// from the oldest event the topic still holds, when retention has
    /// passed that position.
    pub fn poll(
        &mut self,
        consumer: ConsumerId,
        topic: &Topic,
        max: usize,
    ) -> Vec<(PartitionId, Offset, Event)> {
        let mut out = Vec::new();
        for pid in self.assignment(consumer) {
            if out.len() >= max {
                break;
            }
            let committed = self.committed.get(&pid).copied().unwrap_or_default();
            let from = self
                .in_flight
                .get(&pid)
                .copied()
                .unwrap_or(committed)
                .max(committed)
                .max(topic.start_offset(pid));
            let events = topic.read(pid, from, max - out.len());
            for (i, e) in events.iter().enumerate() {
                out.push((pid, Offset(from.0 + i as u64), e.clone()));
            }
            if !events.is_empty() {
                self.in_flight
                    .insert(pid, Offset(from.0 + events.len() as u64));
            }
        }
        out
    }

    /// Commits all offsets up to and including `offset` on `partition`.
    pub fn commit(&mut self, partition: PartitionId, offset: Offset) {
        let next = offset.next();
        let entry = self.committed.entry(partition).or_default();
        if next > *entry {
            self.telemetry.counter_add(
                METRIC_COMMITS,
                "events committed by consumer groups",
                next.0 - entry.0,
            );
            *entry = next;
        }
    }

    /// The committed position of a partition (next offset to deliver after a
    /// restart).
    fn committed(&self, partition: PartitionId) -> Offset {
        self.committed.get(&partition).copied().unwrap_or_default()
    }

    /// Total committed events across partitions.
    pub fn total_committed(&self) -> u64 {
        self.committed.values().map(|o| o.0).sum()
    }

    /// Lag: events the topic holds that this group has not committed. Also
    /// refreshes the `scstream_consumer_lag_events` gauge when telemetry is attached.
    pub fn lag(&self, topic: &Topic) -> u64 {
        let lag: u64 = (0..self.partitions)
            .map(PartitionId)
            .map(|p| {
                let unread_from = self.committed(p).max(topic.start_offset(p));
                topic.end_offset(p).0.saturating_sub(unread_from.0)
            })
            .sum();
        self.telemetry.gauge_set(
            METRIC_LAG,
            "events published but not yet committed by the group",
            lag as i64,
        );
        lag
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topic_with(n: usize, partitions: u32) -> Topic {
        let mut t = Topic::new("t", partitions);
        for i in 0..n {
            t.publish(Event::with_key(format!("k{i}"), vec![i as u8]));
        }
        t
    }

    #[test]
    fn single_consumer_gets_all_partitions() {
        let mut g = ConsumerGroup::new("g", 4);
        g.join(ConsumerId(0));
        assert_eq!(g.assignment(ConsumerId(0)).len(), 4);
    }

    #[test]
    fn two_consumers_split_partitions() {
        let mut g = ConsumerGroup::new("g", 4);
        g.join(ConsumerId(0));
        g.join(ConsumerId(1));
        let a = g.assignment(ConsumerId(0));
        let b = g.assignment(ConsumerId(1));
        assert_eq!(a.len() + b.len(), 4);
        assert!(a.iter().all(|p| !b.contains(p)));
    }

    #[test]
    fn poll_then_commit_advances() {
        let topic = topic_with(6, 2);
        let mut g = ConsumerGroup::new("g", 2);
        g.join(ConsumerId(0));
        let events = g.poll(ConsumerId(0), &topic, 100);
        assert_eq!(events.len(), 6);
        for (pid, off, _) in &events {
            g.commit(*pid, *off);
        }
        assert_eq!(g.lag(&topic), 0);
        assert!(
            g.poll(ConsumerId(0), &topic, 100).is_empty(),
            "nothing left after commit"
        );
    }

    #[test]
    fn uncommitted_events_redelivered_after_crash() {
        let topic = topic_with(6, 2);
        let mut g = ConsumerGroup::new("g", 2);
        g.join(ConsumerId(0));
        let first = g.poll(ConsumerId(0), &topic, 100);
        assert_eq!(first.len(), 6);
        // Consumer crashes without committing.
        g.leave(ConsumerId(0));
        g.join(ConsumerId(1));
        let second = g.poll(ConsumerId(1), &topic, 100);
        assert_eq!(second.len(), 6, "at-least-once: all redelivered");
    }

    #[test]
    fn partial_commit_redelivers_remainder() {
        let mut topic = Topic::new("t", 1);
        for i in 0..5u8 {
            topic.publish(Event::new(vec![i]));
        }
        let mut g = ConsumerGroup::new("g", 1);
        g.join(ConsumerId(0));
        let events = g.poll(ConsumerId(0), &topic, 100);
        // Commit only the first two.
        g.commit(events[1].0, events[1].1);
        g.leave(ConsumerId(0));
        g.join(ConsumerId(0));
        let redelivered = g.poll(ConsumerId(0), &topic, 100);
        assert_eq!(redelivered.len(), 3);
        assert_eq!(redelivered[0].2.payload(), &[2]);
    }

    #[test]
    fn a_poll_across_a_truncation_resumes_at_the_oldest_event_held() {
        let mut topic = Topic::new("t", 1);
        for i in 0..8u8 {
            topic.publish(Event::new(vec![i]));
        }
        let p = PartitionId(0);
        let mut g = ConsumerGroup::new("g", 1);
        g.join(ConsumerId(0));
        let first = g.poll(ConsumerId(0), &topic, 3);
        g.commit(p, first[1].1); // committed through offset 1
        g.leave(ConsumerId(0));
        g.join(ConsumerId(0));

        // Retention passes the group's position: offsets 2..5 are gone.
        topic.truncate_before(p, Offset(5));
        assert_eq!(g.lag(&topic), 3, "what can still be read");
        let polled = g.poll(ConsumerId(0), &topic, 2);
        let seen: Vec<(u64, u8)> = polled
            .iter()
            .map(|(_, o, e)| (o.0, e.payload()[0]))
            .collect();
        assert_eq!(seen, [(5, 5), (6, 6)], "offsets still name their events");
        let rest = g.poll(ConsumerId(0), &topic, 100);
        assert_eq!(rest.len(), 1);
        assert_eq!((rest[0].1, rest[0].2.payload()), (Offset(7), &[7u8][..]));
        g.commit(p, Offset(7));
        assert_eq!(g.lag(&topic), 0);

        // Retention behind the group's position changes nothing for it.
        topic.publish(Event::new(vec![8]));
        topic.truncate_before(p, Offset(8));
        let last = g.poll(ConsumerId(0), &topic, 100);
        assert_eq!(last.len(), 1);
        assert_eq!(last[0].1, Offset(8));
    }

    #[test]
    fn poll_without_membership_is_empty() {
        let topic = topic_with(3, 1);
        let mut g = ConsumerGroup::new("g", 1);
        assert!(g.poll(ConsumerId(9), &topic, 10).is_empty());
    }

    #[test]
    fn commit_is_monotone() {
        let mut g = ConsumerGroup::new("g", 1);
        g.commit(PartitionId(0), Offset(5));
        g.commit(PartitionId(0), Offset(2)); // stale commit ignored
        assert_eq!(g.committed(PartitionId(0)), Offset(6));
    }

    #[test]
    fn lag_counts_unconsumed() {
        let topic = topic_with(10, 2);
        let g = ConsumerGroup::new("g", 2);
        assert_eq!(g.lag(&topic), 10);
    }

    #[test]
    fn telemetry_tracks_publish_consume_and_lag() {
        let t = sctelemetry::Telemetry::shared();
        let mut topic = Topic::new("t", 2).with_telemetry(t.handle());
        for i in 0..6 {
            topic.publish(Event::with_key(format!("k{i}"), vec![i as u8]));
        }
        let mut g = ConsumerGroup::new("g", 2).with_telemetry(t.handle());
        g.join(ConsumerId(0));
        let events = g.poll(ConsumerId(0), &topic, 100);
        for (pid, off, _) in &events[..4] {
            g.commit(*pid, *off);
        }
        let lag = g.lag(&topic);

        let reg = t.registry();
        let counter = |n: &str| reg.get(n).unwrap().as_counter().unwrap().get();
        assert_eq!(counter(crate::topic::METRIC_PUBLISH), 6);
        assert_eq!(counter(crate::topic::METRIC_CONSUME), 6);
        assert!(counter(METRIC_COMMITS) >= 2, "commit counter advances");
        assert_eq!(
            reg.get(METRIC_LAG).unwrap().as_gauge().unwrap().get() as u64,
            lag
        );
    }
}
