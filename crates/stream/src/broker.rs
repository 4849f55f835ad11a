//! Broker unavailability and producer resilience.
//!
//! The paper's ingestion layer assumes Flume/Kafka keep accepting traffic;
//! this module models what happens when they don't. A [`Broker`] fronts a
//! [`Topic`] with outage windows and message faults derived from a
//! [`scfault::FaultPlan`]: while the broker node is crashed or partitioned,
//! publishes are rejected; individual messages can be dropped in flight or
//! have their acknowledgement lost after being stored. A
//! [`ResilientProducer`] retries through all of that under a seeded
//! [`RetryPolicy`], giving **at-least-once** delivery: nothing the producer
//! sends is lost (unless attempts run out mid-outage), but ack loss makes it
//! resend stored events, so duplicates appear and are accounted — exactly
//! the accounting [`audit_delivery`] performs from the producers' typed
//! stamps ([`Event::stamp`]), in one pass over a log kept whole or, with a
//! [`DeliveryAuditor`], in instalments over a log that is truncated behind
//! it.

use std::collections::BTreeMap;
use std::sync::Arc;

use scfault::{FaultPlan, MessageFaults, OutageWindows, RetryPolicy};
use sctelemetry::TelemetryHandle;
use simclock::{SeededRng, SimTime};

use crate::event::Event;
use crate::topic::{Offset, PartitionId, Topic};

/// Metric name of the publishes-rejected-while-down counter.
const METRIC_BROKER_REJECTED: &str = "scstream_broker_rejected_total";
/// Metric name of the messages-dropped-in-flight counter.
const METRIC_BROKER_DROPPED: &str = "scstream_broker_dropped_total";

/// Why a publish failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PublishError {
    /// The broker is inside an outage window; healthy again at `until`
    /// (`scfault::FOREVER` for an unmatched crash).
    Unavailable {
        /// Sim-time at which the broker comes back.
        until: SimTime,
    },
    /// The message was dropped in flight and never stored.
    Dropped,
    /// The message **was** stored at the given location, but the
    /// acknowledgement was lost — the producer can't tell this from
    /// [`PublishError::Dropped`], so it resends and creates a duplicate.
    AckLost {
        /// Partition the unacknowledged copy landed in.
        partition: PartitionId,
        /// Offset of the unacknowledged copy.
        offset: Offset,
    },
}

/// A topic fronted by fault injection: outage windows (node crashes and
/// link partitions of the broker's node in the plan) reject publishes, and
/// message faults drop or un-ack individual sends by sequence number.
///
/// The broker consumes the plan's views once at construction; publishing is
/// then a pure function of (plan, publish order), keeping runs
/// deterministic.
#[derive(Debug)]
pub struct Broker {
    topic: Topic,
    node: u32,
    crashes: OutageWindows,
    partitions: OutageWindows,
    faults: MessageFaults,
    seq: u64,
    telemetry: TelemetryHandle,
}

impl Broker {
    /// Wraps `topic` as broker node `node` under `plan`.
    pub fn new(topic: Topic, node: u32, plan: &FaultPlan) -> Self {
        Broker {
            topic,
            node,
            crashes: OutageWindows::node_crashes(plan),
            partitions: OutageWindows::link_partitions(plan),
            faults: MessageFaults::from_plan(plan),
            seq: 0,
            telemetry: TelemetryHandle::disabled(),
        }
    }

    /// Attaches telemetry: rejections and drops count into the
    /// `scstream_broker_*` metrics.
    pub fn with_telemetry(mut self, telemetry: TelemetryHandle) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// If the broker is down at `at`, when it next comes back.
    pub fn down_until(&self, at: SimTime) -> Option<SimTime> {
        match (
            self.crashes.down_until(self.node, at),
            self.partitions.down_until(self.node, at),
        ) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        }
    }

    /// Attempts to store `event` at sim-time `now`.
    ///
    /// # Errors
    ///
    /// [`PublishError::Unavailable`] during an outage window,
    /// [`PublishError::Dropped`] when the message faults drop this send, and
    /// [`PublishError::AckLost`] when it is stored but unacknowledged. The
    /// event comes back with the error, so a retry resends it without a
    /// copy. Only a lost ack copies it: the topic keeps the copy and the
    /// sender gets the event back to resend.
    fn try_publish(
        &mut self,
        event: Event,
        now: SimTime,
    ) -> Result<(PartitionId, Offset), (PublishError, Event)> {
        let seq = self.seq;
        self.seq += 1;
        if let Some(until) = self.down_until(now) {
            self.telemetry
                .counter_inc(METRIC_BROKER_REJECTED, "publishes rejected while down");
            return Err((PublishError::Unavailable { until }, event));
        }
        if self.faults.is_dropped(seq) {
            self.telemetry
                .counter_inc(METRIC_BROKER_DROPPED, "messages dropped in flight");
            return Err((PublishError::Dropped, event));
        }
        if self.faults.is_ack_lost(seq) {
            let (partition, offset) = self.topic.publish(event.clone());
            return Err((PublishError::AckLost { partition, offset }, event));
        }
        Ok(self.topic.publish(event))
    }

    /// The fronted topic.
    pub fn topic(&self) -> &Topic {
        &self.topic
    }

    /// Mutable access to the fronted topic (e.g. to attach consumers).
    pub fn topic_mut(&mut self) -> &mut Topic {
        &mut self.topic
    }
}

/// What became of one producer-side send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// Stored and acknowledged after `attempts` tries, at sim-time `at`.
    Delivered {
        /// Attempts made, including the first.
        attempts: u32,
        /// Sim-time of the acknowledged attempt.
        at: SimTime,
    },
    /// Attempts ran out. The event may still be in the log if an earlier
    /// attempt was stored with its ack lost — [`audit_delivery`] counts the
    /// truth.
    GaveUp {
        /// Attempts made.
        attempts: u32,
    },
}

/// A producer that retries through broker faults with seeded backoff.
///
/// Each send is stamped with the producer's id and its sequence number
/// ([`Event::stamp`]), as Kafka's idempotent producer stamps a record, so
/// [`audit_delivery`] can separate unique deliveries from duplicates. The
/// backoff RNG is seeded per producer, so a run's retry timings are a pure
/// function of `(plan, producer seed)`.
#[derive(Debug)]
pub struct ResilientProducer {
    /// Made once: every stamped event shares it.
    id: Arc<str>,
    retry: RetryPolicy,
    rng: SeededRng,
    next_seq: u64,
    retries: u64,
}

impl ResilientProducer {
    /// Creates producer `id` retrying under `retry`, jittered from `seed`.
    pub fn new(id: impl Into<String>, retry: RetryPolicy, seed: u64) -> Self {
        ResilientProducer {
            id: id.into().into(),
            retry,
            rng: SeededRng::new(seed ^ 0x9B0D_CE55),
            next_seq: 0,
            retries: 0,
        }
    }

    /// Retries performed across all sends.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Sends `event` through `broker` starting at sim-time `now`, retrying
    /// with backoff on unavailability, drops, and lost acks.
    pub fn send(&mut self, broker: &mut Broker, event: Event, now: SimTime) -> SendOutcome {
        let seq = self.next_seq;
        self.next_seq += 1;
        let mut stamped = event.stamped(Arc::clone(&self.id), seq);
        let mut at = now;
        for attempt in 0..self.retry.max_attempts {
            if attempt > 0 {
                at += self.retry.delay(attempt, &mut self.rng);
                self.retries += 1;
            }
            match broker.try_publish(stamped.at(at), at) {
                Ok(_) => {
                    return SendOutcome::Delivered {
                        attempts: attempt + 1,
                        at,
                    };
                }
                Err((_, event)) => stamped = event,
            }
        }
        SendOutcome::GaveUp {
            attempts: self.retry.max_attempts,
        }
    }
}

/// Ground truth of what reached the log, from the producers' stamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveryAudit {
    /// Distinct `(producer, seq)` pairs present in the topic.
    pub delivered: usize,
    /// Extra copies beyond the first per pair (duplicates from lost acks).
    pub duplicates: usize,
    /// Expected sends that never landed in any form.
    pub lost: usize,
}

/// A delivery audit taken in instalments, so the log need not be kept
/// whole for it: each [`observe`](DeliveryAuditor::observe) tallies what
/// was stored since the last one, after which the topic may be truncated
/// up to [`audited`](DeliveryAuditor::audited). The tallies outlive the
/// events — a resend that lands after its first copy was truncated is
/// still a duplicate — and they are one count per send, nothing per event.
///
/// # Examples
///
/// ```
/// use scfault::{FaultKind, FaultPlan, RetryPolicy};
/// use scstream::{Broker, DeliveryAuditor, Event, PartitionId, ResilientProducer, Topic};
/// use simclock::{SimDuration, SimTime};
///
/// // The broker loses the ack of its first publish, so the first send is
/// // stored twice.
/// let plan = FaultPlan::empty().with_event(SimTime::ZERO, FaultKind::MessageDuplicate { seq: 0 });
/// let mut broker = Broker::new(Topic::new("t", 1), 0, &plan);
/// let mut producer = ResilientProducer::new("p", RetryPolicy::new(3, SimDuration::from_millis(10)), 1);
/// let mut auditor = DeliveryAuditor::default();
/// for _ in 0..2 {
///     producer.send(&mut broker, Event::new(vec![]), SimTime::ZERO);
///     // Count what the send stored, then drop it from the log.
///     auditor.observe(broker.topic());
///     let audited = auditor.audited(PartitionId(0));
///     broker.topic_mut().truncate_before(PartitionId(0), audited);
/// }
/// // Expecting a third send, which never went out.
/// let audit = auditor.finish(&[("p", 3)]);
/// assert_eq!((audit.delivered, audit.duplicates, audit.lost), (2, 1, 1));
/// ```
#[derive(Debug, Default)]
pub struct DeliveryAuditor {
    /// Per producer id seen, the copies stored of each of its sends,
    /// indexed by `seq`.
    tallies: Vec<(String, Vec<u32>)>,
    /// Copies of sends whose `seq` lay far past its producer's others when
    /// observed, by `(index into tallies, seq)`: a stray stamp costs an
    /// entry here, not a vector as long as its `seq`.
    far: BTreeMap<(usize, u64), u32>,
    /// Per partition, the offset the next `observe` reads from.
    audited: Vec<Offset>,
}

impl DeliveryAuditor {
    /// Tallies every event stored in `topic` since the last call (all of
    /// them, the first time) by its stamp ([`Event::stamp`]); events no
    /// producer stamped are ignored. Events truncated away before they were
    /// observed are never seen, and audit as lost.
    pub fn observe(&mut self, topic: &Topic) {
        let partitions = topic.partition_count() as usize;
        self.audited
            .resize(partitions.max(self.audited.len()), Offset(0));
        for p in 0..partitions {
            let pid = PartitionId(p as u32);
            for e in topic.read(pid, self.audited[p], usize::MAX) {
                if let Some((producer, seq)) = e.stamp() {
                    self.tally(producer, seq);
                }
            }
            self.audited[p] = topic.end_offset(pid);
        }
    }

    /// One more stored copy of `producer`'s send `seq`.
    fn tally(&mut self, producer: &str, seq: u64) {
        let known = self.tallies.iter().position(|(id, _)| id == producer);
        let ix = known.unwrap_or_else(|| {
            self.tallies.push((producer.to_string(), Vec::new()));
            self.tallies.len() - 1
        });
        let copies = &mut self.tallies[ix].1;
        // Sends arrive roughly in order, so the vector at most doubles.
        if seq >= 2 * copies.len() as u64 + 1024 {
            *self.far.entry((ix, seq)).or_insert(0) += 1;
            return;
        }
        let seq = seq as usize;
        if copies.len() <= seq {
            copies.resize(seq + 1, 0);
        }
        copies[seq] += 1;
    }

    /// The offset up to which `partition` has been observed: everything
    /// below it may be truncated without the audit missing it.
    pub fn audited(&self, partition: PartitionId) -> Offset {
        let audited = self.audited.get(partition.0 as usize);
        audited.copied().unwrap_or_default()
    }

    /// Closes the audit against the expected send counts per producer id
    /// (`(id, sends)`): unique deliveries, duplicates, and the expected
    /// sends no observed event carried.
    pub fn finish(mut self, expected: &[(&str, u64)]) -> DeliveryAudit {
        // A far send may since have come within reach of its producer's
        // vector: fold it in, so that every send is counted in one place.
        let tallies = &mut self.tallies;
        self.far.retain(|&(ix, seq), n| {
            let within = usize::try_from(seq).ok();
            match within.and_then(|seq| tallies[ix].1.get_mut(seq)) {
                Some(copies) => {
                    *copies += *n;
                    false
                }
                None => true,
            }
        });
        let near = || self.tallies.iter().flat_map(|(_, copies)| copies);
        let delivered = near().filter(|&&c| c > 0).count() + self.far.len();
        let copies: usize = near().chain(self.far.values()).map(|&c| c as usize).sum();
        let lost = expected
            .iter()
            .map(|&(id, sends)| {
                let Some(ix) = self.tallies.iter().position(|(known, _)| known == id) else {
                    return sends as usize;
                };
                let near = &self.tallies[ix].1;
                let near = &near[..near.len().min(sends as usize)];
                let landed = near.iter().filter(|&&c| c > 0).count()
                    + self.far.range((ix, 0)..(ix, sends)).count();
                sends as usize - landed
            })
            .sum();
        DeliveryAudit {
            delivered,
            duplicates: copies - delivered,
            lost,
        }
    }
}

/// Audits `topic` against the expected send counts per producer id
/// (`(id, sends)`), counting unique deliveries, duplicates, and losses from
/// the stamps of the events it holds: a [`DeliveryAuditor`] that observes
/// once.
pub fn audit_delivery(topic: &Topic, expected: &[(&str, u64)]) -> DeliveryAudit {
    let mut auditor = DeliveryAuditor::default();
    auditor.observe(topic);
    auditor.finish(expected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consumer::{ConsumerGroup, ConsumerId};
    use scfault::{FaultKind, FOREVER};
    use simclock::SimDuration;

    fn retry() -> RetryPolicy {
        RetryPolicy::new(5, SimDuration::from_millis(100)).with_jitter(0.0)
    }

    fn outage_plan(node: u32, from_s: u64, dur_s: u64) -> FaultPlan {
        FaultPlan::empty().with_event(
            SimTime::from_secs(from_s),
            FaultKind::LinkPartition {
                node,
                duration: SimDuration::from_secs(dur_s),
            },
        )
    }

    #[test]
    fn healthy_broker_delivers_first_try() {
        let mut broker = Broker::new(Topic::new("t", 2), 0, &FaultPlan::empty());
        let mut producer = ResilientProducer::new("p0", retry(), 1);
        let out = producer.send(&mut broker, Event::new(b"x".to_vec()), SimTime::ZERO);
        assert_eq!(
            out,
            SendOutcome::Delivered {
                attempts: 1,
                at: SimTime::ZERO
            }
        );
        assert_eq!(broker.topic().total_events(), 1);
    }

    #[test]
    fn outage_window_rejects_then_heals() {
        let plan = outage_plan(0, 0, 1);
        let mut broker = Broker::new(Topic::new("t", 1), 0, &plan);
        assert_eq!(
            broker.down_until(SimTime::ZERO),
            Some(SimTime::from_secs(1))
        );
        let (err, event) = broker
            .try_publish(Event::new(b"x".to_vec()), SimTime::ZERO)
            .unwrap_err();
        assert_eq!(
            err,
            PublishError::Unavailable {
                until: SimTime::from_secs(1)
            }
        );
        assert_eq!(event.payload(), b"x", "the refused event comes back");
        assert!(broker
            .try_publish(Event::new(b"x".to_vec()), SimTime::from_secs(1))
            .is_ok());
    }

    #[test]
    fn producer_retries_through_outage() {
        // 100 ms + 200 ms + 400 ms of backoff crosses a 500 ms outage.
        let plan = outage_plan(7, 0, 1);
        let mut broker = Broker::new(Topic::new("t", 1), 7, &plan);
        let mut producer = ResilientProducer::new("p0", retry(), 2);
        let out = producer.send(&mut broker, Event::new(b"x".to_vec()), SimTime::ZERO);
        match out {
            SendOutcome::Delivered { attempts, at } => {
                assert!(attempts > 1, "needed retries");
                assert!(at >= SimTime::from_secs(1), "delivered after the window");
            }
            other => panic!("expected delivery, got {other:?}"),
        }
        assert_eq!(producer.retries(), 4, "0.1+0.2+0.4+0.8 s of backoff");
    }

    #[test]
    fn permanent_crash_exhausts_attempts() {
        let plan = FaultPlan::empty().with_event(SimTime::ZERO, FaultKind::NodeCrash { node: 3 });
        let mut broker = Broker::new(Topic::new("t", 1), 3, &plan);
        assert_eq!(broker.down_until(SimTime::from_secs(999)), Some(FOREVER));
        let mut producer = ResilientProducer::new("p0", retry(), 3);
        let out = producer.send(&mut broker, Event::new(b"x".to_vec()), SimTime::ZERO);
        assert_eq!(out, SendOutcome::GaveUp { attempts: 5 });
        assert_eq!(broker.topic().total_events(), 0);
    }

    /// The events `topic`'s one partition holds, in log order.
    fn stored(topic: &Topic) -> &[Event] {
        topic.read(PartitionId(0), Offset(0), usize::MAX)
    }

    /// Asserts that `copies` are one send stored once per attempt listed
    /// in `at`: each carries its own attempt's timestamp and the same key,
    /// payload, headers and stamp.
    fn assert_attempts(copies: &[Event], at: &[SimTime]) {
        let times: Vec<SimTime> = copies.iter().map(Event::timestamp).collect();
        assert_eq!(times, at, "one timestamp per stored attempt");
        for copy in copies {
            assert_eq!(copy.key(), Some("cam-1"));
            assert_eq!(copy.payload(), b"x");
            assert_eq!(
                copy.headers().collect::<Vec<_>>(),
                vec![("city", "Baton Rouge")]
            );
            assert_eq!(copy.stamp(), Some(("p0", 0)));
        }
    }

    fn camera_event() -> Event {
        Event::with_key("cam-1", b"x".to_vec()).header("city", "Baton Rouge")
    }

    #[test]
    fn dropped_message_is_resent_without_duplicate() {
        let plan = FaultPlan::empty().with_event(SimTime::ZERO, FaultKind::MessageDrop { seq: 0 });
        let mut broker = Broker::new(Topic::new("t", 1), 0, &plan);
        let mut producer = ResilientProducer::new("p0", retry(), 4);
        let out = producer.send(&mut broker, camera_event(), SimTime::ZERO);
        assert_eq!(
            out,
            SendOutcome::Delivered {
                attempts: 2,
                at: SimTime::from_millis(100)
            }
        );
        assert_eq!(broker.topic().total_events(), 1);
        assert_attempts(stored(broker.topic()), &[SimTime::from_millis(100)]);
    }

    #[test]
    fn lost_ack_creates_an_accounted_duplicate() {
        let plan =
            FaultPlan::empty().with_event(SimTime::ZERO, FaultKind::MessageDuplicate { seq: 0 });
        let mut broker = Broker::new(Topic::new("t", 1), 0, &plan);
        let mut producer = ResilientProducer::new("p0", retry(), 5);
        let out = producer.send(&mut broker, camera_event(), SimTime::ZERO);
        assert!(matches!(out, SendOutcome::Delivered { attempts: 2, .. }));
        assert_eq!(broker.topic().total_events(), 2, "stored twice");
        assert_attempts(
            stored(broker.topic()),
            &[SimTime::ZERO, SimTime::from_millis(100)],
        );
        let audit = audit_delivery(broker.topic(), &[("p0", 1)]);
        assert_eq!(
            audit,
            DeliveryAudit {
                delivered: 1,
                duplicates: 1,
                lost: 0
            }
        );
    }

    /// The audit as first written — a map keyed by owned `(id, seq)` —
    /// kept as the slow, obvious model of the count vectors.
    fn audit_by_map(topic: &Topic, expected: &[(&str, u64)]) -> DeliveryAudit {
        let mut seen = BTreeMap::<(String, u64), usize>::new();
        for p in 0..topic.partition_count() {
            for e in topic.read(PartitionId(p), Offset(0), usize::MAX) {
                if let Some((prod, seq)) = e.stamp() {
                    *seen.entry((prod.to_string(), seq)).or_insert(0) += 1;
                }
            }
        }
        DeliveryAudit {
            delivered: seen.len(),
            duplicates: seen.values().map(|c| c - 1).sum(),
            lost: expected
                .iter()
                .map(|(id, n)| {
                    (0..*n)
                        .filter(|s| !seen.contains_key(&(id.to_string(), *s)))
                        .count()
                })
                .sum(),
        }
    }

    fn stamped(id: &str, seq: u64) -> Event {
        Event::new(vec![]).stamped(id, seq)
    }

    #[test]
    fn audit_counts_strays_gaps_and_copies_like_the_map_model() {
        // a: 0, 1 (twice), 3 and 7; b: 0 three times; c: never expected,
        // once with a `seq` no vector could reach.
        let mut sends: Vec<Event> = [
            ("a", 0),
            ("a", 1),
            ("b", 0),
            ("a", 1),
            ("a", 3),
            ("c", 5),
            ("b", 0),
            ("a", 7),
            ("b", 0),
            ("c", 5),
            ("c", u64::MAX),
        ]
        .iter()
        .map(|&(id, seq)| stamped(id, seq))
        .collect();
        sends.push(Event::new(b"unstamped".to_vec()));
        // Headers named like the stamp are a user's, not a producer's.
        sends.push(
            Event::new(vec![])
                .header("producer", "a")
                .header("seq", "2"),
        );
        let mut topic = Topic::new("t", 3);
        for event in &sends {
            topic.publish(event.clone());
        }

        let expectations: [&[(&str, u64)]; 7] = [
            &[("a", 5), ("b", 2)],
            &[("a", 8)],
            &[("b", 1), ("d", 3)],
            &[("a", 2), ("a", 5)],
            &[("a", 0)],
            &[("c", 6)],
            &[],
        ];
        for expected in expectations {
            assert_eq!(
                audit_delivery(&topic, expected),
                audit_by_map(&topic, expected),
                "expected {expected:?}"
            );
        }
        assert_eq!(
            audit_delivery(&topic, &[("a", 5), ("b", 2)]),
            DeliveryAudit {
                delivered: 7,
                duplicates: 4,
                lost: 3
            }
        );

        // In instalments: the same sends, observed at random points and the
        // log truncated anywhere behind the auditor, audit as the whole log
        // does in one pass.
        let mut most_dropped = 0;
        for seed in 0..64 {
            let mut rng = SeededRng::new(seed);
            let mut log = Topic::new("t", 3);
            let mut auditor = DeliveryAuditor::default();
            for event in &sends {
                log.publish(event.clone());
                if rng.chance(0.4) {
                    auditor.observe(&log);
                }
                if rng.chance(0.4) {
                    let p = PartitionId(rng.next_bounded(3) as u32);
                    let upto = rng.range_u64(0, auditor.audited(p).0 + 1);
                    log.truncate_before(p, Offset(upto));
                }
            }
            most_dropped = most_dropped.max(sends.len() - log.total_events());
            auditor.observe(&log);
            let expected = expectations[seed as usize % expectations.len()];
            assert_eq!(
                auditor.finish(expected),
                audit_by_map(&topic, expected),
                "seed {seed}, expected {expected:?}"
            );
        }
        assert!(most_dropped > sends.len() / 2, "{most_dropped} dropped");
    }

    #[test]
    fn a_late_duplicate_of_a_truncated_send_is_still_a_duplicate() {
        let mut topic = Topic::new("t", 1);
        let mut auditor = DeliveryAuditor::default();
        let p = PartitionId(0);
        topic.publish(stamped("p", 0));
        topic.publish(stamped("p", 1));
        auditor.observe(&topic);
        assert_eq!(auditor.audited(p), Offset(2));
        topic.truncate_before(p, auditor.audited(p));
        assert_eq!(topic.total_events(), 0, "the first copies are gone");

        // The resend of send 1 lands a window later, beside send 3.
        topic.publish(stamped("p", 1));
        topic.publish(stamped("p", 3));
        auditor.observe(&topic);
        auditor.observe(&topic); // nothing new: tallies nothing twice
        assert_eq!(auditor.audited(p), Offset(4));
        assert_eq!(
            auditor.finish(&[("p", 4)]),
            DeliveryAudit {
                delivered: 3,
                duplicates: 1,
                lost: 1
            }
        );
    }

    #[test]
    fn a_far_seq_that_the_vector_later_reaches_is_counted_once() {
        let mut topic = Topic::new("t", 1);
        let mut auditor = DeliveryAuditor::default();
        // 5 000 is far past an empty vector; then the sends catch up with
        // it, and it turns out to have been stored twice.
        topic.publish(stamped("p", 5_000));
        auditor.observe(&topic);
        assert_eq!(auditor.far.len(), 1);
        for seq in 0..=5_000u64 {
            topic.publish(stamped("p", seq));
        }
        auditor.observe(&topic);
        assert_eq!(
            auditor.finish(&[("p", 5_002)]),
            DeliveryAudit {
                delivered: 5_001,
                duplicates: 1,
                lost: 1
            }
        );
    }

    #[test]
    fn consumers_resume_from_committed_offsets_with_zero_loss() {
        // Outage mid-stream; producers retry through it; a consumer crashes
        // after a partial commit and a replacement resumes with no loss.
        let plan = outage_plan(0, 10, 2).with_event(
            SimTime::from_secs(5),
            FaultKind::MessageDuplicate { seq: 3 },
        );
        let mut broker = Broker::new(Topic::new("annotations", 2), 0, &plan);
        // Enough backoff budget (0.1 + 0.2 + … + 6.4 s) to cross the 2 s
        // outage from any send time inside it.
        let deep_retry = RetryPolicy::new(8, SimDuration::from_millis(100)).with_jitter(0.0);
        let mut producer = ResilientProducer::new("cam-1", deep_retry, 6);
        for i in 0..40u64 {
            let at = SimTime::from_millis(9_500 + i * 50); // straddles the outage
            let out = producer.send(
                &mut broker,
                Event::with_key(format!("k{}", i % 5), vec![i as u8]),
                at,
            );
            assert!(
                matches!(out, SendOutcome::Delivered { .. }),
                "send {i} delivered"
            );
        }
        let audit = audit_delivery(broker.topic(), &[("cam-1", 40)]);
        assert_eq!(audit.lost, 0, "at-least-once: nothing lost");
        assert_eq!(audit.delivered, 40);
        assert_eq!(audit.duplicates, 1, "the one lost ack");

        // Consume with a crash-and-resume in the middle.
        let topic = broker.topic();
        let mut group = ConsumerGroup::new("sink", 2);
        group.join(ConsumerId(0));
        let first = group.poll(ConsumerId(0), topic, 7);
        let mut consumed = first.len();
        // Only part of the first poll gets committed before the crash.
        for (pid, off, _) in first.iter().take(3) {
            group.commit(*pid, *off);
        }
        // Crash: consumer 0 leaves; its uncommitted in-flight work is
        // redelivered to the replacement.
        group.leave(ConsumerId(0));
        group.join(ConsumerId(1));
        loop {
            let polled = group.poll(ConsumerId(1), topic, 64);
            if polled.is_empty() {
                break;
            }
            consumed += polled.len();
            for (pid, off, _) in &polled {
                group.commit(*pid, *off);
            }
        }
        assert!(
            consumed >= topic.total_events(),
            "at-least-once consumption: {consumed} of {}",
            topic.total_events()
        );
        assert_eq!(group.lag(topic), 0, "everything committed");
    }
}
