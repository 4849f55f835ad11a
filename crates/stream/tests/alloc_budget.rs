//! Allocation budget of the ingest path.
//!
//! A topic keeps every event until it is truncated, so what a stored event
//! retains is what the ingest heap is made of: shared strings and a typed
//! `(producer, seq)` stamp, not a map node per event. A send whose key and
//! payload are shared allocates nothing — the producer stamps it with its
//! shared id and a `u64` — and a retry copies the event only when the
//! broker stores one that the producer must resend, a copy that shares
//! everything and allocates nothing either. `sctelemetry::CountingAlloc`,
//! the one counting allocator (per thread, so the tests can run side by
//! side), holds the send, the stored copy and the delivery audit — in one
//! pass, or in instalments over a log truncated behind it — to their
//! budgets.

use std::sync::Arc;

use scfault::{FaultKind, FaultPlan, RetryPolicy};
use scstream::{
    audit_delivery, Broker, Bytes, DeliveryAuditor, Event, PartitionId, ResilientProducer,
    SendOutcome, Topic,
};
use sctelemetry::{counted, CountingAlloc};
use simclock::{SimDuration, SimTime};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const EVENTS: u64 = 10_000;

const PARTITIONS: u32 = 4;

fn ingest() -> (Broker, ResilientProducer, Vec<String>) {
    let broker = Broker::new(
        Topic::new("metro/ingest", PARTITIONS),
        0,
        &FaultPlan::empty(),
    );
    let producer = ResilientProducer::new(
        "metro",
        RetryPolicy::new(4, SimDuration::from_millis(50)),
        7,
    );
    // Formatted once, but owned: a send copies its key into the event.
    let keys: Vec<String> = (0..200).map(|r| format!("k-{r:05}")).collect();
    (broker, producer, keys)
}

fn send(broker: &mut Broker, producer: &mut ResilientProducer, keys: &[String], i: u64) {
    let event = Event::with_key(keys[i as usize % keys.len()].clone(), vec![i as u8]);
    let out = producer.send(broker, event, SimTime::from_micros(i));
    assert!(matches!(out, SendOutcome::Delivered { attempts: 1, .. }));
}

#[test]
fn a_days_ingest_stays_within_its_heap_budget() {
    let (mut broker, mut producer, keys) = ingest();

    let ((), sends) = counted(|| {
        for i in 0..EVENTS {
            send(&mut broker, &mut producer, &keys, i);
        }
    });
    assert_eq!(broker.topic().total_events() as u64, EVENTS);
    let per_send = sends.allocs as f64 / EVENTS as f64;
    let per_event = sends.live as f64 / EVENTS as f64;
    assert!(per_send <= 8.0, "{per_send} allocations per owned-key send");
    assert!(
        per_event <= 300.0,
        "{per_event} requested bytes retained per stored event"
    );

    let (audit, heap) = counted(|| audit_delivery(broker.topic(), &[("metro", EVENTS)]));
    assert_eq!(
        (audit.delivered as u64, audit.duplicates, audit.lost),
        (EVENTS, 0, 0)
    );
    let per_event = heap.allocs as f64 / EVENTS as f64;
    assert!(per_event <= 0.01, "{per_event} audit allocations per event");
}

#[test]
fn an_audit_in_instalments_keeps_a_count_per_send_and_a_window_of_the_log() {
    const WINDOW: u64 = 100;
    let (mut broker, mut producer, keys) = ingest();
    let mut auditor = DeliveryAuditor::default();

    let mut audit_allocations = 0;
    let ((), day) = counted(|| {
        for i in 0..EVENTS {
            send(&mut broker, &mut producer, &keys, i);
            if (i + 1) % WINDOW == 0 {
                let ((), audit) = counted(|| auditor.observe(broker.topic()));
                audit_allocations += audit.allocs;
                for p in (0..PARTITIONS).map(PartitionId) {
                    let audited = auditor.audited(p);
                    broker.topic_mut().truncate_before(p, audited);
                }
                assert_eq!(broker.topic().total_events(), 0);
            }
        }
    });
    let per_event = audit_allocations as f64 / EVENTS as f64;
    assert!(per_event <= 0.01, "{per_event} audit allocations per event");
    // The tallies (4 bytes a send, in a vector that doubles) and the
    // partitions' spare capacity for one window — not 300 bytes an event.
    let per_event = day.live as f64 / EVENTS as f64;
    assert!(
        per_event <= 16.0,
        "{per_event} requested bytes retained per audited event"
    );

    let audit = auditor.finish(&[("metro", EVENTS)]);
    assert_eq!(
        (audit.delivered as u64, audit.duplicates, audit.lost),
        (EVENTS, 0, 0)
    );
}

/// Drops what `auditor` has counted from every partition of `broker`'s
/// topic, as the day does at a window close.
fn audit_and_truncate(broker: &mut Broker, auditor: &mut DeliveryAuditor) {
    auditor.observe(broker.topic());
    for p in (0..broker.topic().partition_count()).map(PartitionId) {
        let audited = auditor.audited(p);
        broker.topic_mut().truncate_before(p, audited);
    }
}

#[test]
fn a_first_try_send_of_a_shared_key_and_payload_allocates_nothing() {
    const WINDOW: u64 = 100;
    let (mut broker, mut producer, _) = ingest();
    let keys: Vec<Arc<str>> = (0..200).map(|r| format!("k-{r:05}").into()).collect();
    let mut auditor = DeliveryAuditor::default();

    let mut sends = 0;
    for w in 0..EVENTS / WINDOW {
        // One payload a window, shared by the window's events.
        let payload = Bytes::from(vec![w as u8]);
        let ((), window) = counted(|| {
            for i in w * WINDOW..(w + 1) * WINDOW {
                let key = Arc::clone(&keys[i as usize % keys.len()]);
                let event = Event::with_key(key, payload.clone());
                let out = producer.send(&mut broker, event, SimTime::from_micros(i));
                assert!(matches!(out, SendOutcome::Delivered { attempts: 1, .. }));
            }
        });
        audit_and_truncate(&mut broker, &mut auditor);
        // The first window grows the partitions to a window's worth.
        if w > 0 {
            assert_eq!(
                window.allocs, 0,
                "window {w}: the stamp shares the producer's id"
            );
            sends += WINDOW;
        }
    }
    assert!(sends > 0);
    let audit = auditor.finish(&[("metro", EVENTS)]);
    assert_eq!(
        (audit.delivered as u64, audit.duplicates, audit.lost),
        (EVENTS, 0, 0)
    );
}

#[test]
fn a_retry_copies_the_event_only_after_a_lost_ack() {
    // Broker sequence numbers count attempts; the first `WARM` sends
    // take one each and grow the log to hold what follows.
    const WARM: u64 = 8;
    let outage = SimTime::from_secs(1);
    let plan = FaultPlan::empty()
        .with_event(SimTime::ZERO, FaultKind::MessageDrop { seq: WARM + 1 })
        .with_event(SimTime::ZERO, FaultKind::MessageDuplicate { seq: WARM + 3 })
        .with_event(
            outage,
            FaultKind::LinkPartition {
                node: 0,
                duration: SimDuration::from_millis(100),
            },
        );
    let mut broker = Broker::new(Topic::new("metro/ingest", 1), 0, &plan);
    let mut producer = ResilientProducer::new(
        "metro",
        RetryPolicy::new(4, SimDuration::from_millis(50)).with_jitter(0.0),
        7,
    );
    let key: Arc<str> = "k-00000".into();
    let payload = Bytes::from(vec![7]);
    let mut send = |broker: &mut Broker, at: SimTime| {
        let event = Event::with_key(Arc::clone(&key), payload.clone());
        let (out, heap) = counted(|| producer.send(broker, event, at));
        let SendOutcome::Delivered { attempts, .. } = out else {
            panic!("{out:?}")
        };
        (attempts, heap.allocs)
    };
    for _ in 0..WARM {
        send(&mut broker, SimTime::ZERO);
    }
    let end = broker.topic().end_offset(PartitionId(0));
    broker.topic_mut().truncate_before(PartitionId(0), end);

    assert_eq!(send(&mut broker, SimTime::ZERO), (1, 0), "first try");
    assert_eq!(
        send(&mut broker, SimTime::ZERO),
        (2, 0),
        "dropped, then stored"
    );
    assert_eq!(
        send(&mut broker, SimTime::ZERO),
        (2, 0),
        "stored unacknowledged: the copy the topic keeps shares everything"
    );
    assert_eq!(
        send(&mut broker, outage),
        (3, 0),
        "refused twice while the broker is down"
    );
    assert_eq!(
        broker.topic().total_events(),
        5,
        "four sends, one duplicate"
    );
}
