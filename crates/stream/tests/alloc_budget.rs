//! Allocation budget of the ingest path.
//!
//! A topic keeps every event until it is truncated, so what a stored event
//! retains is what the ingest heap is made of: a short sorted header list
//! and shared strings, not a map node per event. A counting
//! `#[global_allocator]` (the E14 pattern, per thread so the tests can run
//! side by side) holds the send, the stored copy and the delivery audit —
//! in one pass, or in instalments over a log truncated behind it — to
//! their budgets.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use scfault::{FaultPlan, RetryPolicy};
use scstream::{
    audit_delivery, Broker, DeliveryAuditor, Event, PartitionId, ResilientProducer, SendOutcome,
    Topic,
};
use simclock::{SimDuration, SimTime};

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Requested bytes currently allocated by this thread.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: a thread being torn down still allocates.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + layout.size() as i64));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE_BYTES.try_with(|n| n.set(n.get() - layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the allocations this thread made
/// meanwhile and the requested bytes it still holds from them.
fn heap_cost_of<T>(f: impl FnOnce() -> T) -> (T, u64, i64) {
    let before = (ALLOCATIONS.with(Cell::get), LIVE_BYTES.with(Cell::get));
    let out = f();
    let allocations = ALLOCATIONS.with(Cell::get) - before.0;
    (out, allocations, LIVE_BYTES.with(Cell::get) - before.1)
}

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
    // Formatted once, as the day's drivers do; a send clones one.
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

    let ((), allocations, retained) = heap_cost_of(|| {
        for i in 0..EVENTS {
            send(&mut broker, &mut producer, &keys, i);
        }
    });
    assert_eq!(broker.topic().total_events() as u64, EVENTS);
    let per_send = allocations as f64 / EVENTS as f64;
    let per_event = retained as f64 / EVENTS as f64;
    assert!(per_send <= 8.0, "{per_send} allocations per first-try send");
    assert!(
        per_event <= 300.0,
        "{per_event} requested bytes retained per stored event"
    );

    let (audit, allocations, _) =
        heap_cost_of(|| audit_delivery(broker.topic(), &[("metro", EVENTS)]));
    assert_eq!(
        (audit.delivered as u64, audit.duplicates, audit.lost),
        (EVENTS, 0, 0)
    );
    let per_event = allocations as f64 / EVENTS as f64;
    assert!(per_event <= 0.01, "{per_event} audit allocations per event");
}

#[test]
fn an_audit_in_instalments_keeps_a_count_per_send_and_a_window_of_the_log() {
    const WINDOW: u64 = 100;
    let (mut broker, mut producer, keys) = ingest();
    let mut auditor = DeliveryAuditor::default();

    let mut audit_allocations = 0;
    let ((), _, retained) = heap_cost_of(|| {
        for i in 0..EVENTS {
            send(&mut broker, &mut producer, &keys, i);
            if (i + 1) % WINDOW == 0 {
                let ((), allocations, _) = heap_cost_of(|| auditor.observe(broker.topic()));
                audit_allocations += allocations;
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
    let per_event = retained as f64 / EVENTS as f64;
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
