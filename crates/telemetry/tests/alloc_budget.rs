//! Allocation budget of a metric update.
//!
//! Instrumented layers hit counters, gauges and histograms by name several
//! times per request. Only the first hit on a name registers it (and owns a
//! copy of the name); every later hit is a lookup by `&str` and allocates
//! nothing. A histogram's percentile read in place and its reset allocate
//! nothing either: the E19 ledger closes each window that way. A counting
//! `#[global_allocator]` (the E14 pattern, per thread so the tests can run
//! side by side) holds that.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sctelemetry::{Histogram, Telemetry};

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: a thread being torn down still allocates.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations this thread made while running `f`.
fn allocations_of(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn a_hit_on_an_existing_metric_allocates_nothing() {
    let t = Telemetry::shared();
    let h = t.handle();
    let first = allocations_of(|| {
        h.counter_add("scx_requests_total", "requests", 1);
        h.gauge_set("scx_queue_depth", "queue depth", 3);
        h.observe("scx_latency_seconds", "latency", 0.25);
    });
    assert!(first > 0, "a first registration owns its name and help");

    let again = allocations_of(|| {
        h.counter_add("scx_requests_total", "requests", 1);
        h.counter_inc("scx_requests_total", "requests");
        h.gauge_set("scx_queue_depth", "queue depth", 4);
        h.observe("scx_latency_seconds", "latency", 0.5);
    });
    assert_eq!(again, 0, "hits on registered metrics allocated");

    let reg = t.registry();
    let requests = reg.get("scx_requests_total").unwrap();
    assert_eq!(requests.as_counter().unwrap().get(), 3);
    let latency = reg.get("scx_latency_seconds").unwrap();
    assert_eq!(latency.as_histogram().unwrap().count(), 2);
}

#[test]
fn a_percentile_read_in_place_and_a_reset_allocate_nothing() {
    let h = Histogram::bucketed();
    let reads = allocations_of(|| {
        for window in 1..=3 {
            for i in 0..100 {
                h.observe(f64::from(i * window) * 1e-3);
            }
            assert!(h.percentile(0.99) >= h.percentile(0.50));
            h.reset();
        }
    });
    assert_eq!(reads, 0, "observe, percentile and reset allocated");
}
