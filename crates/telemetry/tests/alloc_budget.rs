//! Allocation budget of a metric update.
//!
//! Instrumented layers hit counters, gauges and histograms by name several
//! times per request. Only the first hit on a name registers it (and owns a
//! copy of the name); every later hit is a lookup by `&str` and allocates
//! nothing. A histogram's percentile read in place and its reset allocate
//! nothing either: the E19 ledger closes each window that way.
//! [`CountingAlloc`], the one counting allocator (per thread, so the tests
//! can run side by side), holds that; the first test holds the counter to
//! what it reads.

use sctelemetry::{counted, AllocCount, CountingAlloc, Histogram, Telemetry};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn the_counter_reads_every_request_once() {
    // An 8 B buffer, its reallocation to 64 B, and a zeroed 1 000 B one
    // dropped inside a nested call.
    let (kept, outer) = counted(|| {
        let mut v: Vec<u8> = Vec::with_capacity(8);
        v.reserve_exact(64);
        let inner = counted(|| drop(vec![0u8; 1_000])).1;
        assert_eq!((inner.allocs, inner.live, inner.largest), (1, 0, 1_000));
        v
    });
    assert_eq!(kept.capacity(), 64);
    let read = (outer.allocs, outer.bytes, outer.live, outer.largest);
    assert_eq!(read, (3, 8 + 64 + 1_000, 64, 1_000));
    assert!(outer.process >= outer.allocs);
}

#[test]
fn a_hit_on_an_existing_metric_allocates_nothing() {
    let t = Telemetry::shared();
    let h = t.handle();
    let ((), AllocCount { allocs, .. }) = counted(|| {
        h.counter_add("scx_requests_total", "requests", 1);
        h.gauge_set("scx_queue_depth", "queue depth", 3);
        h.observe("scx_latency_seconds", "latency", 0.25);
    });
    assert!(allocs > 0, "a first registration owns its name and help");

    let ((), again) = counted(|| {
        h.counter_add("scx_requests_total", "requests", 1);
        h.counter_inc("scx_requests_total", "requests");
        h.gauge_set("scx_queue_depth", "queue depth", 4);
        h.observe("scx_latency_seconds", "latency", 0.5);
    });
    assert_eq!(again.allocs, 0, "hits on registered metrics allocated");

    let reg = t.registry();
    let requests = reg.get("scx_requests_total").unwrap();
    assert_eq!(requests.as_counter().unwrap().get(), 3);
    let latency = reg.get("scx_latency_seconds").unwrap();
    assert_eq!(latency.as_histogram().unwrap().count(), 2);
}

#[test]
fn a_percentile_read_in_place_and_a_reset_allocate_nothing() {
    let h = Histogram::bucketed();
    let ((), reads) = counted(|| {
        for window in 1..=3 {
            for i in 0..100 {
                h.observe(f64::from(i * window) * 1e-3);
            }
            assert!(h.percentile(0.99) >= h.percentile(0.50));
            h.reset();
        }
    });
    assert_eq!(reads.allocs, 0, "observe, percentile and reset allocated");
}
