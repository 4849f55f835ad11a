//! Allocation budget of the whole city day.
//!
//! A day's requests flow through ingest (scstream), the archive (scdfs),
//! serving (scserve) and accounting (sctsdb); what they allocate per
//! request is citybench's `allocs_per_op`. The keys and query filters are
//! built once, a send shares its key and its window's one payload and is
//! stored under a typed stamp without a copy, an inference shares its row
//! and its output, and the per-window scans and the micro-batcher reuse
//! their buffers, so that count is a budget a regression has to break
//! here, in `cargo test`.
//!
//! The counter is process-wide, not per thread: a day may run pool
//! threads. So this file holds a single test, and nothing runs beside it.
//! Like citybench, it counts every allocation and reallocation made while
//! `MetroSim::new(cfg).run()` runs, planning included, and divides by the
//! requests the day sampled.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use scmetro::{MetroConfig, MetroSim};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations per sampled request of one day run under `cfg`.
fn allocations_per_request(cfg: MetroConfig) -> f64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = MetroSim::new(cfg).run();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(report.sampled_requests > 0);
    allocations as f64 / report.sampled_requests as f64
}

#[test]
fn a_city_day_allocates_within_its_budget_per_request() {
    // citybench's `city_day`: a hot 200-key set, 5 % writes.
    let hot = allocations_per_request(MetroConfig {
        sample_total: 5_000,
        keyspace: 200,
        skew: 1.0,
        write_fraction: 0.05,
        infer_fraction: 0.2,
        ..MetroConfig::default()
    });
    assert!(
        hot <= 5.3,
        "{hot:.2} allocations per request on the hot day"
    );

    // citybench's `city_day_churn`: half writes over a flat 2 000 keys.
    let churn = allocations_per_request(MetroConfig {
        sample_total: 1_000,
        keyspace: 2_000,
        skew: 0.2,
        write_fraction: 0.5,
        infer_fraction: 0.05,
        ..MetroConfig::default()
    });
    assert!(
        churn <= 39.0,
        "{churn:.2} allocations per request on the churn day"
    );
}
