//! Allocation budget of the Fig. 7 action recognizer's inference pass.
//!
//! An `ActionRecognizer` owns what a pass writes: the `[n, t, 1, h, w]`
//! clip batch, the split network's `ExitWorkspace` and the decisions. A
//! warm `recognize` allocates the `Vec<Recognition>` it returns and
//! nothing else. A counting `#[global_allocator]` (the
//! `crates/drl/tests/alloc_budget.rs` pattern, per thread so the tests can
//! run side by side) holds the calls to that.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use scdata::actions::ClipGenerator;
use scneural::early_exit::ExitPoint;
use smartcity_core::apps::actions::{ActionRecognizer, Recognition};

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: a thread being torn down still allocates.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        let _ = BYTES.try_with(|n| n.set(n.get() + layout.size()));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the number of heap allocations this
/// thread made meanwhile and their total size.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64, usize) {
    let (count, bytes) = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    let out = f();
    (
        out,
        ALLOCATIONS.with(Cell::get) - count,
        BYTES.with(Cell::get) - bytes,
    )
}

/// A warm `recognize` of E6's 36 clips on an untrained recognizer, gated
/// at the median Output-1 entropy (both exits taken, the escalated rows
/// gathered) and at -1 (every row escalates, the feature map ships as it
/// is).
#[test]
fn a_warm_recognize_allocates_the_recognitions_it_returns() {
    let (clips, _) = ClipGenerator::new(16, 16, 8, 13).dataset(6);
    assert_eq!(clips.len(), 36);
    let mut rec = ActionRecognizer::new(16, 8, 6, f32::INFINITY, 14);
    let mut entropies: Vec<f32> = rec.recognize(&clips).iter().map(|r| r.entropy).collect();
    entropies.sort_by(f32::total_cmp);
    for (threshold, locals) in [(entropies[entropies.len() / 2], 19), (-1.0, 0)] {
        rec.set_entropy_threshold(threshold);
        let cold = rec.recognize(&clips);
        let local = cold.iter().filter(|r| r.exit == ExitPoint::Local).count();
        assert_eq!(local, locals, "local exits at {threshold}");
        let (warm, count, bytes) = allocations_in(|| rec.recognize(&clips));
        assert_eq!(
            warm, cold,
            "a reused workspace is invisible in the decisions"
        );
        assert_eq!(count, 1, "the returned recognitions, nothing else");
        assert_eq!(bytes, clips.len() * std::mem::size_of::<Recognition>());
    }
}
