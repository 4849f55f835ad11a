//! The one counting allocator every allocation pin reads.
//!
//! A binary or a test target that pins what a call allocates installs
//! [`CountingAlloc`] as its `#[global_allocator]` and wraps the call in
//! [`counted`]. An allocation, a zeroed allocation and a reallocation
//! count once each: on the thread that made it, so tests running side by
//! side cannot perturb each other's counts, and once process-wide, for a
//! run that fans out onto pool threads. A reallocation requests its new
//! size and frees its old one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// A `#[global_allocator]` that forwards every call to `System` and
/// counts it.
pub struct CountingAlloc;

/// What the heap saw while [`counted`] ran its closure: all 0 unless
/// [`CountingAlloc`] is the global allocator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCount {
    /// Allocations, zeroed allocations and reallocations this thread made.
    pub allocs: u64,
    /// The bytes they requested.
    pub bytes: usize,
    /// The requested bytes this thread allocated less those it freed.
    pub live: isize,
    /// The largest single request this thread made.
    pub largest: usize,
    /// Allocations, zeroed allocations and reallocations of every thread.
    pub process: u64,
}

thread_local! {
    static THREAD: Cell<AllocCount> = const {
        Cell::new(AllocCount { allocs: 0, bytes: 0, live: 0, largest: 0, process: 0 })
    };
}

static PROCESS: AtomicU64 = AtomicU64::new(0);

/// Applies `f` to this thread's running totals (whose `process` stays 0)
/// and returns them as they were.
fn tally(f: impl FnOnce(&mut AllocCount)) -> AllocCount {
    // `try_with`: a thread being torn down still allocates.
    let update = |t: &Cell<AllocCount>| {
        let mut n = t.get();
        f(&mut n);
        t.replace(n)
    };
    THREAD.try_with(update).unwrap_or_default()
}

/// Counts one request for `requested` bytes that frees `freed`.
fn note(requested: usize, freed: usize) {
    PROCESS.fetch_add(1, Ordering::Relaxed);
    tally(|n| {
        n.allocs += 1;
        n.bytes += requested;
        n.live += requested as isize - freed as isize;
        n.largest = n.largest.max(requested);
    });
}

// SAFETY: every call is forwarded to `System` with the caller's own
// arguments; counting touches only a thread-local cell and an atomic, and
// allocates nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), 0);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), 0);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size, layout.size());
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        tally(|n| n.live -= layout.size() as isize);
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Runs `f` and returns its result with what the heap saw meanwhile.
/// Calls nest: an inner call's largest request counts in the outer's.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, AllocCount) {
    let before = tally(|n| n.largest = 0);
    let process = PROCESS.load(Ordering::Relaxed);
    let out = f();
    let process = PROCESS.load(Ordering::Relaxed) - process;
    let after = tally(|n| n.largest = n.largest.max(before.largest));
    let count = AllocCount {
        allocs: after.allocs - before.allocs,
        bytes: after.bytes - before.bytes,
        live: after.live - before.live,
        largest: after.largest,
        process,
    };
    (out, count)
}
