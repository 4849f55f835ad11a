//! Allocation budget of the archive's append.
//!
//! A block's replicas share one copy of its data (a corruption copies the
//! replica it damages before it flips a bit), placement picks its nodes
//! into a buffer the cluster keeps, and an append that fits one block
//! writes it without building a list of block ids. So a one-block append
//! copies its payload once, whatever the replication. A counting
//! `#[global_allocator]` (per thread, so the tests can run side by side)
//! holds it to that; a seeded day of appends, crashes and restarts pins
//! where every replica lands.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use scdfs::{DfsCluster, NodeId};
use scfault::{FaultEvent, FaultKind};
use simclock::SimTime;

/// Block size, and the payload of a one-block append: larger than any
/// bookkeeping allocation a few dozen blocks make, so an allocation this
/// large is a copy of the payload.
const PAYLOAD: usize = 64 * 1024;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static PAYLOAD_SIZED: Cell<u64> = const { Cell::new(0) };
}

fn count(layout: Layout) {
    // `try_with`: a thread being torn down still allocates.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    if layout.size() >= PAYLOAD {
        let _ = PAYLOAD_SIZED.try_with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout);
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(Layout::from_size_align(new_size, layout.align()).expect("a valid layout"));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` and returns the heap allocations this thread made meanwhile:
/// all of them, and those of at least [`PAYLOAD`] bytes.
fn allocations_in(f: impl FnOnce()) -> (u64, u64) {
    let read = || (ALLOCATIONS.with(Cell::get), PAYLOAD_SIZED.with(Cell::get));
    let before = read();
    f();
    let after = read();
    (after.0 - before.0, after.1 - before.1)
}

/// Allocations of each of ten one-block appends to a three-node cluster
/// at `replication`, after ten more.
fn one_block_appends(replication: usize) -> Vec<(u64, u64)> {
    let mut dfs = DfsCluster::new(3, replication, PAYLOAD, 7).unwrap();
    dfs.create("/metro/day.log", b"metropolis\n").unwrap();
    let data = vec![0x5a; PAYLOAD];
    for _ in 0..10 {
        dfs.append("/metro/day.log", &data).unwrap();
    }
    (0..10)
        .map(|_| allocations_in(|| dfs.append("/metro/day.log", &data).unwrap()))
        .collect()
}

#[test]
fn a_one_block_append_allocates_the_same_at_any_replication() {
    for replication in [1, 2, 3] {
        let appends = one_block_appends(replication);
        assert!(
            appends.iter().all(|&(_, payloads)| payloads == 1),
            "one copy of the payload at replication {replication}: {appends:?}"
        );
        // The payload and the block's location list; some appends also
        // grow a map of blocks by a node.
        let fewest = appends.iter().map(|&(all, _)| all).min();
        assert_eq!(fewest, Some(2), "replication {replication}: {appends:?}");
    }
}

/// A seeded archive day: appends of one and of several blocks, with a
/// node crashed, healed around and restarted, and another crashed.
fn churned_cluster() -> DfsCluster {
    let mut dfs = DfsCluster::new(5, 3, 64, 11).unwrap();
    dfs.create("/metro/day.log", b"metropolis\n").unwrap();
    let fault = |kind| FaultEvent {
        at: SimTime::ZERO,
        kind,
    };
    for i in 0..24usize {
        match i {
            8 => assert!(dfs.apply_fault(&fault(FaultKind::NodeCrash { node: 1 }))),
            12 => assert!(dfs.re_replicate() > 0, "node 1's blocks re-replicate"),
            16 => assert!(dfs.apply_fault(&fault(FaultKind::NodeRestart { node: 1 }))),
            20 => assert!(dfs.apply_fault(&fault(FaultKind::NodeCrash { node: 3 }))),
            _ => {}
        }
        // 1 to 150 bytes: one, two or three blocks.
        let data = vec![i as u8; (i * 37) % 150 + 1];
        dfs.append("/metro/day.log", &data).unwrap();
    }
    dfs.re_replicate();
    dfs
}

#[test]
fn placement_is_pinned_through_appends_crashes_and_restarts() {
    let dfs = churned_cluster();
    let reports: Vec<Vec<u64>> = (0..5)
        .map(|n| {
            let node = dfs.datanode(NodeId(n)).expect("five nodes");
            node.block_report().iter().map(|b| b.0).collect()
        })
        .collect();
    // Read from the cluster before its placement reused a buffer and its
    // replicas shared their data: the same shuffle draws pick the same
    // nodes.
    let pinned: [&[u64]; 5] = [
        &[
            0, 1, 2, 4, 5, 6, 7, 8, 10, 11, 12, 14, 15, 16, 17, 19, 20, 22, 23, 24, 25, 26, 27, 28,
            29, 30, 31, 33, 35, 36, 37, 38, 39, 41, 42, 43, 44, 45,
        ],
        &[
            0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 14, 16, 17, 18, 19, 21, 30, 31, 32, 33, 34,
            35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46,
        ],
        &[
            1, 2, 3, 4, 6, 8, 9, 11, 12, 13, 15, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28,
            29, 30, 31, 32, 33, 34, 35, 38, 40, 41, 42, 44, 45, 46,
        ],
        &[
            0, 1, 2, 3, 5, 7, 8, 9, 10, 12, 13, 14, 16, 17, 18, 19, 20, 21, 23, 25, 26, 27, 28, 29,
            30, 32, 36, 37,
        ],
        &[
            0, 3, 4, 5, 6, 7, 9, 10, 11, 13, 14, 15, 16, 18, 20, 21, 22, 23, 24, 25, 26, 27, 28,
            29, 32, 34, 36, 37, 39, 40, 43, 46,
        ],
    ];
    assert_eq!(reports, pinned);
}
