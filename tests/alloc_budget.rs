//! What a trained model keeps, and what it keeps to serve.
//!
//! Every layer's `backward` takes the cache its `forward` left, so a network
//! that is done training holds its parameters and their gradients — what it
//! held before — and not its last batch: Fig. 5's classifier serves for as
//! long as the cameras run, and the inputs of its two dense heads and the
//! masks of its ReLUs are 786 kB at the batch it trains on. Serving keeps
//! one thing more: the buffers its first batch grows, which every later
//! batch reuses. A counting `#[global_allocator]` (the
//! `crates/neural/tests/alloc_budget.rs` pattern, per thread) reads the
//! bytes live on this thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use scdata::vehicles::VehicleCatalog;
use scdata::video::FrameGenerator;
use smartcity::core::apps::vehicle::VehicleClassifier;

struct CountingAlloc;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: a thread being torn down still allocates.
        let _ = LIVE.try_with(|n| n.set(n.get() + layout.size() as isize));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|n| n.set(n.get() - layout.size() as isize));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn a_trained_classifier_retains_what_an_untrained_one_does() {
    // citybench's `camera_infer` model: 8 classes, 32×32 crops, a batch of 64.
    let (classes, side) = (8, 32);
    let catalog = VehicleCatalog::generate(classes, 42);
    let (frames, labels) = FrameGenerator::new(catalog, side, side, 43).dataset(classes, 8);

    let before = LIVE.with(Cell::get);
    let mut classifier = VehicleClassifier::new(classes, side, 1.01, 42);
    let untrained = LIVE.with(Cell::get) - before;
    classifier.train(&frames, &labels, 2, 0.01);
    let trained = LIVE.with(Cell::get) - before;

    assert!(untrained > 160_000, "parameters and gradients: {untrained}");
    assert_eq!(trained, untrained, "bytes held after `train`");

    // What the first `classify` keeps, its decisions dropped: the
    // classifier's input buffer and its workspace. That is the batch
    // (262 144 B), the front's feature map (393 216 B), the server part's
    // inner and last maps (196 608 B each), the heads' logits (2 048 B
    // each) and conv3's scratch (33 272 B: filterᵀ, one image's columns,
    // the padded plane), plus 1 048 B of shapes, plan lists and the
    // escalation list. A warm `classify` keeps no more.
    assert_eq!(classifier.classify(&frames).len(), frames.len());
    let workspace = LIVE.with(Cell::get) - before - trained;
    assert_eq!(
        workspace, 1_086_992,
        "bytes held after the first `classify`"
    );
    assert_eq!(classifier.classify(&frames).len(), frames.len());
    assert_eq!(LIVE.with(Cell::get) - before - trained, workspace);
}
