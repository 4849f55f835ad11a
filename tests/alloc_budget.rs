//! What a trained model keeps, and what it keeps to serve.
//!
//! Every layer's `backward` takes the cache its `forward` left, so a network
//! that is done training holds its parameters and their gradients — what it
//! held before — and not its last batch: Fig. 5's classifier serves for as
//! long as the cameras run, and the inputs of its two dense heads and the
//! masks of its ReLUs are 786 kB at the batch it trains on. Serving keeps
//! one thing more: the buffers its first batch grows, which every later
//! batch reuses. `sctelemetry::CountingAlloc`, the one counting allocator,
//! reads the bytes live on this thread.

use scdata::vehicles::VehicleCatalog;
use scdata::video::FrameGenerator;
use sctelemetry::{counted, CountingAlloc};
use smartcity::core::apps::vehicle::VehicleClassifier;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn a_trained_classifier_retains_what_an_untrained_one_does() {
    // citybench's `camera_infer` model: 8 classes, 32×32 crops, a batch of 64.
    let (classes, side) = (8, 32);
    let catalog = VehicleCatalog::generate(classes, 42);
    let (frames, labels) = FrameGenerator::new(catalog, side, side, 43).dataset(classes, 8);

    let (mut classifier, untrained) = counted(|| VehicleClassifier::new(classes, side, 1.01, 42));
    let ((), trained) = counted(|| drop(classifier.train(&frames, &labels, 2, 0.01)));

    assert!(
        untrained.live > 160_000,
        "parameters and gradients: {untrained:?}"
    );
    assert_eq!(trained.live, 0, "bytes held after `train`");

    // What the first `classify` keeps, its decisions dropped: the
    // classifier's input buffer and its workspace. That is the batch
    // (262 144 B), the front's feature map (393 216 B), the server part's
    // inner and last maps (196 608 B each), the heads' logits (2 048 B
    // each) and conv3's scratch (33 272 B: filterᵀ, one image's columns,
    // the padded plane), plus 1 048 B of shapes, plan lists and the
    // escalation list. A warm `classify` keeps no more.
    let mut classify = || classifier.classify(&frames).len();
    let (first, workspace) = counted(&mut classify);
    assert_eq!(first, frames.len());
    assert_eq!(
        workspace.live, 1_086_992,
        "bytes held after the first `classify`"
    );
    let (warm, again) = counted(&mut classify);
    assert_eq!(warm, frames.len());
    assert_eq!(again.live, 0);
}
