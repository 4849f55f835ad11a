//! Allocation budget of the Fig. 7 action recognizer's inference pass.
//!
//! An `ActionRecognizer` owns what a pass writes: the `[n, t, 1, h, w]`
//! clip batch, the split network's `ExitWorkspace` and the decisions. A
//! warm `recognize` allocates the `Vec<Recognition>` it returns and
//! nothing else. `sctelemetry::CountingAlloc`, the one counting allocator
//! (per thread, so the tests can run side by side), holds the calls to
//! that.

use scdata::actions::ClipGenerator;
use scneural::early_exit::ExitPoint;
use sctelemetry::{counted, CountingAlloc};
use smartcity_core::apps::actions::{ActionRecognizer, Recognition};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

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
        let (warm, heap) = counted(|| rec.recognize(&clips));
        assert_eq!(
            warm, cold,
            "a reused workspace is invisible in the decisions"
        );
        assert_eq!(heap.allocs, 1, "the returned recognitions, nothing else");
        assert_eq!(heap.bytes, clips.len() * std::mem::size_of::<Recognition>());
    }
}
