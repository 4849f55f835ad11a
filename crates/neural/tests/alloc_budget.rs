//! Allocation budget of a convolution, serving and training.
//!
//! `Conv2d` lowers one image at a time, so the number of allocations a call
//! makes must not scale with the batch. `infer` refills one scratch (the
//! transposed filter, the columns and the padded plane they are filled
//! from): the scratch, the output and its shape, and nothing larger than
//! the output. `forward` keeps every image's columns (`c·k²/f` times the
//! output) and that is its largest; `backward` works through per-image
//! scratches, so its largest is the input gradient it returns. Inference
//! through a network writes into a workspace its caller owns, so a warm
//! one allocates nothing: a `Sequential` lends its input to the first
//! layer, and a batch through the split network of Fig. 5 allocates its
//! decisions and nothing else. A counting `#[global_allocator]` (the
//! `crates/serve/tests/alloc_budget.rs` pattern, per thread so the tests
//! can run side by side) holds the calls to that.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use scneural::early_exit::{EarlyExitNet, ExitDecision, ExitPoint, ExitPolicy, ExitWorkspace};
use scneural::exec::ExecCtx;
use scneural::layers::{Conv2d, Dense, Flatten, Layer, Relu};
use scneural::net::{Sequential, Workspace};
use scneural::tensor::Tensor;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: a thread being torn down still allocates.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        let _ = BYTES.try_with(|n| n.set(n.get() + layout.size()));
        let _ = LARGEST.try_with(|n| n.set(n.get().max(layout.size())));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the number of heap allocations this
/// thread made meanwhile and the size of the largest.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    LARGEST.with(|n| n.set(0));
    let out = f();
    (
        out,
        ALLOCATIONS.with(Cell::get) - before,
        LARGEST.with(Cell::get),
    )
}

/// The widest layer of the Fig. 5 classifier (12 → 12 channels on 8×8 maps),
/// called once: the process's first kernel dispatch reads `SCSIMD_FORCE`.
fn conv3() -> Conv2d {
    let conv = Conv2d::new(12, 12, 3, 1, 1, 45);
    conv.infer(&Tensor::ones(vec![1, 12, 8, 8]));
    conv
}

#[test]
fn conv_infer_allocates_the_same_for_one_image_and_for_sixty_four() {
    let conv = conv3();
    let budget = |n: usize| {
        let x = Tensor::ones(vec![n, 12, 8, 8]);
        let (y, count, largest) = allocations_in(|| conv.infer(&x));
        assert_eq!(y.shape(), &[n, 12, 8, 8]);
        (count, largest)
    };
    let (one, _) = budget(1);
    let (many, largest) = budget(64);
    assert_eq!(one, many, "batch size must not matter");
    assert_eq!(one, 3, "scratch, output, shape");
    assert_eq!(largest, 4 * 64 * 12 * 8 * 8, "nothing outgrows the output");
}

#[test]
fn a_training_step_allocates_the_same_for_one_image_and_for_sixty_four() {
    let mut conv = conv3();
    let mut budget = |n: usize| {
        let x = Tensor::ones(vec![n, 12, 8, 8]);
        let (y, forward, kept) = allocations_in(|| conv.forward(&x));
        let (dx, backward, returned) = allocations_in(|| conv.backward(&y));
        assert_eq!(dx.shape(), x.shape());
        (forward + backward, kept, returned)
    };
    let (one, ..) = budget(1);
    let (many, kept, returned) = budget(64);
    assert_eq!(one, many, "batch size must not matter");
    let (columns, padded_plane) = (64 * (12 * 3 * 3) * (8 * 8), 10 * 11);
    assert_eq!(kept, 4 * (columns + padded_plane), "the columns");
    assert_eq!(returned, 4 * 64 * 12 * 8 * 8, "the input gradient");
}

/// Runs `f` and returns its result with the bytes this thread allocated
/// meanwhile.
fn bytes_in<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (out, BYTES.with(Cell::get) - before)
}

#[test]
fn a_sequential_hands_its_input_to_the_first_layer_uncopied() {
    let x = Tensor::ones(vec![4, 12, 8, 8]);
    let conv = conv3();
    let (_, bare) = bytes_in(|| conv.infer(&x));
    let net = Sequential::new().with(conv);
    let (_, stacked) = bytes_in(|| net.predict(&x));
    // The stack adds its plan's short lists, not a copy of the input.
    let copy = 4 * x.len();
    assert!(stacked < bare + copy, "{stacked} B against {bare} B");

    let (ctx, mut ws, mut out) = (ExecCtx::serial(), Workspace::default(), Tensor::default());
    net.predict_into(&x, &ctx, &mut ws, &mut out).unwrap();
    let (_, warm, _) = allocations_in(|| net.predict_into(&x, &ctx, &mut ws, &mut out));
    assert_eq!(warm, 0, "a warm workspace");
}

/// The split network of Fig. 5 over 32×32 crops
/// (`smartcity_core::apps::vehicle::VehicleClassifier`'s), every frame
/// escalated.
fn fig5_net() -> EarlyExitNet {
    let never_exit_locally = ExitPolicy::Confidence(1.01);
    EarlyExitNet::new(
        Sequential::new()
            .with(Conv2d::new(1, 6, 3, 2, 1, 42))
            .with(Relu::new()),
        Sequential::new()
            .with(Flatten::new())
            .with(Dense::new(6 * 16 * 16, 8, 43)),
        Sequential::new()
            .with(Conv2d::new(6, 12, 3, 2, 1, 44))
            .with(Relu::new())
            .with(Conv2d::new(12, 12, 3, 1, 1, 45))
            .with(Relu::new()),
        Sequential::new()
            .with(Flatten::new())
            .with(Dense::new(12 * 8 * 8, 8, 46)),
        never_exit_locally,
    )
}

#[test]
fn a_warm_batch_through_the_split_network_allocates_its_decisions() {
    let net = fig5_net();
    let x = Tensor::ones(vec![64, 1, 32, 32]);
    let mut ws = ExitWorkspace::default();
    let mut batch = || {
        let mut decisions = Vec::with_capacity(64);
        let ran = net.infer_into(&x, &ExecCtx::serial(), &mut ws, &mut decisions);
        ran.expect("the Fig. 5 shapes plan");
        decisions
    };
    batch();
    let ((decisions, count, _), bytes) = bytes_in(|| allocations_in(&mut batch));
    assert!(decisions.iter().all(|d| d.exit == ExitPoint::Server));
    // Every layer writes into the workspace, the activations and the heads'
    // `Flatten` in place, and a batch that escalates whole is shipped as it
    // stands: what is left is the decisions.
    assert_eq!(std::mem::size_of::<ExitDecision>(), 32);
    assert_eq!((count, bytes), (1, 64 * 32), "the decisions");
    assert_eq!(decisions, net.infer_ctx(&x, &ExecCtx::serial()));
}
