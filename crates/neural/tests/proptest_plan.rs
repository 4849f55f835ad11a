//! Property tests for the inference plan: a reused workspace is invisible
//! in the bits, and a shape a layer cannot take is a typed error when the
//! network is planned, before anything runs.

use proptest::prelude::*;
use scneural::early_exit::{EarlyExitNet, ExitPoint, ExitPolicy, ExitWorkspace};
use scneural::exec::ExecCtx;
use scneural::layers::{
    AvgPool2d, BatchNorm1d, Conv2d, ConvError, Dense, Dropout, Flatten, GlobalAvgPool, Layer,
    MaxPool2d, PlanError, Relu, Sigmoid, Softmax, Tanh,
};
use scneural::net::{Sequential, Workspace};
use scneural::tensor::Tensor;
use simclock::SeededRng;

/// Batch heights on both sides of the fan-out's 32-row chunk.
const BATCHES: [usize; 5] = [0, 1, 31, 33, 64];

/// An elementwise activation or inference-mode dropout.
fn activation(rng: &mut SeededRng) -> Box<dyn Layer> {
    match rng.index(4) {
        0 => Box::new(Relu::new()),
        1 => Box::new(Sigmoid::new()),
        2 => Box::new(Tanh::default()),
        _ => Box::new(Dropout::new(0.5, rng.next_u64())),
    }
}

/// A stack drawn from `seed`, and the shape of one of its input rows:
/// convolutions, pools and activations on an image, then (behind `Flatten`
/// or `GlobalAvgPool`) dense layers, batch-norm, softmax, dropout and
/// activations; or that dense part alone on flat rows. One seed draws one
/// stack.
fn random_stack(seed: u64) -> (Vec<Box<dyn Layer>>, Vec<usize>) {
    let mut rng = SeededRng::new(seed);
    let row = match rng.index(3) {
        0 => vec![1 + rng.index(12)],
        _ => vec![1 + rng.index(3), 4 + rng.index(6), 4 + rng.index(6)],
    };
    let mut shape = [&[1][..], &row].concat();
    let mut layers: Vec<Box<dyn Layer>> = Vec::new();
    let mut push = |layer: Box<dyn Layer>, shape: &mut Vec<usize>| {
        let mut next = Vec::new();
        layer.plan_step(shape, &mut next).expect("drawn to fit");
        *shape = next;
        layers.push(layer);
    };
    if shape.len() == 4 {
        for _ in 0..rng.index(6) {
            let (c, h, w) = (shape[1], shape[2], shape[3]);
            let layer: Box<dyn Layer> = match rng.index(6) {
                0..=2 => {
                    let (f, k) = (1 + rng.index(4), 1 + rng.index(h.min(w).min(3)));
                    let (stride, pad) = (1 + rng.index(2), rng.index(2));
                    Box::new(Conv2d::new(c, f, k, stride, pad, rng.next_u64()))
                }
                3 if h.min(w) >= 2 => Box::new(MaxPool2d::new(2, 1 + rng.index(2))),
                4 if h.min(w) >= 2 => Box::new(AvgPool2d::new(2, 1 + rng.index(2))),
                _ => activation(&mut rng),
            };
            push(layer, &mut shape);
        }
        match rng.index(2) {
            0 => push(Box::new(Flatten::new()), &mut shape),
            _ => push(Box::new(GlobalAvgPool::new()), &mut shape),
        }
    }
    for _ in 0..rng.index(5) {
        let width = shape[1];
        let layer: Box<dyn Layer> = match rng.index(5) {
            0 | 1 => Box::new(Dense::new(width, 1 + rng.index(8), rng.next_u64())),
            2 => Box::new(BatchNorm1d::new(width)),
            3 => Box::new(Softmax::default()),
            _ => activation(&mut rng),
        };
        push(layer, &mut shape);
    }
    (layers, row)
}

/// `rows` rows of shape `row`: about a third exact zeros, the rest gaussian.
fn batch(rows: usize, row: &[usize], rng: &mut SeededRng) -> Tensor {
    let shape = [&[rows][..], row].concat();
    let data = (0..shape.iter().product())
        .map(|_| match rng.index(3) {
            0 => 0.0,
            _ => rng.gaussian(0.0, 1.5) as f32,
        })
        .collect();
    Tensor::from_vec(shape, data).unwrap()
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Through one workspace, batches of every height in a shuffled order
    /// and then in reverse (so a smaller batch follows a larger one) give
    /// the bits of the stack's layers each run on its own by `infer`, on
    /// one thread or fanned out.
    #[test]
    fn a_reused_workspace_gives_each_layers_own_bits(
        seed in any::<u64>(),
        threads in 1usize..4,
    ) {
        let (layers, row) = random_stack(seed);
        let net = random_stack(seed).0.into_iter().fold(Sequential::new(), |mut net, layer| {
            net.push(layer);
            net
        });
        let mut rng = SeededRng::new(seed ^ 0x5eed);
        let mut order = BATCHES;
        for i in (1..order.len()).rev() {
            order.swap(i, rng.index(i + 1));
        }
        let ctx = ExecCtx::serial().with_par(scpar::ScparConfig::with_threads(threads));
        let (mut ws, mut out) = (Workspace::default(), Tensor::default());
        for &rows in order.iter().chain(order.iter().rev()) {
            let x = batch(rows, &row, &mut rng);
            let alone = layers.iter().fold(x.clone(), |x, layer| layer.infer(&x));
            net.predict_into(&x, &ctx, &mut ws, &mut out).unwrap();
            prop_assert_eq!(out.shape(), alone.shape(), "{:?}", net.layer_names());
            prop_assert_eq!(bits(out.data()), bits(alone.data()), "{} rows", rows);
        }
    }

    /// A batch whose rows exit at both heads gives, row for row, the
    /// decision each row gets alone through the same warm workspace, so no
    /// stale probability, class or gathered row leaks between calls.
    #[test]
    fn each_row_of_a_mixed_batch_is_decided_as_it_is_alone(
        seed in any::<u64>(),
        rows in 4usize..48,
    ) {
        let mut net = EarlyExitNet::new(
            Sequential::new().with(Dense::new(3, 6, seed)).with(Relu::new()),
            Sequential::new().with(Dense::new(6, 3, seed ^ 1)),
            Sequential::new().with(Dense::new(6, 6, seed ^ 2)).with(Tanh::default()),
            Sequential::new().with(Dense::new(6, 3, seed ^ 3)),
            ExitPolicy::Confidence(0.0),
        );
        let mut rng = SeededRng::new(seed);
        let x = batch(rows, &[3], &mut rng);
        // The median local confidence as the threshold: about half exit.
        let ctx = ExecCtx::serial();
        let mut confidences: Vec<f32> =
            net.infer_ctx(&x, &ctx).iter().map(|d| d.confidence).collect();
        confidences.sort_by(f32::total_cmp);
        net.set_policy(ExitPolicy::Confidence(confidences[rows / 2]));

        let (mut ws, mut decisions) = (ExitWorkspace::default(), Vec::new());
        net.infer_into(&batch(64, &[3], &mut rng), &ctx, &mut ws, &mut decisions).unwrap();
        net.infer_into(&x, &ctx, &mut ws, &mut decisions).unwrap();
        prop_assert_eq!(decisions.len(), rows);
        for exit in [ExitPoint::Local, ExitPoint::Server] {
            prop_assert!(decisions.iter().any(|d| d.exit == exit), "no {:?} exit", exit);
        }
        let mut alone = Vec::new();
        for (i, decided) in decisions.iter().enumerate() {
            let row = Tensor::from_vec(vec![1, 3], x.data()[3 * i..][..3].to_vec()).unwrap();
            net.infer_into(&row, &ctx, &mut ws, &mut alone).unwrap();
            prop_assert_eq!(&alone[0], decided, "row {}", i);
        }
    }

    /// A wrong rank, width or channel count is a `PlanError` from `plan`,
    /// naming the layer, and `predict` panics with its text.
    #[test]
    fn a_shape_no_layer_takes_is_refused_when_planned(
        c in 1usize..4,
        width in 1usize..8,
        extra in 1usize..4,
        rank in (0usize..5).prop_map(|r| if r == 2 { 5 } else { r }),
        rows in 0usize..5,
    ) {
        let dense = Sequential::new().with(Relu::new()).with(Dense::new(width, 2, 1));
        let wide = [rows, width + extra];
        let too_wide = PlanError::Width { layer: "Dense", expected: width, got: width + extra };
        prop_assert_eq!(dense.plan(&wide).unwrap_err(), too_wide.clone());
        let shape = vec![width; rank];
        let rank_error = PlanError::Rank { layer: "Dense", expected: 2, shape: shape.clone() };
        prop_assert_eq!(dense.plan(&shape).unwrap_err(), rank_error);
        prop_assert_eq!(dense.plan(&[rows, width]).unwrap().output(), &[rows, 2][..]);

        let norm = Sequential::new().with(BatchNorm1d::new(width));
        let narrow = PlanError::Width { layer: "BatchNorm1d", expected: width, got: width + extra };
        prop_assert_eq!(norm.plan(&wide).unwrap_err(), narrow);

        // Conv → ReLU → Flatten → a head one `extra` too wide for it.
        let stack = Sequential::new()
            .with(Conv2d::new(c, 2, 3, 1, 1, 2))
            .with(Relu::new())
            .with(Flatten::new())
            .with(Dense::new(2 * 4 * 4 + extra, 3, 3));
        let channels = ConvError::ChannelMismatch { expected: c, got: c + extra };
        let refused = stack.plan(&[rows, c + extra, 4, 4]).unwrap_err();
        prop_assert_eq!(refused, PlanError::Conv { layer: "Conv2d", error: channels });
        let head = PlanError::Width { layer: "Dense", expected: 32 + extra, got: 32 };
        prop_assert_eq!(stack.plan(&[rows, c, 4, 4]).unwrap_err(), head);

        let predict = || dense.predict(&Tensor::zeros(wide.to_vec()));
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(predict)).unwrap_err();
        let text = panic.downcast_ref::<String>().expect("a formatted panic");
        prop_assert_eq!(text, &too_wide.to_string());
    }
}
