//! Property tests for the deep-learning framework's core invariants.

use proptest::prelude::*;
use scneural::early_exit::{EarlyExitNet, ExitPolicy};
use scneural::layers::{softmax_rows, Conv2d, ConvError, Dense, Layer, PlanError, Relu};
use scneural::net::Sequential;
use scneural::serialize::{load_params, save_params};
use scneural::tensor::Tensor;
use simclock::SeededRng;

fn small_tensor(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-10.0f32..10.0, rows * cols)
        .prop_map(move |data| Tensor::from_vec(vec![rows, cols], data).unwrap())
}

fn mlp(seed: u64) -> Sequential {
    Sequential::new()
        .with(Dense::new(3, 5, seed))
        .with(Relu::new())
        .with(Dense::new(5, 2, seed + 1))
}

fn split_net(seed: u64) -> EarlyExitNet {
    EarlyExitNet::new(
        Sequential::new().with(Dense::new(3, 5, seed)),
        Sequential::new().with(Dense::new(5, 2, seed + 1)),
        Sequential::new().with(Dense::new(5, 5, seed + 2)),
        Sequential::new().with(Dense::new(5, 2, seed + 3)),
        ExitPolicy::Confidence(0.5),
    )
}

/// A valid blob cut short at `at`, or with one bit flipped there.
fn damaged(mut blob: Vec<u8>, truncate: bool, at: usize, bit: u8) -> Vec<u8> {
    let at = at % blob.len();
    if truncate {
        blob.truncate(at);
    } else {
        blob[at] ^= 1 << bit;
    }
    blob
}

/// A post-ReLU-like feature map: about half exact zeros, some of them
/// negative, the rest gaussian.
fn sparse_input(shape: Vec<usize>, rng: &mut SeededRng) -> Tensor {
    let data = (0..shape.iter().product())
        .map(|_| match rng.index(8) {
            0..=2 => 0.0,
            3 => -0.0,
            _ => rng.gaussian(0.0, 1.0) as f32,
        })
        .collect();
    Tensor::from_vec(shape, data).unwrap()
}

/// Replaces `conv`'s filter and bias by finite draws, a tenth of them exact
/// zeros.
fn redraw_params(conv: &mut Conv2d, rng: &mut SeededRng) {
    for param in conv.params_mut() {
        for v in param.value.data_mut() {
            *v = if rng.index(10) == 0 {
                0.0
            } else {
                rng.gaussian(0.0, 0.5) as f32
            };
        }
    }
}

/// What [`direct_convolution`] returns: the output and the three gradients.
struct Direct {
    y: Vec<f32>,
    dw: Vec<f32>,
    db: Vec<f32>,
    dx: Vec<f32>,
}

/// The convolution as the sums it is defined by, with no column matrix, no
/// panel and no skipped zero: every output element the ascending-`(ch, ky,
/// kx)` sum from `+0.0`, then the bias; every gradient element its
/// ascending-(image, `oy`, `ox`) sum. `window` is `[kernel, stride, pad]`.
fn direct_convolution(conv: &Conv2d, x: &Tensor, grad_out: &Tensor, window: [usize; 3]) -> Direct {
    let [k, stride, pad] = window;
    let &[n, c, h, w] = x.shape() else {
        panic!("x is [n, c, h, w]")
    };
    let &[_, f, oh, ow] = grad_out.shape() else {
        panic!("grad_out is [n, f, oh, ow]")
    };
    let (filter, bias) = (conv.params()[0].value.data(), conv.params()[1].value.data());
    let (x, g) = (x.data(), grad_out.data());
    // The input element that tap `p = (ch·k + ky)·k + kx` of window
    // `(oy, ox)` reads, unless it falls in the padding.
    let tap = |b: usize, p: usize, oy: usize, ox: usize| {
        let iy = (oy * stride + p / k % k)
            .checked_sub(pad)
            .filter(|&iy| iy < h)?;
        let ix = (ox * stride + p % k)
            .checked_sub(pad)
            .filter(|&ix| ix < w)?;
        Some(((b * c + p / (k * k)) * h + iy) * w + ix)
    };
    let mut out = Direct {
        y: vec![0.0; g.len()],
        dw: vec![0.0; filter.len()],
        db: vec![0.0; f],
        dx: vec![0.0; x.len()],
    };
    for (b, oy, ox) in (0..n * oh * ow).map(|i| (i / (oh * ow), i / ow % oh, i % ow)) {
        let at = |o: usize| ((b * f + o) * oh + oy) * ow + ox;
        let taps = (0..c * k * k).filter_map(|p| Some((p, tap(b, p, oy, ox)?)));
        for o in 0..f {
            out.db[o] += g[at(o)];
            let mut sum = 0.0;
            for (p, i) in taps.clone() {
                sum += x[i] * filter[p * f + o];
                out.dw[p * f + o] += x[i] * g[at(o)];
            }
            out.y[at(o)] = sum + bias[o];
        }
        for (p, i) in taps {
            out.dx[i] += (0..f).fold(0.0, |sum, o| sum + filter[p * f + o] * g[at(o)]);
        }
    }
    out
}

/// A window side from `{1, 2, 3, 5}`.
fn kernel_side() -> impl Strategy<Value = usize> {
    (0usize..4).prop_map(|i| [1, 2, 3, 5][i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `infer`, `forward` and `backward` against the sums written out in
    /// [`direct_convolution`]: same bits, gradients included.
    #[test]
    fn conv_matches_a_direct_convolution_bit_for_bit(
        c in 1usize..=5,
        f in 1usize..=5,
        n in 1usize..=5,
        k in kernel_side(),
        stride in 1usize..=3,
        pad in 0usize..=2,
        h in 5usize..=9,
        wider in 1usize..=3,
        seed in any::<u64>(),
    ) {
        let mut rng = SeededRng::new(seed);
        let mut conv = Conv2d::new(c, f, k, stride, pad, seed);
        redraw_params(&mut conv, &mut rng);
        let x = sparse_input(vec![n, c, h, h + wider], &mut rng);
        let mut planned = Vec::new();
        conv.plan_step(&[n, c, h, h + wider], &mut planned).expect("the window fits");
        let (oh, ow) = (planned[2], planned[3]);
        let grad_out = sparse_input(vec![n, f, oh, ow], &mut rng);
        let model = direct_convolution(&conv, &x, &grad_out, [k, stride, pad]);

        let bits = |values: &[f32]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let inferred = conv.infer(&x);
        prop_assert_eq!(inferred.shape(), &[n, f, oh, ow]);
        prop_assert_eq!(bits(inferred.data()), bits(&model.y), "infer");
        let trained = conv.forward(&x);
        prop_assert_eq!(trained.shape(), &[n, f, oh, ow]);
        prop_assert_eq!(bits(trained.data()), bits(&model.y), "forward");
        let dx = conv.backward(&grad_out);
        prop_assert_eq!(dx.shape(), x.shape());
        prop_assert_eq!(bits(dx.data()), bits(&model.dx), "dX");
        prop_assert_eq!(bits(conv.params()[0].grad.data()), bits(&model.dw), "dW");
        prop_assert_eq!(bits(conv.params()[1].grad.data()), bits(&model.db), "db");
    }

    /// A wrong rank, a wrong channel count and an image smaller than the
    /// window are each their own `ConvError` in the plan's refusal; none
    /// panics.
    #[test]
    fn conv_plan_names_what_is_wrong(
        c in 1usize..=4,
        k in kernel_side(),
        stride in 1usize..=3,
        pad in 0usize..=2,
        rank in (0usize..6).prop_map(|r| if r < 4 { r } else { r + 1 }),
        dims in proptest::collection::vec(1usize..=3, 6),
        other_channels in 1usize..=4,
        short in 0usize..=4,
        long in 5usize..=8,
        short_is_height in any::<bool>(),
    ) {
        let conv = Conv2d::new(c, 2, k, stride, pad, 1);

        // The output shape `conv` plans for `shape`, or its refusal.
        let plan = |shape: &[usize]| {
            let mut out = Vec::new();
            conv.plan_step(shape, &mut out).map(|_| out)
        };
        let refused = |error| Err(PlanError::Conv { layer: "Conv2d", error });

        let shape = dims[..rank].to_vec();
        prop_assert_eq!(plan(&shape), refused(ConvError::NotNchw { shape }));

        let mismatch = ConvError::ChannelMismatch { expected: c, got: c + other_channels };
        prop_assert_eq!(plan(&[2, c + other_channels, long, long]), refused(mismatch));

        let (height, width) = if short_is_height { (short, long) } else { (long, short) };
        let got = plan(&[2, c, height, width]);
        if short + 2 * pad < k {
            let too_small = ConvError::KernelExceedsInput { kernel: k, pad, height, width };
            prop_assert_eq!(got, refused(too_small));
        } else {
            prop_assert_eq!(got.unwrap()[..2].to_vec(), vec![2, 2]);
        }
        // A stack plans through the same refusal.
        let net = Sequential::new().with(Conv2d::new(c, 2, k, stride, pad, 1));
        let wrong = net.plan(&[2, c + other_channels, long, long]).err();
        let mismatch = ConvError::ChannelMismatch { expected: c, got: c + other_channels };
        prop_assert_eq!(wrong, refused(mismatch).err());
    }

    /// A damaged weight blob is refused or loaded — never a panic, never an
    /// allocation sized by the damage — and a refusal changes nothing.
    #[test]
    fn damaged_blob_loads_whole_or_not_at_all(
        truncate in any::<bool>(),
        at in any::<usize>(),
        bit in 0u8..8,
    ) {
        let mut target = mlp(1);
        let before = save_params(&target);
        let blob = damaged(save_params(&mlp(2)), truncate, at, bit);
        match load_params(&mut target, &blob) {
            Ok(()) => prop_assert_eq!(save_params(&target), blob),
            Err(_) => prop_assert_eq!(save_params(&target), before),
        }

        let mut target = split_net(3);
        let before = (target.save_local(), target.save_server());
        let blob = damaged(split_net(4).save_local(), truncate, at, bit);
        match target.load_local(&blob) {
            Ok(()) => prop_assert_eq!(target.save_local(), blob),
            Err(_) => prop_assert_eq!((target.save_local(), target.save_server()), before),
        }
    }

    /// (Aᵀ)ᵀ = A for any matrix.
    #[test]
    fn transpose_involution(t in small_tensor(3, 5)) {
        prop_assert_eq!(t.transpose().transpose(), t);
    }

    /// (AB)ᵀ = BᵀAᵀ.
    #[test]
    fn matmul_transpose_law(a in small_tensor(3, 4), b in small_tensor(4, 2)) {
        let lhs = a.matmul(&b).unwrap().transpose();
        let rhs = b.transpose().matmul(&a.transpose()).unwrap();
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    /// A(B + C) = AB + AC (distributivity).
    #[test]
    fn matmul_distributes(
        a in small_tensor(2, 3),
        b in small_tensor(3, 2),
        c in small_tensor(3, 2),
    ) {
        let lhs = a.matmul(&b.add(&c).unwrap()).unwrap();
        let rhs = a.matmul(&b).unwrap().add(&a.matmul(&c).unwrap()).unwrap();
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-2, "{x} vs {y}");
        }
    }

    /// Softmax rows always sum to 1 and lie in (0, 1].
    #[test]
    fn softmax_is_distribution(t in small_tensor(4, 6)) {
        let s = softmax_rows(&t);
        for i in 0..4 {
            let row_sum: f32 = (0..6).map(|j| s.at(i, j)).sum();
            prop_assert!((row_sum - 1.0).abs() < 1e-4);
            for j in 0..6 {
                prop_assert!(s.at(i, j) > 0.0 && s.at(i, j) <= 1.0);
            }
        }
    }

    /// Softmax is shift-invariant: softmax(x + c) = softmax(x).
    #[test]
    fn softmax_shift_invariant(t in small_tensor(2, 4), shift in -5.0f32..5.0) {
        let a = softmax_rows(&t);
        let b = softmax_rows(&t.map(|v| v + shift));
        for (x, y) in a.data().iter().zip(b.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// Dense layers are linear: f(x + y) = f(x) + f(y) - f(0).
    #[test]
    fn dense_is_affine(x in small_tensor(1, 4), y in small_tensor(1, 4), seed in any::<u64>()) {
        let layer = Dense::new(4, 3, seed);
        let f0 = layer.infer(&Tensor::zeros(vec![1, 4]));
        let fx = layer.infer(&x);
        let fy = layer.infer(&y);
        let fxy = layer.infer(&x.add(&y).unwrap());
        let rhs = fx.add(&fy).unwrap().sub(&f0).unwrap();
        for (a, b) in fxy.data().iter().zip(rhs.data()) {
            prop_assert!((a - b).abs() < 1e-2, "{a} vs {b}");
        }
    }

    /// ReLU output is non-negative and idempotent.
    #[test]
    fn relu_properties(x in small_tensor(2, 8)) {
        let r = Relu::new();
        let y = r.infer(&x);
        prop_assert!(y.data().iter().all(|&v| v >= 0.0));
        prop_assert_eq!(r.infer(&y), y);
    }

    /// Convolution commutes with input scaling when bias is zero:
    /// conv(kx) = k·conv(x).
    #[test]
    fn conv_is_homogeneous(
        data in proptest::collection::vec(-1.0f32..1.0, 36),
        k in 0.1f32..3.0,
        seed in any::<u64>(),
    ) {
        let x = Tensor::from_vec(vec![1, 1, 6, 6], data).unwrap();
        let mut conv = Conv2d::new(1, 2, 3, 1, 1, seed);
        conv.params_mut()[1].value = Tensor::zeros(vec![1, 2]); // zero bias
        let y1 = conv.infer(&x.scale(k));
        let mut conv2 = Conv2d::new(1, 2, 3, 1, 1, seed);
        conv2.params_mut()[1].value = Tensor::zeros(vec![1, 2]);
        let y2 = conv2.infer(&x).scale(k);
        for (a, b) in y1.data().iter().zip(y2.data()) {
            prop_assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    /// hstack then hsplit round-trips.
    #[test]
    fn hstack_hsplit_roundtrip(a in small_tensor(3, 2), b in small_tensor(3, 4)) {
        let joined = Tensor::hstack(&[a.clone(), b.clone()]).unwrap();
        let (left, right) = joined.hsplit(2);
        prop_assert_eq!(left, a);
        prop_assert_eq!(right, b);
    }

    /// Gradient accumulation: two backward passes double parameter grads.
    #[test]
    fn gradients_accumulate(x in small_tensor(2, 3), seed in any::<u64>()) {
        let mut layer = Dense::new(3, 2, seed);
        let y = layer.forward(&x);
        let g = Tensor::ones(y.shape().to_vec());
        layer.backward(&g);
        let once = layer.params()[0].grad.clone();
        layer.forward(&x);
        layer.backward(&g);
        let twice = layer.params()[0].grad.clone();
        for (a, b) in once.data().iter().zip(twice.data()) {
            prop_assert!((2.0 * a - b).abs() < 1e-3 + a.abs() * 1e-3, "{a} vs {b}");
        }
    }
}
