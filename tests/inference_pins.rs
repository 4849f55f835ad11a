//! Inference fingerprints, one fixed-seed instance per network family.
//!
//! Every value below was captured at the last commit where inference still
//! ran through `Layer::forward(x, train = false)` (and `predict`, `encode`,
//! `q_values`, `classify`, `recognize` … took `&mut self` to reach it). The
//! `&self` path that replaced it must reproduce each one bit for bit: the
//! hash is FNV-1a over the output's shape and the raw `f32` bits.
//!
//! Each network is trained for a few steps first so that biases, batch-norm
//! running statistics and every training cache are populated before the
//! inference call.

use scdata::actions::ClipGenerator;
use scdata::vehicles::VehicleCatalog;
use scdata::video::FrameGenerator;
use simclock::hash::{fnv1a, fnv1a_from};
use simclock::SeededRng;
use smartcity::core::apps::actions::ActionRecognizer;
use smartcity::core::apps::vehicle::VehicleClassifier;
use smartcity::drl::{Agent, DqnAgent, DqnConfig, Transition};
use smartcity::neural::autoencoder::{Autoencoder, FusionAutoencoder};
use smartcity::neural::blocks::{InceptionBlock, ResidualBlock, Shortcut};
use smartcity::neural::early_exit::{ExitDecision, ExitPoint};
use smartcity::neural::layers::{
    AvgPool2d, BatchNorm1d, Conv2d, Dense, Dropout, Flatten, GlobalAvgPool, Layer, MaxPool2d, Relu,
};
use smartcity::neural::net::Sequential;
use smartcity::neural::optim::Adam;
use smartcity::neural::rnn::{LastStep, Lstm};
use smartcity::neural::tensor::Tensor;

fn gaussian(shape: Vec<usize>, seed: u64) -> Tensor {
    let mut rng = SeededRng::new(seed);
    let n = shape.iter().product();
    let data = (0..n).map(|_| rng.gaussian(0.0, 1.0) as f32).collect();
    Tensor::from_vec(shape, data).unwrap()
}

/// Values in `[0, 1]`, what the sigmoid-output autoencoders reconstruct.
fn unit(shape: Vec<usize>, seed: u64) -> Tensor {
    let mut rng = SeededRng::new(seed);
    let n = shape.iter().product();
    let data = (0..n).map(|_| rng.next_f32()).collect();
    Tensor::from_vec(shape, data).unwrap()
}

fn fingerprint(t: &Tensor) -> u64 {
    let mut h = fnv1a(&[]);
    for &d in t.shape() {
        h = fnv1a_from(h, &(d as u64).to_le_bytes());
    }
    for v in t.data() {
        h = fnv1a_from(h, &v.to_bits().to_le_bytes());
    }
    h
}

/// Fingerprint of a split-network answer: exit taken, class, and the bits
/// of the two floats the policy looked at, per sample.
fn decision_fingerprint(rows: impl Iterator<Item = (ExitPoint, usize, f32, f32, usize)>) -> u64 {
    let mut h = fnv1a(&[]);
    for (exit, class, confidence, entropy, bytes) in rows {
        h = fnv1a_from(h, &[u8::from(exit == ExitPoint::Server)]);
        h = fnv1a_from(h, &(class as u64).to_le_bytes());
        h = fnv1a_from(h, &confidence.to_bits().to_le_bytes());
        h = fnv1a_from(h, &entropy.to_bits().to_le_bytes());
        h = fnv1a_from(h, &(bytes as u64).to_le_bytes());
    }
    h
}

/// [`decision_fingerprint`] of a `VehicleClassifier::classify` answer.
fn vehicle_pin(decisions: &[ExitDecision]) -> u64 {
    decision_fingerprint(decisions.iter().map(|d| {
        (
            d.exit,
            d.class,
            d.confidence,
            d.local_entropy,
            d.feature_bytes,
        )
    }))
}

/// Trains `net` for `steps` full-batch Adam steps on `x` with labels
/// `i % classes`.
fn fit(net: &mut Sequential, x: &Tensor, classes: usize, steps: usize) {
    let labels: Vec<usize> = (0..x.shape()[0]).map(|i| i % classes).collect();
    let mut opt = Adam::new(0.01);
    net.fit(x, &labels, &mut opt, steps);
}

#[test]
fn mlp_with_dropout_and_batchnorm() {
    let mut net = Sequential::new()
        .with(Dense::new(6, 16, 1))
        .with(BatchNorm1d::new(16))
        .with(Relu::new())
        .with(Dropout::new(0.3, 2))
        .with(Dense::new(16, 3, 3));
    fit(&mut net, &gaussian(vec![12, 6], 10), 3, 5);
    let x = gaussian(vec![5, 6], 11);
    assert_eq!(fingerprint(&net.predict(&x)), 0x0062_b5a7_90e8_a28b);
}

#[test]
fn conv_pool_stack() {
    let mut net = Sequential::new()
        .with(Conv2d::new(1, 4, 3, 1, 1, 20))
        .with(Relu::new())
        .with(MaxPool2d::new(2, 2))
        .with(Conv2d::new(4, 6, 3, 2, 1, 21))
        .with(Relu::new())
        .with(AvgPool2d::new(2, 2))
        .with(Flatten::new())
        .with(Dense::new(6 * 2 * 2, 3, 22));
    fit(&mut net, &gaussian(vec![6, 1, 16, 16], 23), 3, 3);
    assert_eq!(
        fingerprint(&net.predict(&gaussian(vec![3, 1, 16, 16], 24))),
        0xbeb4_edaf_aae4_e91f
    );

    let mut pooled = Sequential::new()
        .with(Conv2d::new(2, 5, 3, 1, 0, 25))
        .with(GlobalAvgPool::new())
        .with(Dense::new(5, 2, 26));
    fit(&mut pooled, &gaussian(vec![4, 2, 8, 8], 27), 2, 3);
    assert_eq!(
        fingerprint(&pooled.predict(&gaussian(vec![3, 2, 8, 8], 28))),
        0x5e76_65b8_47df_a8b9
    );
}

#[test]
fn residual_block_every_shortcut() {
    let pins = [
        (
            ResidualBlock::new(2, 4, 2, Shortcut::Conv, 30),
            2,
            4 * 4 * 4,
            0x9196_8e3f_d10a_4459u64,
        ),
        (
            ResidualBlock::new(3, 3, 1, Shortcut::Identity, 31),
            3,
            3 * 8 * 8,
            0xb6d8_d861_3798_7b45,
        ),
        (
            ResidualBlock::new(2, 5, 2, Shortcut::MaxPool, 32),
            2,
            5 * 4 * 4,
            0x52d9_d848_7092_8556,
        ),
    ];
    // `(block, input channels, output channels × side², pin)`: a stride-2
    // block halves the 8 × 8 input.
    for (block, channels, features, pin) in pins {
        let mut net = Sequential::new()
            .with(block)
            .with(Flatten::new())
            .with(Dense::new(features, 2, 33));
        fit(&mut net, &gaussian(vec![4, channels, 8, 8], 34), 2, 3);
        let x = gaussian(vec![3, channels, 8, 8], 35);
        assert_eq!(
            fingerprint(&net.predict(&x)),
            pin,
            "{features} output features"
        );
    }
    // The bare block, as the layer trait sees it.
    let block = ResidualBlock::new(2, 4, 2, Shortcut::Conv, 36);
    let x = gaussian(vec![2, 2, 8, 8], 37);
    assert_eq!(fingerprint(&block.infer(&x)), 0xd231_61f2_9637_270b);
}

#[test]
fn inception_block() {
    let mut net = Sequential::new()
        .with(InceptionBlock::new(3, [2, 3, 2, 1], 40))
        .with(Flatten::new())
        .with(Dense::new(8 * 6 * 6, 2, 41));
    fit(&mut net, &gaussian(vec![4, 3, 6, 6], 42), 2, 3);
    assert_eq!(
        fingerprint(&net.predict(&gaussian(vec![3, 3, 6, 6], 43))),
        0x4ca9_b4b6_50bf_d66c
    );
    let block = InceptionBlock::new(3, [2, 3, 2, 1], 44);
    let x = gaussian(vec![2, 3, 6, 6], 45);
    assert_eq!(fingerprint(&block.infer(&x)), 0x4df5_2bbf_8f13_a59e);
}

#[test]
fn lstm_sequence_classifier() {
    let mut net = Sequential::new()
        .with(Lstm::new(3, 8, 50))
        .with(Lstm::new(8, 4, 51))
        .with(LastStep::new())
        .with(Dense::new(4, 5, 1050));
    fit(&mut net, &gaussian(vec![10, 6, 3], 51), 5, 3);
    assert_eq!(
        fingerprint(&net.predict(&gaussian(vec![4, 6, 3], 52))),
        0x4af1_ea58_da02_ec52
    );
}

#[test]
fn autoencoders() {
    let mut ae = Autoencoder::new(8, &[6], 3, 60);
    let mut opt = Adam::new(0.01);
    let x = unit(vec![10, 8], 61);
    for _ in 0..5 {
        ae.train_step(&x, &mut opt);
    }
    let probe = unit(vec![4, 8], 62);
    assert_eq!(fingerprint(&ae.encode(&probe)), 0xd45f_b106_7667_527f);
    assert_eq!(fingerprint(&ae.reconstruct(&probe)), 0xa23b_f59b_53e9_e6e4);

    let mut fae = FusionAutoencoder::new(6, 4, 10, 5, 3, 63);
    let mut opt = Adam::new(0.01);
    let (a, b) = (unit(vec![8, 6], 64), unit(vec![8, 10], 65));
    for _ in 0..5 {
        fae.train_step(&a, &b, &mut opt);
    }
    let (pa, pb) = (unit(vec![3, 6], 66), unit(vec![3, 10], 67));
    assert_eq!(fingerprint(&fae.fuse(&pa, &pb)), 0xb85e_a044_98f5_49ec);
    assert_eq!(fingerprint(&fae.fuse_a_only(&pa)), 0x26b8_3285_b232_03f1);
    let (ra, rb) = fae.reconstruct(&pa, &pb);
    assert_eq!(fingerprint(&ra), 0xc50b_312a_6b4f_79ed);
    assert_eq!(fingerprint(&rb), 0x34af_cb89_c7da_34e1);
}

#[test]
fn dqn_q_values() {
    let config = DqnConfig {
        hidden: 12,
        batch_size: 8,
        target_sync: 4,
        ..DqnConfig::default()
    };
    let mut agent = DqnAgent::new(4, 3, config, 70);
    let mut rng = SeededRng::new(71);
    let mut state: Vec<f32> = (0..4).map(|_| rng.next_f32()).collect();
    for step in 0..20 {
        let next_state: Vec<f32> = (0..4).map(|_| rng.next_f32()).collect();
        agent.observe(Transition {
            state: state.clone(),
            action: rng.index(3),
            reward: rng.next_f64(),
            next_state: next_state.clone(),
            done: step % 7 == 6,
        });
        state = next_state;
    }
    let q = agent.q_values(&[0.1, 0.7, 0.3, 0.9]);
    assert_eq!(
        fingerprint(&Tensor::from_vec(vec![1, 3], q).unwrap()),
        0x9267_91da_5482_168b
    );
}

#[test]
fn vehicle_classifier_classify() {
    let classes = 4;
    let catalog = VehicleCatalog::generate(classes, 80);
    let mut gen = FrameGenerator::new(catalog, 16, 16, 81).noise(0.02);
    let (frames, labels) = gen.dataset(classes, 6);
    let mut clf = VehicleClassifier::new(classes, 16, 0.5, 82);
    clf.train(&frames, &labels, 8, 0.01);
    let decisions = clf.classify(&frames);
    let offloaded = decisions
        .iter()
        .filter(|d| d.exit == ExitPoint::Server)
        .count();
    assert!(
        0 < offloaded && offloaded < decisions.len(),
        "the pin must cover both exits, got {offloaded}/{}",
        decisions.len()
    );
    assert_eq!(vehicle_pin(&decisions), 0x2fd8_64b8_45e6_7643);
}

/// citybench's `camera_infer` model (`benchmark/src/camera.rs`: 8 classes,
/// 32×32 crops, fleet and weights from seed 42, 10 epochs), captured from
/// the batch-wide `im2col` lowering, which neither `infer` (ISSUE 16) nor
/// training (ISSUE 21) goes through any more. With the
/// benchmark's threshold every frame takes all three convolutions; a
/// threshold inside the local confidences covers both exits.
#[test]
fn vehicle_classifier_benchmark_model() {
    let classes = 8;
    let catalog = VehicleCatalog::generate(classes, 42);
    let (training_set, labels) =
        FrameGenerator::new(catalog.clone(), 32, 32, 43).dataset(classes, 8);
    let mut clf = VehicleClassifier::new(classes, 32, 1.01, 42);
    clf.train(&training_set, &labels, 10, 0.01);
    let pin = |clf: &mut VehicleClassifier, seed: u64| {
        let frames = FrameGenerator::new(catalog.clone(), 32, 32, seed)
            .dataset(classes, 8)
            .0;
        let decisions = clf.classify(&frames);
        let offloaded = decisions
            .iter()
            .filter(|d| d.exit == ExitPoint::Server)
            .count();
        (offloaded, vehicle_pin(&decisions))
    };
    assert_eq!(pin(&mut clf, 42), (64, 0xa2fe_6406_cd69_0a49));
    assert_eq!(pin(&mut clf, 7), (64, 0xb249_48c0_d45b_546b));
    clf.set_threshold(0.3);
    assert_eq!(pin(&mut clf, 7), (29, 0xdf22_e03e_89b2_28b6));
}

/// `Conv2d` at the shapes Fig. 5's split network has, plus one awkward one.
struct Shape {
    name: &'static str,
    /// `[n, c, h, w]`
    input: [usize; 4],
    filters: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    /// Captured from the batch-wide `im2col` lowering that trained until
    /// ISSUE 21; the per-image lowering has to reproduce it.
    probe_bits: u32,
    /// `[dW, db, dX]`, captured from that same lowering's `backward`.
    grad_hashes: [u64; 3],
}

#[rustfmt::skip]
const SHAPES: [Shape; 4] = [
    Shape { name: "conv1", input: [64, 1, 32, 32], filters: 6, kernel: 3, stride: 2, pad: 1, probe_bits: 0xbe8e_15a4, grad_hashes: [0x8ab6_2b6f_adf6_c49e, 0x939e_c435_030d_57d2, 0xec0f_b149_1a77_e2f0] },
    Shape { name: "conv2", input: [64, 6, 16, 16], filters: 12, kernel: 3, stride: 2, pad: 1, probe_bits: 0x3e56_35b0, grad_hashes: [0x0eb6_8dc9_5031_8159, 0x7af3_71e5_becf_7a3d, 0xb541_f3ed_1251_ba50] },
    Shape { name: "conv3", input: [64, 12, 8, 8], filters: 12, kernel: 3, stride: 1, pad: 1, probe_bits: 0x3d5e_acb2, grad_hashes: [0xd099_909b_1f7b_fc55, 0xbf6e_26d4_7f54_16f0, 0xe60f_9bce_6548_3c57] },
    Shape { name: "odd", input: [7, 3, 17, 23], filters: 5, kernel: 5, stride: 3, pad: 2, probe_bits: 0xbe82_0468, grad_hashes: [0xba27_2b9f_2321_8363, 0x7885_6fb8_c082_ea54, 0x11cd_0525_f4b2_dd7f] },
];

/// One of Fig. 5's dense heads.
struct Head {
    name: &'static str,
    /// The `[n, c, h, w]` map the head flattens.
    map: [usize; 4],
    classes: usize,
    /// FNV-1a of the logits' bits, captured from the panel that computed
    /// one output row at a time; the row-blocked one has to reproduce it.
    logits_hash: u64,
}

#[rustfmt::skip]
const HEADS: [Head; 2] = [
    Head { name: "exit", map: [64, 6, 16, 16], classes: 8, logits_hash: 0x29bc_cb1c_e8ff_f2e4 },
    Head { name: "final", map: [64, 12, 8, 8], classes: 8, logits_hash: 0xf4df_6de7_f880_b5b2 },
];

/// Half zeros, like a post-ReLU feature map.
fn post_relu(shape: [usize; 4], rng: &mut SeededRng) -> Tensor {
    let data = (0..shape.iter().product())
        .map(|_| (rng.next_f32() - 0.5).max(0.0))
        .collect();
    Tensor::from_vec(shape.to_vec(), data).unwrap()
}

/// Either sign, a quarter zeros: what a ReLU above a layer hands down.
fn output_gradient(shape: &[usize], rng: &mut SeededRng) -> Tensor {
    let data = (0..shape.iter().product())
        .map(|_| rng.next_f32() - 0.5)
        .map(|v| if v.abs() < 0.125 { 0.0 } else { v })
        .collect();
    Tensor::from_vec(shape.to_vec(), data).unwrap()
}

/// FNV-1a of the raw bits, without the shape.
fn hash_bits(values: &[f32]) -> u64 {
    values
        .iter()
        .fold(fnv1a(&[]), |h, v| fnv1a_from(h, &v.to_bits().to_le_bytes()))
}

/// Each convolution's last output element — bottom-right corner, last
/// filter, last image, so it sees the padding, the reused column scratch and
/// the panel's tail columns — and the bits of the filter, bias and input
/// gradients after one training step on a seeded output gradient; then each
/// dense head's logits. The same bits on every ISA.
#[test]
fn conv_shapes_and_dense_heads() {
    let (mut rng, mut grad_rng) = (SeededRng::new(42), SeededRng::new(4242));
    for (i, s) in SHAPES.iter().enumerate() {
        let [_, c, _, _] = s.input;
        let mut conv = Conv2d::new(c, s.filters, s.kernel, s.stride, s.pad, 42 + i as u64);
        let x = post_relu(s.input, &mut rng);
        let y = conv.infer(&x);
        assert_eq!(
            y.data().last().unwrap().to_bits(),
            s.probe_bits,
            "{}",
            s.name
        );
        let grad_out = output_gradient(y.shape(), &mut grad_rng);
        conv.forward(&x);
        let dx = conv.backward(&grad_out);
        let grads = [
            hash_bits(conv.params()[0].grad.data()),
            hash_bits(conv.params()[1].grad.data()),
            hash_bits(dx.data()),
        ];
        assert_eq!(grads, s.grad_hashes, "{}: [dW, db, dX]", s.name);
    }
    let mut rng = SeededRng::new(4343);
    for (i, h) in HEADS.iter().enumerate() {
        let (frames, fan_in) = (h.map[0], h.map[1..].iter().product());
        let dense = Dense::new(fan_in, h.classes, 4343 + i as u64);
        let flat = post_relu(h.map, &mut rng)
            .reshape(vec![frames, fan_in])
            .unwrap();
        assert_eq!(
            hash_bits(dense.infer(&flat).data()),
            h.logits_hash,
            "{}",
            h.name
        );
    }
}

#[test]
fn action_recognizer_recognize() {
    let (clips, labels) = ClipGenerator::new(16, 16, 8, 90).dataset(2);
    let mut rec = ActionRecognizer::new(16, 8, 6, 1.79, 91);
    // Captured before the recognizer moved onto `EarlyExitNet`: the bits of
    // `(output1_loss, output2_loss)` at epochs 1, 2 and 30, and of
    // `evaluate`'s `(accuracy, offload)`.
    let losses = rec.train(&clips, &labels, 30);
    let bits = |e: usize| (losses[e].0.to_bits(), losses[e].1.to_bits());
    assert_eq!(bits(0), (0x3fe5_ac30, 0x3fe5_d63c));
    assert_eq!(bits(1), (0x3fe5_6eff, 0x3fe4_a324));
    assert_eq!(bits(29), (0x3fdf_58c8, 0x3f8a_8a71));
    let (accuracy, offload) = rec.evaluate(&clips, &labels);
    assert_eq!(accuracy.to_bits(), 0x3fe2_aaaa_aaaa_aaab);
    assert_eq!(offload.to_bits(), 0x3fe2_aaaa_aaaa_aaab);
    let out = rec.recognize(&clips);
    let offloaded = out.iter().filter(|r| r.exit == ExitPoint::Server).count();
    assert!(
        0 < offloaded && offloaded < out.len(),
        "the pin must cover both exits, got {offloaded}/{}",
        out.len()
    );
    let pin = decision_fingerprint(out.iter().map(|r| {
        (
            r.exit,
            r.class.index(),
            r.confidence,
            r.entropy,
            r.feature_bytes,
        )
    }));
    assert_eq!(pin, 0xed47_3ff5_af57_3c8e);
}
