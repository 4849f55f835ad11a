//! `Conv2d` at the shapes the paper's Fig. 5 split network has, plus one
//! awkward one: prints each shape, the cost per frame of `infer`, of the
//! scsimd panel `infer` lowers to (`infer` − `panel` is what the lowering
//! costs: the gather, the transposed filter, the bias) and of a training
//! step (`forward` + `backward`). Then the network's two `Dense` heads the
//! same way: `infer` on a flattened post-ReLU map and the panel it is
//! (`[64, c·h·w] × [c·h·w, 8]`).
//!
//! ```sh
//! cargo run --release -p scneural --example conv_shapes
//! ```
//!
//! The bits these shapes compute are pinned by the repo's
//! `tests/inference_pins.rs` (`conv_shapes_and_dense_heads`).

use std::hint::black_box;
use std::time::{Duration, Instant};

use scneural::layers::{Conv2d, Dense, Layer};
use scneural::tensor::Tensor;
use simclock::SeededRng;

const SEED: u64 = 42;
const GRAD_SEED: u64 = 4242;
const HEAD_SEED: u64 = 4343;
const MEASURE: Duration = Duration::from_millis(200);

struct Shape {
    name: &'static str,
    /// `[n, c, h, w]`
    input: [usize; 4],
    filters: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
}

#[rustfmt::skip]
const SHAPES: [Shape; 4] = [
    Shape { name: "conv1", input: [64, 1, 32, 32], filters: 6, kernel: 3, stride: 2, pad: 1 },
    Shape { name: "conv2", input: [64, 6, 16, 16], filters: 12, kernel: 3, stride: 2, pad: 1 },
    Shape { name: "conv3", input: [64, 12, 8, 8], filters: 12, kernel: 3, stride: 1, pad: 1 },
    Shape { name: "odd", input: [7, 3, 17, 23], filters: 5, kernel: 5, stride: 3, pad: 2 },
];

struct Head {
    name: &'static str,
    /// The `[n, c, h, w]` map the head flattens.
    map: [usize; 4],
    classes: usize,
}

#[rustfmt::skip]
const HEADS: [Head; 2] = [
    Head { name: "exit", map: [64, 6, 16, 16], classes: 8 },
    Head { name: "final", map: [64, 12, 8, 8], classes: 8 },
];

/// Half zeros, like a post-ReLU feature map.
fn feature_map(shape: [usize; 4], rng: &mut SeededRng) -> Tensor {
    let data = (0..shape.iter().product())
        .map(|_| (rng.next_f32() - 0.5).max(0.0))
        .collect();
    Tensor::from_vec(shape.to_vec(), data).expect("sized above")
}

/// Either sign, a quarter zeros: what a ReLU above this layer hands down.
fn output_gradient(shape: &[usize], rng: &mut SeededRng) -> Tensor {
    let data = (0..shape.iter().product())
        .map(|_| rng.next_f32() - 0.5)
        .map(|v| if v.abs() < 0.125 { 0.0 } else { v })
        .collect();
    Tensor::from_vec(shape.to_vec(), data).expect("sized above")
}

/// One training step from zeroed gradients; returns the input gradient.
fn training_step(conv: &mut Conv2d, x: &Tensor, grad_out: &Tensor) -> Tensor {
    conv.params_mut().into_iter().for_each(|p| p.zero_grad());
    conv.forward(x);
    conv.backward(grad_out)
}

/// One frame's share of `infer` that is the panel: `filterᵀ [f, c·k²] ×
/// columns [c·k², oh·ow]` onto a zeroed `[f, oh·ow]` map. The columns are
/// input elements in input order; the panel's time does not depend on them.
fn panel_ns_per_frame(conv: &Conv2d, x: &Tensor, out_shape: &[usize]) -> f64 {
    let weight = &conv.params()[0].value;
    let (fan_in, f) = (weight.rows(), weight.cols());
    let pixels = out_shape[2] * out_shape[3];
    let filter_t = weight.transpose();
    let columns: Vec<f32> = x
        .data()
        .iter()
        .copied()
        .cycle()
        .take(fan_in * pixels)
        .collect();
    let mut map = vec![0.0f32; f * pixels];
    let isa = scsimd::Isa::active();
    ns_per_frame(1, || {
        map.fill(0.0);
        scsimd::matmul_panel_f32(
            filter_t.data(),
            black_box(&columns),
            fan_in,
            pixels,
            &mut map,
            isa,
        );
        black_box(&mut map);
    })
}

fn ns_per_frame(frames: usize, mut call: impl FnMut()) -> f64 {
    let (mut calls, start) = (0usize, Instant::now());
    while start.elapsed() < MEASURE {
        call();
        calls += 1;
    }
    start.elapsed().as_nanos() as f64 / (calls * frames) as f64
}

/// Measures the `i`-th convolution and prints its line.
fn conv_line(i: usize, s: &Shape, rng: &mut SeededRng, grad_rng: &mut SeededRng) {
    let mut conv = Conv2d::new(
        s.input[1],
        s.filters,
        s.kernel,
        s.stride,
        s.pad,
        SEED + i as u64,
    );
    let x = feature_map(s.input, rng);
    let y = conv.infer(&x);
    let grad_out = output_gradient(y.shape(), grad_rng);

    let infer_ns = ns_per_frame(s.input[0], || {
        black_box(conv.infer(black_box(&x)));
    });
    let panel_ns = panel_ns_per_frame(&conv, &x, y.shape());
    let train_ns = ns_per_frame(s.input[0], || {
        black_box(training_step(&mut conv, black_box(&x), &grad_out));
    });
    println!(
        "{:<5} {:?} -> {:?}  infer {infer_ns:>6.0} ns/frame (panel {panel_ns:>5.0})  \
         train {train_ns:>6.0} ns/frame",
        s.name,
        s.input,
        y.shape(),
    );
}

/// Measures the `i`-th dense head and prints its line.
fn head_line(i: usize, h: &Head, rng: &mut SeededRng) {
    let (frames, fan_in) = (h.map[0], h.map[1..].iter().product());
    let dense = Dense::new(fan_in, h.classes, HEAD_SEED + i as u64);
    let flat = feature_map(h.map, rng)
        .reshape(vec![frames, fan_in])
        .expect("same element count");
    let y = dense.infer(&flat);

    let infer_ns = ns_per_frame(frames, || {
        black_box(dense.infer(black_box(&flat)));
    });
    let weight = &dense.params()[0].value;
    let mut out = vec![0.0f32; frames * h.classes];
    let isa = scsimd::Isa::active();
    let panel_ns = ns_per_frame(frames, || {
        out.fill(0.0);
        scsimd::matmul_panel_f32(
            black_box(flat.data()),
            weight.data(),
            fan_in,
            h.classes,
            &mut out,
            isa,
        );
        black_box(&mut out);
    });
    println!(
        "{:<5} {:?} -> {:?}  infer {infer_ns:>6.0} ns/frame (panel {panel_ns:>5.0})",
        h.name,
        flat.shape(),
        y.shape(),
    );
}

fn main() {
    let mut rng = SeededRng::new(SEED);
    let mut grad_rng = SeededRng::new(GRAD_SEED);
    for (i, s) in SHAPES.iter().enumerate() {
        conv_line(i, s, &mut rng, &mut grad_rng);
    }
    let mut rng = SeededRng::new(HEAD_SEED);
    for (i, h) in HEADS.iter().enumerate() {
        head_line(i, h, &mut rng);
    }
}
