//! `Conv2d` at the shapes the paper's Fig. 5 split network has, plus one
//! awkward one: prints each shape, the cost per frame of `infer`, of the
//! scsimd panel `infer` lowers to (`infer` − `panel` is what the lowering
//! costs: the gather, the transposed filter, the bias) and of a training
//! step (`forward` + `backward`), and the bits of their probes. Then the
//! network's two `Dense` heads the same way: `infer` on a flattened
//! post-ReLU map, the panel it is (`[64, c·h·w] × [c·h·w, 8]`), and the
//! bits of the logits.
//!
//! ```sh
//! cargo run --release -p scneural --example conv_shapes            # measure
//! cargo run --release -p scneural --example conv_shapes -- --check # and compare the probes
//! ```
//!
//! The inference probe is the last output element — bottom-right corner,
//! last filter, last image — so it sees the padding, the reused column
//! scratch and the panel's tail columns. The training probes are the FNV-1a
//! of every bit of the filter, bias and input gradients after one step on a
//! seeded output gradient; a head's probe is the FNV-1a of every bit of its
//! logits. All of them are the same on every ISA (`SCSIMD_FORCE=scalar` and
//! native both pass `--check`).

use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use scneural::layers::{Conv2d, Dense, Layer};
use scneural::tensor::Tensor;
use simclock::hash::{fnv1a, fnv1a_from};
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

fn hash_bits(values: &[f32]) -> u64 {
    values
        .iter()
        .fold(fnv1a(&[]), |h, v| fnv1a_from(h, &v.to_bits().to_le_bytes()))
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

/// Measures the `i`-th convolution and prints its line; returns how many of
/// its probes moved (0 without `check`).
fn conv_line(
    i: usize,
    s: &Shape,
    rng: &mut SeededRng,
    grad_rng: &mut SeededRng,
    check: bool,
) -> usize {
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
    let probe = y.data().last().expect("a non-empty output").to_bits();
    let grad_out = output_gradient(y.shape(), grad_rng);
    let dx = training_step(&mut conv, &x, &grad_out);
    let grads = [
        hash_bits(conv.params()[0].grad.data()),
        hash_bits(conv.params()[1].grad.data()),
        hash_bits(dx.data()),
    ];

    let infer_ns = ns_per_frame(s.input[0], || {
        black_box(conv.infer(black_box(&x)));
    });
    let panel_ns = panel_ns_per_frame(&conv, &x, y.shape());
    let train_ns = ns_per_frame(s.input[0], || {
        black_box(training_step(&mut conv, black_box(&x), &grad_out));
    });
    println!(
        "{:<5} {:?} -> {:?}  infer {infer_ns:>6.0} ns/frame (panel {panel_ns:>5.0})  \
         train {train_ns:>6.0} ns/frame  probe {probe:#010x}  dW {:#018x}  db {:#018x}  dX {:#018x}",
        s.name,
        s.input,
        y.shape(),
        grads[0],
        grads[1],
        grads[2],
    );
    let mut mismatches = 0;
    if check && probe != s.probe_bits {
        eprintln!(
            "{}: probe {probe:#010x}, expected {:#010x}",
            s.name, s.probe_bits
        );
        mismatches += 1;
    }
    if check && grads != s.grad_hashes {
        eprintln!(
            "{}: [dW, db, dX] {grads:#018x?}, expected {:#018x?}",
            s.name, s.grad_hashes
        );
        mismatches += 1;
    }
    mismatches
}

/// Measures the `i`-th dense head and prints its line; returns how many of
/// its probes moved (0 without `check`).
fn head_line(i: usize, h: &Head, rng: &mut SeededRng, check: bool) -> usize {
    let (frames, fan_in) = (h.map[0], h.map[1..].iter().product());
    let dense = Dense::new(fan_in, h.classes, HEAD_SEED + i as u64);
    let flat = feature_map(h.map, rng)
        .reshape(vec![frames, fan_in])
        .expect("same element count");
    let y = dense.infer(&flat);
    let logits = hash_bits(y.data());

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
        "{:<5} {:?} -> {:?}  infer {infer_ns:>6.0} ns/frame (panel {panel_ns:>5.0})  logits {logits:#018x}",
        h.name,
        flat.shape(),
        y.shape(),
    );
    if check && logits != h.logits_hash {
        eprintln!(
            "{}: logits {logits:#018x}, expected {:#018x}",
            h.name, h.logits_hash
        );
        return 1;
    }
    0
}

fn main() -> ExitCode {
    let check = std::env::args().any(|a| a == "--check");
    let mut rng = SeededRng::new(SEED);
    let mut grad_rng = SeededRng::new(GRAD_SEED);
    let mut mismatches = 0;
    for (i, s) in SHAPES.iter().enumerate() {
        mismatches += conv_line(i, s, &mut rng, &mut grad_rng, check);
    }
    let mut rng = SeededRng::new(HEAD_SEED);
    for (i, h) in HEADS.iter().enumerate() {
        mismatches += head_line(i, h, &mut rng, check);
    }
    if mismatches == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
