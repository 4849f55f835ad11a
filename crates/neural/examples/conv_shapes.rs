//! `Conv2d::infer` at the shapes the paper's Fig. 5 split network has, plus
//! one awkward one: prints each shape, its cost per frame and the bits of a
//! probe output.
//!
//! ```sh
//! cargo run --release -p scneural --example conv_shapes            # measure
//! cargo run --release -p scneural --example conv_shapes -- --check # and compare the probes
//! ```
//!
//! The probe is the last output element — bottom-right corner, last filter,
//! last image — so it sees the padding, the reused column scratch and the
//! panel's tail columns. Its bits are the same on every ISA
//! (`SCSIMD_FORCE=scalar` and native both pass `--check`).

use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use scneural::layers::{Conv2d, Layer};
use scneural::tensor::Tensor;
use simclock::SeededRng;

const SEED: u64 = 42;
const MEASURE: Duration = Duration::from_millis(200);

struct Shape {
    name: &'static str,
    /// `[n, c, h, w]`
    input: [usize; 4],
    filters: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    /// Captured from the training lowering this one replaced.
    probe_bits: u32,
}

#[rustfmt::skip]
const SHAPES: [Shape; 4] = [
    Shape { name: "conv1", input: [64, 1, 32, 32], filters: 6, kernel: 3, stride: 2, pad: 1, probe_bits: 0xbe8e_15a4 },
    Shape { name: "conv2", input: [64, 6, 16, 16], filters: 12, kernel: 3, stride: 2, pad: 1, probe_bits: 0x3e56_35b0 },
    Shape { name: "conv3", input: [64, 12, 8, 8], filters: 12, kernel: 3, stride: 1, pad: 1, probe_bits: 0x3d5e_acb2 },
    Shape { name: "odd", input: [7, 3, 17, 23], filters: 5, kernel: 5, stride: 3, pad: 2, probe_bits: 0xbe82_0468 },
];

/// Half zeros, like a post-ReLU feature map.
fn feature_map(shape: [usize; 4], rng: &mut SeededRng) -> Tensor {
    let data = (0..shape.iter().product())
        .map(|_| (rng.next_f32() - 0.5).max(0.0))
        .collect();
    Tensor::from_vec(shape.to_vec(), data).expect("sized above")
}

fn main() -> ExitCode {
    let check = std::env::args().any(|a| a == "--check");
    let mut rng = SeededRng::new(SEED);
    let mut mismatches = 0;
    for (i, s) in SHAPES.iter().enumerate() {
        let conv = Conv2d::new(
            s.input[1],
            s.filters,
            s.kernel,
            s.stride,
            s.pad,
            SEED + i as u64,
        );
        let x = feature_map(s.input, &mut rng);
        let y = conv.infer(&x);
        let probe = y.data().last().expect("a non-empty output").to_bits();

        let (mut calls, start) = (0u32, Instant::now());
        while start.elapsed() < MEASURE {
            black_box(conv.infer(black_box(&x)));
            calls += 1;
        }
        let ns_per_frame = start.elapsed().as_nanos() as f64 / (calls as usize * s.input[0]) as f64;
        println!(
            "{:<5} {:?} -> {:?}  {ns_per_frame:>8.0} ns/frame  probe {probe:#010x}",
            s.name,
            s.input,
            y.shape(),
        );
        if check && probe != s.probe_bits {
            eprintln!(
                "{}: probe {probe:#010x}, expected {:#010x}",
                s.name, s.probe_bits
            );
            mismatches += 1;
        }
    }
    if mismatches == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
