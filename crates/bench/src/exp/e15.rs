//! E15 (runtime): scpar parallel scaling. The deterministic worker pool
//! promises identical results at any thread count; the timed tables
//! measure what the extra threads buy (1/2/4/8 workers over k-means,
//! batched inference, fog placement sweeps and the E1 pipeline), what the
//! SIMD backend buys over scalar, and where a fan-out breaks even.
//!
//! This half records what is exact: the FLOPs the profiler attributes to
//! one square matrix product, against their closed form `2n³`. A product
//! is one task on the calling thread, so the count holds at any
//! `SCPAR_THREADS`.

use crate::{header, BenchJson};
use scneural::exec::ExecCtx;
use scneural::layers::{Dense, Relu};
use scneural::net::Sequential;
use scneural::tensor::Tensor;
use scprof::Profiler;

/// Problem sizes: (matrix side, k-means points, inference rows, fog sweep
/// jobs, pipeline records, pipeline Waze alerts).
pub fn sizes(quick: bool) -> (usize, usize, usize, usize, usize, usize) {
    if quick {
        (192, 8_192, 256, 100, 300, 60)
    } else {
        (512, 65_536, 2048, 400, 2000, 400)
    }
}

/// `n` seeded values in `[0, 1]` (splitmix64).
pub fn splitmix_f64(seed: u64, n: usize) -> Vec<f64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as f64 / u64::MAX as f64
        })
        .collect()
}

/// A seeded `[rows, cols]` tensor.
pub fn seeded_tensor(seed: u64, rows: usize, cols: usize) -> Tensor {
    let data = splitmix_f64(seed, rows * cols)
        .iter()
        .map(|v| *v as f32)
        .collect();
    Tensor::from_vec(vec![rows, cols], data).expect("shape matches data")
}

/// The serving-sized MLP every inference row of the timed tables runs.
pub fn serving_net() -> Sequential {
    Sequential::new()
        .with(Dense::new(64, 128, 15))
        .with(Relu::new())
        .with(Dense::new(128, 64, 16))
        .with(Relu::new())
        .with(Dense::new(64, 8, 17))
}

pub fn run(quick: bool) -> BenchJson {
    header(
        "E15",
        "runtime",
        "FLOPs the profiler attributes to one matrix product",
    );
    let (mat_n, ..) = sizes(quick);
    let profiler = Profiler::shared();
    let ctx = ExecCtx::serial().with_telemetry(profiler.handle());
    let a = seeded_tensor(25, mat_n, mat_n);
    let b = seeded_tensor(26, mat_n, mat_n);
    std::hint::black_box(a.matmul_ctx(&b, &ctx).expect("square matmul"));
    let matmul_flops = profiler
        .report()
        .kernels
        .iter()
        .find(|k| k.name == scneural::tensor::KERNEL_MATMUL)
        .map_or(0, |k| k.work.flops);
    let closed_form = 2 * (mat_n as u64).pow(3);
    println!("matmul {mat_n}x{mat_n}: {matmul_flops} FLOPs profiled, {closed_form} by 2n^3");
    let mut json = BenchJson::new("e15", quick);
    json.det_u("matmul_flops", matmul_flops)
        .det_u("matmul_flops_closed_form", closed_form);
    json
}
