//! Property tests for the scpar determinism contract (E15).
//!
//! The parallel runtime promises that the thread count is a pure throughput
//! knob: for a given seed, running on 1, 2, or 8 workers — or an odd count,
//! whose last task is ragged — must produce **byte-identical** numeric
//! results *and* byte-identical telemetry exports. These tests exercise that
//! promise across the layers the runtime is wired into — batched neural
//! inference, k-means, and fog placement sweeps. A matrix product is one
//! task on the calling thread, so it has no thread count to vary.
//!
//! The same contract extends to the SIMD dispatch axis: `scsimd`'s strict
//! profile promises that the vector backends replay the scalar reference's
//! exact IEEE-754 operation sequence, so pinning `Isa::Scalar` versus the
//! runtime-dispatched ISA must also be byte-identical.

use proptest::prelude::*;
use smartcity::compute::mllib::kmeans_ctx;
use smartcity::fog::{FogSimulator, Placement, Topology, Workload};
use smartcity::neural::exec::ExecCtx;
use smartcity::neural::layers::{Dense, Relu};
use smartcity::neural::net::Sequential;
use smartcity::neural::tensor::Tensor;
use smartcity::par::ScparConfig;

/// Deterministic pseudo-random fill: a splitmix64 stream mapped to [-1, 1].
fn fill(seed: u64, n: usize) -> Vec<f64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            (z as f64 / u64::MAX as f64) * 2.0 - 1.0
        })
        .collect()
}

const THREAD_COUNTS: [usize; 5] = [2, 3, 5, 7, 8];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Batched inference: layers compute rows independently, so logits are
    /// bit-identical however many workers the batch was split across.
    #[test]
    fn batch_inference_is_thread_count_independent(
        rows in 1usize..90,
        seed in any::<u64>(),
    ) {
        let net = Sequential::new()
            .with(Dense::new(6, 12, seed))
            .with(Relu::new())
            .with(Dense::new(12, 3, seed ^ 1));
        let data: Vec<f32> = fill(seed ^ 2, rows * 6).iter().map(|v| *v as f32).collect();
        let input = Tensor::from_vec(vec![rows, 6], data).unwrap();
        let serial = net.predict_ctx(&input, &ExecCtx::serial());
        for threads in THREAD_COUNTS {
            let ctx = ExecCtx::serial().with_par(ScparConfig::with_threads(threads));
            let par = net.predict_ctx(&input, &ctx);
            let same = serial
                .data()
                .iter()
                .zip(par.data().iter())
                .all(|(x, y)| x.to_bits() == y.to_bits());
            prop_assert!(same, "{threads}-thread inference diverged");
        }
    }

    /// k-means: partial sums are taken per fixed 256-point cell and folded
    /// in cell order, so centroids, inertia and the iteration count are
    /// bit-identical however many cells one worker's task covers.
    #[test]
    fn kmeans_is_thread_count_independent(
        points in 8usize..1500,
        seed in any::<u64>(),
    ) {
        let pts: Vec<Vec<f64>> = (0..points).map(|i| fill(seed ^ i as u64, 3)).collect();
        let bits = |threads: usize| {
            let ctx = ExecCtx::serial().with_par(ScparConfig::with_threads(threads));
            let model = kmeans_ctx(&pts, 4, 6, seed, &ctx);
            let values = model.centroids.iter().flatten().chain([&model.inertia]);
            (model.iterations, values.map(|v| v.to_bits()).collect::<Vec<_>>())
        };
        let serial = bits(1);
        for threads in THREAD_COUNTS {
            prop_assert_eq!(&serial, &bits(threads), "{}-thread k-means diverged", threads);
        }
    }

    /// Fog placement sweeps: each run gets a private recorder, results are
    /// combined in submission order, so both the reports *and* the
    /// Prometheus snapshots are byte-identical for every worker count.
    #[test]
    fn fog_sweep_is_thread_count_independent(
        jobs in 1usize..60,
        esc in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let sim = FogSimulator::new(Topology::four_tier(3, 2, 1));
        let w = Workload::with_escalation(jobs, 100_000, 10.0, esc, seed);
        let placements = [
            Placement::AllCloud,
            Placement::AllEdge,
            Placement::EarlyExit { local_fraction: 0.3, feature_bytes: 20_000 },
            Placement::ServerOnly,
        ];
        let serial: Vec<(String, String)> = sim
            .runner(&w)
            .threads(1)
            .sweep_recorded(&placements)
            .into_iter()
            .map(|(r, snap)| (format!("{r:?}"), snap))
            .collect();
        for threads in THREAD_COUNTS {
            let par: Vec<(String, String)> = sim
                .runner(&w)
                .threads(threads)
                .sweep_recorded(&placements)
                .into_iter()
                .map(|(r, snap)| (format!("{r:?}"), snap))
                .collect();
            prop_assert_eq!(&serial, &par, "{}-thread sweep diverged", threads);
        }
    }

    /// SIMD dispatch axis: the f32 inference kernels (matmul, activations,
    /// softmax) pinned to the scalar backend versus the runtime-dispatched
    /// ISA give byte-identical outputs. This is the strict-profile contract
    /// the per-ISA golden policy rests on. The scalar reference is the
    /// scsimd panel kernel itself; the context side runs `matmul_ctx` on
    /// whatever ISA the process dispatched.
    #[test]
    fn inference_kernels_are_isa_independent(
        rows in 1usize..60,
        seed in any::<u64>(),
    ) {
        let scalar = smartcity::simd::Isa::Scalar;
        let native = smartcity::simd::Isa::active();

        let data: Vec<f32> = fill(seed, rows * 6).iter().map(|v| *v as f32).collect();
        let w: Vec<f32> = fill(seed ^ 1, 6 * 12).iter().map(|v| *v as f32).collect();
        let input = Tensor::from_vec(vec![rows, 6], data).unwrap();
        let weight = Tensor::from_vec(vec![6, 12], w).unwrap();

        let mut logits_s = vec![0.0f32; rows * 12];
        smartcity::simd::matmul_panel_f32(input.data(), weight.data(), 6, 12, &mut logits_s, scalar);
        let logits_n = input.matmul_ctx(&weight, &ExecCtx::serial()).unwrap();
        let same = logits_s
            .iter()
            .zip(logits_n.data().iter())
            .all(|(x, y)| x.to_bits() == y.to_bits());
        prop_assert!(same, "SIMD f32 matmul diverged from scalar");

        type UnaryOp = fn(&mut [f32], smartcity::simd::Isa);
        let unary: [UnaryOp; 4] = [
            smartcity::simd::exp_f32,
            smartcity::simd::sigmoid_f32,
            smartcity::simd::tanh_f32,
            smartcity::simd::relu_f32,
        ];
        for op in unary {
            let mut s = logits_s.clone();
            let mut n = logits_s.clone();
            op(&mut s, scalar);
            op(&mut n, native);
            let same = s.iter().zip(n.iter()).all(|(x, y)| x.to_bits() == y.to_bits());
            prop_assert!(same, "SIMD activation diverged from scalar backend");
        }

        let mut sm_s = logits_s.clone();
        let mut sm_n = logits_s;
        smartcity::simd::softmax_rows_f32(&mut sm_s, 12, scalar);
        smartcity::simd::softmax_rows_f32(&mut sm_n, 12, native);
        let same = sm_s.iter().zip(sm_n.iter()).all(|(x, y)| x.to_bits() == y.to_bits());
        prop_assert!(same, "SIMD softmax diverged from scalar backend");
    }
}
