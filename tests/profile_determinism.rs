//! Determinism contract for the scprof work-accounting profiler (E15/scprof).
//!
//! The profiler's promise: for a given seed, the aggregated `ProfileReport`
//! — and therefore the JSON export and the folded-stack flamegraph — is
//! **byte-identical** at any worker count. Thread count changes how work is
//! chunked (and so the hidden `calls` counters), never the summed work.
//! These tests pin that promise across the full pipeline, k-means and
//! batch inference, and check at the matmul kernel level that the recorded
//! FLOPs equal the closed form `2·m·n·k`.

use proptest::prelude::*;
use smartcity::compute::mllib::kmeans_ctx;
use smartcity::core::infrastructure::Cyberinfrastructure;
use smartcity::core::pipeline::CityDataPipeline;
use smartcity::neural::exec::ExecCtx;
use smartcity::par::ScparConfig;
use smartcity::prof::{CostDimension, Profiler};
use smartcity::telemetry::WorkDelta;

const THREAD_COUNTS: [usize; 5] = [1, 2, 3, 7, 8];

/// Deterministic pseudo-random fill in [-1, 1] (splitmix64).
fn fill(seed: u64, n: usize) -> Vec<f32> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            ((z as f64 / u64::MAX as f64) * 2.0 - 1.0) as f32
        })
        .collect()
}

/// Runs the full city pipeline under a fresh profiler at `threads` workers
/// and returns the aggregated report.
fn profiled_pipeline_report(threads: usize) -> smartcity::prof::ProfileReport {
    let profiler = Profiler::shared();
    let mut infra = Cyberinfrastructure::new(7);
    let (topic, store, annotations) = infra.pipeline_stores();
    CityDataPipeline::new(7, 400, 80)
        .runner(topic, store, annotations)
        .threads(threads)
        .telemetry(profiler.handle())
        .run()
        .expect("generated pipeline data is always valid");
    profiler.report()
}

#[test]
fn pipeline_profile_json_and_folded_are_byte_identical_across_threads() {
    let baseline = profiled_pipeline_report(1);
    let base_json = baseline.to_json();
    let base_folded_flops = baseline.folded(CostDimension::Flops);
    let base_folded_items = baseline.folded(CostDimension::Items);
    assert!(
        !baseline.kernels.is_empty(),
        "pipeline run must attribute work to kernels"
    );
    for &threads in &THREAD_COUNTS[1..] {
        let report = profiled_pipeline_report(threads);
        assert_eq!(
            base_json,
            report.to_json(),
            "ProfileReport JSON diverged at {threads} threads"
        );
        assert_eq!(
            base_folded_flops,
            report.folded(CostDimension::Flops),
            "folded FLOP stacks diverged at {threads} threads"
        );
        assert_eq!(
            base_folded_items,
            report.folded(CostDimension::Items),
            "folded item stacks diverged at {threads} threads"
        );
    }
}

#[test]
fn pipeline_stage_items_match_pipeline_report() {
    let profiler = Profiler::shared();
    let mut infra = Cyberinfrastructure::new(7);
    let (topic, store, annotations) = infra.pipeline_stores();
    let report = CityDataPipeline::new(7, 400, 80)
        .runner(topic, store, annotations)
        .telemetry(profiler.handle())
        .run()
        .expect("generated pipeline data is always valid");
    let profile = profiler.report();
    let items = |name: &str| {
        profile
            .kernel(name)
            .unwrap_or_else(|| panic!("kernel {name} missing"))
            .work
            .items
    };
    assert_eq!(items("pipeline/ingest"), report.ingested as u64);
    assert_eq!(items("pipeline/store"), report.stored as u64);
    assert_eq!(items("pipeline/annotate"), report.annotated as u64);
}

#[test]
fn kernel_self_costs_sum_exactly_to_total() {
    let profile = profiled_pipeline_report(2);
    let summed = profile
        .kernels
        .iter()
        .fold(WorkDelta::default(), |acc, k| acc + k.work);
    assert_eq!(
        summed, profile.total,
        "per-kernel work must sum exactly to the report total"
    );
    let total_calls: u64 = profile.kernels.iter().map(|k| k.calls).sum();
    assert_eq!(total_calls, profile.total_calls);
}

#[test]
fn kmeans_work_is_thread_invariant() {
    let points: Vec<Vec<f64>> = (0..300)
        .map(|i| vec![(i % 17) as f64, (i % 23) as f64])
        .collect();
    let reports: Vec<String> = THREAD_COUNTS
        .iter()
        .map(|&t| {
            let profiler = Profiler::shared();
            let ctx = ExecCtx::serial()
                .with_par(ScparConfig::with_threads(t))
                .with_telemetry(profiler.handle());
            kmeans_ctx(&points, 3, 20, 9, &ctx);
            profiler.report().to_json()
        })
        .collect();
    for (report, threads) in reports.iter().zip(THREAD_COUNTS) {
        assert_eq!(
            &reports[0], report,
            "k-means profile diverged at {threads} threads"
        );
    }
}

/// A 200-row batch inference fans out into one ragged task per worker, yet
/// accounts on per-row layer models — so the profile cannot tell how the
/// rows were split. A 200-row matmul, one task on the calling thread,
/// records its nominal 32-row panels into the same profile.
#[test]
fn matmul_and_inference_profiles_are_thread_invariant() {
    use smartcity::neural::layers::{Dense, Relu};
    use smartcity::neural::net::Sequential;
    use smartcity::neural::tensor::Tensor;
    let a = Tensor::from_vec(vec![200, 24], fill(5, 200 * 24)).unwrap();
    let b = Tensor::from_vec(vec![24, 16], fill(6, 24 * 16)).unwrap();
    let reports: Vec<String> = THREAD_COUNTS
        .iter()
        .map(|&t| {
            let profiler = Profiler::shared();
            let serial = ExecCtx::serial().with_telemetry(profiler.handle());
            let ctx = serial.clone().with_par(ScparConfig::with_threads(t));
            let net = Sequential::new()
                .with(Dense::new(24, 16, 7))
                .with(Relu::new())
                .with(Dense::new(16, 4, 8))
                .with_telemetry(profiler.handle());
            a.matmul_ctx(&b, &serial).unwrap();
            net.predict_ctx(&a, &ctx);
            profiler.report().to_json()
        })
        .collect();
    assert!(reports[0].contains("neural/layer/Dense") && reports[0].contains("neural/matmul"));
    for (report, threads) in reports.iter().zip(THREAD_COUNTS) {
        assert_eq!(&reports[0], report, "profile diverged at {threads} threads");
    }
}

/// The scalar reference is the scsimd panel kernel itself (the kernel is
/// what this pins); the context side runs `matmul_ctx` on the dispatched
/// ISA and records two 32-row panels. CI's `SCSIMD_FORCE={scalar,native}`
/// cells compare whole profiles across ISAs.
#[test]
fn matmul_profile_is_isa_invariant() {
    use smartcity::neural::tensor::{Tensor, KERNEL_MATMUL};
    let a = Tensor::from_vec(vec![40, 24], fill(3, 40 * 24)).unwrap();
    let b = Tensor::from_vec(vec![24, 32], fill(4, 24 * 32)).unwrap();
    let mut scalar = vec![0.0f32; 40 * 32];
    let isa = smartcity::simd::Isa::Scalar;
    smartcity::simd::matmul_panel_f32(a.data(), b.data(), 24, 32, &mut scalar, isa);
    let scalar_bits: Vec<u32> = scalar.iter().map(|v| v.to_bits()).collect();
    let profiler = Profiler::shared();
    let ctx = ExecCtx::serial().with_telemetry(profiler.handle());
    let out = a.matmul_ctx(&b, &ctx).unwrap();
    let bits: Vec<u32> = out.data().iter().map(|v| v.to_bits()).collect();
    assert_eq!(
        bits, scalar_bits,
        "scalar kernel and dispatched matmul must agree bit-for-bit"
    );
    let report = profiler.report();
    let kernel = report
        .kernel(KERNEL_MATMUL)
        .expect("matmul kernel recorded");
    assert_eq!(kernel.work.flops, 2 * 40 * 24 * 32);
    assert_eq!(kernel.work.items, 40);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Recorded matmul FLOPs equal the closed form `2·m·n·k`: the
    /// per-panel deltas sum to it whatever the last panel's height.
    #[test]
    fn matmul_flops_match_closed_form(
        m in 1usize..48,
        k in 1usize..32,
        n in 1usize..40,
        seed in any::<u64>(),
    ) {
        use smartcity::neural::tensor::{Tensor, KERNEL_MATMUL};
        let a = Tensor::from_vec(vec![m, k], fill(seed, m * k)).unwrap();
        let b = Tensor::from_vec(vec![k, n], fill(seed ^ 0x5eed, k * n)).unwrap();
        let profiler = Profiler::shared();
        let ctx = ExecCtx::serial().with_telemetry(profiler.handle());
        a.matmul_ctx(&b, &ctx).unwrap();
        let report = profiler.report();
        let kernel = report.kernel(KERNEL_MATMUL).expect("matmul kernel recorded");
        prop_assert_eq!(
            kernel.work.flops,
            2 * (m as u64) * (n as u64) * (k as u64),
            "matmul FLOPs must equal 2*m*n*k"
        );
    }
}
