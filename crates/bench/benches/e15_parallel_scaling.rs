//! E15 (runtime): scpar parallel scaling. The deterministic worker pool
//! promises identical results at any thread count; this bench measures what
//! the extra threads buy. It regenerates a speedup table (1/2/4/8 workers)
//! for the four parallelised kernels — k-means, batched inference, fog
//! placement sweeps, and the E1 pipeline — timed with `Instant` and
//! printed, not recorded: the numbers a PR is judged by are citybench's.
//! A matrix product is one task on the calling thread, so it is timed only
//! against its scalar backend (the SIMD table).
//!
//! Speedups depend on host cores: on a single-core runner every row is ~1.0
//! by construction (the pool degrades to the serial path). Set `SCBENCH_QUICK=1`
//! to shrink problem sizes for CI smoke runs.

use scbench::{f3, header, table, BenchJson};
use sccompute::mllib::kmeans_ctx;
use scfog::{FogSimulator, Placement, Topology, Workload};
use scneural::exec::ExecCtx;
use scneural::layers::{Dense, Relu};
use scneural::net::Sequential;
use scneural::tensor::Tensor;
use scnosql::document::Collection;
use scnosql::wide_column::Table;
use scpar::ScparConfig;
use scprof::Profiler;
use scstream::Topic;
use smartcity_core::pipeline::CityDataPipeline;

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn quick() -> bool {
    scbench::quick()
}

fn time_ms(mut f: impl FnMut()) -> f64 {
    f(); // warm-up (first run spawns the pool)
    let start = std::time::Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e3
}

/// Median wall time of one call in ms: 15 samples of 20 back-to-back
/// calls each, after one untimed call.
fn median_ms(mut f: impl FnMut()) -> f64 {
    f();
    let mut samples: Vec<f64> = (0..15)
        .map(|_| {
            let start = std::time::Instant::now();
            for _ in 0..20 {
                f();
            }
            start.elapsed().as_secs_f64() * 1e3 / 20.0
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn splitmix_f64(seed: u64, n: usize) -> Vec<f64> {
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

/// k-means over `n` 4-D points, 8 clusters, 10 iterations: each iteration
/// fans its 256-point cells out, one task per worker.
fn kmeans_row(n: usize) -> Vec<f64> {
    let coords = splitmix_f64(15, n * 4);
    let points: Vec<Vec<f64>> = coords.chunks_exact(4).map(<[f64]>::to_vec).collect();
    THREADS
        .iter()
        .map(|&t| {
            time_ms(|| {
                let ctx = ExecCtx::serial().with_par(ScparConfig::with_threads(t));
                std::hint::black_box(kmeans_ctx(&points, 8, 10, 15, &ctx));
            })
        })
        .collect()
}

/// The serving-sized MLP every inference row of this bench runs.
fn serving_net() -> Sequential {
    Sequential::new()
        .with(Dense::new(64, 128, 15))
        .with(Relu::new())
        .with(Dense::new(128, 64, 16))
        .with(Relu::new())
        .with(Dense::new(64, 8, 17))
}

fn inference_row(rows: usize) -> Vec<f64> {
    let net = serving_net();
    let data: Vec<f32> = splitmix_f64(17, rows * 64)
        .iter()
        .map(|v| *v as f32)
        .collect();
    let input = Tensor::from_vec(vec![rows, 64], data).expect("shape matches data");
    THREADS
        .iter()
        .map(|&t| {
            time_ms(|| {
                let ctx = ExecCtx::serial().with_par(ScparConfig::with_threads(t));
                std::hint::black_box(net.predict_ctx(&input, &ctx));
            })
        })
        .collect()
}

fn sweep_placements() -> Vec<Placement> {
    (0..8)
        .map(|i| Placement::EarlyExit {
            local_fraction: 0.1 * (i + 1) as f64,
            feature_bytes: 20_000,
        })
        .collect()
}

fn fog_sweep_row(jobs: usize) -> Vec<f64> {
    let sim = FogSimulator::new(Topology::four_tier(8, 4, 2));
    let workload = Workload::with_escalation(jobs, 100_000, 20.0, 0.3, 15);
    let placements = sweep_placements();
    THREADS
        .iter()
        .map(|&t| {
            time_ms(|| {
                std::hint::black_box(sim.runner(&workload).threads(t).sweep(&placements));
            })
        })
        .collect()
}

fn pipeline_run(records: usize, waze: usize, threads: usize) {
    let mut topic = Topic::new("raw", 4);
    let mut store = Collection::new("incidents");
    store.create_index("kind");
    let mut annotations = Table::new("annotations", 1024);
    let report = CityDataPipeline::new(15, records, waze)
        .runner(&mut topic, &mut store, &mut annotations)
        .threads(threads)
        .run()
        .expect("generated pipeline data is always valid");
    std::hint::black_box(report);
}

fn pipeline_row(records: usize, waze: usize) -> Vec<f64> {
    THREADS
        .iter()
        .map(|&t| time_ms(|| pipeline_run(records, waze, t)))
        .collect()
}

fn regenerate_figure() {
    header(
        "E15",
        "runtime",
        "scpar parallel scaling: wall time by worker count (identical outputs)",
    );

    let (mat_n, km_points, inf_rows, sweep_jobs, recs, waze) = if quick() {
        (192, 8_192, 256, 100, 300, 60)
    } else {
        (512, 65_536, 2048, 400, 2000, 400)
    };

    let kernels: Vec<(String, Vec<f64>)> = vec![
        (format!("kmeans_{km_points}_points"), kmeans_row(km_points)),
        (
            format!("batch_inference_{inf_rows}"),
            inference_row(inf_rows),
        ),
        (
            format!("fog_sweep_8x{sweep_jobs}_jobs"),
            fog_sweep_row(sweep_jobs),
        ),
        (
            format!("e1_pipeline_{recs}_records"),
            pipeline_row(recs, waze),
        ),
    ];

    let rows: Vec<Vec<String>> = kernels
        .iter()
        .map(|(name, times)| {
            let mut row = vec![name.clone()];
            row.extend(times.iter().map(|&ms| f3(ms)));
            row.push(f3(times[0] / times[2])); // serial / 4-thread
            row
        })
        .collect();
    table(
        &["kernel", "t1_ms", "t2_ms", "t4_ms", "t8_ms", "speedup_4t"],
        &rows,
    );
    println!(
        "\nhost parallelism: {} (speedups require multi-core hosts; outputs are identical regardless)",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );

    let mut json = BenchJson::new("e15", quick());
    profile_section(&mut json, mat_n, inf_rows);
    simd_section(mat_n, inf_rows);
    json.write();
    fanout_section();
}

/// Fan-out vs serial at 2 threads on batched inference over the serving
/// net, where dispatch, not arithmetic, can set the wall clock. A fan-out
/// spawns and joins its workers on every call, so it only pays above a
/// fixed amount of kernel work — the break-even a persistent pool has to
/// lower. Printed, not gated: both columns are wall-clock and the ratio is
/// a property of the host.
fn fanout_section() {
    let mut rows = Vec::new();
    let net = serving_net();
    for n in [256, 2048] {
        let data: Vec<f32> = splitmix_f64(47, n * 64).iter().map(|v| *v as f32).collect();
        let input = Tensor::from_vec(vec![n, 64], data).expect("shape matches data");
        rows.push(fanout_row(format!("batch_inference_{n}"), |ctx| {
            std::hint::black_box(net.predict_ctx(&input, ctx));
        }));
    }
    println!("\nfan-out vs serial (2 threads, median of 15 x 20 calls):");
    table(&["kernel", "serial_ms", "t2_ms", "serial/t2"], &rows);
}

fn fanout_row(name: String, call: impl Fn(&ExecCtx)) -> Vec<String> {
    let serial = ExecCtx::serial();
    let two = ExecCtx::serial().with_par(ScparConfig::with_threads(2));
    let (serial_ms, two_ms) = (median_ms(|| call(&serial)), median_ms(|| call(&two)));
    vec![name, f3(serial_ms), f3(two_ms), f3(serial_ms / two_ms)]
}

/// Measured per-kernel GFLOP/s: run the two neural kernels under a
/// [`Profiler`] (the matmul on the calling thread, the batch on four
/// workers), then rate the deterministic FLOP counts against the measured
/// wall-clock window. FLOP totals are exact and thread-invariant; only the
/// rates carry timer noise.
fn profile_section(json: &mut BenchJson, mat_n: usize, inf_rows: usize) {
    let profiler = Profiler::shared();
    let handle = profiler.handle();
    let cfg = ScparConfig::with_threads(4);

    let data_a: Vec<f32> = splitmix_f64(25, mat_n * mat_n)
        .iter()
        .map(|v| *v as f32)
        .collect();
    let data_b: Vec<f32> = splitmix_f64(26, mat_n * mat_n)
        .iter()
        .map(|v| *v as f32)
        .collect();
    let a = Tensor::from_vec(vec![mat_n, mat_n], data_a).expect("shape matches data");
    let b = Tensor::from_vec(vec![mat_n, mat_n], data_b).expect("shape matches data");

    let net = serving_net().with_telemetry(handle.clone());
    let inf_data: Vec<f32> = splitmix_f64(27, inf_rows * 64)
        .iter()
        .map(|v| *v as f32)
        .collect();
    let input = Tensor::from_vec(vec![inf_rows, 64], inf_data).expect("shape matches data");

    let ctx = ExecCtx::serial()
        .with_par(cfg)
        .with_telemetry(handle.clone());
    let start = std::time::Instant::now();
    std::hint::black_box(a.matmul_ctx(&b, &ctx).expect("square matmul"));
    std::hint::black_box(net.predict_ctx(&input, &ctx));
    let elapsed_s = start.elapsed().as_secs_f64();

    let report = profiler.report().with_elapsed(elapsed_s);
    println!("\nmeasured per-kernel GFLOP/s over a {elapsed_s:.4}s window:");
    println!("{}", report.render_table(10));

    let matmul_flops = report
        .kernels
        .iter()
        .find(|k| k.name == scneural::tensor::KERNEL_MATMUL)
        .map_or(0, |k| k.work.flops);
    json.det_u("matmul_flops", matmul_flops).det_u(
        "matmul_flops_closed_form",
        2 * (mat_n as u64) * (mat_n as u64) * (mat_n as u64),
    );
}

/// SIMD-vs-scalar: the same strict-profile f32 kernels pinned to
/// `Isa::Scalar` and to the runtime-dispatched ISA. Outputs are
/// bit-identical by contract (`crates/simd/tests/ulp.rs` proves it);
/// only the wall time may differ, and on a scalar-only host both
/// columns collapse to the same backend.
fn simd_section(mat_n: usize, inf_rows: usize) {
    let native = scsimd::Isa::active();
    println!(
        "\nSIMD-vs-scalar (single thread, dispatched ISA = {}):",
        native.name()
    );

    let to_f32 = |seed: u64, n: usize| -> Vec<f32> {
        splitmix_f64(seed, n).iter().map(|v| *v as f32).collect()
    };
    let a = to_f32(35, mat_n * mat_n);
    let b = to_f32(36, mat_n * mat_n);
    let flops = 2.0 * (mat_n as f64).powi(3);

    let mut rows: Vec<Vec<String>> = Vec::new();
    let isas = [("scalar", scsimd::Isa::Scalar), ("native", native)];
    for (label, isa) in isas {
        let ms = time_ms(|| {
            let mut out = vec![0.0f32; mat_n * mat_n];
            scsimd::matmul_panel_f32(&a, &b, mat_n, mat_n, &mut out, isa);
            std::hint::black_box(out);
        });
        let gflops = flops / (ms * 1e6);
        rows.push(vec![
            format!("matmul_f32_{mat_n}x{mat_n}"),
            label.into(),
            isa.name().into(),
            f3(ms),
            f3(gflops),
        ]);
    }

    let seed_buf = to_f32(37, inf_rows * 64);
    type UnaryOp = fn(&mut [f32], scsimd::Isa);
    let unary: [(&str, UnaryOp); 3] = [
        ("exp", scsimd::exp_f32),
        ("sigmoid", scsimd::sigmoid_f32),
        ("tanh", scsimd::tanh_f32),
    ];
    for (kname, op) in unary {
        for (label, isa) in isas {
            let mut buf = seed_buf.clone();
            let ms = time_ms(|| {
                op(std::hint::black_box(&mut buf), isa);
            });
            let melems = buf.len() as f64 / (ms * 1e3);
            rows.push(vec![
                format!("{kname}_{}", buf.len()),
                label.into(),
                isa.name().into(),
                f3(ms),
                f3(melems),
            ]);
        }
    }
    table(&["kernel", "pin", "isa", "ms", "gflops_or_melems"], &rows);
}

fn main() {
    regenerate_figure();
}
