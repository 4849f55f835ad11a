//! Every experiment, E1–E19: the seeded halves, then the timed tables.
//!
//! ```text
//! cargo bench -p scbench                                        # all of them
//! cargo bench -p scbench --bench experiments -- e15 metropolis   # some, by name
//! ```
//!
//! Each named experiment (all of [`EXPERIMENTS`] when none is named) prints
//! its paper-shaped table and writes `BENCH_<name>.json` — and E19 its
//! flight artifact — to `SCBENCH_JSON_DIR` (default `target/bench-json/`).
//! `SCBENCH_QUICK=1` shrinks every run to the size the committed baseline
//! pins; `tests/bench_baseline.rs` compares the same numbers in-process.
//!
//! Then the tables that are wall-clock by nature (E1, E9, E10, E14, E15)
//! time their calls with `Instant` and print, recording nothing: the
//! wall-clock numbers a change is judged by are citybench's
//! (`BENCHMARK.json`).

use scbench::exp::{e1, e10, e14, e15, e9, EXPERIMENTS};
use scbench::{f1, f3, header, table, CountingAlloc};
use sccompute::dataflow::Dataset;
use sccompute::mllib::{kmeans, kmeans_ctx};
use scfog::{FogSimulator, Placement, Topology, Workload};
use scneural::exec::ExecCtx;
use scnosql::document::Collection;
use scnosql::wide_column::Table;
use scpar::ScparConfig;
use scprof::Profiler;
use scstream::Topic;
use sctelemetry::{Telemetry, TelemetryHandle};
use simclock::SimTime;
use smartcity_core::pipeline::CityDataPipeline;
use std::process::ExitCode;
use std::time::Instant;

// E14 counts the allocations of the calls it pins.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A timed table: `quick` in, printed rows out.
type Timed = fn(bool);

const TIMED: &[(&str, Timed)] = &[
    ("e1", e1_timed),
    ("e9", e9_timed),
    ("e10", e10_timed),
    ("e14", e14_timed),
    ("e15", e15_timed),
];

fn main() -> ExitCode {
    // `cargo bench` passes `--bench`; experiment names are the rest.
    let names: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with("--"))
        .collect();
    if let Some(unknown) = names
        .iter()
        .find(|n| !EXPERIMENTS.iter().any(|(name, _)| name == n))
    {
        let known: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "experiments: no experiment {unknown}; known: {}",
            known.join(" ")
        );
        return ExitCode::from(2);
    }
    let chosen = |name: &str| names.is_empty() || names.iter().any(|n| n == name);
    let quick = scbench::quick();
    for (name, run) in EXPERIMENTS {
        if chosen(name) {
            run(quick).write();
        }
    }
    for (name, timed) in TIMED {
        if chosen(name) {
            timed(quick);
        }
    }
    ExitCode::SUCCESS
}

/// Wall time of `f` in ms, after one untimed warm-up call (the first call
/// spawns the pool).
fn time_ms(mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e3
}

fn e1_timed(quick: bool) {
    header(
        "E1",
        "Fig. 1 + Fig. 4",
        "Pipeline wall time by ingest volume",
    );
    let rows: Vec<Vec<String>> = e1::sizes(quick)
        .iter()
        .map(|&records| {
            let start = Instant::now();
            let report = e1::pipeline(records);
            let secs = start.elapsed().as_secs_f64();
            vec![
                records.to_string(),
                f3(secs),
                f3(report.ingested as f64 / secs / 1000.0),
            ]
        })
        .collect();
    table(&["city_records", "secs", "kev/s"], &rows);
}

fn e9_timed(quick: bool) {
    header(
        "E9",
        "§II-C2",
        "Random point reads: wide-column vs whole-file DFS",
    );
    let (table_store, dfs) = e9::seeded_stores(quick);
    let n = e9::records(quick);

    // (a) 100 random point reads.
    let keys: Vec<String> = (0..100)
        .map(|i| format!("row-{:06}", (i * 97) % n))
        .collect();
    let start = Instant::now();
    for k in &keys {
        assert!(table_store.get(k, "f", "v").is_some());
    }
    let wc_time = start.elapsed().as_secs_f64();

    let start = Instant::now();
    for _ in &keys {
        // The DFS has no point access: each "random read" is a file read.
        let blob = dfs.read(e9::BATCH_FILE).unwrap();
        std::hint::black_box(blob.len());
    }
    let dfs_time = start.elapsed().as_secs_f64();

    // Batch scan throughput comparison.
    let start = Instant::now();
    std::hint::black_box(table_store.scan_rows("", "\u{10FFFF}").count());
    let scan_time = start.elapsed().as_secs_f64();
    let start = Instant::now();
    std::hint::black_box(dfs.read(e9::BATCH_FILE).unwrap());
    let batch_time = start.elapsed().as_secs_f64();

    table(
        &["access pattern", "wide-column", "dfs", "winner"],
        &[
            vec![
                "100 random point reads (ms)".into(),
                f1(wc_time * 1e3),
                f1(dfs_time * 1e3),
                if wc_time < dfs_time {
                    "wide-column".into()
                } else {
                    "dfs".into()
                },
            ],
            vec![
                "full batch scan (ms)".into(),
                f1(scan_time * 1e3),
                f1(batch_time * 1e3),
                if batch_time < scan_time {
                    "dfs".into()
                } else {
                    "wide-column".into()
                },
            ],
        ],
    );
    println!(
        "random-read speedup (wide-column over whole-file DFS): {:.0}x",
        dfs_time / wc_time.max(1e-9),
    );
}

fn e10_timed(quick: bool) {
    header("E10", "§II-C3", "k-means wall time by partition count");
    let points = e10::crime_points(quick);
    let rows: Vec<Vec<String>> = e10::PARTITIONS
        .iter()
        .map(|&parts| {
            let ds = Dataset::from_vec(points.clone(), parts);
            let start = Instant::now();
            std::hint::black_box(kmeans(&ds, 3, 25, 32));
            vec![parts.to_string(), f3(start.elapsed().as_secs_f64() * 1e3)]
        })
        .collect();
    table(&["partitions", "ms"], &rows);
}

fn e14_timed(quick: bool) {
    header(
        "E14",
        "observability",
        "Telemetry overhead: disabled-handle no-op vs enabled recording",
    );
    const OPS: usize = e14::OPS;
    // One warm-up pass, then a timed pass; ns per op.
    let time_ns = |f: &mut dyn FnMut()| time_ms(f) * 1e6 / OPS as f64;
    let disabled = TelemetryHandle::disabled();
    let telemetry = Telemetry::shared();
    let enabled = telemetry.handle();
    let counter = |h: &TelemetryHandle| {
        for i in 0..OPS {
            h.counter_add("e14_ops_total", "ops", std::hint::black_box(i as u64));
        }
    };
    let observe = |h: &TelemetryHandle| {
        for i in 0..OPS {
            h.observe(
                "e14_latency_seconds",
                "latency",
                std::hint::black_box(i as f64),
            );
        }
    };
    let rows = vec![
        vec![
            "counter_add".to_string(),
            f3(time_ns(&mut || counter(&disabled))),
            f3(time_ns(&mut || counter(&enabled))),
        ],
        vec![
            "observe".to_string(),
            f3(time_ns(&mut || observe(&disabled))),
            f3(time_ns(&mut || observe(&enabled))),
        ],
    ];
    table(&["op", "disabled_ns_per_op", "enabled_ns_per_op"], &rows);

    let (sim, workload, placement) = e14::fog(quick);
    let start = Instant::now();
    sim.runner(&workload).placement(placement).run();
    let base_us = start.elapsed().as_micros();
    let recorder = Telemetry::shared();
    let start = Instant::now();
    sim.runner(&workload)
        .placement(placement)
        .telemetry(recorder.handle())
        .run();
    let rec_us = start.elapsed().as_micros();
    println!(
        "\nfog run ({} jobs): baseline {base_us} us, recorded {rec_us} us",
        workload.jobs().len()
    );

    let off = TelemetryHandle::disabled();
    let ctx = e14::trace_ctx();
    let round_ns = time_ns(&mut || {
        for i in 0..OPS {
            e14::trace_round(&off, ctx, std::hint::black_box(i as u64));
        }
    });
    println!(
        "disabled tracing (guard + child span + event per round): {} ns/round",
        f3(round_ns)
    );

    let mut rows = Vec::new();
    for size in e14::REGISTRY_SIZES {
        let rounds = (OPS / size).max(e14::ALLOC_ROUNDS);
        let mut sc = e14::scraper(size, 2 * rounds + 1);
        let mut at = 0u64;
        let mut scrape_all = || {
            for _ in 0..rounds {
                at += 1;
                sc.scrape_at(SimTime::from_micros(at));
            }
        };
        let ns = time_ms(&mut scrape_all) * 1e6 / rounds as f64;
        rows.push(vec![size.to_string(), f3(ns)]);
    }
    println!("\nsctsdb scrape cost (counters only, steady state):");
    table(&["registry_size", "ns_per_scrape"], &rows);
}

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn e15_timed(quick: bool) {
    header(
        "E15",
        "runtime",
        "scpar parallel scaling: wall time by worker count (identical outputs)",
    );
    let (mat_n, km_points, inf_rows, sweep_jobs, recs, waze) = e15::sizes(quick);
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
            THREADS
                .iter()
                .map(|&t| time_ms(|| pipeline_run(recs, waze, t)))
                .collect(),
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
    profile_section(mat_n, inf_rows);
    simd_section(mat_n, inf_rows);
    fanout_section();
}

/// k-means over `n` 4-D points, 8 clusters, 10 iterations: each iteration
/// fans its 256-point cells out, one task per worker.
fn kmeans_row(n: usize) -> Vec<f64> {
    let coords = e15::splitmix_f64(15, n * 4);
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

fn inference_row(rows: usize) -> Vec<f64> {
    let net = e15::serving_net();
    let input = e15::seeded_tensor(17, rows, 64);
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

fn fog_sweep_row(jobs: usize) -> Vec<f64> {
    let sim = FogSimulator::new(Topology::four_tier(8, 4, 2));
    let workload = Workload::with_escalation(jobs, 100_000, 20.0, 0.3, 15);
    let placements: Vec<Placement> = (0..8)
        .map(|i| Placement::EarlyExit {
            local_fraction: 0.1 * (i + 1) as f64,
            feature_bytes: 20_000,
        })
        .collect();
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

/// Measured per-kernel GFLOP/s: run the two neural kernels under a
/// [`Profiler`] (the matmul on the calling thread, the batch on four
/// workers), then rate the deterministic FLOP counts against the measured
/// wall-clock window. FLOP totals are exact and thread-invariant; only the
/// rates carry timer noise.
fn profile_section(mat_n: usize, inf_rows: usize) {
    let profiler = Profiler::shared();
    let handle = profiler.handle();
    let a = e15::seeded_tensor(25, mat_n, mat_n);
    let b = e15::seeded_tensor(26, mat_n, mat_n);
    let net = e15::serving_net().with_telemetry(handle.clone());
    let input = e15::seeded_tensor(27, inf_rows, 64);
    let ctx = ExecCtx::serial()
        .with_par(ScparConfig::with_threads(4))
        .with_telemetry(handle);
    let start = Instant::now();
    std::hint::black_box(a.matmul_ctx(&b, &ctx).expect("square matmul"));
    std::hint::black_box(net.predict_ctx(&input, &ctx));
    let elapsed_s = start.elapsed().as_secs_f64();

    let report = profiler.report().with_elapsed(elapsed_s);
    println!("\nmeasured per-kernel GFLOP/s over a {elapsed_s:.4}s window:");
    println!("{}", report.render_table(10));
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
        e15::splitmix_f64(seed, n)
            .iter()
            .map(|v| *v as f32)
            .collect()
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
        rows.push(vec![
            format!("matmul_f32_{mat_n}x{mat_n}"),
            label.into(),
            isa.name().into(),
            f3(ms),
            f3(flops / (ms * 1e6)),
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
            rows.push(vec![
                format!("{kname}_{}", buf.len()),
                label.into(),
                isa.name().into(),
                f3(ms),
                f3(buf.len() as f64 / (ms * 1e3)),
            ]);
        }
    }
    table(&["kernel", "pin", "isa", "ms", "gflops_or_melems"], &rows);
}

/// Median wall time of one call in ms: 15 samples of 20 back-to-back
/// calls each, after one untimed call.
fn median_ms(mut f: impl FnMut()) -> f64 {
    f();
    let mut samples: Vec<f64> = (0..15)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..20 {
                f();
            }
            start.elapsed().as_secs_f64() * 1e3 / 20.0
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Fan-out vs serial at 2 threads on batched inference over the serving
/// net, where dispatch, not arithmetic, can set the wall clock. A fan-out
/// spawns and joins its workers on every call, so it only pays above a
/// fixed amount of kernel work — the break-even a persistent pool has to
/// lower. Both columns are wall-clock and the ratio is a property of the
/// host.
fn fanout_section() {
    let net = e15::serving_net();
    let serial = ExecCtx::serial();
    let two = ExecCtx::serial().with_par(ScparConfig::with_threads(2));
    let rows: Vec<Vec<String>> = [256, 2048]
        .into_iter()
        .map(|n| {
            let input = e15::seeded_tensor(47, n, 64);
            let call = |ctx: &ExecCtx| {
                std::hint::black_box(net.predict_ctx(&input, ctx));
            };
            let (serial_ms, two_ms) = (median_ms(|| call(&serial)), median_ms(|| call(&two)));
            vec![
                format!("batch_inference_{n}"),
                f3(serial_ms),
                f3(two_ms),
                f3(serial_ms / two_ms),
            ]
        })
        .collect();
    println!("\nfan-out vs serial (2 threads, median of 15 x 20 calls):");
    table(&["kernel", "serial_ms", "t2_ms", "serial/t2"], &rows);
}
