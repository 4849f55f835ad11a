//! E14 (observability): telemetry overhead. Instrumentation is compiled in
//! unconditionally across the stack, so the cost that matters is the
//! disabled-handle path — one `Option` check per call site. This bench pins
//! that down against both a true no-telemetry baseline and the enabled
//! recorder, at the single-metric level and for a whole fog-simulator run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use scbench::{f3, header, table, BenchJson};
use scfog::{FogSimulator, Placement, Topology, Workload};
use sctelemetry::{MetricsRegistry, SpanContext, Telemetry, TelemetryHandle, TraceId};
use sctsdb::Scraper;
use simclock::{SimDuration, SimTime};

const OPS: usize = 10_000;

fn quick() -> bool {
    scbench::quick()
}

/// Counts heap allocations so the disabled-tracing path can be pinned to
/// exactly zero (not just "fast").
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how many heap allocations it performed.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

fn time_ns(mut f: impl FnMut()) -> f64 {
    // One warm-up pass, then a timed pass.
    f();
    let start = std::time::Instant::now();
    f();
    start.elapsed().as_nanos() as f64 / OPS as f64
}

fn regenerate_figure() {
    header(
        "E14",
        "observability",
        "Telemetry overhead: disabled-handle no-op vs enabled recording",
    );

    let disabled = TelemetryHandle::disabled();
    let telemetry = Telemetry::shared();
    let enabled = telemetry.handle();
    let mut json = BenchJson::new("e14", quick());

    let rows = vec![
        vec![
            "counter_add".to_string(),
            f3(time_ns(|| {
                for i in 0..OPS {
                    disabled.counter_add("e14_ops_total", "ops", std::hint::black_box(i as u64));
                }
            })),
            f3(time_ns(|| {
                for i in 0..OPS {
                    enabled.counter_add("e14_ops_total", "ops", std::hint::black_box(i as u64));
                }
            })),
        ],
        vec![
            "observe".to_string(),
            f3(time_ns(|| {
                for i in 0..OPS {
                    disabled.observe(
                        "e14_latency_seconds",
                        "latency",
                        std::hint::black_box(i as f64),
                    );
                }
            })),
            f3(time_ns(|| {
                for i in 0..OPS {
                    enabled.observe(
                        "e14_latency_seconds",
                        "latency",
                        std::hint::black_box(i as f64),
                    );
                }
            })),
        ],
    ];
    table(&["op", "disabled_ns_per_op", "enabled_ns_per_op"], &rows);

    // Whole-subsystem view: a fog run with no recorder attached vs one
    // recording every job, span, and tier metric.
    let fog_jobs = if quick() { 150 } else { 400 };
    let workload = Workload::with_escalation(fog_jobs, 100_000, 20.0, 0.3, 14);
    let sim = FogSimulator::new(Topology::four_tier(8, 4, 2));
    let placement = Placement::EarlyExit {
        local_fraction: 0.3,
        feature_bytes: 20_000,
    };
    let start = std::time::Instant::now();
    let r = sim.runner(&workload).placement(placement).run();
    let base_us = start.elapsed().as_micros();

    let recorder = Telemetry::shared();
    let start = std::time::Instant::now();
    let rr = sim
        .runner(&workload)
        .placement(placement)
        .telemetry(recorder.handle())
        .run();
    let rec_us = start.elapsed().as_micros();
    assert_eq!(r.jobs, rr.jobs, "telemetry must not change results");

    println!(
        "\nfog run ({fog_jobs} jobs): baseline {base_us} us, recorded {rec_us} us, {} spans, {} metrics",
        recorder.trace_len(),
        recorder.registry().len(),
    );
    json.det_u("fog_jobs", rr.jobs as u64)
        .det_u("fog_spans", recorder.trace_len() as u64)
        .det_u("fog_metrics", recorder.registry().len() as u64);

    // Disabled tracing is a no-op in the strictest sense: the whole span
    // API — guards, child contexts, events, raw spans — performs zero
    // heap allocations when no recorder is attached. This is what lets
    // the causal-tracing instrumentation (PR 5) stay unconditionally
    // compiled into scserve/scfog/smartcity-core hot paths.
    let off = TelemetryHandle::disabled();
    let ctx = SpanContext::root(TraceId::derive(14, 1, 0));
    let disabled_trace_ns = time_ns(|| {
        for i in 0..OPS {
            let mut g = off.span_guard(
                "e14",
                "request",
                SimTime::from_micros(std::hint::black_box(i as u64)),
                ctx,
            );
            let child = g.child_ctx();
            off.span_in(
                "e14",
                "child",
                SimTime::from_micros(i as u64),
                SimTime::from_micros(i as u64 + 1),
                child,
            );
            off.event("e14", "tick", SimTime::from_micros(i as u64), "detail");
            g.finish(SimTime::from_micros(i as u64 + 2));
        }
    });
    let allocs = allocations_in(|| {
        for i in 0..OPS {
            let mut g = off.span_guard("e14", "request", SimTime::from_micros(i as u64), ctx);
            let child = g.child_ctx();
            off.span_in(
                "e14",
                "child",
                SimTime::from_micros(i as u64),
                SimTime::from_micros(i as u64 + 1),
                child,
            );
            off.event("e14", "tick", SimTime::from_micros(i as u64), "detail");
            g.finish(SimTime::from_micros(i as u64 + 2));
        }
    });
    assert_eq!(
        allocs, 0,
        "disabled tracing must not allocate ({allocs} allocations in {OPS} guard+span+event rounds)"
    );
    println!(
        "disabled tracing (guard + child span + event per round): {} ns/round, {allocs} heap \
         allocations in {OPS} rounds",
        f3(disabled_trace_ns),
    );
    json.det_u("disabled_trace_allocations", allocs);

    // sctsdb scrape cost: ns per full-registry scrape as the registry
    // grows, with the steady state pinned to zero transient allocations —
    // after `sync` binds the series and the first scrape warms the
    // encoders, `scrape_at` only loads atomics and appends bits into
    // preallocated buffers.
    const ALLOC_ROUNDS: usize = 64;
    let mut scrape_rows: Vec<Vec<String>> = Vec::new();
    let mut steady_allocations = 0u64;
    for size in [10usize, 100, 1000] {
        let reg = MetricsRegistry::new();
        for i in 0..size {
            reg.counter(&format!("e14_scrape_{i:04}_total"), "scrape target")
                .as_counter()
                .unwrap()
                .add(i as u64);
        }
        let rounds = (OPS / size).max(ALLOC_ROUNDS);
        let mut sc = Scraper::new(reg, SimDuration::from_secs(1))
            .with_sample_capacity(2 * rounds + ALLOC_ROUNDS + 2);
        sc.sync();
        let mut at = 0u64;
        sc.scrape_at(SimTime::ZERO);
        // One warm pass, then a timed pass.
        for _ in 0..rounds {
            at += 1;
            sc.scrape_at(SimTime::from_micros(at));
        }
        let start = std::time::Instant::now();
        for _ in 0..rounds {
            at += 1;
            sc.scrape_at(SimTime::from_micros(at));
        }
        let ns = start.elapsed().as_nanos() as f64 / rounds as f64;
        let allocs = allocations_in(|| {
            for _ in 0..ALLOC_ROUNDS {
                at += 1;
                sc.scrape_at(SimTime::from_micros(at));
            }
        });
        assert_eq!(
            allocs, 0,
            "steady-state scrape must not allocate ({allocs} allocations \
             over {ALLOC_ROUNDS} scrapes of a {size}-metric registry)"
        );
        steady_allocations += allocs;
        scrape_rows.push(vec![
            size.to_string(),
            sc.series_count().to_string(),
            f3(ns),
            allocs.to_string(),
        ]);
    }
    println!("\nsctsdb scrape cost (counters only, steady state):");
    table(
        &["registry_size", "series", "ns_per_scrape", "steady_allocs"],
        &scrape_rows,
    );
    json.det_u("scrape_steady_allocations", steady_allocations);
    json.write();
}

fn main() {
    regenerate_figure();
}
