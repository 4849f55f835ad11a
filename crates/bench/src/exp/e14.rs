//! E14 (observability): telemetry overhead. Instrumentation is compiled in
//! unconditionally across the stack, so the cost that matters is the
//! disabled-handle path — one `Option` check per call site. This half pins
//! what is exact: a recorded fog run returns what an unrecorded one does,
//! disabled tracing performs zero heap allocations, and so does a
//! steady-state scrape. The timed tables put ns/op on the same calls.

use crate::{allocations_in, header, table, BenchJson};
use scfog::{FogSimulator, Placement, Topology, Workload};
use sctelemetry::{MetricsRegistry, SpanContext, Telemetry, TelemetryHandle, TraceId};
use sctsdb::Scraper;
use simclock::SimTime;

/// Calls per measured loop.
pub const OPS: usize = 10_000;

/// Scrapes counted after the warm-up.
pub const ALLOC_ROUNDS: usize = 64;

/// The registry sizes the scrape table sweeps.
pub const REGISTRY_SIZES: [usize; 3] = [10, 100, 1000];

/// The fog run both sides of the telemetry comparison execute.
pub fn fog(quick: bool) -> (FogSimulator, Workload, Placement) {
    let jobs = if quick { 150 } else { 400 };
    (
        FogSimulator::new(Topology::four_tier(8, 4, 2)),
        Workload::with_escalation(jobs, 100_000, 20.0, 0.3, 14),
        Placement::EarlyExit {
            local_fraction: 0.3,
            feature_bytes: 20_000,
        },
    )
}

/// One round of the span API on `handle`: a guard, a child span, an event.
pub fn trace_round(handle: &TelemetryHandle, ctx: SpanContext, i: u64) {
    let mut g = handle.span_guard("e14", "request", SimTime::from_micros(i), ctx);
    let child = g.child_ctx();
    handle.span_in(
        "e14",
        "child",
        SimTime::from_micros(i),
        SimTime::from_micros(i + 1),
        child,
    );
    handle.event(
        "e14",
        "tick",
        SimTime::from_micros(i),
        format_args!("detail"),
    );
    g.finish(SimTime::from_micros(i + 2));
}

/// The root context every traced round hangs off.
pub fn trace_ctx() -> SpanContext {
    SpanContext::root(TraceId::derive(14, 1, 0))
}

/// A synced, warmed scraper over `size` counters with room for `samples`
/// samples per series.
pub fn scraper(size: usize, samples: usize) -> Scraper {
    let reg = MetricsRegistry::new();
    for i in 0..size {
        reg.counter(&format!("e14_scrape_{i:04}_total"), "scrape target")
            .as_counter()
            .unwrap()
            .add(i as u64);
    }
    let mut sc = Scraper::new(reg).with_sample_capacity(samples);
    sc.sync();
    sc.scrape_at(SimTime::ZERO);
    sc
}

pub fn run(quick: bool) -> BenchJson {
    header(
        "E14",
        "observability",
        "Telemetry: a recorded run equals an unrecorded one, and the disabled path allocates nothing",
    );
    assert!(
        allocations_in(|| drop(std::hint::black_box(Box::new(0u8)))) > 0,
        "E14 counts allocations: the binary must install scbench::CountingAlloc as its #[global_allocator]"
    );
    let mut json = BenchJson::new("e14", quick);

    // Whole-subsystem view: a fog run with no recorder attached vs one
    // recording every job, span, and tier metric.
    let (sim, workload, placement) = fog(quick);
    let r = sim.runner(&workload).placement(placement).run();
    let recorder = Telemetry::shared();
    let rr = sim
        .runner(&workload)
        .placement(placement)
        .telemetry(recorder.handle())
        .run();
    assert_eq!(r.jobs, rr.jobs, "telemetry must not change results");
    println!(
        "fog run ({} jobs): {} spans, {} metrics",
        workload.jobs().len(),
        recorder.trace_len(),
        recorder.registry().len(),
    );
    json.det_u("fog_jobs", rr.jobs as u64)
        .det_u("fog_spans", recorder.trace_len() as u64)
        .det_u("fog_metrics", recorder.registry().len() as u64);

    // Disabled tracing is a no-op in the strictest sense: the whole span
    // API — guards, child contexts, events, raw spans — performs zero
    // heap allocations when no recorder is attached. This is what lets
    // the causal-tracing instrumentation stay unconditionally compiled
    // into scserve/scfog/smartcity-core hot paths.
    let off = TelemetryHandle::disabled();
    let ctx = trace_ctx();
    let allocs = allocations_in(|| {
        for i in 0..OPS {
            trace_round(&off, ctx, i as u64);
        }
    });
    assert_eq!(
        allocs, 0,
        "disabled tracing must not allocate ({allocs} allocations in {OPS} guard+span+event rounds)"
    );
    println!("disabled tracing: {allocs} heap allocations in {OPS} guard+span+event rounds");
    json.det_u("disabled_trace_allocations", allocs);

    // sctsdb scrape: after `sync` binds the series and the first scrape
    // warms the encoders, `scrape_at` only loads atomics and appends bits
    // into preallocated buffers.
    let mut rows = Vec::new();
    let mut steady_allocations = 0u64;
    for size in REGISTRY_SIZES {
        let warm = (OPS / size).max(ALLOC_ROUNDS);
        let mut sc = scraper(size, warm + ALLOC_ROUNDS + 2);
        let mut at = 0u64;
        for _ in 0..warm {
            at += 1;
            sc.scrape_at(SimTime::from_micros(at));
        }
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
        rows.push(vec![
            size.to_string(),
            sc.series_count().to_string(),
            allocs.to_string(),
        ]);
    }
    println!("\nsctsdb scrape, steady state (counters only):");
    table(&["registry_size", "series", "steady_allocs"], &rows);
    json.det_u("scrape_steady_allocations", steady_allocations);
    json
}
