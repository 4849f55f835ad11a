//! E18 (observability): causal tracing and deterministic SLO alerting.
//!
//! A trace you cannot trust is worse than no trace: this bench drives the
//! serving tier through a clean run and a fault+overload run, assembles
//! the causal span forest each produced, and holds the SLO engine to the
//! paging contract — the degraded run **must** fire at least one
//! burn-rate alert and the clean run **must** fire none. The regenerated
//! table shows per-rule compliance side by side, plus the p50/p99/max
//! exemplar critical paths that explain *where* the degraded latency
//! went.
//!
//! Everything is seeded and in sim-time, so the alert report and every
//! exemplar trace id print identically on every run and thread count.
//! `quick` shrinks both runs to the pinned size.

use crate::{f3, header, table, BenchJson};
use scfault::{FaultKind, FaultPlan, FaultSpec};
use scfog::{FogSimulator, Placement, Tier, Topology, Workload};
use scneural::layers::{Dense, Relu};
use scneural::net::Sequential;
use scobserve::{chrome_trace, evaluate, folded_stacks, AlertReport, SloRule, TraceAnalysis};
use scserve::{ServeConfig, Server, WorkloadConfig, WorkloadGen};
use sctelemetry::Telemetry;
use simclock::SimDuration;

const SEED: u64 = 42;
const SERVICE_RATE: f64 = 2_000.0;
const LATENCY_BOUND_S: f64 = 0.05;

fn model() -> Sequential {
    Sequential::new()
        .with(Dense::new(8, 32, 41))
        .with(Relu::new())
        .with(Dense::new(32, 4, 42))
}

/// Records a serving run (at `rate` req/s) and a fog run (faulted or
/// not) into one recorder, with full causal tracing. The faulted fog run
/// also loses its only server node for good at three quarters of the job
/// stream: with no sibling to reroute to, the jobs that reach it after
/// that are lost.
fn record_stack(
    rate: f64,
    faulted: bool,
    requests: usize,
    jobs: usize,
) -> std::sync::Arc<Telemetry> {
    let telemetry = Telemetry::shared();

    let mut server = Server::new(ServeConfig {
        service_rate: SERVICE_RATE,
        queue_capacity: 64,
        rate_per_s: 1e6,
        burst: 1e4,
        ..ServeConfig::default()
    })
    .with_model(model())
    .with_telemetry(telemetry.handle())
    .with_trace_seed(SEED);
    WorkloadGen::new(WorkloadConfig {
        seed: SEED,
        requests,
        write_fraction: 0.02,
        rate_per_s: rate,
        ..WorkloadConfig::default()
    })
    .run(&mut server);

    let sim = FogSimulator::new(Topology::four_tier(4, 2, 1));
    let w = Workload::with_escalation(jobs, 100_000, 10.0, 0.3, SEED);
    let mut runner = sim
        .runner(&w)
        .placement(Placement::EarlyExit {
            local_fraction: 0.3,
            feature_bytes: 20_000,
        })
        .telemetry(telemetry.handle())
        .trace_seed(SEED);
    let plan;
    if faulted {
        let server_node = sim.topology().nodes_in_tier(Tier::Server)[0];
        plan = FaultPlan::generate(
            &FaultSpec::new(SimDuration::from_secs(12), 4).intensity(3.0),
            SEED,
        )
        .with_event(
            w.jobs()[jobs * 3 / 4].arrival,
            FaultKind::NodeCrash {
                node: server_node.0,
            },
        );
        runner = runner.faults(&plan);
    }
    runner.run();

    telemetry
}

fn rules() -> Vec<SloRule> {
    vec![
        SloRule::availability("serve_availability", 0.99),
        SloRule::latency("serve_latency", 0.99, LATENCY_BOUND_S).with_anomaly_z(4.0),
        SloRule::loss("fog_jobs", 0.99),
    ]
}

fn alert_report(t: &Telemetry) -> (TraceAnalysis, AlertReport) {
    let analysis = TraceAnalysis::new(t);
    let streams = vec![
        analysis.availability("request/"),
        analysis.latency("request/", LATENCY_BOUND_S),
        analysis.availability("job/"),
    ];
    let report = evaluate(&rules(), &streams);
    (analysis, report)
}

pub fn run(quick: bool) -> BenchJson {
    header(
        "E18",
        "observability",
        "Causal traces, exemplar critical paths, and multi-window burn-rate alerting",
    );
    let requests = if quick { 1_000 } else { 4_000 };
    let jobs = if quick { 60 } else { 120 };
    let mut json = BenchJson::new("e18", quick);

    let clean = record_stack(SERVICE_RATE * 0.5, false, requests, jobs);
    let degraded = record_stack(SERVICE_RATE * 4.0, true, requests, jobs);
    let (clean_analysis, clean_report) = alert_report(&clean);
    let (degraded_analysis, degraded_report) = alert_report(&degraded);

    let mut rows = Vec::new();
    for (c, d) in clean_report
        .compliance
        .iter()
        .zip(&degraded_report.compliance)
    {
        rows.push(vec![
            c.0.clone(),
            c.1.to_string(),
            f3(c.2),
            f3(d.2),
            c.3.to_string(),
            d.3.to_string(),
        ]);
    }
    table(
        &[
            "slo_rule",
            "kind",
            "clean_good_frac",
            "degraded_good_frac",
            "clean_samples",
            "degraded_samples",
        ],
        &rows,
    );

    println!(
        "\nclean run: {} traces, {} alerts | degraded run: {} traces, {} alerts",
        clean_analysis.forest.len(),
        clean_report.len(),
        degraded_analysis.forest.len(),
        degraded_report.len(),
    );
    for a in &degraded_report.alerts {
        println!(
            "  ALERT {} at={} burn_short={} burn_long={} {}",
            a.rule,
            a.at,
            f3(a.burn_short),
            f3(a.burn_long),
            a.detail
        );
    }
    println!("\ndegraded-run exemplar critical paths (request/*):");
    for (ex, path) in degraded_analysis.exemplar_paths("request/") {
        println!(
            "  {}: trace={} latency={}s",
            ex.label,
            ex.trace.as_hex(),
            f3(ex.value)
        );
        if let Some(p) = path {
            println!("    {}", p.render());
        }
    }
    let events = chrome_trace(&degraded_analysis.forest)["traceEvents"]
        .as_array()
        .map(Vec::len)
        .unwrap_or(0);
    println!(
        "\nexports: {} Chrome-trace events, {} flamegraph frames",
        events,
        folded_stacks(&degraded_analysis.forest).lines().count(),
    );

    // The paging contract this experiment exists to pin.
    assert!(
        clean_report.is_empty(),
        "clean baseline fired alerts: {}",
        clean_report.render()
    );
    assert!(
        degraded_report
            .alerts
            .iter()
            .any(|a| a.kind == scobserve::AlertKind::BurnRate),
        "fault+overload run failed to fire a burn-rate alert:\n{}",
        degraded_report.render()
    );
    json.det_u("clean_traces", clean_analysis.forest.len() as u64)
        .det_u("clean_alerts", clean_report.len() as u64)
        .det_u("degraded_traces", degraded_analysis.forest.len() as u64)
        .det_u("degraded_alerts", degraded_report.len() as u64)
        .det_u("chrome_trace_events", events as u64);
    json
}
