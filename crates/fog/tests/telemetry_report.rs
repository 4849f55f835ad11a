//! The fog simulator's report must be reconstructible from the telemetry
//! registry, and identical seeds must yield byte-identical Prometheus text
//! and the same trace.

use scfog::{FogSimulator, Placement, SimReport, Topology, Workload};
use sctelemetry::{prometheus_text, Telemetry};

fn run_with_telemetry(seed: u64) -> (SimReport, std::sync::Arc<Telemetry>) {
    let telemetry = Telemetry::shared();
    let sim = FogSimulator::new(Topology::four_tier(4, 2, 1));
    let w = Workload::with_escalation(50, 100_000, 5.0, 0.3, seed);
    let report = sim
        .runner(&w)
        .placement(Placement::EarlyExit {
            local_fraction: 0.3,
            feature_bytes: 20_000,
        })
        .telemetry(telemetry.handle())
        .run();
    (report, telemetry)
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= a.abs().max(b.abs()) * 1e-12 + 1e-15
}

#[test]
fn report_is_a_view_over_the_registry() {
    let (report, telemetry) = run_with_telemetry(7);
    let derived = SimReport::from_registry(telemetry.registry()).expect("run was recorded");

    assert_eq!(derived.jobs, report.jobs);
    assert!(close(derived.mean_latency_s, report.mean_latency_s));
    assert_eq!(derived.p50_latency_s, report.p50_latency_s);
    assert_eq!(derived.p95_latency_s, report.p95_latency_s);
    assert_eq!(derived.p99_latency_s, report.p99_latency_s);
    assert_eq!(derived.max_latency_s, report.max_latency_s);
    assert_eq!(derived.edge_to_fog_bytes, report.edge_to_fog_bytes);
    assert_eq!(derived.fog_to_server_bytes, report.fog_to_server_bytes);
    assert_eq!(derived.server_to_cloud_bytes, report.server_to_cloud_bytes);
    assert_eq!(derived.makespan_s, report.makespan_s);
    for (d, r) in derived
        .tier_utilization
        .iter()
        .zip(&report.tier_utilization)
    {
        assert_eq!(d.tier, r.tier);
        assert_eq!(d.busy_secs, r.busy_secs);
        assert!(close(d.utilization, r.utilization));
    }
}

#[test]
fn identical_seeds_give_byte_identical_snapshots() {
    let (_, a) = run_with_telemetry(42);
    let (_, b) = run_with_telemetry(42);
    assert_eq!(prometheus_text(a.registry()), prometheus_text(b.registry()));
    assert!(!a.trace().is_empty());
    assert_eq!(a.trace(), b.trace());
}

#[test]
fn different_seeds_give_different_snapshots() {
    let (_, a) = run_with_telemetry(1);
    let (_, b) = run_with_telemetry(2);
    assert_ne!(prometheus_text(a.registry()), prometheus_text(b.registry()));
}

#[test]
fn disabled_telemetry_records_nothing() {
    let sim = FogSimulator::new(Topology::four_tier(2, 1, 1));
    let w = Workload::with_escalation(10, 50_000, 5.0, 0.2, 3);
    let report = sim.runner(&w).placement(Placement::ServerOnly).run();
    assert_eq!(report.jobs, 10);
    let telemetry = Telemetry::shared();
    assert!(SimReport::from_registry(telemetry.registry()).is_none());
}

#[test]
fn spans_cover_every_job() {
    let (report, telemetry) = run_with_telemetry(11);
    let trace = telemetry.trace();
    let spans: Vec<_> = trace
        .iter()
        .filter_map(|r| match r {
            sctelemetry::TraceRecord::Span(s) => Some(s),
            _ => None,
        })
        .collect();
    // One root span per job, plus at least one compute/transfer child each.
    let roots = spans.iter().filter(|s| s.name.starts_with("job/")).count();
    assert_eq!(roots, report.jobs);
    let steps = spans
        .iter()
        .filter(|s| s.name.starts_with("compute/") || s.name.starts_with("xfer/"))
        .count();
    assert!(steps >= report.jobs);
    // Every span carries a trace context — no uncorrelated spans.
    assert!(spans.iter().all(|s| s.ctx.is_some()));
}
