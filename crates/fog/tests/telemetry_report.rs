//! The telemetry registry must carry the fog simulator's report, and
//! identical seeds must yield byte-identical Prometheus text and the same
//! trace.

use scfog::{FogSimulator, Placement, SimReport, Tier, Topology, Workload};
use sctelemetry::{prometheus_text, HistogramSnapshot, MetricsRegistry, Telemetry};

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

fn counter(registry: &MetricsRegistry, name: &str) -> Option<u64> {
    registry.get(name)?.as_counter().map(|c| c.get())
}

fn histogram(registry: &MetricsRegistry, name: &str) -> Option<HistogramSnapshot> {
    registry.get(name)?.as_histogram().map(|h| h.snapshot())
}

#[test]
fn report_is_a_view_over_the_registry() {
    let (report, telemetry) = run_with_telemetry(7);
    let registry = telemetry.registry();
    let latency = histogram(registry, "scfog_sim_job_latency_seconds").expect("run was recorded");
    assert_eq!(latency.count as usize, report.jobs);
    assert!(close(latency.mean().unwrap(), report.mean_latency_s));
    assert_eq!(latency.percentile(0.50), Some(report.p50_latency_s));
    assert_eq!(latency.percentile(0.95), Some(report.p95_latency_s));
    assert_eq!(latency.percentile(0.99), Some(report.p99_latency_s));
    assert_eq!(latency.max, report.max_latency_s);
    let jobs = counter(registry, "scfog_sim_jobs_total");
    assert_eq!(jobs, Some(report.jobs as u64));
    let makespan = histogram(registry, "scfog_sim_makespan_seconds").expect("makespan recorded");
    assert_eq!(makespan.max, report.makespan_s);
    let links = [
        ("edge_to_fog", report.edge_to_fog_bytes),
        ("fog_to_server", report.fog_to_server_bytes),
        ("server_to_cloud", report.server_to_cloud_bytes),
    ];
    for (link, bytes) in links {
        let name = format!("scfog_link_{link}_bytes_total");
        assert_eq!(counter(registry, &name), Some(bytes), "{name}");
    }
    assert_eq!(report.tier_utilization.len(), Tier::ALL.len());
    for (u, tier) in report.tier_utilization.iter().zip(Tier::ALL) {
        assert_eq!(u.tier, tier);
        let busy = format!("scfog_sim_busy_{}_seconds", tier.name());
        let busy = histogram(registry, &busy).expect("tier busy recorded").sum;
        assert_eq!(busy, u.busy_secs);
        let nodes = format!("scfog_topology_{}_nodes", tier.name());
        let nodes = registry
            .get(&nodes)
            .and_then(|e| e.as_gauge().map(|g| g.get()));
        let nodes = nodes.expect("tier size recorded") as f64;
        assert!(close(
            u.utilization,
            (busy / (nodes * makespan.max)).min(1.0)
        ));
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
    assert_eq!(counter(telemetry.registry(), "scfog_sim_jobs_total"), None);
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
