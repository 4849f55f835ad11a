//! Deterministic dashboard artifact builder.
//!
//! [`build_dashboard_artifacts`] produces every file the `city_dashboard`
//! example writes — incident GeoJSON, dashboard JSON, SVG charts, the
//! cross-layer report panel, and a Prometheus metrics snapshot — as
//! in-memory strings, as a pure function of `(seed, records, waze)`, one
//! private builder per artifact group.
//!
//! Factoring the builder out of the example buys two things:
//!
//! - the example shrinks to "build, write to disk, print sizes", and
//! - the golden-master suite (`tests/golden_dashboard.rs`) can assert the
//!   seed-42 artifacts **byte-for-byte** against checked-in snapshots,
//!   turning any accidental nondeterminism — map-iteration ordering,
//!   float formatting drift, thread-count leakage — into a test failure
//!   with a diff.
//!
//! The builder runs the full stack: the mining pipeline with a telemetry
//! recorder, fog placement sweeps, and a serving-tier workload replayed
//! through [`scserve`] (shard routing, caches, micro-batched inference,
//! admission control) whose `scserve_*` metrics land in the same
//! registry. `SCPAR_THREADS` only changes the worker count, never a byte
//! of output — the CI matrix runs the golden test at 1 and 8 threads
//! against the same snapshots.

use scfog::{FogSimulator, Placement, SimReport, Topology, Workload};
use scneural::layers::{Dense, Relu};
use scneural::net::Sequential;
use scobserve::{
    chrome_trace, evaluate, folded_stacks, AlertReport, SloRule, TraceAnalysis, TraceForest,
};
use scprof::{CostDimension, ProfileReport, Profiler};
use scserve::{ServeConfig, Server, ServingReport, WorkloadConfig, WorkloadGen};
use sctelemetry::{prometheus_text, Report, Telemetry, TelemetryHandle};
use serde_json::{json, Value};
use simclock::SimDuration;

use crate::infrastructure::Cyberinfrastructure;
use crate::pipeline::{CityDataPipeline, PipelineReport, RunOptions};
use crate::viz::{dashboard_with_reports, svg_bar_chart, svg_line_chart, telemetry_panel, Series};

/// Everything the city dashboard ships, as strings keyed by file name.
#[derive(Debug, Clone)]
pub struct DashboardArtifacts {
    /// `incidents.geojson` — the incident map layer.
    pub incidents_geojson: String,
    /// `dashboard.json` — the KPI dashboard document.
    pub dashboard_json: String,
    /// `coverage.svg` — cameras-per-city bar chart.
    pub coverage_svg: String,
    /// `fog_latency.svg` — latency-vs-escalation line chart.
    pub fog_latency_svg: String,
    /// `layers.json` — cross-layer report panel (pipeline, fog, DFS,
    /// serving), plus the `critical_path` and `alerts` observability
    /// panels.
    pub layers_json: String,
    /// `metrics.prom` — Prometheus text snapshot of the whole run.
    pub metrics_prom: String,
    /// `trace.json` — Chrome-trace events for the p50/p99/max exemplar
    /// requests, their critical paths, a folded-stack flamegraph, and the
    /// SLO alert report.
    pub trace_json: String,
    /// Events persisted by the pipeline (for log lines).
    pub stored: usize,
    /// Crime hot-spots found (for log lines).
    pub hotspots: usize,
    /// SLO alerts fired by the baseline run (expected: 0; for log lines).
    pub alerts: usize,
}

impl DashboardArtifacts {
    /// `(file name, contents)` pairs in write order.
    pub fn files(&self) -> Vec<(&'static str, &str)> {
        vec![
            ("incidents.geojson", self.incidents_geojson.as_str()),
            ("dashboard.json", self.dashboard_json.as_str()),
            ("coverage.svg", self.coverage_svg.as_str()),
            ("fog_latency.svg", self.fog_latency_svg.as_str()),
            ("layers.json", self.layers_json.as_str()),
            ("metrics.prom", self.metrics_prom.as_str()),
            ("trace.json", self.trace_json.as_str()),
        ]
    }
}

/// Builds every dashboard artifact for `(seed, records, waze)`.
/// Deterministic: the same inputs yield byte-identical strings on every
/// run, platform, and `SCPAR_THREADS` setting.
///
/// # Panics
///
/// Panics only if generated pipeline data fails validation, which would
/// be a bug in the generators, or on JSON serialization failure.
pub fn build_dashboard_artifacts(seed: u64, records: usize, waze: usize) -> DashboardArtifacts {
    // Every run records into one registry through a work-accounting
    // profiler, so per-kernel flops/bytes/items from every layer land in
    // the profile panel.
    let telemetry = Telemetry::shared();
    let profiler = Profiler::shared_wrapping(telemetry.clone());
    let mut infra = Cyberinfrastructure::builder().seed(seed).build();

    let pipeline = CityDataPipeline::new(seed, records, waze);
    let (topic, store, annotations) = infra.pipeline_stores();
    let runner = pipeline.runner(topic, store, annotations);
    let (report, incidents_geojson, dashboard_json) =
        pipeline_files(runner.telemetry(profiler.handle()), &telemetry);
    let coverage_svg = coverage_svg(&infra);
    let (fog_latency_svg, fog_report) = fog_artifacts(seed, profiler.handle());
    let serving_report = serving_run(seed, profiler.handle());
    let observed = Observed::new(&telemetry);
    let prof_report = profiler.report();
    let profile_panel = profile_panel(&prof_report, report.sim_elapsed());

    let flamegraph = Value::String(folded_stacks(&observed.exemplar_forest));
    let work_flamegraph = Value::String(prof_report.folded(CostDimension::Flops));
    let trace_json = observed.render(
        chrome_trace(&observed.exemplar_forest),
        [
            ("flamegraph", flamegraph),
            ("work_flamegraph", work_flamegraph),
        ],
    );
    let layers: [(&str, &dyn Report); 4] = [
        ("pipeline", &report),
        ("fog", &fog_report),
        ("dfs", &infra.dfs().stats()),
        ("serving", &serving_report),
    ];
    let layers_json = observed.render(
        dashboard_with_reports(&[("layers", 4.0)], &[], &layers),
        [("profile", Value::Array(profile_panel))],
    );
    // The Prometheus scrape snapshot of the whole run, including the
    // `smartcity_prof_*` work-counter family.
    profiler
        .publish_metrics(telemetry.registry())
        .expect("prof metric family has no name collisions");
    let metrics_prom = prometheus_text(telemetry.registry());

    DashboardArtifacts {
        incidents_geojson,
        dashboard_json,
        coverage_svg,
        fog_latency_svg,
        layers_json,
        metrics_prom,
        trace_json,
        stored: report.stored,
        hotspots: report.hotspots.len(),
        alerts: observed.alerts.len(),
    }
}

/// The Fig. 4 mining pipeline's report, incident GeoJSON, and dashboard
/// JSON — with a `"telemetry"` panel over the registry its stage spans,
/// counters, and storage consumer group recorded into.
fn pipeline_files(run: RunOptions<'_>, telemetry: &Telemetry) -> (PipelineReport, String, String) {
    let mut report = run.run().expect("generated pipeline data is always valid");
    if let Value::Object(dash) = &mut report.dashboard {
        dash.insert("telemetry".into(), telemetry_panel(telemetry.registry()));
    }
    let incidents_geojson =
        serde_json::to_string_pretty(&report.geojson).expect("geojson serializes");
    let dashboard_json =
        serde_json::to_string_pretty(&report.dashboard).expect("dashboard serializes");
    (report, incidents_geojson, dashboard_json)
}

/// Camera coverage bar chart (the Fig. 2 companion).
fn coverage_svg(infra: &Cyberinfrastructure) -> String {
    let bars: Vec<(String, f64)> = infra
        .cameras()
        .coverage_report()
        .iter()
        .map(|c| (c.city.clone(), c.cameras as f64))
        .collect();
    svg_bar_chart("DOTD cameras per city", &bars, 640, 360)
}

/// Fog placement (the Fig. 3 companion): the mean-latency-vs-escalation
/// chart of the early-exit and fog-assisted splits, and the recorded
/// early-exit run behind the layers panel's `fog` report.
fn fog_artifacts(seed: u64, recorder: TelemetryHandle) -> (String, SimReport) {
    let sim = FogSimulator::new(Topology::four_tier(8, 4, 2));
    let workload = |escalation| {
        Workload::with_escalation(200, 100_000, 20.0, escalation, seed.wrapping_add(1))
    };
    let (local_fraction, feature_bytes) = (0.3, 20_000);
    let early_exit = Placement::EarlyExit {
        local_fraction,
        feature_bytes,
    };
    let fog_assisted = Placement::FogAssisted {
        local_fraction,
        feature_bytes,
    };
    let mean_latency = |placement, esc| {
        let w = workload(esc);
        sim.runner(&w).placement(placement).run().mean_latency_s
    };
    let series: Vec<Series> = [("early-exit", early_exit), ("fog-assisted", fog_assisted)]
        .into_iter()
        .map(|(name, placement)| Series {
            name: name.into(),
            points: [0.0, 0.25, 0.5, 0.75, 1.0]
                .into_iter()
                .map(|esc| (esc, mean_latency(placement, esc)))
                .collect(),
        })
        .collect();
    let chart = svg_line_chart("Mean latency vs escalation rate", &series, 640, 360);
    let w = workload(0.3);
    let runner = sim.runner(&w).placement(early_exit).telemetry(recorder);
    (chart, runner.trace_seed(seed).run())
}

/// Serving tier: a dashboard-style read/write/inference mix replayed
/// through scserve, so its caches, batches, and admission metrics join the
/// registry.
fn serving_run(seed: u64, recorder: TelemetryHandle) -> ServingReport {
    let model = Sequential::new()
        .with(Dense::new(8, 16, seed.wrapping_add(2)))
        .with(Relu::new())
        .with(Dense::new(16, 4, seed.wrapping_add(3)));
    let mut server = Server::new(ServeConfig::default())
        .with_model(model)
        .with_ctx(scneural::exec::ExecCtx::from_env())
        .with_telemetry(recorder)
        .with_trace_seed(seed);
    WorkloadGen::new(WorkloadConfig {
        seed,
        requests: 600,
        ..WorkloadConfig::default()
    })
    .run(&mut server)
}

/// Exemplar and SLO panels over the causal span forest the pipeline, fog,
/// and serving runs recorded: critical paths of the p50/p99/max serving
/// requests, and the baseline SLO rules evaluated (a healthy run passes
/// alert-free).
struct Observed {
    critical_path: Value,
    alerts: AlertReport,
    /// Only the exemplar traces, keeping the golden trace reviewable.
    exemplar_forest: TraceForest,
}

impl Observed {
    fn new(telemetry: &std::sync::Arc<Telemetry>) -> Self {
        let analysis = TraceAnalysis::new(telemetry);
        let exemplars = analysis.exemplar_paths("request/");
        let critical_path = exemplars
            .iter()
            .map(|(ex, path)| {
                json!({
                    "label": ex.label,
                    "trace": ex.trace.as_hex(),
                    "latency_s": ex.value,
                    "path": path.as_ref().map(|p| p.render()),
                    "total_us": path.as_ref().map(|p| p.total().as_micros()),
                })
            })
            .collect();
        let streams = vec![
            analysis.availability("request/"),
            analysis.latency("request/", SERVE_LATENCY_BOUND_S),
            analysis.availability("job/"),
        ];
        let alerts = evaluate(&baseline_slo_rules(), &streams);
        telemetry.handle().gauge_set(
            "smartcity_observe_alerts",
            "SLO alerts fired by the dashboard baseline run",
            alerts.len() as i64,
        );
        let exemplar_ids: std::collections::BTreeSet<_> =
            exemplars.iter().map(|(ex, _)| ex.trace).collect();
        let mut exemplar_forest = analysis.forest;
        exemplar_forest
            .traces
            .retain(|t| exemplar_ids.contains(&t.trace));
        exemplar_forest.unattributed.clear();
        Observed {
            critical_path: Value::Array(critical_path),
            alerts,
            exemplar_forest,
        }
    }

    /// `doc` joined by the critical-path and alert panels, then `extra`,
    /// pretty-printed.
    fn render<const N: usize>(&self, mut doc: Value, extra: [(&str, Value); N]) -> String {
        if let Value::Object(obj) = &mut doc {
            obj.insert("critical_path".to_string(), self.critical_path.clone());
            obj.insert("alerts".to_string(), self.alerts.to_json_full());
            for (key, panel) in extra {
                obj.insert(key.to_string(), panel);
            }
        }
        serde_json::to_string_pretty(&doc).expect("artifact serializes")
    }
}

/// The top-10 kernels by cost. The integer work core is exact at any
/// thread count, and rates use the pipeline's *simulated* elapsed time, so
/// the panel is golden-safe.
fn profile_panel(prof: &ProfileReport, pipeline_elapsed: SimDuration) -> Vec<Value> {
    let sim_elapsed_s = pipeline_elapsed.as_micros() as f64 * 1e-6;
    prof.top_by_cost(10)
        .iter()
        .map(|k| {
            json!({
                "kernel": k.name,
                "flops": k.work.flops,
                "bytes": k.work.bytes,
                "items": k.work.items,
                "pct_cost": format!("{:.2}", prof.pct_cost(k)),
                "gflops_per_s": format!("{:.6}", k.gflops_per_s(sim_elapsed_s)),
            })
        })
        .collect()
}

/// Latency bound (seconds) the baseline serving SLO holds requests to.
pub const SERVE_LATENCY_BOUND_S: f64 = 0.05;

/// The SLO rules the dashboard baseline is evaluated against: serving
/// availability and latency, plus fog job loss. A quiet seed-42 run fires
/// zero alerts; fault/overload sweeps (bench E18) must trip them.
fn baseline_slo_rules() -> Vec<SloRule> {
    vec![
        SloRule::availability("serve_availability", 0.99),
        SloRule::latency("serve_latency", 0.99, SERVE_LATENCY_BOUND_S),
        SloRule::loss("fog_jobs", 0.99),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifacts_are_reproducible() {
        let a = build_dashboard_artifacts(5, 120, 30);
        let b = build_dashboard_artifacts(5, 120, 30);
        assert_eq!(a.dashboard_json, b.dashboard_json);
        assert_eq!(a.metrics_prom, b.metrics_prom);
        assert_eq!(a.layers_json, b.layers_json);
        assert_eq!(a.incidents_geojson, b.incidents_geojson);
    }

    #[test]
    fn artifacts_depend_on_seed() {
        let a = build_dashboard_artifacts(5, 120, 30);
        let b = build_dashboard_artifacts(6, 120, 30);
        assert_ne!(a.dashboard_json, b.dashboard_json);
    }

    #[test]
    fn baseline_run_is_alert_free_with_exemplar_paths() {
        let a = build_dashboard_artifacts(5, 120, 30);
        assert_eq!(a.alerts, 0, "a healthy baseline must not page anyone");
        let trace: Value = serde_json::from_str(&a.trace_json).unwrap();
        let cp = trace["critical_path"].as_array().unwrap();
        eprintln!("critical_path panel: {cp:#?}");
        let labels: Vec<_> = cp.iter().map(|e| e["label"].as_str().unwrap()).collect();
        assert_eq!(labels, ["p50", "p99", "max"]);
        for e in cp {
            assert!(e["path"].as_str().is_some(), "exemplar has a critical path");
            assert!(e["trace"].as_str().unwrap().len() == 16);
        }
        assert!(!trace["traceEvents"].as_array().unwrap().is_empty());
        assert!(trace["flamegraph"].as_str().unwrap().contains("scserve"));
        let layers: Value = serde_json::from_str(&a.layers_json).unwrap();
        assert!(layers["alerts"]["compliance"].as_array().unwrap().len() == 3);
    }

    #[test]
    fn profile_panel_ranks_kernels_with_rates() {
        let a = build_dashboard_artifacts(5, 120, 30);
        let layers: Value = serde_json::from_str(&a.layers_json).unwrap();
        let panel = layers["profile"].as_array().unwrap();
        assert!(!panel.is_empty() && panel.len() <= 10);
        let kernels: Vec<_> = panel
            .iter()
            .map(|e| e["kernel"].as_str().unwrap())
            .collect();
        assert!(kernels.iter().any(|k| k.starts_with("compute/kmeans/")));
        assert!(kernels.iter().any(|k| k.starts_with("fog/")));
        for e in panel {
            assert!(e["gflops_per_s"].as_str().is_some());
        }
        assert!(a.metrics_prom.contains("smartcity_prof_kernel_flops_total"));
        let trace: Value = serde_json::from_str(&a.trace_json).unwrap();
        let folded = trace["work_flamegraph"].as_str().unwrap();
        assert!(folded.contains("compute;kmeans;assign "));
    }

    #[test]
    fn serving_metrics_reach_the_registry() {
        let a = build_dashboard_artifacts(5, 120, 30);
        assert!(
            a.metrics_prom.contains("scserve_requests_total"),
            "serving metrics must land in the shared registry"
        );
        assert!(a.metrics_prom.contains("scserve_cache_hit_total"));
        assert!(a.layers_json.contains("\"serving\""));
    }
}
