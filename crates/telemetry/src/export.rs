//! Exporters: deterministic JSON snapshots, Prometheus text format, and a
//! JSON trace dump.
//!
//! Determinism contract: the registry iterates metrics in sorted-name order
//! and traces sort by sim time, so two runs with identical seeds produce
//! **byte-identical** output from every function here. Floats are printed
//! with Rust's shortest-roundtrip formatting, which is deterministic.

use std::fmt::Write as _;

use serde_json::{json, Map, Value};

use crate::metrics::{HistogramMode, HistogramSnapshot, Metric, MetricsRegistry};
use crate::trace::{Telemetry, TraceRecord};

/// Quantiles quoted by both exporters for histograms.
const QUANTILES: [(f64, &str); 3] = [(0.50, "0.5"), (0.95, "0.95"), (0.99, "0.99")];

fn f64_json(v: f64) -> Value {
    // The shim serializes non-finite floats as null; make that explicit so
    // empty-histogram min/max export as null rather than NaN surprises.
    if v.is_finite() {
        json!(v)
    } else {
        Value::Null
    }
}

fn histogram_json(snap: &HistogramSnapshot) -> Value {
    let mut m = Map::new();
    m.insert("type".to_string(), json!("histogram"));
    m.insert(
        "mode".to_string(),
        json!(match snap.mode {
            HistogramMode::Bucketed => "bucketed",
            HistogramMode::Exact => "exact",
        }),
    );
    m.insert("count".to_string(), json!(snap.count));
    m.insert("sum".to_string(), f64_json(snap.sum));
    m.insert("min".to_string(), f64_json(snap.min));
    m.insert("max".to_string(), f64_json(snap.max));
    m.insert(
        "mean".to_string(),
        snap.mean().map(f64_json).unwrap_or(Value::Null),
    );
    for (p, label) in QUANTILES {
        m.insert(
            format!("p{}", label.trim_start_matches("0.")),
            snap.percentile(p).map(f64_json).unwrap_or(Value::Null),
        );
    }
    if snap.mode == HistogramMode::Bucketed {
        // Only non-empty buckets: keeps snapshots compact and still exact.
        let buckets: Vec<Value> = snap
            .counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| {
                let le = if i < snap.bounds.len() {
                    f64_json(snap.bounds[i])
                } else {
                    json!("+Inf")
                };
                json!({"le": le, "count": c})
            })
            .collect();
        m.insert("buckets".to_string(), Value::Array(buckets));
    }
    Value::Object(m)
}

/// Deterministic JSON snapshot of every metric in the registry.
///
/// Shape: `{"metrics": {"<name>": {"type": ..., "help": ..., ...}}}` with
/// names in sorted order (the registry is a BTree map) — identical seeds
/// produce byte-identical serialized snapshots.
pub fn json_snapshot(registry: &MetricsRegistry) -> Value {
    let mut metrics = Map::new();
    registry.for_each(|name, entry| {
        let mut body = match &entry.metric {
            Metric::Counter(c) => {
                let mut m = Map::new();
                m.insert("type".to_string(), json!("counter"));
                m.insert("value".to_string(), json!(c.get()));
                m
            }
            Metric::Gauge(g) => {
                let mut m = Map::new();
                m.insert("type".to_string(), json!("gauge"));
                m.insert("value".to_string(), json!(g.get()));
                m
            }
            Metric::Histogram(h) => match histogram_json(&h.snapshot()) {
                Value::Object(m) => m,
                _ => unreachable!("histogram_json returns an object"),
            },
        };
        body.insert("help".to_string(), json!(entry.help.clone()));
        metrics.insert(name.to_string(), Value::Object(body));
    });
    json!({ "metrics": Value::Object(metrics) })
}

fn prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

fn prom_histogram(out: &mut String, name: &str, snap: &HistogramSnapshot) {
    match snap.mode {
        HistogramMode::Bucketed => {
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cumulative = 0u64;
            for (i, &c) in snap.counts.iter().enumerate() {
                cumulative += c;
                if i < snap.bounds.len() {
                    // Skip leading/trailing all-empty buckets: emit a bucket
                    // line once it carries data, then stop after the rank is
                    // exhausted. Deterministic and much shorter than all 61.
                    if cumulative == 0 {
                        continue;
                    }
                    let _ = writeln!(
                        out,
                        "{name}_bucket{{le=\"{}\"}} {cumulative}",
                        prom_f64(snap.bounds[i])
                    );
                    if cumulative == snap.count {
                        break;
                    }
                }
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", snap.count);
            let _ = writeln!(out, "{name}_sum {}", prom_f64(snap.sum));
            let _ = writeln!(out, "{name}_count {}", snap.count);
        }
        HistogramMode::Exact => {
            let _ = writeln!(out, "# TYPE {name} summary");
            for (p, label) in QUANTILES {
                if let Some(v) = snap.percentile(p) {
                    let _ = writeln!(out, "{name}{{quantile=\"{label}\"}} {}", prom_f64(v));
                }
            }
            let _ = writeln!(out, "{name}_sum {}", prom_f64(snap.sum));
            let _ = writeln!(out, "{name}_count {}", snap.count);
        }
    }
}

/// Unit of a metric, inferred from its name suffix (OpenMetrics
/// convention, `_total` stripped first for counters). Returns `None`
/// when the name carries no recognised unit.
fn metric_unit(name: &str) -> Option<&'static str> {
    let base = name.strip_suffix("_total").unwrap_or(name);
    if base.ends_with("_seconds") {
        Some("seconds")
    } else if base.ends_with("_ms") || base.ends_with("_millis") {
        Some("milliseconds")
    } else if base.ends_with("_us") || base.ends_with("_micros") {
        Some("microseconds")
    } else if base.ends_with("_bytes") {
        Some("bytes")
    } else if base.ends_with("_ratio") || base.ends_with("_fraction") {
        Some("ratio")
    } else {
        None
    }
}

/// Prometheus text-exposition dump of the registry (`# HELP`/`# TYPE`
/// preambles, `# UNIT` lines for metrics whose names carry a recognised
/// unit suffix, `_bucket`/`_sum`/`_count` series for histograms,
/// summaries with `quantile` labels for exact histograms).
/// Deterministic: metrics are emitted in sorted-name order.
pub fn prometheus_text(registry: &MetricsRegistry) -> String {
    let mut out = String::new();
    registry.for_each(|name, entry| {
        if !entry.help.is_empty() {
            let _ = writeln!(out, "# HELP {name} {}", entry.help);
        }
        if let Some(unit) = metric_unit(name) {
            let _ = writeln!(out, "# UNIT {name} {unit}");
        }
        match &entry.metric {
            Metric::Counter(c) => {
                let _ = writeln!(out, "# TYPE {name} counter");
                let _ = writeln!(out, "{name} {}", c.get());
            }
            Metric::Gauge(g) => {
                let _ = writeln!(out, "# TYPE {name} gauge");
                let _ = writeln!(out, "{name} {}", g.get());
            }
            Metric::Histogram(h) => prom_histogram(&mut out, name, &h.snapshot()),
        }
    });
    out
}

/// JSON dump of the recorded trace, sorted deterministically by
/// `(start, target, name)` with span ids as the final tie-break — never by
/// recording order, which may vary under concurrency. Timestamps are
/// integer microseconds of simulated time; spans carrying a causal
/// [`crate::SpanContext`] export `trace`/`span`/`parent` ids as fixed-width
/// hex strings (JSON numbers would lose `u64` precision past 2^53).
pub fn trace_json(telemetry: &Telemetry) -> Value {
    let span_key = |r: &TraceRecord| match r {
        TraceRecord::Span(s) => s.ctx.map(|c| c.span.0).unwrap_or(0),
        TraceRecord::Event(_) => u64::MAX,
    };
    let mut trace = telemetry.trace();
    trace.sort_by(|a, b| {
        a.at()
            .cmp(&b.at())
            .then_with(|| a.target().cmp(b.target()))
            .then_with(|| a.name().cmp(b.name()))
            .then_with(|| span_key(a).cmp(&span_key(b)))
    });
    let records: Vec<Value> = trace
        .iter()
        .map(|r| match r {
            TraceRecord::Span(s) => {
                let mut m = Map::new();
                m.insert("kind".to_string(), json!("span"));
                m.insert("target".to_string(), json!(s.target.clone()));
                m.insert("name".to_string(), json!(s.name.clone()));
                m.insert("start_us".to_string(), json!(s.start.as_micros()));
                m.insert("end_us".to_string(), json!(s.end.as_micros()));
                if let Some(ctx) = s.ctx {
                    m.insert("trace".to_string(), json!(ctx.trace.as_hex()));
                    m.insert("span".to_string(), json!(ctx.span.as_hex()));
                    m.insert(
                        "parent".to_string(),
                        ctx.parent.map(|p| json!(p.as_hex())).unwrap_or(Value::Null),
                    );
                }
                Value::Object(m)
            }
            TraceRecord::Event(e) => json!({
                "kind": "event",
                "target": e.target.clone(),
                "name": e.name.clone(),
                "at_us": e.at.as_micros(),
                "detail": e.detail.clone(),
            }),
        })
        .collect();
    json!({ "trace": Value::Array(records) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simclock::SimTime;

    fn demo_telemetry() -> std::sync::Arc<Telemetry> {
        let t = Telemetry::shared();
        let h = t.handle();
        h.counter_add("x_jobs_total", "jobs", 7);
        h.gauge_set("x_lag", "lag", -2);
        for i in 1..=100 {
            h.observe("x_latency_seconds", "latency", i as f64 * 1e-3);
        }
        for v in [0.1, 0.2, 0.3] {
            h.observe_exact("x_report_seconds", "report latency", v);
        }
        h.span("demo", "job", SimTime::ZERO, SimTime::from_millis(5));
        h.event("demo", "done", SimTime::from_millis(5), "ok");
        t
    }

    #[test]
    fn prometheus_has_preambles_and_series() {
        let t = demo_telemetry();
        let text = prometheus_text(t.registry());
        assert!(text.contains("# HELP x_jobs_total jobs"));
        assert!(text.contains("# TYPE x_jobs_total counter"));
        assert!(text.contains("x_jobs_total 7"));
        assert!(text.contains("# TYPE x_lag gauge"));
        assert!(text.contains("x_lag -2"));
        assert!(text.contains("# TYPE x_latency_seconds histogram"));
        assert!(text.contains("x_latency_seconds_bucket{le=\"+Inf\"} 100"));
        assert!(text.contains("x_latency_seconds_count 100"));
        assert!(text.contains("# TYPE x_report_seconds summary"));
        assert!(text.contains("x_report_seconds{quantile=\"0.5\"} 0.2"));
    }

    #[test]
    fn unit_lines_follow_the_name_suffix() {
        assert_eq!(metric_unit("x_latency_seconds"), Some("seconds"));
        assert_eq!(metric_unit("x_elapsed_seconds_total"), Some("seconds"));
        assert_eq!(metric_unit("x_p99_ms"), Some("milliseconds"));
        assert_eq!(metric_unit("x_wait_us"), Some("microseconds"));
        assert_eq!(metric_unit("x_heap_bytes"), Some("bytes"));
        assert_eq!(metric_unit("x_shed_fraction"), Some("ratio"));
        assert_eq!(metric_unit("x_jobs_total"), None);
        assert_eq!(metric_unit("x_lag"), None);

        let t = demo_telemetry();
        let text = prometheus_text(t.registry());
        assert!(text.contains("# UNIT x_latency_seconds seconds"));
        assert!(text.contains("# UNIT x_report_seconds seconds"));
        assert!(
            !text.contains("# UNIT x_jobs_total"),
            "unitless names must not get a UNIT line"
        );
    }

    #[test]
    fn bucket_lines_are_cumulative() {
        let t = Telemetry::shared();
        let h = t.handle();
        h.observe("h_seconds", "h", 0.001);
        h.observe("h_seconds", "h", 0.002);
        let text = prometheus_text(t.registry());
        // The +Inf bucket always equals the total count.
        assert!(text.contains("h_seconds_bucket{le=\"+Inf\"} 2"));
    }

    #[test]
    fn json_snapshot_is_deterministic() {
        let a = serde_json::to_string(&json_snapshot(demo_telemetry().registry())).unwrap();
        let b = serde_json::to_string(&json_snapshot(demo_telemetry().registry())).unwrap();
        assert_eq!(a, b);
        assert!(a.contains("\"x_jobs_total\""));
        assert!(a.contains("\"type\":\"counter\""));
        assert!(a.contains("\"p95\""));
    }

    #[test]
    fn trace_json_orders_by_sim_time() {
        let t = demo_telemetry();
        let v = trace_json(&t);
        let trace = v.get("trace").and_then(|t| t.as_array()).unwrap();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0].get("kind").and_then(|k| k.as_str()), Some("span"));
        assert_eq!(trace[0].get("start_us").and_then(|k| k.as_u64()), Some(0));
        assert_eq!(trace[1].get("at_us").and_then(|k| k.as_u64()), Some(5000));
    }

    #[test]
    fn trace_json_exports_causal_ids_and_sorts_ties() {
        use crate::trace::{SpanContext, TraceId};
        let t = Telemetry::shared();
        let h = t.handle();
        let root = SpanContext::root(TraceId::derive(42, 1, 0));
        // Record children before the root: the export must still order by
        // (start, target, name), not recording order.
        h.span_in(
            "z",
            "child",
            SimTime::ZERO,
            SimTime::from_millis(1),
            root.child(0),
        );
        h.span_in("a", "root", SimTime::ZERO, SimTime::from_millis(2), root);
        let v = trace_json(&t);
        let trace = v.get("trace").and_then(|t| t.as_array()).unwrap();
        assert_eq!(trace[0].get("target").and_then(|t| t.as_str()), Some("a"));
        assert_eq!(
            trace[0].get("trace").and_then(|t| t.as_str()),
            Some(root.trace.as_hex().as_str())
        );
        assert_eq!(trace[0].get("parent"), Some(&Value::Null));
        assert_eq!(
            trace[1].get("parent").and_then(|p| p.as_str()),
            Some(root.span.as_hex().as_str())
        );
    }

    #[test]
    fn empty_registry_exports_cleanly() {
        let reg = MetricsRegistry::new();
        assert_eq!(prometheus_text(&reg), "");
        let v = json_snapshot(&reg);
        assert!(v.get("metrics").is_some());
    }
}
