//! The Prometheus text-format exporter.
//!
//! Determinism contract: the registry iterates metrics in sorted-name order,
//! so two runs with identical seeds produce **byte-identical** text. Floats
//! are printed with Rust's shortest-roundtrip formatting, which is
//! deterministic.

use std::fmt::Write as _;

use crate::metrics::{HistogramMode, HistogramSnapshot, Metric, MetricsRegistry};

/// Quantiles quoted for exact histograms.
const QUANTILES: [(f64, &str); 3] = [(0.50, "0.5"), (0.95, "0.95"), (0.99, "0.99")];

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Telemetry;

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
    fn empty_registry_exports_cleanly() {
        let reg = MetricsRegistry::new();
        assert_eq!(prometheus_text(&reg), "");
    }
}
