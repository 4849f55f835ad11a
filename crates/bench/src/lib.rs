//! Shared helpers for the experiment benches.
//!
//! Every bench in `benches/` follows the same pattern: print the
//! paper-shaped table/series once (the "figure regeneration"), then let
//! Criterion measure the representative kernel. The printed rows are what
//! `EXPERIMENTS.md` records.
//!
//! On top of the printing helpers this crate hosts the *perf observatory*:
//!
//! * [`quick`] — the quick-mode switch. `SCBENCH_QUICK=1` shrinks every
//!   experiment.
//! * [`BenchJson`] — a schema-versioned `BENCH_<name>.json` emitter. Each
//!   bench records its deterministic outputs (counts, rates derived from
//!   the simulated clock) and its measured wall-clock metrics, plus an
//!   optional per-kernel profile table from [`scprof`].
//! * [`gate`] — the comparison logic behind the `perf_gate` binary:
//!   deterministic fields must match a committed baseline exactly, measured
//!   fields are held to direction-aware tolerance bands.

use serde_json::{json, Map, Value};
use std::path::PathBuf;

/// Schema version stamped into every `BENCH_<name>.json`.
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// Env var that shrinks every experiment to a fast smoke-sized run.
pub const QUICK_ENV: &str = "SCBENCH_QUICK";

/// Env var overriding the output directory for `BENCH_<name>.json` files.
pub const JSON_DIR_ENV: &str = "SCBENCH_JSON_DIR";

/// Env var multiplying time-like measured metrics, used by the perf-gate
/// self-test to prove the gate trips on an injected slowdown.
pub const SLOWDOWN_ENV: &str = "SCPROF_TEST_SLOWDOWN";

/// Prints an experiment header.
pub fn header(id: &str, anchor: &str, description: &str) {
    println!("\n================================================================");
    println!("{id} — {anchor}");
    println!("{description}");
    println!("================================================================");
}

/// Prints a table of rows with a column header line.
pub fn table(columns: &[&str], rows: &[Vec<String>]) {
    let widths: Vec<usize> = columns
        .iter()
        .enumerate()
        .map(|(i, c)| {
            rows.iter()
                .map(|r| r.get(i).map_or(0, String::len))
                .chain(std::iter::once(c.len()))
                .max()
                .unwrap_or(c.len())
        })
        .collect();
    let fmt_row = |cells: Vec<String>| {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(columns.iter().map(|s| s.to_string()).collect())
    );
    for r in rows {
        println!("{}", fmt_row(r.clone()));
    }
}

/// Formats a float to 3 decimal places.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float to 1 decimal place.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Whether `SCBENCH_QUICK` is set: every experiment shrinks to its
/// CI-sized smoke run.
pub fn quick() -> bool {
    std::env::var_os(QUICK_ENV).is_some()
}

/// Slowdown factor injected by the perf-gate self-test (default 1.0).
pub fn test_slowdown() -> f64 {
    std::env::var(SLOWDOWN_ENV)
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|v| v.is_finite() && *v > 0.0)
        .unwrap_or(1.0)
}

/// Directory where `BENCH_<name>.json` files are written.
pub fn json_dir() -> PathBuf {
    match std::env::var_os(JSON_DIR_ENV) {
        Some(dir) => PathBuf::from(dir),
        None => PathBuf::from("target/bench-json"),
    }
}

/// Direction of a measured metric, inferred from its name suffix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricDirection {
    /// Time-like (`_ms`, `_s`, `_us`, `_ns`): smaller is better.
    LowerIsBetter,
    /// Throughput-like (`_per_s`, `_rps`, `_gflops`): larger is better.
    HigherIsBetter,
    /// Unknown suffix: held to the band in both directions.
    Unknown,
}

/// Classifies a measured metric name into a comparison direction.
pub fn metric_direction(name: &str) -> MetricDirection {
    if name.ends_with("_per_s") || name.ends_with("_rps") || name.ends_with("_gflops") {
        MetricDirection::HigherIsBetter
    } else if name.ends_with("_ms")
        || name.ends_with("_us")
        || name.ends_with("_ns")
        || name.ends_with("_s")
        || name.ends_with("_secs")
    {
        MetricDirection::LowerIsBetter
    } else {
        MetricDirection::Unknown
    }
}

/// Builder for a schema-versioned `BENCH_<name>.json` artifact.
///
/// Deterministic metrics are exact-compared by the perf gate and must be
/// byte-identical for identical seeds at any `SCPAR_THREADS`. Measured
/// metrics carry wall-clock noise and are compared with tolerance bands
/// (or skipped entirely with `perf_gate --skip-measured`).
pub struct BenchJson {
    name: String,
    quick: bool,
    deterministic: Map<String, Value>,
    measured: Map<String, Value>,
    profile: Option<Value>,
}

impl BenchJson {
    /// Starts a report for the experiment `name` (e.g. `"e15"`).
    pub fn new(name: &str, quick: bool) -> Self {
        Self {
            name: name.to_string(),
            quick,
            deterministic: Map::new(),
            measured: Map::new(),
            profile: None,
        }
    }

    /// Records a deterministic (exact-compared) metric.
    pub fn det(&mut self, key: &str, value: Value) -> &mut Self {
        self.deterministic.insert(key.to_string(), value);
        self
    }

    /// Records a deterministic integer metric.
    pub fn det_u(&mut self, key: &str, value: u64) -> &mut Self {
        self.det(key, json!(value))
    }

    /// Records a deterministic float, rounded to 6 decimals so the JSON
    /// text is stable across formatting quirks.
    pub fn det_f(&mut self, key: &str, value: f64) -> &mut Self {
        let rounded = (value * 1e6).round() / 1e6;
        self.deterministic.insert(key.to_string(), json!(rounded));
        self
    }

    /// Records a measured (tolerance-compared) metric. Time-like metrics
    /// are scaled by [`test_slowdown`] at emission so the gate self-test
    /// can inject a regression without touching the kernels.
    pub fn measured(&mut self, key: &str, value: f64) -> &mut Self {
        let slow = test_slowdown();
        let v = match metric_direction(key) {
            MetricDirection::LowerIsBetter => value * slow,
            MetricDirection::HigherIsBetter => value / slow,
            MetricDirection::Unknown => value,
        };
        let rounded = (v * 1e6).round() / 1e6;
        self.measured.insert(key.to_string(), json!(rounded));
        self
    }

    /// Attaches a per-kernel profile table from an [`scprof`] report.
    /// `elapsed_s` is the (simulated or measured) window used for rates.
    pub fn profile(&mut self, report: &scprof::ProfileReport, elapsed_s: f64) -> &mut Self {
        let kernels: Vec<Value> = report
            .top_by_cost(usize::MAX)
            .iter()
            .map(|k| {
                json!({
                    "name": k.name,
                    "flops": k.work.flops,
                    "bytes": k.work.bytes,
                    "items": k.work.items,
                    "pct_cost": format!("{:.2}", report.pct_cost(k)),
                    "gflops_per_s": format!("{:.6}", k.gflops_per_s(elapsed_s)),
                })
            })
            .collect();
        self.profile = Some(json!({
            "elapsed_s": format!("{elapsed_s:.6}"),
            "kernels": kernels,
        }));
        self
    }

    /// Serializes the report to its JSON document.
    pub fn to_value(&self) -> Value {
        let threads = std::env::var("SCPAR_THREADS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get() as u64));
        let git_rev = git_rev();
        let mut doc = Map::new();
        doc.insert("schema_version".into(), json!(BENCH_SCHEMA_VERSION));
        doc.insert("name".into(), json!(self.name));
        doc.insert(
            "env".into(),
            json!({
                "threads": threads,
                "quick": self.quick,
                "git_rev": git_rev,
            }),
        );
        doc.insert(
            "deterministic".into(),
            Value::Object(self.deterministic.clone()),
        );
        doc.insert("measured".into(), Value::Object(self.measured.clone()));
        if let Some(profile) = &self.profile {
            doc.insert("profile".into(), profile.clone());
        }
        Value::Object(doc)
    }

    /// Writes `BENCH_<name>.json` into [`json_dir`] and returns the path.
    /// Failures are printed, not fatal: a bench must never die because the
    /// observatory directory is read-only.
    pub fn write(&self) -> Option<PathBuf> {
        let dir = json_dir();
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("scbench: cannot create {}: {e}", dir.display());
            return None;
        }
        let path = dir.join(format!("BENCH_{}.json", self.name));
        let text = serde_json::to_string_pretty(&self.to_value()).unwrap_or_default();
        match std::fs::write(&path, text + "\n") {
            Ok(()) => {
                println!("bench-json: wrote {}", path.display());
                Some(path)
            }
            Err(e) => {
                eprintln!("scbench: cannot write {}: {e}", path.display());
                None
            }
        }
    }
}

/// Best-effort short git revision for the env fingerprint.
pub fn git_rev() -> String {
    if let Ok(rev) = std::env::var("SCBENCH_GIT_REV") {
        return rev;
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

pub mod gate {
    //! Baseline comparison used by the `perf_gate` binary.
    //!
    //! Deterministic fields must match the committed baseline exactly;
    //! measured fields are held to a direction-aware relative tolerance.
    //! The injected-slowdown self-test sets [`super::SLOWDOWN_ENV`], which
    //! scales time-like measured metrics of the *fresh* side at load time,
    //! so gating a directory against itself deterministically trips.

    use super::{metric_direction, MetricDirection};
    use serde_json::Value;
    use std::path::Path;

    /// One divergence between baseline and fresh run.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Regression {
        pub bench: String,
        pub metric: String,
        pub detail: String,
    }

    /// Outcome of comparing one pair of BENCH documents.
    #[derive(Debug, Default)]
    pub struct Comparison {
        pub regressions: Vec<Regression>,
        pub checked_deterministic: usize,
        pub checked_measured: usize,
    }

    fn object<'v>(doc: &'v Value, key: &str) -> Option<&'v serde_json::Map<String, Value>> {
        doc.get(key).and_then(Value::as_object)
    }

    /// Compares one baseline document against one fresh document.
    ///
    /// `tolerance` is the allowed relative slack on measured metrics
    /// (0.5 = a time metric may be up to 1.5x the baseline). `slowdown`
    /// scales time-like fresh metrics before comparison (the self-test
    /// hook); pass 1.0 for a real gate run.
    pub fn compare_docs(
        bench: &str,
        baseline: &Value,
        fresh: &Value,
        tolerance: f64,
        skip_measured: bool,
        slowdown: f64,
    ) -> Comparison {
        let mut out = Comparison::default();
        let mut push = |metric: &str, detail: String| {
            out.regressions.push(Regression {
                bench: bench.to_string(),
                metric: metric.to_string(),
                detail,
            });
        };

        let base_schema = baseline.get("schema_version").and_then(Value::as_u64);
        let fresh_schema = fresh.get("schema_version").and_then(Value::as_u64);
        if base_schema != fresh_schema {
            push(
                "schema_version",
                format!("baseline {base_schema:?} vs fresh {fresh_schema:?}"),
            );
            return out;
        }

        let base_det = object(baseline, "deterministic");
        let fresh_det = object(fresh, "deterministic");
        if let (Some(base_det), Some(fresh_det)) = (base_det, fresh_det) {
            for (key, expect) in base_det {
                out.checked_deterministic += 1;
                match fresh_det.get(key) {
                    None => push(key, "missing in fresh run".to_string()),
                    Some(got) if got != expect => push(key, format!("expected {expect} got {got}")),
                    Some(_) => {}
                }
            }
        } else if base_det.is_some() {
            push("deterministic", "section missing in fresh run".to_string());
        }

        if !skip_measured {
            let base_meas = object(baseline, "measured");
            let fresh_meas = object(fresh, "measured");
            if let (Some(base_meas), Some(fresh_meas)) = (base_meas, fresh_meas) {
                for (key, expect) in base_meas {
                    let (Some(base_v), Some(fresh_v)) =
                        (expect.as_f64(), fresh_meas.get(key).and_then(Value::as_f64))
                    else {
                        push(key, "missing or non-numeric in fresh run".to_string());
                        continue;
                    };
                    out.checked_measured += 1;
                    let dir = metric_direction(key);
                    let fresh_v = match dir {
                        MetricDirection::LowerIsBetter => fresh_v * slowdown,
                        MetricDirection::HigherIsBetter => fresh_v / slowdown,
                        MetricDirection::Unknown => fresh_v,
                    };
                    if base_v == 0.0 {
                        continue; // no meaningful relative band
                    }
                    let ratio = fresh_v / base_v;
                    let bad = match dir {
                        MetricDirection::LowerIsBetter => ratio > 1.0 + tolerance,
                        MetricDirection::HigherIsBetter => ratio < 1.0 / (1.0 + tolerance),
                        MetricDirection::Unknown => {
                            ratio > 1.0 + tolerance || ratio < 1.0 / (1.0 + tolerance)
                        }
                    };
                    if bad {
                        push(
                            key,
                            format!(
                                "baseline {base_v:.6} vs fresh {fresh_v:.6} (ratio {ratio:.3}, tolerance {tolerance:.2})"
                            ),
                        );
                    }
                }
            } else if base_meas.is_some() {
                push("measured", "section missing in fresh run".to_string());
            }
        }
        out
    }

    /// Compares every `BENCH_*.json` in `baseline_dir` against its
    /// counterpart in `fresh_dir`. A baseline file with no fresh
    /// counterpart is a regression (the bench stopped emitting).
    pub fn compare_dirs(
        baseline_dir: &Path,
        fresh_dir: &Path,
        tolerance: f64,
        skip_measured: bool,
        slowdown: f64,
    ) -> std::io::Result<Comparison> {
        let mut out = Comparison::default();
        let mut names: Vec<String> = std::fs::read_dir(baseline_dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            .collect();
        names.sort();
        if names.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("no BENCH_*.json in {}", baseline_dir.display()),
            ));
        }
        for name in names {
            let bench = name
                .trim_start_matches("BENCH_")
                .trim_end_matches(".json")
                .to_string();
            let baseline: Value =
                serde_json::from_str(&std::fs::read_to_string(baseline_dir.join(&name))?)
                    .map_err(std::io::Error::other)?;
            let fresh_path = fresh_dir.join(&name);
            if !fresh_path.exists() {
                out.regressions.push(Regression {
                    bench,
                    metric: "<file>".to_string(),
                    detail: format!("fresh run did not emit {name}"),
                });
                continue;
            }
            let fresh: Value = serde_json::from_str(&std::fs::read_to_string(&fresh_path)?)
                .map_err(std::io::Error::other)?;
            let one = compare_docs(
                &bench,
                &baseline,
                &fresh,
                tolerance,
                skip_measured,
                slowdown,
            );
            out.regressions.extend(one.regressions);
            out.checked_deterministic += one.checked_deterministic;
            out.checked_measured += one.checked_measured;
        }
        Ok(out)
    }
}

/// Re-exported for benches that build profile tables.
pub use scprof::{ProfileReport, Profiler};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(f1(1.26), "1.3");
    }

    #[test]
    fn table_does_not_panic_on_ragged_rows() {
        table(
            &["a", "b"],
            &[vec!["1".into()], vec!["22".into(), "333".into()]],
        );
    }

    #[test]
    fn metric_directions_follow_suffix() {
        assert_eq!(metric_direction("wall_ms"), MetricDirection::LowerIsBetter);
        assert_eq!(
            metric_direction("elapsed_s"),
            MetricDirection::LowerIsBetter
        );
        assert_eq!(
            metric_direction("throughput_per_s"),
            MetricDirection::HigherIsBetter
        );
        assert_eq!(metric_direction("accuracy"), MetricDirection::Unknown);
    }

    #[test]
    fn bench_json_document_shape() {
        let mut b = BenchJson::new("e99", true);
        b.det_u("items", 42).det_f("ratio", 0.123456789);
        b.measured("wall_ms", 12.5);
        let doc = b.to_value();
        assert_eq!(doc["schema_version"], json!(BENCH_SCHEMA_VERSION));
        assert_eq!(doc["name"], json!("e99"));
        assert_eq!(doc["deterministic"]["items"], json!(42));
        assert_eq!(doc["deterministic"]["ratio"], json!(0.123457));
        assert_eq!(doc["measured"]["wall_ms"], json!(12.5));
        assert!(doc["env"].get("threads").is_some());
        assert!(doc["env"].get("git_rev").is_some());
    }

    #[test]
    fn gate_passes_identical_and_trips_on_slowdown() {
        let mut b = BenchJson::new("e99", true);
        b.det_u("items", 42);
        b.measured("wall_ms", 10.0);
        let doc = b.to_value();
        let same = gate::compare_docs("e99", &doc, &doc, 0.5, false, 1.0);
        assert!(same.regressions.is_empty(), "{:?}", same.regressions);
        assert_eq!(same.checked_deterministic, 1);
        assert_eq!(same.checked_measured, 1);

        // Injected 2x slowdown on the fresh side must trip the band.
        let slow = gate::compare_docs("e99", &doc, &doc, 0.5, false, 2.0);
        assert_eq!(slow.regressions.len(), 1);
        assert!(slow.regressions[0].metric == "wall_ms");

        // ... unless measured comparison is skipped.
        let skipped = gate::compare_docs("e99", &doc, &doc, 0.5, true, 2.0);
        assert!(skipped.regressions.is_empty());
    }

    #[test]
    fn gate_trips_on_deterministic_drift() {
        let mut a = BenchJson::new("e99", true);
        a.det_u("items", 42);
        let mut b = BenchJson::new("e99", true);
        b.det_u("items", 43);
        let cmp = gate::compare_docs("e99", &a.to_value(), &b.to_value(), 0.5, true, 1.0);
        assert_eq!(cmp.regressions.len(), 1);
        assert_eq!(cmp.regressions[0].metric, "items");
    }
}
