//! Shared helpers for the experiment benches.
//!
//! Every target in `benches/` has one contract: regenerate its paper-shaped
//! table/series (the printed rows are what `EXPERIMENTS.md` records) and
//! write the seeded, sim-time numbers behind it to `BENCH_<name>.json`;
//! the `perf_gate` binary compares those numbers exactly against the
//! committed baseline. Nothing here records wall-clock: tables that are
//! wall-clock by nature time themselves with `Instant` and are printed
//! only, and the wall-clock numbers a PR is judged by are citybench's
//! (`BENCHMARK.json`), measured on a fingerprinted host against the parent
//! commit.
//!
//! * [`quick`] — the quick-mode switch. `SCBENCH_QUICK=1` shrinks every
//!   experiment.
//! * [`BenchJson`] — the schema-versioned `BENCH_<name>.json` emitter: an
//!   `env` fingerprint and the `deterministic` outputs (counts, rates
//!   derived from the simulated clock).
//! * [`gate`] — the comparison logic behind `perf_gate`: baseline and fresh
//!   run must hold the same files, the same keys and the same values.

use serde_json::{json, Map, Value};
use std::path::PathBuf;

/// Schema version stamped into every `BENCH_<name>.json`.
pub const BENCH_SCHEMA_VERSION: u64 = 2;

/// Env var that shrinks every experiment to a fast smoke-sized run.
pub const QUICK_ENV: &str = "SCBENCH_QUICK";

/// Env var overriding the output directory for `BENCH_<name>.json` files.
pub const JSON_DIR_ENV: &str = "SCBENCH_JSON_DIR";

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

/// Directory where `BENCH_<name>.json` files are written.
pub fn json_dir() -> PathBuf {
    match std::env::var_os(JSON_DIR_ENV) {
        Some(dir) => PathBuf::from(dir),
        None => PathBuf::from("target/bench-json"),
    }
}

/// Builder for a schema-versioned `BENCH_<name>.json` artifact.
///
/// Every metric is exact-compared by the perf gate and must be
/// byte-identical for identical seeds at any `SCPAR_THREADS` and
/// `SCSIMD_FORCE`.
pub struct BenchJson {
    name: String,
    quick: bool,
    deterministic: Map<String, Value>,
}

impl BenchJson {
    /// Starts a report for the experiment `name` (e.g. `"e15"`).
    pub fn new(name: &str, quick: bool) -> Self {
        Self {
            name: name.to_string(),
            quick,
            deterministic: Map::new(),
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
    //! The comparison is exact and looks both ways: the two directories
    //! must hold the same `BENCH_*.json` files, each pair the same
    //! `deterministic` keys, each key the same value. A key or file only
    //! the fresh run has is as much a regression as one it lost — until
    //! the baseline is refreshed nothing would gate it.

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
    }

    impl Comparison {
        fn push(&mut self, bench: &str, metric: &str, detail: impl Into<String>) {
            self.regressions.push(Regression {
                bench: bench.to_string(),
                metric: metric.to_string(),
                detail: detail.into(),
            });
        }
    }

    fn deterministic(doc: &Value) -> Option<&serde_json::Map<String, Value>> {
        doc.get("deterministic").and_then(Value::as_object)
    }

    /// What a key or file only the fresh side has is reported as.
    const NOT_IN_BASELINE: &str = "not in baseline — refresh it";

    /// Compares one baseline document against one fresh document.
    pub fn compare_docs(bench: &str, baseline: &Value, fresh: &Value) -> Comparison {
        let mut out = Comparison::default();

        let base_schema = baseline.get("schema_version").and_then(Value::as_u64);
        let fresh_schema = fresh.get("schema_version").and_then(Value::as_u64);
        if base_schema != fresh_schema {
            out.push(
                bench,
                "schema_version",
                format!("baseline {base_schema:?} vs fresh {fresh_schema:?}"),
            );
            return out;
        }

        let (Some(base_det), Some(fresh_det)) = (deterministic(baseline), deterministic(fresh))
        else {
            let detail = match deterministic(baseline) {
                None => "baseline has no deterministic section",
                Some(_) => "section missing in fresh run",
            };
            out.push(bench, "deterministic", detail);
            return out;
        };
        for (key, expect) in base_det {
            out.checked_deterministic += 1;
            match fresh_det.get(key) {
                None => out.push(bench, key, "missing in fresh run"),
                Some(got) if got != expect => {
                    out.push(bench, key, format!("expected {expect} got {got}"))
                }
                Some(_) => {}
            }
        }
        for key in fresh_det.keys().filter(|k| !base_det.contains_key(k)) {
            out.push(bench, key, NOT_IN_BASELINE);
        }
        out
    }

    /// Sorted `BENCH_*.json` file names in `dir`.
    fn bench_files(dir: &Path) -> std::io::Result<Vec<String>> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .map_err(|e| std::io::Error::new(e.kind(), format!("{}: {e}", dir.display())))?
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            .collect();
        names.sort();
        Ok(names)
    }

    fn read_doc(path: &Path) -> std::io::Result<Value> {
        serde_json::from_str(&std::fs::read_to_string(path)?).map_err(std::io::Error::other)
    }

    /// Compares every `BENCH_*.json` in `baseline_dir` against its
    /// counterpart in `fresh_dir`. A file only one side has is a
    /// regression: the bench stopped emitting, or started and nobody
    /// refreshed the baseline.
    pub fn compare_dirs(baseline_dir: &Path, fresh_dir: &Path) -> std::io::Result<Comparison> {
        let mut out = Comparison::default();
        let base_names = bench_files(baseline_dir)?;
        if base_names.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("no BENCH_*.json in {}", baseline_dir.display()),
            ));
        }
        let fresh_names = bench_files(fresh_dir)?;
        let bench_of = |name: &str| {
            name.trim_start_matches("BENCH_")
                .trim_end_matches(".json")
                .to_string()
        };
        for name in &base_names {
            let bench = bench_of(name);
            if !fresh_names.contains(name) {
                out.push(&bench, "<file>", format!("fresh run did not emit {name}"));
                continue;
            }
            let baseline = read_doc(&baseline_dir.join(name))?;
            let fresh = read_doc(&fresh_dir.join(name))?;
            let one = compare_docs(&bench, &baseline, &fresh);
            out.regressions.extend(one.regressions);
            out.checked_deterministic += one.checked_deterministic;
        }
        for name in fresh_names.iter().filter(|n| !base_names.contains(n)) {
            out.push(&bench_of(name), "<file>", NOT_IN_BASELINE);
        }
        Ok(out)
    }
}

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
    fn bench_json_document_shape() {
        let mut b = BenchJson::new("e99", true);
        b.det_u("items", 42).det_f("ratio", 0.123456789);
        let doc = b.to_value();
        assert_eq!(doc["schema_version"], json!(BENCH_SCHEMA_VERSION));
        assert_eq!(doc["name"], json!("e99"));
        assert_eq!(doc["deterministic"]["items"], json!(42));
        assert_eq!(doc["deterministic"]["ratio"], json!(0.123457));
        assert!(doc.get("measured").is_none());
        assert!(doc["env"].get("threads").is_some());
        assert!(doc["env"].get("git_rev").is_some());
    }

    fn doc_with(items: &[(&str, u64)]) -> Value {
        let mut b = BenchJson::new("e99", true);
        for (key, value) in items {
            b.det_u(key, *value);
        }
        b.to_value()
    }

    #[test]
    fn gate_passes_identical() {
        let doc = doc_with(&[("items", 42)]);
        let same = gate::compare_docs("e99", &doc, &doc);
        assert!(same.regressions.is_empty(), "{:?}", same.regressions);
        assert_eq!(same.checked_deterministic, 1);
    }

    #[test]
    fn gate_trips_on_deterministic_drift() {
        let cmp = gate::compare_docs(
            "e99",
            &doc_with(&[("items", 42)]),
            &doc_with(&[("items", 43)]),
        );
        assert_eq!(cmp.regressions.len(), 1);
        assert_eq!(cmp.regressions[0].metric, "items");
    }

    #[test]
    fn gate_trips_on_a_key_only_the_fresh_run_has() {
        let cmp = gate::compare_docs(
            "e99",
            &doc_with(&[("items", 42)]),
            &doc_with(&[("items", 42), ("extra", 7)]),
        );
        assert_eq!(cmp.regressions.len(), 1, "{:?}", cmp.regressions);
        assert_eq!(cmp.regressions[0].metric, "extra");
        assert!(cmp.regressions[0].detail.contains("not in baseline"));
    }

    #[test]
    fn gate_trips_on_a_baseline_without_a_deterministic_section() {
        let baseline = json!({ "schema_version": BENCH_SCHEMA_VERSION, "name": "e99" });
        let cmp = gate::compare_docs("e99", &baseline, &doc_with(&[("items", 42)]));
        assert_eq!(cmp.regressions.len(), 1, "{:?}", cmp.regressions);
        assert!(cmp.regressions[0]
            .detail
            .contains("baseline has no deterministic section"));
    }

    #[test]
    fn gate_trips_on_a_file_only_the_fresh_run_has() {
        let root = std::env::temp_dir().join(format!("scbench-gate-{}", std::process::id()));
        let (baseline, fresh) = (root.join("baseline"), root.join("fresh"));
        let text = doc_with(&[("items", 42)]).to_string();
        for dir in [&baseline, &fresh] {
            std::fs::create_dir_all(dir).unwrap();
            std::fs::write(dir.join("BENCH_e99.json"), &text).unwrap();
        }
        std::fs::write(fresh.join("BENCH_e100.json"), &text).unwrap();
        let cmp = gate::compare_dirs(&baseline, &fresh).unwrap();
        std::fs::remove_dir_all(&root).unwrap();
        assert_eq!(cmp.checked_deterministic, 1);
        assert_eq!(cmp.regressions.len(), 1, "{:?}", cmp.regressions);
        assert_eq!(cmp.regressions[0].bench, "e100");
        assert!(cmp.regressions[0].detail.contains("not in baseline"));
    }
}
