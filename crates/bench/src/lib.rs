//! The experiments E1–E19 and what they record.
//!
//! Every experiment has one contract: regenerate its paper-shaped
//! table/series (the printed rows are what `EXPERIMENTS.md` records) and
//! return the seeded, sim-time numbers behind it. `tests/bench_baseline.rs`
//! compares those numbers exactly against the committed
//! `tests/golden/bench_baseline/`; `benches/experiments.rs` writes them to
//! `BENCH_<name>.json`. Nothing here reads the wall clock: the tables that
//! are wall-clock by nature are `benches/experiments.rs`'s own, printed
//! only, and the wall-clock numbers a PR is judged by are citybench's
//! (`BENCHMARK.json`), measured on a fingerprinted host against the parent
//! commit.
//!
//! * [`exp`] — each experiment's seeded half, and [`exp::EXPERIMENTS`],
//!   the one list of them.
//! * [`BenchJson`] — the schema-versioned `BENCH_<name>.json` emitter: an
//!   `env` fingerprint and the `deterministic` outputs (counts, rates
//!   derived from the simulated clock).
//! * [`gate`] — the comparison: baseline and fresh run must hold the same
//!   experiments, the same keys and the same values.
//!
//! A binary that runs E14 installs `sctelemetry::CountingAlloc`, the
//! counter every allocation pin reads, as its `#[global_allocator]`.

use serde_json::{json, Map, Value};
use std::path::PathBuf;

pub mod exp;

/// Schema version stamped into every `BENCH_<name>.json`.
const BENCH_SCHEMA_VERSION: u64 = 2;

/// Env var that shrinks every experiment to a fast smoke-sized run.
const QUICK_ENV: &str = "SCBENCH_QUICK";

/// Env var overriding the output directory for `BENCH_<name>.json` files.
const JSON_DIR_ENV: &str = "SCBENCH_JSON_DIR";

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

/// Whether `SCBENCH_QUICK` is set: every experiment shrinks to the run
/// `tests/golden/bench_baseline/` pins.
pub fn quick() -> bool {
    std::env::var_os(QUICK_ENV).is_some()
}

/// Directory where `BENCH_<name>.json` files are written.
fn json_dir() -> PathBuf {
    match std::env::var_os(JSON_DIR_ENV) {
        Some(dir) => PathBuf::from(dir),
        None => PathBuf::from("target/bench-json"),
    }
}

/// Builder for a schema-versioned `BENCH_<name>.json` artifact.
///
/// Every metric is exact-compared against the baseline and must be
/// byte-identical for identical seeds at any `SCPAR_THREADS` and
/// `SCSIMD_FORCE`.
pub struct BenchJson {
    name: String,
    quick: bool,
    deterministic: Map<String, Value>,
    /// Files written next to the JSON: (file name, contents).
    attachments: Vec<(String, String)>,
}

impl BenchJson {
    /// Starts a report for the experiment `name` (e.g. `"e15"`).
    fn new(name: &str, quick: bool) -> Self {
        Self {
            name: name.to_string(),
            quick,
            deterministic: Map::new(),
            attachments: Vec::new(),
        }
    }

    /// Attaches a file that [`write`](Self::write) puts next to the JSON.
    fn attach(&mut self, file_name: &str, contents: String) -> &mut Self {
        self.attachments.push((file_name.to_string(), contents));
        self
    }

    /// Records a deterministic (exact-compared) metric.
    fn det(&mut self, key: &str, value: Value) -> &mut Self {
        self.deterministic.insert(key.to_string(), value);
        self
    }

    /// Records a deterministic integer metric.
    fn det_u(&mut self, key: &str, value: u64) -> &mut Self {
        self.det(key, json!(value))
    }

    /// Records a deterministic float, rounded to 6 decimals so the JSON
    /// text is stable across formatting quirks.
    fn det_f(&mut self, key: &str, value: f64) -> &mut Self {
        let rounded = (value * 1e6).round() / 1e6;
        self.deterministic.insert(key.to_string(), json!(rounded));
        self
    }

    /// Serializes the report to the JSON document the baseline comparison
    /// reads: its schema, its name and its seeded keys.
    pub fn to_value(&self) -> Value {
        let mut doc = Map::new();
        doc.insert("schema_version".into(), json!(BENCH_SCHEMA_VERSION));
        doc.insert("name".into(), json!(self.name));
        doc.insert(
            "deterministic".into(),
            Value::Object(self.deterministic.clone()),
        );
        Value::Object(doc)
    }

    /// Writes `BENCH_<name>.json` and the attached files into
    /// `SCBENCH_JSON_DIR` (default `target/bench-json`). Failures are
    /// printed, not fatal: a bench must never die because the observatory
    /// directory is read-only.
    pub fn write(&self) {
        self.write_to(&json_dir());
    }

    /// [`BenchJson::write`] into `dir`. The file also carries an `env`
    /// section (threads, quick size, git revision) for its reader; the
    /// comparison never reads it, so only a write runs `git`.
    fn write_to(&self, dir: &std::path::Path) {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("scbench: cannot create {}: {e}", dir.display());
            return;
        }
        let threads = std::env::var("SCPAR_THREADS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get() as u64));
        let Value::Object(mut doc) = self.to_value() else {
            unreachable!("to_value builds an object")
        };
        let env = json!({
            "threads": threads,
            "quick": self.quick,
            "git_rev": git_rev(),
        });
        doc.insert("env".into(), env);
        let text = serde_json::to_string_pretty(&Value::Object(doc)).unwrap_or_default();
        let json = (format!("BENCH_{}.json", self.name), text + "\n");
        for (name, contents) in std::iter::once(&json).chain(&self.attachments) {
            let path = dir.join(name);
            match std::fs::write(&path, contents) {
                Ok(()) => println!("bench-json: wrote {}", path.display()),
                Err(e) => eprintln!("scbench: cannot write {}: {e}", path.display()),
            }
        }
    }
}

/// Best-effort short git revision for the env fingerprint.
fn git_rev() -> String {
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
    //! The one comparison of a fresh run against the committed baseline.
    //!
    //! It is exact and looks both ways: the two documents must hold the
    //! same `deterministic` keys, each key the same value. A key only the
    //! fresh run has is as much a regression as one it lost — until the
    //! baseline is refreshed nothing would check it.

    use serde_json::Value;
    use std::path::Path;

    /// One divergence between baseline and fresh run.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Regression {
        pub bench: String,
        pub metric: String,
        pub detail: String,
    }

    impl std::fmt::Display for Regression {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(
                f,
                "BENCH_{}.json: {} — {}",
                self.bench, self.metric, self.detail
            )
        }
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

    /// Compares one baseline document against one fresh document.
    pub(super) fn compare_docs(bench: &str, baseline: &Value, fresh: &Value) -> Comparison {
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
            out.push(bench, key, "not in baseline — refresh it");
        }
        out
    }

    /// Compares a fresh run of experiment `bench` against
    /// `BENCH_<bench>.json` in `baseline_dir`. A file that cannot be read
    /// or parsed is a regression on the pseudo-key `<file>`.
    pub fn compare_file(baseline_dir: &Path, bench: &str, fresh: &Value) -> Comparison {
        let path = baseline_dir.join(format!("BENCH_{bench}.json"));
        let baseline = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| serde_json::from_str(&text).map_err(|e| e.to_string()));
        match baseline {
            Ok(baseline) => compare_docs(bench, &baseline, fresh),
            Err(e) => {
                let mut out = Comparison::default();
                out.push(bench, "<file>", format!("cannot read the baseline: {e}"));
                out
            }
        }
    }

    /// Compares the experiments a fresh run produces with the
    /// `BENCH_*.json` files in `baseline_dir`, both ways: an experiment
    /// without a file and a file no experiment produces are each a
    /// regression on `<file>`. A directory holding no `BENCH_*.json` is an
    /// error, not a pass.
    pub fn compare_names(baseline_dir: &Path, fresh: &[&str]) -> std::io::Result<Comparison> {
        let mut files: Vec<String> = std::fs::read_dir(baseline_dir)
            .map_err(|e| std::io::Error::new(e.kind(), format!("{}: {e}", baseline_dir.display())))?
            .filter_map(|e| e.ok())
            .filter_map(|e| {
                let name = e.file_name().to_string_lossy().into_owned();
                let bench = name.strip_prefix("BENCH_")?.strip_suffix(".json")?;
                Some(bench.to_string())
            })
            .collect();
        if files.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("no BENCH_*.json in {}", baseline_dir.display()),
            ));
        }
        files.sort();
        let mut out = Comparison::default();
        for bench in fresh.iter().filter(|b| !files.iter().any(|f| f == *b)) {
            out.push(bench, "<file>", "not in baseline — refresh it");
        }
        for bench in files.iter().filter(|f| !fresh.contains(&f.as_str())) {
            out.push(
                bench,
                "<file>",
                format!("fresh run did not emit BENCH_{bench}.json"),
            );
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
        assert!(doc.get("env").is_none(), "the comparison reads no env");
    }

    #[test]
    fn a_written_document_carries_its_env() {
        let dir = std::env::temp_dir().join(format!("scbench-env-{}", std::process::id()));
        let mut b = BenchJson::new("e99", true);
        b.det_u("items", 42);
        b.write_to(&dir);
        let text = std::fs::read_to_string(dir.join("BENCH_e99.json")).expect("written");
        std::fs::remove_dir_all(&dir).expect("a directory this test made");
        let doc: Value = serde_json::from_str(&text).expect("JSON");
        assert_eq!(doc["deterministic"], b.to_value()["deterministic"]);
        assert_eq!(doc["env"]["quick"], json!(true));
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
        assert_eq!(
            cmp.regressions[0].to_string(),
            "BENCH_e99.json: items — expected 42 got 43"
        );
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
        let dir = std::env::temp_dir().join(format!("scbench-gate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("BENCH_e99.json"), doc_with(&[]).to_string()).unwrap();
        let cmp = gate::compare_names(&dir, &["e99", "e100"]).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(cmp.regressions.len(), 1, "{:?}", cmp.regressions);
        assert_eq!(
            cmp.regressions[0].to_string(),
            "BENCH_e100.json: <file> — not in baseline — refresh it"
        );
    }
}
