//! The gate's teeth on temp directories: each way a baseline directory and
//! a fresh run can disagree fails, and the failure names the
//! `BENCH_<name>.json` and the key. `tests/bench_baseline.rs` drives the
//! same two calls, [`gate::compare_names`] and [`gate::compare_file`],
//! against the committed baseline.

use scbench::gate::{self, Comparison};
use serde_json::Value;
use std::path::{Path, PathBuf};

const E1: &str = r#"{"schema_version": 2, "name": "e1", "deterministic": {"ingested_200": 200, "stored_200": 180}}"#;
const E2: &str = r#"{"schema_version": 2, "name": "e2", "deterministic": {"total_cameras": 212}}"#;

/// A scratch baseline directory holding the two documents; removed on drop.
struct Baseline(PathBuf);

impl Baseline {
    fn new(test: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("gate-cli-{}-{test}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("BENCH_e1.json"), E1).unwrap();
        std::fs::write(dir.join("BENCH_e2.json"), E2).unwrap();
        Baseline(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }

    /// Compares a fresh run producing `docs` against this directory: the
    /// names first, then each document against its file.
    fn gate(&self, docs: &[(&str, &str)]) -> Vec<String> {
        let names: Vec<&str> = docs.iter().map(|(name, _)| *name).collect();
        let mut cmp: Comparison = gate::compare_names(self.path(), &names).unwrap();
        for (name, text) in docs {
            let fresh: Value = serde_json::from_str(text).unwrap();
            cmp.regressions
                .extend(gate::compare_file(self.path(), name, &fresh).regressions);
        }
        cmp.regressions.iter().map(ToString::to_string).collect()
    }
}

impl Drop for Baseline {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn an_edited_value_fails_naming_bench_and_key() {
    let dir = Baseline::new("edited");
    let edited = E1.replace("180", "181");
    let out = dir.gate(&[("e1", &edited), ("e2", E2)]);
    assert_eq!(
        out,
        ["BENCH_e1.json: stored_200 — expected 180 got 181"],
        "{out:?}"
    );
}

#[test]
fn a_fresh_only_key_fails() {
    let dir = Baseline::new("fresh-key");
    let extra = E2.replace(
        r#""total_cameras": 212"#,
        r#""total_cameras": 212, "cities": 9"#,
    );
    let out = dir.gate(&[("e1", E1), ("e2", &extra)]);
    assert_eq!(out.len(), 1, "{out:?}");
    assert!(out[0].starts_with("BENCH_e2.json: cities"), "{out:?}");
    assert!(out[0].contains("not in baseline"), "{out:?}");
}

#[test]
fn a_fresh_only_file_fails() {
    let dir = Baseline::new("fresh-file");
    let out = dir.gate(&[("e1", E1), ("e2", E2), ("e3", E2)]);
    assert!(!out.is_empty(), "{out:?}");
    assert!(out[0].starts_with("BENCH_e3.json: <file>"), "{out:?}");
    assert!(out[0].contains("not in baseline"), "{out:?}");
}

#[test]
fn a_missing_fresh_file_fails() {
    let dir = Baseline::new("missing-file");
    let out = dir.gate(&[("e1", E1)]);
    assert_eq!(
        out,
        ["BENCH_e2.json: <file> — fresh run did not emit BENCH_e2.json"],
        "{out:?}"
    );
}

#[test]
fn an_empty_baseline_dir_is_an_error_not_a_pass() {
    let dir = Baseline::new("empty-baseline");
    for name in ["BENCH_e1.json", "BENCH_e2.json"] {
        std::fs::remove_file(dir.path().join(name)).unwrap();
    }
    let err = gate::compare_names(dir.path(), &["e1", "e2"]).unwrap_err();
    assert!(err.to_string().contains("no BENCH_*.json"), "{err}");
}
