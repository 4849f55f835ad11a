//! Drives the `perf_gate` binary on temp directories: the proof that the
//! gate has teeth, for the half of scbench that is gated. Exit codes are
//! the contract CI reads — 0 pass, 1 regression, 2 usage or I/O error.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const E1: &str = r#"{"schema_version": 2, "name": "e1", "deterministic": {"ingested_200": 200, "stored_200": 180}}"#;
const E2: &str = r#"{"schema_version": 2, "name": "e2", "deterministic": {"total_cameras": 212}}"#;

/// A scratch root holding a `baseline/` and a `fresh/` directory with the
/// same two documents; removed on drop.
struct Dirs(PathBuf);

impl Dirs {
    fn new(test: &str) -> Self {
        let root = std::env::temp_dir().join(format!("gate-cli-{}-{test}", std::process::id()));
        for side in ["baseline", "fresh"] {
            std::fs::create_dir_all(root.join(side)).unwrap();
            std::fs::write(root.join(side).join("BENCH_e1.json"), E1).unwrap();
            std::fs::write(root.join(side).join("BENCH_e2.json"), E2).unwrap();
        }
        Dirs(root)
    }

    fn baseline(&self) -> PathBuf {
        self.0.join("baseline")
    }

    fn fresh(&self) -> PathBuf {
        self.0.join("fresh")
    }

    /// Runs `perf_gate --baseline <baseline> --fresh <fresh> <extra…>`.
    fn gate(&self, extra: &[&str]) -> (i32, String) {
        run(Command::new(env!("CARGO_BIN_EXE_perf_gate"))
            .arg("--baseline")
            .arg(self.baseline())
            .arg("--fresh")
            .arg(self.fresh())
            .args(extra))
    }
}

impl Drop for Dirs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(cmd: &mut Command) -> (i32, String) {
    let Output { status, stdout, .. } = cmd.output().expect("perf_gate runs");
    (
        status.code().expect("perf_gate exits, not killed"),
        String::from_utf8(stdout).expect("perf_gate prints utf-8"),
    )
}

fn rewrite(path: &Path, from: &str, to: &str) {
    let text = std::fs::read_to_string(path).unwrap();
    assert!(text.contains(from), "{from} not in {}", path.display());
    std::fs::write(path, text.replace(from, to)).unwrap();
}

#[test]
fn identical_dirs_pass_and_print_the_checked_count() {
    let dirs = Dirs::new("identical");
    let (code, out) = dirs.gate(&[]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("checked 3 deterministic metrics"), "{out}");
    assert!(out.contains("PASS"), "{out}");
}

#[test]
fn an_edited_value_fails_naming_bench_and_key() {
    let dirs = Dirs::new("edited");
    rewrite(&dirs.fresh().join("BENCH_e1.json"), "180", "181");
    let (code, out) = dirs.gate(&[]);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("REGRESSION e1::stored_200"), "{out}");
    assert!(out.contains("expected 180 got 181"), "{out}");
}

#[test]
fn a_fresh_only_key_fails() {
    let dirs = Dirs::new("fresh-key");
    rewrite(
        &dirs.fresh().join("BENCH_e2.json"),
        r#""total_cameras": 212"#,
        r#""total_cameras": 212, "cities": 9"#,
    );
    let (code, out) = dirs.gate(&[]);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("REGRESSION e2::cities"), "{out}");
    assert!(out.contains("not in baseline"), "{out}");
}

#[test]
fn a_fresh_only_file_fails() {
    let dirs = Dirs::new("fresh-file");
    std::fs::write(dirs.fresh().join("BENCH_e3.json"), E2).unwrap();
    let (code, out) = dirs.gate(&[]);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("REGRESSION e3::<file>"), "{out}");
    assert!(out.contains("not in baseline"), "{out}");
}

#[test]
fn a_missing_fresh_file_fails() {
    let dirs = Dirs::new("missing-file");
    std::fs::remove_file(dirs.fresh().join("BENCH_e2.json")).unwrap();
    let (code, out) = dirs.gate(&[]);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("REGRESSION e2::<file>"), "{out}");
    assert!(out.contains("did not emit BENCH_e2.json"), "{out}");
}

#[test]
fn retired_flags_and_a_missing_fresh_are_usage_errors() {
    let dirs = Dirs::new("usage");
    assert_eq!(dirs.gate(&["--skip-measured"]).0, 2);
    assert_eq!(dirs.gate(&["--tolerance", "0.5"]).0, 2);
    let (code, _) = run(Command::new(env!("CARGO_BIN_EXE_perf_gate"))
        .arg("--baseline")
        .arg(dirs.baseline()));
    assert_eq!(code, 2);
}

#[test]
fn an_empty_baseline_dir_is_an_error_not_a_pass() {
    let dirs = Dirs::new("empty-baseline");
    for name in ["BENCH_e1.json", "BENCH_e2.json"] {
        std::fs::remove_file(dirs.baseline().join(name)).unwrap();
    }
    assert_eq!(dirs.gate(&[]).0, 2);
}
