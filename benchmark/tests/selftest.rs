//! `cargo test --manifest-path benchmark/Cargo.toml`: the benchmark's own
//! checks, run through the binary the way a user runs it.

use std::process::Command;

/// The settings `citybench` refuses to measure under.
const REFUSED: [&str; 4] = [
    "SCPROF_TEST_SLOWDOWN",
    "SCSIMD_FMA",
    "SCSIMD_FORCE",
    "SCTUNE",
];

fn citybench() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_citybench"));
    for var in REFUSED {
        cmd.env_remove(var);
    }
    cmd
}

/// All four workloads at 1/50 size, traced and untraced: result-line
/// schema, every `BENCHMARK.json` name printed exactly once, output checks,
/// and a counting allocator that counts nothing in an empty region.
#[test]
fn selftest_passes() {
    let status = citybench().arg("--selftest").status().expect("spawn");
    assert!(status.success(), "citybench --selftest failed");
}

#[test]
fn refuses_settings_that_change_what_is_measured() {
    for var in REFUSED {
        let out = citybench()
            .args([
                "--workload",
                "camera_infer",
                "--scale",
                "50",
                "--seconds",
                "0.1",
            ])
            .env(var, "1")
            .output()
            .expect("spawn");
        assert!(!out.status.success(), "ran with {var} set");
        assert!(out.stdout.is_empty(), "printed a result with {var} set");
    }
}

#[test]
fn rejects_unknown_workloads_and_arguments() {
    for args in [
        &["--workload", "nope"][..],
        &["--frobnicate"][..],
        &["--trace", "2"][..],
    ] {
        let out = citybench().args(args).output().expect("spawn");
        assert!(!out.status.success(), "{args:?} accepted");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
