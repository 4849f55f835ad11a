//! perf_gate — compares fresh `BENCH_<name>.json` runs against a committed
//! baseline directory and exits nonzero on regression.
//!
//! ```text
//! perf_gate --baseline tests/golden/bench_baseline --fresh target/bench-json
//! ```
//!
//! The comparison is exact and has no knobs: both directories must hold
//! the same files, each pair the same `deterministic` keys, each key the
//! same value. Wall-clock is not this gate's business — citybench
//! (`BENCHMARK.json`) measures it.
//!
//! Exit codes: 0 = pass, 1 = regression, 2 = usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: perf_gate --baseline <dir> --fresh <dir>");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut baseline: Option<PathBuf> = None;
    let mut fresh: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--baseline" => match args.next() {
                Some(v) => baseline = Some(PathBuf::from(v)),
                None => return usage(),
            },
            "--fresh" => match args.next() {
                Some(v) => fresh = Some(PathBuf::from(v)),
                None => return usage(),
            },
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            _ => return usage(),
        }
    }
    let (Some(baseline), Some(fresh)) = (baseline, fresh) else {
        return usage();
    };

    match scbench::gate::compare_dirs(&baseline, &fresh) {
        Err(e) => {
            eprintln!("perf-gate: error: {e}");
            ExitCode::from(2)
        }
        Ok(cmp) => {
            println!(
                "perf-gate: checked {} deterministic metrics",
                cmp.checked_deterministic
            );
            if cmp.regressions.is_empty() {
                println!("perf-gate: PASS");
                ExitCode::SUCCESS
            } else {
                for r in &cmp.regressions {
                    println!(
                        "perf-gate: REGRESSION {}::{} — {}",
                        r.bench, r.metric, r.detail
                    );
                }
                println!("perf-gate: FAIL ({} regressions)", cmp.regressions.len());
                ExitCode::from(1)
            }
        }
    }
}
