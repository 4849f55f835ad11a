//! Every experiment's seeded numbers equal the committed baseline.
//!
//! Each `#[test]` runs one experiment of [`EXPERIMENTS`] at its quick size,
//! in-process, and compares what it returns against
//! `tests/golden/bench_baseline/BENCH_<name>.json` through
//! [`gate::compare_file`]: the same keys, each with the same value. A
//! failure names the file and each key, with the expected and the actual
//! value. One test per experiment lets libtest run them side by side.
//!
//! To refresh the baseline after an intentional change, see EXPERIMENTS.md
//! § Reading `BENCH_*.json`.

use scbench::exp::EXPERIMENTS;
use scbench::{gate, CountingAlloc};
use std::path::PathBuf;

// E14 counts the allocations of the calls it pins.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn baseline_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/bench_baseline")
}

/// Runs experiment `name` and compares it against its baseline file.
fn check(name: &str) {
    let (_, run) = EXPERIMENTS
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| {
            panic!("BENCH_{name}.json: no experiment {name} in scbench::exp::EXPERIMENTS")
        });
    let cmp = gate::compare_file(&baseline_dir(), name, &run(true).to_value());
    let lines: Vec<String> = cmp.regressions.iter().map(ToString::to_string).collect();
    assert!(
        lines.is_empty(),
        "{} of {} keys differ from the baseline:\n{}",
        lines.len(),
        cmp.checked_deterministic,
        lines.join("\n")
    );
}

/// One `#[test]` per experiment, and the list of their names.
macro_rules! experiments {
    ($($name:ident),* $(,)?) => {
        const TESTED: &[&str] = &[$(stringify!($name)),*];
        $(
            #[test]
            fn $name() {
                check(stringify!($name));
            }
        )*
    };
}

experiments!(
    e1, e2, e3, e4, e5, e6, e7, e8, e9, e10, e11, e12, e13, e14, e15, e16, e17, e18, metropolis,
);

/// The experiment list, the tests above and the baseline directory name
/// the same experiments: a `BENCH_*.json` nothing produces, or an
/// experiment nothing pins, fails here by its file name.
#[test]
fn the_list_the_tests_and_the_baseline_directory_name_the_same_experiments() {
    let listed: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
    let cmp = gate::compare_names(&baseline_dir(), &listed)
        .unwrap_or_else(|e| panic!("the baseline directory: {e}"));
    let mut problems: Vec<String> = cmp.regressions.iter().map(ToString::to_string).collect();
    let missing = [
        (
            listed.as_slice(),
            TESTED,
            "listed in EXPERIMENTS, but no test here checks it",
        ),
        (
            TESTED,
            listed.as_slice(),
            "a test here checks it, but EXPERIMENTS does not list it",
        ),
    ];
    for (from, to, why) in missing {
        problems.extend(
            from.iter()
                .filter(|n| !to.contains(n))
                .map(|n| format!("BENCH_{n}.json: {why}")),
        );
    }
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}
