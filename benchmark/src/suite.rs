//! Whole-benchmark commands: every workload in turn, the self-test and
//! the agreement check. Each workload run is a child process of its own,
//! so `peak_rss_mb` and the allocator counters are per workload.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};

use serde_json::Value;

use crate::manifest::{Manifest, MetricSpec};
use crate::{alloc, threads, Args};

/// Size divisor and run length of `--selftest`.
const SELFTEST_SCALE: u64 = 50;
const SELFTEST_SECONDS: f64 = 0.5;

/// `benchmark/out/`, inside the checkout the binary was built in.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub fn write_out(file: &str, contents: &str) -> Result<(), String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(file);
    std::fs::write(&path, contents).map_err(|e| format!("{}: {e}", path.display()))
}

fn git_rev() -> String {
    let git = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(git.join("HEAD")) {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(git.join(r)).unwrap_or(head),
            None => head,
        },
        None => "none".to_string(),
    }
}

/// Host fingerprint, recorded at run time.
pub fn host_line() -> String {
    format!(
        "nproc {}, {}, git {}, isa {}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        env!("CITYBENCH_RUSTC"),
        git_rev(),
        scsimd::Isa::active().name(),
    )
}

/// One child run; returns the parsed result line and the line itself.
fn child(name: &str, args: &Args, seconds: f64, trace: bool) -> Result<(Value, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--scale", &args.scale.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {name}: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{name} (trace {}) failed: {}",
            u8::from(trace),
            output.status
        ));
    }
    let stdout = String::from_utf8(output.stdout).map_err(|e| format!("{name}: {e}"))?;
    let line = stdout
        .lines()
        .last()
        .ok_or(format!("{name} printed nothing"))?;
    let doc = serde_json::from_str(line).map_err(|e| format!("{name}: {e}: {line}"))?;
    Ok((doc, line.to_string()))
}

fn metric_values(doc: &Value) -> BTreeMap<String, f64> {
    doc.get("metrics")
        .and_then(Value::as_object)
        .map(|m| {
            m.iter()
                .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                .collect()
        })
        .unwrap_or_default()
}

type Results = BTreeMap<String, BTreeMap<String, f64>>;

/// Runs every workload untraced and returns the end-to-end values. With
/// `per_layer` it also runs each traced, prints one JSON line per workload
/// and writes the same to `out/<workload>.json`.
pub fn run_all(manifest: &Manifest, args: &Args, per_layer: bool) -> Result<Results, String> {
    let seconds = args.seconds.unwrap_or(manifest.run_seconds);
    let mut end_to_end = Results::new();
    for name in &manifest.workloads {
        let (untraced, _) = child(name, args, seconds, false)?;
        if per_layer {
            let (traced, _) = child(name, args, seconds, true)?;
            let field = |doc: &Value, key: &str| doc.get(key).cloned().unwrap_or(Value::Null);
            let line = serde_json::json!({
                "workload": name.as_str(),
                "seed": args.seed,
                "seconds": seconds,
                "threads": threads() as u64,
                "host": host_line(),
                "attempted": field(&untraced, "attempted"),
                "failed": field(&untraced, "failed"),
                "end_to_end": field(&untraced, "metrics"),
                "per_layer": field(&traced, "metrics"),
            })
            .to_string();
            write_out(&format!("{name}.json"), &line)?;
            println!("{line}");
        }
        end_to_end.insert(name.clone(), metric_values(&untraced));
    }
    Ok(end_to_end)
}

/// Every workload at 1/50 size, traced and untraced, with the result
/// lines checked against `BENCHMARK.json`.
pub fn selftest(manifest: &Manifest) -> Result<(), String> {
    let ((), allocs, bytes) = alloc::counted(|| {});
    if (allocs, bytes) != (0, 0) {
        return Err(format!(
            "empty timed region counted {allocs} allocations, {bytes} bytes"
        ));
    }
    let args = Args {
        scale: SELFTEST_SCALE,
        ..Args::default()
    };
    for name in &manifest.workloads {
        for (trace, specs) in [(false, &manifest.end_to_end), (true, &manifest.per_layer)] {
            let (doc, line) = child(name, &args, SELFTEST_SECONDS, trace)?;
            check_line(&doc, &line, specs)
                .map_err(|e| format!("{name} trace {}: {e}", u8::from(trace)))?;
        }
    }
    eprintln!("citybench: selftest passed");
    Ok(())
}

/// The contract of a result line: exactly the four keys, and exactly the
/// named metrics, each once, each a number with the manifest's unit.
fn check_line(doc: &Value, line: &str, specs: &[MetricSpec]) -> Result<(), String> {
    let obj = doc.as_object().ok_or("result is not an object")?;
    let keys: Vec<&str> = obj.keys().map(String::as_str).collect();
    if keys != ["attempted", "correct", "failed", "metrics"] {
        return Err(format!("result keys are {keys:?}"));
    }
    if doc["correct"].as_bool() != Some(true) {
        return Err("correct is not true".into());
    }
    if doc["attempted"].as_u64().is_none_or(|n| n < 1) || doc["failed"].as_u64().is_none() {
        return Err("attempted / failed are not whole numbers".into());
    }
    let metrics = doc["metrics"]
        .as_object()
        .ok_or("metrics is not an object")?;
    if metrics.len() != specs.len() {
        return Err(format!(
            "{} metrics printed, {} named",
            metrics.len(),
            specs.len()
        ));
    }
    for spec in specs {
        // Counted in the text: a parsed object cannot show a repeat.
        let printed = line.matches(&format!("\"{}\": {{", spec.name)).count();
        if printed != 1 {
            return Err(format!("{} printed {printed} times", spec.name));
        }
        let m = &doc["metrics"][spec.name.as_str()];
        if m.get("value").and_then(Value::as_f64).is_none()
            || m.get("unit").and_then(Value::as_str) != Some(spec.unit.as_str())
        {
            return Err(format!("{}: bad value or unit: {m}", spec.name));
        }
    }
    Ok(())
}

/// Runs every workload untraced, twice over, on this build and fails if
/// any end-to-end metric of the second set is worse or better than the
/// first by more than its bound (`answered_share`: at all).
pub fn agree(manifest: &Manifest, args: &Args) -> Result<(), String> {
    let first = run_all(manifest, args, false)?;
    let second = run_all(manifest, args, false)?;
    let mut disagreements = 0;
    println!(
        "{:<16} {:<20} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    for name in &manifest.workloads {
        for spec in &manifest.end_to_end {
            let (a, b) = (first[name][&spec.name], second[name][&spec.name]);
            // Positive when the second run is the worse one.
            let worse = if spec.higher_is_better { a - b } else { b - a };
            let differ = worse / a.abs();
            // On one seed and one build the simulation's outcome repeats
            // exactly; the bound in the manifest is for runs across seeds.
            let bound = if spec.name == "answered_share" {
                0.0
            } else {
                spec.bound.unwrap_or(0.0)
            };
            let ok = differ.abs() <= bound;
            disagreements += usize::from(!ok);
            println!(
                "{name:<16} {:<20} {a:>16.4} {b:>16.4} {:>+8.2}% {:>6.1}%{}",
                spec.name,
                100.0 * differ,
                100.0 * bound,
                if ok { "" } else { "  DISAGREE" }
            );
        }
    }
    if disagreements > 0 {
        return Err(format!(
            "{disagreements} end-to-end metrics disagree between two runs of one build"
        ));
    }
    Ok(())
}
