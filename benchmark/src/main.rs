//! citybench: one end-to-end + per-layer benchmark for the city day,
//! camera inference and the Fig. 4 data pipeline. See `README.md`.

mod alloc;
mod camera;
mod day;
mod harness;
mod manifest;
mod pipeline;
mod suite;
mod trace;

use std::process::ExitCode;

use harness::{run_traced, run_untraced, RunResult, Workload};
use manifest::Manifest;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Settings that change what is measured; the benchmark refuses to run
/// under any of them rather than report numbers nobody can compare.
const FORBIDDEN_ENV: [&str; 4] = [
    "SCPROF_TEST_SLOWDOWN",
    "SCSIMD_FMA",
    "SCSIMD_FORCE",
    "SCTUNE",
];

/// Command line of one invocation.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    /// Divides every workload size; only `--selftest` sets it.
    pub scale: u64,
    pub selftest: bool,
    pub agree: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            workload: None,
            seed: 42,
            seconds: None,
            trace: false,
            scale: 1,
            selftest: false,
            agree: false,
        }
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: &String| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => {
                let v = value()?;
                let s = v
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {v}: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds {v}: must be in (0, 60]"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: must be 0 or 1")),
                }
            }
            "--scale" => args.scale = number(value()?)?.max(1),
            "--selftest" => args.selftest = true,
            "--agree" => args.agree = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Worker threads the workloads may use: `min(nproc, 2)`, never the
/// ambient `SCPAR_THREADS`.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

fn run_one(name: &str, args: &Args, seconds: f64) -> Result<RunResult, String> {
    fn go<W: Workload>(w: W, trace: bool, seconds: f64) -> Result<RunResult, String> {
        if trace {
            run_traced(&w, seconds)
        } else {
            run_untraced(&w, seconds)
        }
    }
    let (seed, scale, trace) = (args.seed, args.scale, args.trace);
    match name {
        "city_day" => go(day::Day::new(day::CITY_DAY, seed, scale), trace, seconds),
        "city_day_churn" => go(
            day::Day::new(day::CITY_DAY_CHURN, seed, scale),
            trace,
            seconds,
        ),
        "camera_infer" => go(camera::Camera::new(seed, scale, threads()), trace, seconds),
        "data_pipeline" => go(
            pipeline::Pipeline::new(seed, scale, threads()),
            trace,
            seconds,
        ),
        other => Err(format!("unknown workload {other}")),
    }
}

fn real_main() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    let manifest = Manifest::embedded()?;

    if let Some(var) = FORBIDDEN_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        return Err(format!("refusing to measure with {var} set"));
    }
    if cfg!(debug_assertions) && args.scale == 1 && !args.selftest {
        return Err("refusing to measure a debug build; use --release".into());
    }

    if args.selftest {
        return suite::selftest(&manifest);
    }
    if args.agree {
        return suite::agree(&manifest, &args);
    }
    let seconds = args.seconds.unwrap_or(manifest.run_seconds);
    let Some(name) = args.workload.as_deref() else {
        return suite::run_all(&manifest, &args, true).map(drop);
    };
    if !manifest.workloads.iter().any(|w| w == name) {
        return Err(format!("unknown workload {name}"));
    }

    eprintln!(
        "citybench {name}: seed {}, {seconds} s, trace {}, {} worker thread(s), {}",
        args.seed,
        u8::from(args.trace),
        threads(),
        suite::host_line(),
    );
    let result = run_one(name, &args, seconds)?;
    if let Some(trace) = &result.trace {
        suite::write_out(&format!("trace_{name}.json"), &trace.to_chrome_json())?;
    }
    // The result is the last line of standard output.
    println!("{}", manifest.result_line(&result, args.trace)?);
    Ok(())
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("citybench: {e}");
            ExitCode::FAILURE
        }
    }
}
