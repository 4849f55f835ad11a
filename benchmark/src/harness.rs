//! What every workload shares: the repetition loop, the timed region and
//! the metric map.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::alloc;
use crate::trace::Trace;

/// Set-ups per run; `setup_s` is the fastest. One before the first
/// repetition, the others between repetitions an eighth of the run apart,
/// so that a slow spell of the host cannot catch them all.
const SETUPS: usize = 8;

/// Named measurements of one run.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Records `name`; a name is measured once.
    pub fn put(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "{name} is {value}");
        assert!(
            self.0.insert(name, value).is_none(),
            "{name} measured twice"
        );
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().map(|(k, v)| (*k, *v))
    }
}

/// Wall-clock and heap cost of one timed region.
#[derive(Debug, Clone, Copy)]
pub struct Cost {
    pub wall: Duration,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

/// Runs `f` as a timed region.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Cost) {
    let start = Instant::now();
    let (out, allocs, alloc_bytes) = alloc::counted(f);
    let wall = start.elapsed();
    let cost = Cost {
        wall,
        allocs,
        alloc_bytes,
    };
    (out, cost)
}

/// One timed repetition of a workload.
pub struct Rep {
    /// Units of work the program was asked to carry out (simulated
    /// requests, frames, events): the `op` of `ops_per_s` and `*_per_op`.
    pub ops: u64,
    /// Of those, how many the program did not carry out.
    pub failed: u64,
    /// Share of the awaited outcomes that arrived. For the frame and event
    /// workloads that is `1 − failed / ops`; for the city day it is a
    /// deterministic *output* of the simulation (residents answered, sends
    /// delivered), which overload and faults keep below 1 by design.
    pub answered_share: f64,
    /// Everything the repetition produced that must repeat exactly.
    pub digest: String,
    pub cost: Cost,
}

/// A workload: inputs from a seed, a repeatable timed repetition, and a
/// traced variant that attributes the same work to layers.
///
/// The work of a run is cut into [`Workload::parts`] parts, each with
/// inputs of its own drawn from the seed ([`part_seed`]), and a repetition
/// carries out one part. Many parts make a run's work the same from seed
/// to seed (one 3 000-request day has 675 ± 23 scans in it, and a scan is
/// most of its cost); short parts let a brief quiet spell of the host
/// cover a whole repetition.
pub trait Workload {
    type State;
    /// Generates inputs and warms up: process start → first timed op.
    fn setup(&self) -> Self::State;
    /// How many parts the work of a run has.
    fn parts(&self) -> usize;
    /// One repetition of `part`; only what is inside [`timed`] counts.
    fn rep(&self, state: &mut Self::State, part: usize) -> Result<Rep, String>;
    /// The per-layer run, about `seconds` long.
    fn traced(&self, state: &mut Self::State, seconds: f64) -> Result<(Metrics, Trace), String>;
}

/// The seed of `part`'s inputs in a run on `seed`. Runs on neighbouring
/// seeds share no part.
pub fn part_seed(seed: u64, part: usize) -> u64 {
    seed.wrapping_mul(64).wrapping_add(part as u64)
}

/// Sets up once more and notes how long it took.
fn timed_setup<W: Workload>(w: &W, times: &mut Vec<f64>) -> W::State {
    let start = Instant::now();
    let state = w.setup();
    times.push(start.elapsed().as_secs_f64());
    state
}

/// A time budget for a loop of equal pieces of work: another piece starts
/// only if at least half of it fits, so the loop ends within half a piece
/// of the budget (and runs at least one piece).
pub struct Budget {
    started: Instant,
    seconds: f64,
    last_piece_began: Option<Instant>,
}

impl Budget {
    pub fn new(seconds: f64) -> Self {
        Budget {
            started: Instant::now(),
            seconds,
            last_piece_began: None,
        }
    }

    /// Seconds since the budget began.
    pub fn elapsed(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Whether to run another piece; call once before each piece.
    pub fn another(&mut self) -> bool {
        let now = Instant::now();
        let go = match self.last_piece_began {
            None => true,
            Some(began) => {
                let piece = now.duration_since(began).as_secs_f64();
                now.duration_since(self.started).as_secs_f64() + 0.5 * piece <= self.seconds
            }
        };
        self.last_piece_began = Some(now);
        go
    }
}

/// Result of a run in the shape the last stdout line has.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub trace: Option<Trace>,
}

/// The untraced run: repetitions for `seconds`, part after part and round
/// again, and of each part the fastest is reported: a run's time is the sum
/// of its parts' fastest repetitions.
///
/// Every repetition of a part does identical work, so they differ only by
/// what the host adds (a neighbour on the core, a page fault storm), and
/// that only ever adds time: the fastest repetition is the best estimate
/// of what the code costs, and the only one that repeats from run to run
/// on a shared machine. Going round the parts spreads each part's
/// repetitions over the whole run, so a slow spell of the host costs every
/// part a repetition or two and no part all of them. The median and the
/// spread go to standard error.
pub fn run_untraced<W: Workload>(w: &W, seconds: f64) -> Result<RunResult, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut state = timed_setup(w, &mut setups);
    let parts = w.parts();
    let mut reps: Vec<Vec<Rep>> = (0..parts).map(|_| Vec::new()).collect();
    let mut budget = Budget::new(seconds);
    for i in 0.. {
        // Every part runs once, whatever the budget.
        if !budget.another() && i >= parts {
            break;
        }
        let (part, round) = (i % parts, i / parts);
        let rep = w.rep(&mut state, part)?;
        if let Some(first) = reps[part].first() {
            if rep.digest != first.digest {
                return Err(format!(
                    "repetition {round} of part {part} produced a different result\n first: {}\n this:  {}",
                    first.digest, rep.digest
                ));
            }
        }
        reps[part].push(rep);
        let due = seconds * setups.len() as f64 / SETUPS as f64;
        if setups.len() < SETUPS && budget.elapsed() >= due {
            drop(state);
            state = timed_setup(w, &mut setups);
        }
    }

    let all = || reps.iter().flatten();
    let attempted: u64 = all().map(|r| r.ops).sum();
    let failed: u64 = all().map(|r| r.failed).sum();
    let best: Vec<&Rep> = reps
        .iter()
        .map(|part| {
            part.iter()
                .min_by_key(|r| r.cost.wall)
                .expect("every part ran once")
        })
        .collect();
    let total = |f: fn(&Rep) -> f64| best.iter().map(|r| f(r)).sum::<f64>();
    let ops = total(|r| r.ops as f64);
    let mut m = Metrics::new();
    m.put("ops_per_s", ops / total(|r| r.cost.wall.as_secs_f64()));
    m.put("setup_s", fastest(&setups));
    m.put(
        "answered_share",
        total(|r| r.answered_share * r.ops as f64) / ops,
    );
    m.put("allocs_per_op", total(|r| r.cost.allocs as f64) / ops);
    m.put(
        "alloc_bytes_per_op",
        total(|r| r.cost.alloc_bytes as f64) / ops,
    );
    m.put("peak_rss_mb", peak_rss_mb()?);
    for (part, reps) in reps.iter().enumerate() {
        let walls: Vec<f64> = reps.iter().map(|r| r.cost.wall.as_secs_f64()).collect();
        eprintln!(
            "  part {part}: {} repetitions of {} ops; seconds each: fastest {:.4}, median {:.4}, spread {:.3}",
            reps.len(),
            best[part].ops,
            fastest(&walls),
            median(&walls),
            spread(&walls),
        );
    }
    eprintln!("  set-ups, seconds each: {}", seconds_list(&setups));
    Ok(RunResult {
        attempted,
        failed,
        metrics: m,
        trace: None,
    })
}

/// The traced run; `attempted` counts the calls it made into the layers.
pub fn run_traced<W: Workload>(w: &W, seconds: f64) -> Result<RunResult, String> {
    let mut state = w.setup();
    let (metrics, trace) = w.traced(&mut state, seconds)?;
    Ok(RunResult {
        attempted: trace.spans().iter().skip(1).map(|s| s.calls).sum(),
        failed: 0,
        metrics,
        trace: Some(trace),
    })
}

/// Wall-clock samples for the log on standard error.
fn seconds_list(xs: &[f64]) -> String {
    let shown: Vec<String> = xs.iter().map(|x| format!("{x:.3}")).collect();
    shown.join(" ")
}

/// The smallest sample: see [`run_untraced`] for why.
fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Wall-clock of the three things a traced run alternates: the library's
/// entry point, the benchmark's replay of it untraced, and the replay
/// traced. Alternating lets the host's drift fall on all three alike; the
/// fastest of each is compared.
#[derive(Default)]
pub struct ReplayTimes {
    pub library: Vec<f64>,
    pub untraced: Vec<f64>,
    pub traced: Vec<f64>,
}

impl ReplayTimes {
    /// Whether `traced_s` is the fastest traced replay so far; call before
    /// pushing it.
    pub fn is_fastest_traced(&self, traced_s: f64) -> bool {
        traced_s < fastest(&self.traced)
    }

    /// The `harness.*` metrics every traced run reports. `matches` says
    /// whether the replay produced what the library produced.
    pub fn put_metrics(&self, m: &mut Metrics, matches: bool) {
        eprintln!(
            "  seconds per cycle: library {} | replay untraced {} | replay traced {}",
            seconds_list(&self.library),
            seconds_list(&self.untraced),
            seconds_list(&self.traced),
        );
        let (library, off, on) = (
            fastest(&self.library),
            fastest(&self.untraced),
            fastest(&self.traced),
        );
        m.put("harness.trace_coverage", off / library);
        m.put("harness.trace_overhead_share", (on - off) / off);
        m.put("harness.rep_spread", spread(&self.library));
        m.put(
            "harness.replica_decision_match",
            f64::from(u8::from(matches)),
        );
        if !matches {
            eprintln!("  WARNING: the replay no longer produces what the library produces;");
            eprintln!("  the per-layer figures describe the replay, not the library");
        }
    }
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Median (mean of the middle two for an even count).
fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(max − min) ÷ median`: how far repetitions of one thing lie apart.
fn spread(xs: &[f64]) -> f64 {
    let max = xs.iter().copied().fold(f64::MIN, f64::max);
    let min = xs.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / median(xs)
}

/// Calls `f` for about `seconds`, `inner` calls per clock reading (so the
/// reading's own cost stays small against short calls), at least three
/// readings. Returns `(ns per call in the fastest reading, calls)`.
pub fn time_for(seconds: f64, inner: u32, mut f: impl FnMut()) -> (f64, u64) {
    let (mut best, mut readings) = (f64::INFINITY, 0u64);
    let started = Instant::now();
    while readings < 3 || started.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        for _ in 0..inner {
            f();
        }
        best = best.min(t.elapsed().as_nanos() as f64 / f64::from(inner));
        readings += 1;
    }
    (best, readings * u64::from(inner))
}
