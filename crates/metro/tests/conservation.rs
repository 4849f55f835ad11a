//! Every request and every ingest event of a city day is accounted for,
//! whatever the seed and however bad the day.
//!
//! The seed-42 goldens pin one day; this sweep holds the day's books over
//! seeds × fault intensities × citybench's two request mixes. A seed draws
//! the residents' traffic, the city's flash crowds and its fault schedule.
//! Each run must balance:
//!
//! - every sampled request is answered or counted as unanswered;
//! - every ingest send is delivered or audited as lost;
//! - the archive loses no block.
//!
//! Besides the generated fault schedules, each seed and mix also runs its
//! worst day: every serving shard the plan starts with crashes for a
//! stretch of windows and then restarts, and flash crowds outgrow what the
//! autoscaler can add. The sweep must see requests shed on those days, so
//! a ledger that miscounts a shed cannot pass.
//!
//! One day per seed and mix also runs under a probe that counts the day's
//! layer calls: each sampled request is one ingest send and one serving
//! call, and the probed day's report is the unprobed day's.
//!
//! A failing run prints a one-line repro of its seed, intensity and mix.
//!
//! A day never executes more than its planned demand: with a larger
//! `sample_total` it executes every planned request, once.

use scfault::{FaultKind, FaultPlan};
use scmetro::{DayOp, MetroConfig, MetroReport, MetroSim, PopulationConfig};
use sctelemetry::Probe;

/// citybench's two request mixes: (name, keyspace, skew, writes, inference).
const MIXES: [(&str, usize, f64, f64, f64); 2] = [
    ("city_day", 200, 1.0, 0.05, 0.2),
    ("city_day_churn", 2_000, 0.2, 0.5, 0.05),
];

const INTENSITIES: [f64; 3] = [0.0, 1.0, 3.0];

const REQUESTS: u64 = 600;

/// The windows of the worst day's crash and of its restart, of 24.
const OUTAGE: (usize, usize) = (8, 12);

fn config(seed: u64, intensity: f64, mix: (&str, usize, f64, f64, f64)) -> MetroConfig {
    let (_, keyspace, skew, write_fraction, infer_fraction) = mix;
    MetroConfig {
        seed,
        population: PopulationConfig {
            users: 50_000,
            windows: 24,
            seed,
            ..PopulationConfig::default()
        },
        sample_total: REQUESTS,
        keyspace,
        skew,
        write_fraction,
        infer_fraction,
        fault_intensity: intensity,
        ..MetroConfig::default()
    }
}

fn day(seed: u64, intensity: f64, mix: (&str, usize, f64, f64, f64)) -> MetroReport {
    MetroSim::new(config(seed, intensity, mix)).run()
}

/// The worst day of `seed` and `mix`, under a supplied plan: every serving
/// shard planned at the start (node 0 is also the ingest broker) crashes at
/// the start of window `OUTAGE.0` and restarts at the start of window
/// `OUTAGE.1`. A city of a million residents has flash crowds at 30× the
/// diurnal demand, past what the autoscaler can add, so the rate gate
/// sheds at their peaks. The outage alone sheds nothing: with every
/// replica down a read is answered `Degraded` or `Stale`, and the
/// breaker's one-second reset is shorter than the gap between the day's
/// sampled requests.
fn worst_day(seed: u64, mix: (&str, usize, f64, f64, f64)) -> MetroReport {
    let mut cfg = config(seed, 0.0, mix);
    cfg.population.users = 1_000_000;
    cfg.population.flash_multiplier = 30.0;
    let planned = MetroSim::new(cfg.clone());
    let (pop, shards) = (planned.population(), planned.topology().initial_shards);
    let plan = (0..shards as u32).fold(FaultPlan::empty(), |plan, node| {
        plan.with_event(pop.window_start(OUTAGE.0), FaultKind::NodeCrash { node })
            .with_event(pop.window_start(OUTAGE.1), FaultKind::NodeRestart { node })
    });
    MetroSim::new(MetroConfig {
        fault_plan: Some(plan),
        ..cfg
    })
    .run()
}

/// Counts the layer calls the day makes inside its demand windows, where
/// every request is issued (the keyspace is seeded before them).
#[derive(Default)]
struct WindowCalls {
    in_window: bool,
    calls: [u64; DayOp::NAMES.len()],
}

impl WindowCalls {
    fn of(&self, op: DayOp) -> u64 {
        self.calls[op as usize]
    }
}

impl Probe<DayOp> for WindowCalls {
    fn time<R>(&mut self, op: DayOp, f: impl FnOnce() -> R) -> R {
        if self.in_window {
            self.calls[op as usize] += 1;
        }
        f()
    }

    fn begin(&mut self, phase: &'static str, _window: Option<u32>) {
        self.in_window = phase == "window";
    }

    fn end(&mut self) {
        self.in_window = false;
    }
}

/// Runs `cfg`'s day under a call-counting probe and asserts one send and
/// one serving call per sampled request, and the unprobed day's `report`.
fn assert_calls_balance(cfg: MetroConfig, report: &MetroReport, repro: &str) {
    let mut probe = WindowCalls::default();
    let (probed, _) = MetroSim::new(cfg).run_observed(&mut probe);
    assert_eq!(
        probe.of(DayOp::Send),
        REQUESTS,
        "{repro}: one ingest send per request"
    );
    let serving = [DayOp::Put, DayOp::Get, DayOp::Query, DayOp::InferSubmit]
        .map(|op| probe.of(op))
        .iter()
        .sum::<u64>();
    assert_eq!(serving, REQUESTS, "{repro}: one serving call per request");
    assert_eq!(&probed, report, "{repro}: the probe changed the day");
}

/// Asserts that `r`'s books balance; `repro` names the day.
fn assert_balanced(r: &MetroReport, repro: &str) {
    assert_eq!(
        r.answered + r.unanswered,
        REQUESTS,
        "{repro}: answered + unanswered"
    );
    assert_eq!(
        (r.delivered + r.lost) as u64,
        REQUESTS,
        "{repro}: delivered + lost"
    );
    assert_eq!(r.dfs.lost, 0, "{repro}: archive blocks lost");
}

#[test]
fn every_request_and_event_is_accounted_for_on_any_day() {
    let (mut lost, mut duplicates, mut unanswered) = (0, 0, 0);
    for seed in 0..8 {
        for mix in MIXES {
            for intensity in INTENSITIES {
                let r = day(seed, intensity, mix);
                let repro = format!("SEED={seed} INTENSITY={intensity} MIX={}", mix.0);
                assert_balanced(&r, &repro);
                if intensity == 1.0 {
                    assert_calls_balance(config(seed, intensity, mix), &r, &repro);
                }
                lost += r.lost;
                duplicates += r.duplicates;
            }
            let r = worst_day(seed, mix);
            let repro = format!("SEED={seed} WORST DAY MIX={}", mix.0);
            assert_balanced(&r, &repro);
            assert!(r.lost > 0, "{repro}: the broker's crash lost no send");
            unanswered += r.unanswered;
        }
    }
    // The sweep must reach the paths the books balance: sends lost
    // outright, resends after a lost ack, and requests shed.
    assert!(lost > 0, "no day lost an ingest send");
    assert!(duplicates > 0, "no day resent after a lost ack");
    assert!(unanswered > 0, "no day left a request unanswered");
}

#[test]
fn a_day_executes_at_most_its_demand() {
    let r = MetroSim::new(MetroConfig {
        population: PopulationConfig {
            users: 10_000,
            ..PopulationConfig::default()
        },
        sample_total: 1_000_000_000,
        ..MetroConfig::default()
    })
    .run();
    assert_eq!(r.sampled_requests, r.total_demand);
    let executed: u64 = r.windows.iter().map(|w| w.sampled).sum();
    assert_eq!(executed, r.total_demand, "every planned request, once");
    assert_eq!(r.answered + r.unanswered, r.total_demand);
    assert_eq!((r.delivered + r.lost) as u64, r.total_demand);
}
