//! Determinism of the Metropolis closed loop (E19).
//!
//! The macro-benchmark's entire value rests on one promise: identical
//! seeds produce byte-identical scaling traces — same decisions at the
//! same windows, same report, same metrics export — at any
//! `SCPAR_THREADS` setting and on any SIMD ISA. The loop applies its
//! own pool size through `ExecCtx`, so thread count is a pure
//! performance knob; this suite replays the day and byte-compares every
//! derived artifact, then pins the seed-42 trace and Prometheus export
//! as checked-in golden snapshots. The CI matrix runs this same suite
//! at `SCPAR_THREADS` ∈ {1, 8} × `SCSIMD_FORCE` ∈ {scalar, native};
//! each cell compares against the same committed bytes, which is the
//! cross-thread, cross-ISA proof.
//!
//! Regenerate after an intentional behaviour change with:
//!
//! ```sh
//! GOLDEN_UPDATE=1 cargo test --test metropolis_determinism
//! ```

use std::fs;
use std::path::PathBuf;

use proptest::prelude::*;
use smartcity::metro::{DayOp, MetroConfig, MetroReport, MetroSim, PopulationConfig};
use smartcity::observe::burn_over_series;
use smartcity::telemetry::{prometheus_text, Probe, Telemetry};
use smartcity::tsdb::SeriesId;

/// The E19 quick-mode configuration: full-city plan, sampled execution.
fn city(seed: u64) -> MetroConfig {
    MetroConfig {
        seed,
        population: PopulationConfig {
            users: 1_000_000,
            windows: 24,
            seed,
            ..PopulationConfig::default()
        },
        sample_total: 4_000,
        ..MetroConfig::default()
    }
}

/// A small fast city for the seed-sweep property.
fn town(seed: u64) -> MetroConfig {
    MetroConfig {
        seed,
        population: PopulationConfig {
            users: 50_000,
            windows: 24,
            seed,
            ..PopulationConfig::default()
        },
        sample_total: 1_000,
        ..MetroConfig::default()
    }
}

/// Renders the report as the canonical trace text: headline, one line
/// per window, then the decision log. Any behaviour drift lands here.
fn render(r: &MetroReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "users={} daily={} demand={} sampled={} answered={} unanswered={}\n\
         peak_rps={:.6} mean_rps={:.6} p50_ms={:.3} p99_ms={:.3} shed={:.6}\n\
         loop: +{} -{} shards, {} pool resizes, {} shed toggles, final {}x{}, recovery {:.3}s\n\
         ingest: {}/{}/{} (delivered/dup/lost)  dfs: {} blocks, {} lost\n",
        r.users,
        r.daily_queries,
        r.total_demand,
        r.sampled_requests,
        r.answered,
        r.unanswered,
        r.peak_rps,
        r.mean_rps,
        r.p50_ms,
        r.p99_ms,
        r.shed_fraction,
        r.shards_added,
        r.shards_removed,
        r.pool_resizes,
        r.shed_actions,
        r.final_shards,
        r.final_pool,
        r.recovery_s,
        r.delivered,
        r.duplicates,
        r.lost,
        r.dfs.blocks,
        r.dfs.lost,
    ));
    for w in &r.windows {
        out.push_str(&format!(
            "w{:02} demand={} sampled={} good={} bad={} util={:.6} shards={} pool={}\n",
            w.window, w.demand, w.sampled, w.good, w.bad, w.utilization, w.shards, w.pool
        ));
    }
    out.push_str("decisions:\n");
    out.push_str(&r.decision_log());
    out
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Byte-compares `got` against the checked-in snapshot, with a
/// line-resolution report on mismatch. `GOLDEN_UPDATE=1` rewrites the
/// snapshot instead.
fn assert_matches_golden(name: &str, got: &str) {
    let path = golden_path(name);
    if std::env::var_os("GOLDEN_UPDATE").is_some() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, got).unwrap();
        return;
    }
    let want = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden snapshot {path:?} ({e}); run GOLDEN_UPDATE=1 cargo test")
    });
    if got == want {
        return;
    }
    let line = got
        .lines()
        .zip(want.lines())
        .position(|(g, w)| g != w)
        .map(|i| i + 1)
        .unwrap_or_else(|| got.lines().count().min(want.lines().count()) + 1);
    let g = got.lines().nth(line - 1).unwrap_or("<eof>");
    let w = want.lines().nth(line - 1).unwrap_or("<eof>");
    panic!(
        "{name} diverged from its golden snapshot at line {line}:\n  got:  {g}\n  want: {w}\n\
         ({} vs {} bytes total; GOLDEN_UPDATE=1 regenerates if intentional)",
        got.len(),
        want.len()
    );
}

#[test]
fn replaying_the_same_seed_is_byte_identical() {
    let first = MetroSim::new(city(42)).run();
    let second = MetroSim::new(city(42)).run();
    assert_eq!(
        first.decision_log(),
        second.decision_log(),
        "scaling-decision logs diverged between identical replays"
    );
    assert_eq!(render(&first), render(&second), "trace text diverged");
    assert_eq!(first, second, "full reports diverged");
}

#[test]
fn seed42_scaling_trace_matches_golden_snapshot() {
    let report = MetroSim::new(city(42)).run();
    assert_matches_golden("metropolis_trace_seed42.log", &render(&report));
}

#[test]
fn seed42_prometheus_export_matches_golden_snapshot() {
    let telemetry = Telemetry::shared();
    MetroSim::new(city(42)).with_recorder(&telemetry).run();
    let text = prometheus_text(telemetry.registry());
    assert!(!text.is_empty(), "the day must emit metrics");
    assert_matches_golden("metropolis_metrics_seed42.prom", &text);
}

#[test]
fn seed42_flight_artifact_matches_golden_snapshot() {
    let telemetry = Telemetry::shared();
    let (report, flight) = MetroSim::new(city(42))
        .with_recorder(&telemetry)
        .run_observed(&mut ());
    let silent = MetroSim::new(city(42)).run();
    assert_eq!(report, silent, "attaching the recorder changed the outcome");
    assert_matches_golden("flight_seed42.tsdb.json", &flight.render());
}

/// Replays `cfg`, checks the batch SLO burn engine over the stored
/// series against the gauges the incremental `BurnMeter` recorded in
/// the loop — bit for bit, edge for edge — and returns how many windows
/// saw non-zero bad traffic and how often the alert fired.
fn assert_burn_equivalence(cfg: MetroConfig) -> (usize, usize) {
    let sim = MetroSim::new(cfg.clone());
    let boundaries: Vec<_> = (0..sim.population().windows())
        .map(|w| sim.population().window_end(w))
        .collect();
    let (report, flight) = sim.run_observed(&mut ());
    let db = &flight.tsdb;

    let signals = burn_over_series(
        db,
        &smartcity::metro::slo(),
        &SeriesId::new("metro_good_total"),
        &SeriesId::new("metro_bad_total"),
        &boundaries,
    );
    let short = db.samples(&SeriesId::new("metro:burn_short"));
    let long = db.samples(&SeriesId::new("metro:burn_long"));
    let fired = db.samples(&SeriesId::new("metro:burn_fired"));
    assert_eq!(signals.len(), boundaries.len());
    assert_eq!(short.len(), boundaries.len());
    for (i, (at, sig)) in signals.iter().enumerate() {
        assert_eq!(at.as_micros(), short[i].0, "window {i} close time");
        assert_eq!(
            sig.burn_short.to_bits(),
            short[i].1.to_bits(),
            "window {i} short burn"
        );
        assert_eq!(
            sig.burn_long.to_bits(),
            long[i].1.to_bits(),
            "window {i} long burn"
        );
        assert_eq!(
            if sig.fired { 1.0f64 } else { 0.0 }.to_bits(),
            fired[i].1.to_bits(),
            "window {i} fired edge"
        );
    }
    let bad_windows = report.windows.iter().filter(|w| w.bad > 0).count();
    let fires = fired.iter().filter(|&&(_, v)| v == 1.0).count();
    (bad_windows, fires)
}

/// The SLO burn engine evaluated in batch over the stored series must
/// reproduce the incremental `BurnMeter`'s verdicts edge for edge — the
/// flight artifact is an audit trail for the autoscaler, not an
/// approximation of it. The seed-42 city absorbs its faults without
/// shedding (all-zero burn), so a capacity-capped variant exercises the
/// non-trivial side: real sheds, real burn, a fired edge.
#[test]
fn series_burn_verdicts_match_the_recorded_meter_bitwise() {
    let (_, city_fires) = assert_burn_equivalence(city(42));
    assert_eq!(city_fires, 0, "seed-42 city absorbs its faults cleanly");

    let mut cramped = town(42);
    cramped.population.users = 200_000;
    cramped.sample_total = 2_000;
    cramped.autoscale.max_shards = smartcity::metro::MIN_SHARDS;
    cramped.autoscale.max_pool = cramped.autoscale.min_pool;
    cramped.fault_plan = Some(
        smartcity::fault::FaultPlan::empty()
            .with_event(
                simclock::SimTime::from_secs(6 * 3600),
                smartcity::fault::FaultKind::NodeCrash { node: 0 },
            )
            .with_event(
                simclock::SimTime::from_secs(9 * 3600),
                smartcity::fault::FaultKind::NodeRestart { node: 0 },
            ),
    );
    let (bad_windows, fires) = assert_burn_equivalence(cramped);
    assert!(
        bad_windows > 0,
        "the capacity-capped town must shed under peak load"
    );
    assert!(fires > 0, "shedding must trip the burn alert");
}

/// Counts the day's layer calls and phases.
#[derive(Default)]
struct Counting {
    calls: [u64; DayOp::NAMES.len()],
    phases: u64,
}

impl Probe<DayOp> for Counting {
    fn time<R>(&mut self, op: DayOp, f: impl FnOnce() -> R) -> R {
        self.calls[op as usize] += 1;
        f()
    }

    fn begin(&mut self, _phase: &'static str, _window: Option<u32>) {
        self.phases += 1;
    }
}

/// A probe on a recorded day watches and changes nothing: the report,
/// the decision log and the flight artifact are those of the day without
/// one.
#[test]
fn telemetry_recording_does_not_perturb_the_loop() {
    let (silent, silent_flight) = MetroSim::new(city(42))
        .with_recorder(&Telemetry::shared())
        .run_observed(&mut ());
    let mut probe = Counting::default();
    let (observed, flight) = MetroSim::new(city(42))
        .with_recorder(&Telemetry::shared())
        .run_observed(&mut probe);
    assert_eq!(probe.phases, 2 + city(42).population.windows as u64);
    assert_eq!(probe.calls[DayOp::Send as usize], 4_000);
    assert_eq!(
        silent, observed,
        "the probe changed the closed-loop outcome"
    );
    assert_eq!(silent.decision_log(), observed.decision_log());
    assert_eq!(silent_flight.render(), flight.render());
    assert_eq!(
        silent,
        MetroSim::new(city(42)).run(),
        "attaching telemetry changed the closed-loop outcome"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For any seed: replay is byte-identical and the sample is fully
    /// accounted for (answered + unanswered == executed).
    #[test]
    fn every_seed_replays_identically(seed in 0u64..10_000) {
        let a = MetroSim::new(town(seed)).run();
        let b = MetroSim::new(town(seed)).run();
        prop_assert_eq!(render(&a), render(&b));
        prop_assert_eq!(a.answered + a.unanswered, a.sampled_requests);
        prop_assert_eq!(
            a.sampled_requests,
            a.windows.iter().map(|w| w.sampled).sum::<u64>()
        );
    }
}
