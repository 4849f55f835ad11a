//! E19: the Metropolis closed-loop macro-benchmark.
//!
//! The paper's headline claim is a cyberinfrastructure that carries an
//! entire city — millions of residents — through its big-data and
//! deep-learning layers. E19 rehearses the claim end to end on
//! sim-time: a seeded population model (diurnal peaks, flash crowds)
//! drives stream ingest, DFS archival, and the serving tier with its
//! attached model, all under a shared fault schedule, while the
//! burn-rate-fed autoscaler closes the loop — adding and removing
//! shards, resizing the scpar pool, shedding at the admission door.
//!
//! The printed table is the day seen window by window; the headline
//! numbers are demand, latency percentiles, shed fraction, scaling
//! activity, ingest loss, and recovery time after the last fault. The
//! scaling-decision log rides `BENCH_metropolis.json` as a deterministic
//! field, so the baseline test pins the entire closed-loop trace, byte for
//! byte, in every cell of the CI thread/ISA matrix.
//!
//! The run also attaches the sctsdb flight artifact
//! (`flight_seed<seed>.tsdb.json`), written next to the BENCH JSON: every
//! trajectory series of the day — RPS, latency, shed fraction, fleet
//! sizes, burn rates — as compressed time series, with its fingerprint
//! pinned as a deterministic key so the comparison sees any drift in the
//! recorded day, not just in the distilled headline.
//!
//! The population is `PopulationConfig::default()`'s one million. `quick`
//! shrinks windows and the executed sample — never the population — so
//! the pinned run still plans at full city scale.

use crate::{f1, f3, header, table, BenchJson};
use scmetro::{MetroConfig, MetroSim, PopulationConfig};
use sctelemetry::Telemetry;
use sctsdb::{max_over_time, SeriesId};
use serde_json::json;

fn config(quick: bool) -> MetroConfig {
    MetroConfig {
        population: PopulationConfig {
            windows: if quick { 24 } else { 96 },
            ..PopulationConfig::default()
        },
        sample_total: if quick { 4_000 } else { 20_000 },
        ..MetroConfig::default()
    }
}

pub fn run(quick: bool) -> BenchJson {
    header(
        "E19",
        "§V",
        "Metropolis: a simulated city's day through the whole stack, autoscaling under faults",
    );
    let sim = MetroSim::new(config(quick));
    let plan = sim.topology().clone();
    let fault_count = sim.fault_plan().len();
    let multiplier = f1(config(quick).population.flash_multiplier);
    let crowds: Vec<String> = (sim.population().crowds().iter())
        .map(|c| format!("window {} (width {}, ×{multiplier})", c.start, c.width))
        .collect();

    let mut json = BenchJson::new("metropolis", quick);
    let telemetry = Telemetry::shared();
    let seed = config(quick).seed;
    let (r, flight) = sim.with_recorder(&telemetry).run_observed(&mut ());

    println!(
        "\nstatic plan: {} partitions on {} brokers, {} DFS nodes, {} serving shards \
         (mean {} rps, peak {} rps, {} scheduled faults)",
        plan.partitions,
        plan.brokers,
        plan.dfs_nodes,
        plan.initial_shards,
        f1(r.mean_rps),
        f1(r.peak_rps),
        fault_count,
    );
    println!("flash crowds: {}", crowds.join(", "));

    // Every 8th window keeps the table one screen tall at 96 windows.
    let stride = (r.windows.len() / 12).max(1);
    let rows: Vec<Vec<String>> = r
        .windows
        .iter()
        .filter(|s| (s.window as usize).is_multiple_of(stride))
        .map(|s| {
            vec![
                s.window.to_string(),
                s.demand.to_string(),
                s.sampled.to_string(),
                f3(s.utilization),
                f3(s.shed_fraction()),
                s.shards.to_string(),
                s.pool.to_string(),
            ]
        })
        .collect();
    table(
        &[
            "window",
            "demand",
            "sampled",
            "util",
            "shed_frac",
            "shards",
            "pool",
        ],
        &rows,
    );
    println!(
        "\nday total: {} queries from {} users; answered {} / shed {} (p50 {} ms, p99 {} ms)\n\
         loop: +{} shards / -{} shards, {} pool resizes, {} shed toggles; \
         recovery {} s after the last outage\n\
         ingest: {} delivered, {} duplicates, {} lost; \
         archive: {} blocks, {} under-replicated, {} lost",
        r.total_demand,
        r.users,
        r.answered,
        r.unanswered,
        f3(r.p50_ms),
        f3(r.p99_ms),
        r.shards_added,
        r.shards_removed,
        r.pool_resizes,
        r.shed_actions,
        f1(r.recovery_s),
        r.delivered,
        r.duplicates,
        r.lost,
        r.dfs.blocks,
        r.dfs.under_replicated,
        r.dfs.lost,
    );

    let log_lines: Vec<String> = r.decision_log().lines().map(str::to_string).collect();
    println!("\nscaling decisions ({}):", log_lines.len());
    for line in &log_lines {
        println!("  {line}");
    }

    // Sim-time results are deterministic: they are compared exactly,
    // decision log included.
    json.det_u("users", r.users)
        .det_u("daily_queries", r.daily_queries)
        .det_u("total_demand", r.total_demand)
        .det_u("sampled_requests", r.sampled_requests)
        .det_f("peak_rps", r.peak_rps)
        .det_f("mean_rps", r.mean_rps)
        .det_f("p50_sim_ms", r.p50_ms)
        .det_f("p99_sim_ms", r.p99_ms)
        .det_u("answered", r.answered)
        .det_u("unanswered", r.unanswered)
        .det_f("shed_fraction", r.shed_fraction)
        .det_u("shards_added", r.shards_added)
        .det_u("shards_removed", r.shards_removed)
        .det_u("pool_resizes", r.pool_resizes)
        .det_u("shed_actions", r.shed_actions)
        .det_u("final_shards", r.final_shards as u64)
        .det_u("final_pool", r.final_pool as u64)
        .det_f("recovery_s_sim", r.recovery_s)
        .det_u("ingest_delivered", r.delivered as u64)
        .det_u("ingest_duplicates", r.duplicates as u64)
        .det_u("ingest_lost", r.lost as u64)
        .det_u("dfs_blocks", r.dfs.blocks as u64)
        .det_u("dfs_lost_blocks", r.dfs.lost as u64)
        .det("decision_log", json!(log_lines));

    // The flight artifact: the whole day as stored series, written next
    // to the BENCH JSON and pinned by fingerprint.
    let flight_name = format!("flight_seed{seed}.tsdb.json");
    let db = &flight.tsdb;
    let rps = db.samples(&SeriesId::new("metro:rps"));
    let peak_window_rps = max_over_time(&rps, 0, u64::MAX).unwrap_or(0.0);
    let fired = db.samples(&SeriesId::new("metro:burn_fired"));
    json.det("flight_fingerprint", json!(flight.fingerprint()))
        .det_u("flight_series", db.len() as u64)
        .det_u("flight_samples", db.total_samples())
        .det_u("flight_compressed_bytes", db.compressed_bytes() as u64)
        .det_u("flight_raw_bytes", db.raw_bytes() as u64)
        .det_f("flight_peak_window_rps", peak_window_rps)
        .det_u(
            "flight_burn_fired_windows",
            fired.iter().filter(|&&(_, v)| v == 1.0).count() as u64,
        );
    println!(
        "\nflight artifact: {flight_name} ({} series, {} samples, {} -> {} bytes)",
        db.len(),
        db.total_samples(),
        db.raw_bytes(),
        db.compressed_bytes(),
    );
    json.attach(&flight_name, flight.render());
    json
}
