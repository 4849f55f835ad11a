//! `city_day` and `city_day_churn`: the Metropolis day (`scmetro`).
//!
//! Untraced, the program under test is `MetroSim::new(cfg).run()`. That is
//! one function, so the traced run is this file's own **day driver**
//! ([`drive`]): it builds the same plant from the layers' public API and
//! issues the same calls in the same order with a probe around each call.
//! Run with the probe off, the driver is also the untraced side of
//! `harness.trace_overhead_share`, and its wall over `MetroSim::run`'s is
//! `harness.trace_coverage`. The driver must stay a faithful copy of
//! `MetroSim::run_with_flight`; `harness.replica_decision_match` says
//! whether it still is.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use scdfs::{ClusterStats, DfsCluster};
use scfault::{FaultPlan, FaultSpec, RetryPolicy};
use scmetro::{
    apportion, AutoscalePolicy, MetroConfig, MetroReport, MetroSim, PopulationConfig,
    PopulationModel, ScaleAction, SizingGuidelines, TopologyPlan,
};
use scneural::exec::ExecCtx;
use scneural::layers::{Dense, Relu};
use scneural::net::Sequential;
use scneural::tensor::Tensor;
use scnosql::document::{Collection, Doc, Filter};
use scpar::ScparConfig;
use scserve::{CacheConfig, InferSubmit, ServeConfig, ServeStats, Server};
use scstream::{audit_delivery, Broker, Event, ResilientProducer, SendOutcome, Topic};
use sctsdb::{
    increase, last_over_time, quantile_over_time, RecordingRule, RuleEngine, RuleExpr, Series,
    SeriesId, Tsdb,
};
use simclock::{SeededRng, SimDuration, SimTime};

use crate::harness::{part_seed, time_for, timed, Budget, Metrics, Rep, ReplayTimes, Workload};
use crate::trace::{per, Off, OpDef, Probe, Trace, Tracer, HARNESS};

/// Sizes of one day workload; frozen here, scaled only by `--selftest`.
#[derive(Debug, Clone, Copy)]
pub struct DaySizes {
    /// Days in a run, each with residents' traffic of its own.
    pub days: usize,
    /// Requests executed in one day.
    pub sample_total: u64,
    pub warmup_sample_total: u64,
    pub keyspace: usize,
    pub skew: f64,
    pub write_fraction: f64,
    pub infer_fraction: f64,
}

/// Hot 200-key working set, default 5/20/37.5/37.5 mix.
pub const CITY_DAY: DaySizes = DaySizes {
    days: 8,
    sample_total: 5_000,
    warmup_sample_total: 5_000,
    keyspace: 200,
    skew: 1.0,
    write_fraction: 0.05,
    infer_fraction: 0.2,
};

/// Half writes over a flat 2 000-key working set.
pub const CITY_DAY_CHURN: DaySizes = DaySizes {
    days: 8,
    sample_total: 1_000,
    warmup_sample_total: 1_000,
    keyspace: 2_000,
    skew: 0.2,
    write_fraction: 0.5,
    infer_fraction: 0.05,
};

/// Seed of the day's flash crowds and outage schedule; see [`Day::config`].
const CITY_SEED: u64 = 42;

pub struct Day {
    sizes: DaySizes,
    seed: u64,
}

impl Day {
    pub fn new(sizes: DaySizes, seed: u64, scale: u64) -> Self {
        let sizes = DaySizes {
            sample_total: (sizes.sample_total / scale).max(500),
            warmup_sample_total: (sizes.warmup_sample_total / scale).max(500),
            ..sizes
        };
        Day { sizes, seed }
    }

    /// The configuration of day `part` of the run.
    fn config(&self, part: usize, sample_total: u64) -> MetroConfig {
        // The city and its bad day are the workload, like its sizes: the
        // flash crowds and the outage schedule (the one `MetroSim::new`
        // would generate at intensity 1.0) always come from `CITY_SEED`.
        // `--seed` draws the residents' traffic: keys, mix, documents, rows.
        // (Drawn from the run's seed, some days have no outage at all and
        // some have a flash crowd inside one: `answered_share` ranged from
        // 0.92 to 1.0 across seeds.)
        let population = PopulationConfig {
            users: 1_000_000,
            windows: 96,
            seed: CITY_SEED,
            ..PopulationConfig::default()
        };
        let sizing = SizingGuidelines::default();
        let shards =
            TopologyPlan::size(&PopulationModel::new(population.clone()), &sizing).initial_shards;
        let faults = FaultPlan::generate(
            &FaultSpec::new(population.day, shards as u32).intensity(1.0),
            CITY_SEED,
        );
        MetroConfig {
            seed: part_seed(self.seed, part),
            population,
            sizing,
            sample_total,
            keyspace: self.sizes.keyspace,
            skew: self.sizes.skew,
            write_fraction: self.sizes.write_fraction,
            infer_fraction: self.sizes.infer_fraction,
            fault_plan: Some(faults),
            ..MetroConfig::default()
        }
    }
}

/// What a day produced, in the form both `MetroSim::run` and the day
/// driver can be reduced to.
#[derive(Debug, Clone, PartialEq)]
pub struct DayOutcome {
    sampled: u64,
    answered: u64,
    unanswered: u64,
    delivered: usize,
    duplicates: usize,
    lost: usize,
    dfs: ClusterStats,
    p50_ms: f64,
    p99_ms: f64,
    decision_log: String,
}

impl DayOutcome {
    fn of(r: &MetroReport) -> Self {
        DayOutcome {
            sampled: r.sampled_requests,
            answered: r.answered,
            unanswered: r.unanswered,
            delivered: r.delivered,
            duplicates: r.duplicates,
            lost: r.lost,
            dfs: r.dfs.clone(),
            p50_ms: r.p50_ms,
            p99_ms: r.p99_ms,
            decision_log: r.decision_log(),
        }
    }

    /// Conservation on the day: every sampled request is answered or
    /// not, every send is delivered or lost, the archive loses no block.
    fn check(&self) -> Result<(), String> {
        if self.answered + self.unanswered != self.sampled {
            return Err(format!(
                "sampled {} != answered {} + unanswered {}",
                self.sampled, self.answered, self.unanswered
            ));
        }
        // One send per sampled request.
        if (self.delivered + self.lost) as u64 != self.sampled {
            return Err(format!(
                "sends {} != delivered {} + lost {}",
                self.sampled, self.delivered, self.lost
            ));
        }
        if self.dfs.lost != 0 {
            return Err(format!("dfs lost {} blocks", self.dfs.lost));
        }
        Ok(())
    }

    /// Residents answered and ingest sends delivered, over requests
    /// plus sends (one send per request).
    fn answered_share(&self) -> f64 {
        1.0 - (self.unanswered + self.lost as u64) as f64 / (2 * self.sampled) as f64
    }
}

impl Workload for Day {
    type State = ();

    fn setup(&self) {
        // The plan is built inside every repetition (it is part of
        // `MetroSim::new(cfg).run()`), so set-up is the warm-up day alone.
        black_box(MetroSim::new(self.config(0, self.sizes.warmup_sample_total)).run());
    }

    fn parts(&self) -> usize {
        self.sizes.days
    }

    fn rep(&self, _: &mut (), part: usize) -> Result<Rep, String> {
        let cfg = self.config(part, self.sizes.sample_total);
        let (report, cost) = timed(|| MetroSim::new(cfg).run());
        let outcome = DayOutcome::of(&report);
        outcome.check()?;
        Ok(Rep {
            ops: outcome.sampled,
            // `check` above accounted for every request and every send.
            failed: 0,
            answered_share: outcome.answered_share(),
            digest: format!("{outcome:?}"),
            cost,
        })
    }

    fn traced(&self, _: &mut (), seconds: f64) -> Result<(Metrics, Trace), String> {
        // The first day of the run, over and over.
        let cfg = self.config(0, self.sizes.sample_total);
        let mut times = ReplayTimes::default();
        let mut best = None;
        let mut reference = None;
        // Three quarters of the budget; the rest is for the out-of-band
        // layer measurements below.
        let mut budget = Budget::new(0.75 * seconds);
        while budget.another() {
            let t = Instant::now();
            let report = MetroSim::new(cfg.clone()).run();
            times.library.push(t.elapsed().as_secs_f64());
            reference = Some(DayOutcome::of(&report));

            let t = Instant::now();
            black_box(drive(&cfg, &mut Off));
            times.untraced.push(t.elapsed().as_secs_f64());

            let mut tracer = Tracer::new("day", &OPS, cfg.population.windows + 3);
            let t = Instant::now();
            let run = drive(&cfg, &mut tracer);
            let traced_s = t.elapsed().as_secs_f64();
            if times.is_fastest_traced(traced_s) {
                best = Some((run, tracer.finish()));
            }
            times.traced.push(traced_s);
        }
        let (run, trace) = best.expect("at least one cycle");
        let reference = reference.expect("at least one cycle");
        run.outcome.check()?;

        let mut m = Metrics::new();
        let shares = trace.shares()?;
        let wall_ns = trace.wall_ns() as f64;
        let windows = cfg.population.windows as f64;
        let sampled = run.outcome.sampled as f64;

        // scstream
        m.put("scstream.send_ns_per_op", trace.ns_per_call(SEND));
        m.put("scstream.share", shares["scstream"]);
        m.put(
            "scstream.retries_per_send",
            per(run.retries as f64, sampled),
        );
        m.put("scstream.lost_share", per(run.outcome.lost as f64, sampled));
        // scdfs
        m.put("scdfs.archive_ns_per_window", trace.ns_per_call(ARCHIVE));
        m.put("scdfs.share", shares["scdfs"]);
        m.put("scdfs.blocks", run.outcome.dfs.blocks as f64);
        m.put(
            "scdfs.under_replicated",
            run.outcome.dfs.under_replicated as f64,
        );
        // scserve
        let s = &run.serve;
        m.put("scserve.get_ns_per_op", trace.ns_per_call(GET));
        m.put("scserve.query_ns_per_op", trace.ns_per_call(QUERY));
        m.put("scserve.put_ns_per_op", trace.ns_per_call(PUT));
        m.put("scserve.infer_submit_ns_per_op", trace.ns_per_call(INFER));
        m.put("scserve.tick_ns_per_batch", trace.ns_per_call(TICK));
        m.put("scserve.share", shares["scserve"]);
        m.put("scserve.hit_rate", s.hit_rate());
        m.put("scserve.mean_batch", s.mean_batch());
        m.put("scserve.shed_share", s.shed_fraction());
        m.put(
            "scserve.coalesced_share",
            per(s.coalesced as f64, s.requests as f64),
        );
        m.put("scserve.rebalance_moves", s.rebalance_moves as f64);
        // sctsdb
        m.put("sctsdb.record_ns_per_sample", trace.ns_per_call(RECORD));
        m.put(
            "sctsdb.window_close_ns",
            per(trace.busy_ns(WINDOW_CLOSE) as f64, windows),
        );
        m.put("sctsdb.distil_ns", trace.ns_per_call(DISTIL));
        m.put("sctsdb.share", shares["sctsdb"]);
        m.put(
            "sctsdb.bytes_per_sample",
            per(run.tsdb_bytes as f64, run.tsdb_samples as f64),
        );
        // scmetro: control and planning are the driver's own crate, so
        // they count as glue together with the harness's self time.
        m.put(
            "scmetro.control_ns_per_window",
            per(trace.busy_ns(CONTROL) as f64, windows),
        );
        m.put("scmetro.decisions", run.decisions as f64);
        m.put("scmetro.plan_ns", trace.ns_per_call(PLAN));
        m.put("scmetro.glue_share", shares["scmetro"] + shares[HARNESS]);
        m.put("harness.remainder_share", shares[HARNESS]);

        // Out of band: the stores under scserve, at this workload's
        // keyspace, filter and batch size.
        let oob = out_of_band(&cfg, s.mean_batch(), 0.2 * seconds);
        m.put("scnosql.find_ns_per_op", oob.find_ns);
        m.put("scnosql.update_ns_per_op", oob.update_ns);
        m.put("scnosql.docs_scanned_per_find", oob.docs_scanned_per_find);
        m.put("scneural.predict_ns_per_row", oob.predict_ns_per_row);
        m.put(
            "scneural.predict_share_of_day",
            oob.predict_ns_per_row * s.batched_rows as f64 / wall_ns,
        );

        times.put_metrics(&mut m, run.outcome == reference);
        Ok((m, trace))
    }
}

// --- The day driver. -------------------------------------------------------

const SEND: usize = 0;
const AUDIT: usize = 1;
const ARCHIVE: usize = 2;
const PUT: usize = 3;
const GET: usize = 4;
const QUERY: usize = 5;
const INFER: usize = 6;
const NEXT_DEADLINE: usize = 7;
const TICK: usize = 8;
const DRAIN: usize = 9;
const BUILD: usize = 10;
const RECORD: usize = 11;
const WINDOW_CLOSE: usize = 12;
const DISTIL: usize = 13;
const PLAN: usize = 14;
const CONTROL: usize = 15;

static OPS: [OpDef; 16] = [
    OpDef {
        layer: "scstream",
        name: "scstream.send",
    },
    OpDef {
        layer: "scstream",
        name: "scstream.audit_delivery",
    },
    OpDef {
        layer: "scdfs",
        name: "scdfs.archive",
    },
    OpDef {
        layer: "scserve",
        name: "scserve.put",
    },
    OpDef {
        layer: "scserve",
        name: "scserve.get",
    },
    OpDef {
        layer: "scserve",
        name: "scserve.query",
    },
    OpDef {
        layer: "scserve",
        name: "scserve.infer_submit",
    },
    OpDef {
        layer: "scserve",
        name: "scserve.next_deadline",
    },
    OpDef {
        layer: "scserve",
        name: "scserve.tick",
    },
    OpDef {
        layer: "scserve",
        name: "scserve.drain",
    },
    OpDef {
        layer: "scserve",
        name: "scserve.build",
    },
    OpDef {
        layer: "sctsdb",
        name: "sctsdb.record",
    },
    OpDef {
        layer: "sctsdb",
        name: "sctsdb.window_close",
    },
    OpDef {
        layer: "sctsdb",
        name: "sctsdb.distil",
    },
    OpDef {
        layer: "scmetro",
        name: "scmetro.plan",
    },
    OpDef {
        layer: "scmetro",
        name: "scmetro.control",
    },
];

const KINDS: [&str; 4] = ["traffic", "air", "camera", "event"];
const BROKER_NODE: u32 = 0;
const SCALE_NODE_BASE: u32 = 1_000;

struct DayRun {
    outcome: DayOutcome,
    serve: ServeStats,
    retries: u64,
    decisions: usize,
    tsdb_samples: u64,
    tsdb_bytes: usize,
}

fn model(dim: usize) -> Sequential {
    Sequential::new()
        .with(Dense::new(dim, 16, 1_901))
        .with(Relu::new())
        .with(Dense::new(16, 4, 1_902))
}

fn ctx_for_pool(pool: usize) -> ExecCtx {
    let par = if pool <= 1 {
        ScparConfig::serial()
    } else {
        ScparConfig::with_threads(pool)
    };
    ExecCtx::serial().with_par(par)
}

fn reading(kind: &str, serial: i64, value: f64) -> Doc {
    Doc::object([
        ("kind", Doc::Str(kind.into())),
        ("v", Doc::I64(serial)),
        ("reading", Doc::F64(value)),
    ])
}

/// The same day as `MetroSim::new(cfg.clone()).run()`, call for call,
/// with `probe` around every call into a layer.
fn drive<P: Probe>(cfg: &MetroConfig, probe: &mut P) -> DayRun {
    probe.begin("plan", None);
    let (pop, plan, faults) = probe.time(PLAN, || {
        let pop = PopulationModel::new(cfg.population.clone());
        let plan = TopologyPlan::size(&pop, &cfg.sizing);
        let faults = cfg.fault_plan.clone().unwrap_or_else(|| {
            FaultPlan::generate(
                &FaultSpec::new(cfg.population.day, plan.initial_shards as u32)
                    .intensity(cfg.fault_intensity),
                cfg.seed,
            )
        });
        (pop, plan, faults)
    });
    probe.end();

    probe.begin("seed", None);
    let windows = pop.windows();
    let ratio = cfg.sample_total as f64 / pop.total().max(1) as f64;
    let weights: Vec<f64> = (0..windows).map(|w| pop.demand(w) as f64).collect();
    let samples = apportion(cfg.sample_total, &weights);

    let mut policy = AutoscalePolicy::new(
        cfg.autoscale.clone(),
        plan.initial_shards,
        cfg.autoscale.min_pool,
        SCALE_NODE_BASE,
    );
    let mut shards = plan.initial_shards;
    let mut pool = cfg.autoscale.min_pool;
    let capacity_rps = |s: usize, p: usize| {
        let pool_factor = 1.0 + 0.25 * p.saturating_sub(cfg.autoscale.min_pool) as f64;
        plan.guidelines.per_shard_rps * s as f64 * pool_factor
    };
    let capacity_sample = |s: usize, p: usize| (capacity_rps(s, p) * ratio).max(1e-9);
    let nominal_rate = |s: usize, p: usize| 4.0 * capacity_sample(s, p);

    let mut server = probe.time(BUILD, || {
        Server::new(ServeConfig {
            shards: shards as u32,
            rate_per_s: nominal_rate(shards, pool),
            burst: 64.0,
            service_rate: capacity_sample(shards, pool),
            queue_capacity: 64,
            query_cache: CacheConfig {
                ttl: SimDuration::from_secs(300),
                ..CacheConfig::default()
            },
            ..ServeConfig::default()
        })
        .with_model(model(cfg.feature_dim))
        .with_ctx(ctx_for_pool(pool))
        .with_fault_plan(&faults)
    });
    let mut broker = Broker::new(
        Topic::new("metro/ingest", plan.partitions as u32),
        BROKER_NODE,
        &faults,
    );
    let mut producer = ResilientProducer::new(
        "metro",
        RetryPolicy::new(4, SimDuration::from_millis(50)).with_jitter(0.0),
        cfg.seed ^ 0x16E5_7001,
    );
    let mut dfs = DfsCluster::new(
        plan.dfs_nodes,
        plan.guidelines.dfs_replication,
        plan.guidelines.dfs_block_size,
        cfg.seed ^ 0xD5,
    )
    .expect("topology plan sizes a valid cluster");
    dfs.create("/metro/day.log", b"metropolis\n")
        .expect("fresh namespace");

    let mut rng = SeededRng::new(cfg.seed ^ 0x3E7_2070);
    let mut row_rng = rng.fork();
    let rows: Vec<Vec<f32>> = (0..cfg.row_pool.max(1))
        .map(|_| {
            (0..cfg.feature_dim.max(1))
                .map(|_| row_rng.next_f64() as f32)
                .collect()
        })
        .collect();
    let rank = |rng: &mut SeededRng, n: usize| -> usize {
        let u = rng.next_f64();
        ((n as f64 * u.powf(1.0 + cfg.skew)) as usize).min(n - 1)
    };
    let mut serial = 0i64;
    for r in 0..cfg.keyspace {
        let kind = KINDS[rng.next_bounded(KINDS.len() as u64) as usize];
        let doc = reading(kind, serial, rng.next_f64() * 100.0);
        serial += 1;
        let key = format!("k-{r:05}");
        probe
            .time(PUT, || server.put(&key, doc, SimTime::ZERO))
            .expect("generated docs are valid");
    }

    let mut fault_cursor = 0usize;
    let fault_events = faults.events();
    let mut dfs_clock = SimTime::ZERO;
    let mut sends = 0u64;
    let mut pending: BTreeMap<u64, ()> = BTreeMap::new();

    let good_id = SeriesId::new("metro_good_total");
    let bad_id = SeriesId::new("metro_bad_total");
    let sampled_id = SeriesId::new("metro_sampled_total");
    let demand_id = SeriesId::new("metro_demand_total");
    let lat_id = SeriesId::new("metro_latency_ms");
    let shards_id = SeriesId::new("metro_shards");
    let pool_id = SeriesId::new("metro_pool");
    let util_id = SeriesId::new("metro_utilization");
    let burn_short_id = SeriesId::new("metro:burn_short");
    let burn_long_id = SeriesId::new("metro:burn_long");
    let burn_fired_id = SeriesId::new("metro:burn_fired");

    let mut db = Tsdb::with_capacity_hint(windows + 2);
    db.insert_series(Series::with_capacity(
        lat_id.clone(),
        cfg.sample_total as usize + 8,
    ));
    let (mut cum_good, mut cum_bad, mut cum_sampled, mut cum_demand) = (0u64, 0u64, 0u64, 0u64);
    // One place for every sample written, so every write is probed alike.
    fn record<P: Probe>(probe: &mut P, db: &mut Tsdb, id: &SeriesId, at: SimTime, v: f64) {
        probe
            .time(RECORD, || db.record(id, at, v))
            .expect("samples land in time order");
    }
    for id in [&good_id, &bad_id, &sampled_id, &demand_id] {
        record(probe, &mut db, id, SimTime::ZERO, 0.0);
    }
    record(probe, &mut db, &shards_id, SimTime::ZERO, shards as f64);
    record(probe, &mut db, &pool_id, SimTime::ZERO, pool as f64);

    let rules = RuleEngine::new()
        .with_rule(RecordingRule::new(
            "metro:rps",
            RuleExpr::Rate(demand_id.clone()),
        ))
        .with_rule(RecordingRule::new(
            "metro:shed_fraction",
            RuleExpr::Ratio(
                Box::new(RuleExpr::Increase(bad_id.clone())),
                Box::new(RuleExpr::Increase(sampled_id.clone())),
            ),
        ))
        .with_rule(RecordingRule::new(
            "metro:p50_ms",
            RuleExpr::Quantile(lat_id.clone(), 0.50),
        ))
        .with_rule(RecordingRule::new(
            "metro:p99_ms",
            RuleExpr::Quantile(lat_id.clone(), 0.99),
        ));
    probe.end();

    for (w, &sampled) in samples.iter().enumerate() {
        probe.begin("window", Some(w as u32));
        let t0 = pop.window_start(w);
        let t1 = pop.window_end(w);
        let secs = pop.window_secs(w);

        let digest = vec![(w % 251) as u8; (sampled as usize).max(1)];
        probe.time(ARCHIVE, || {
            while fault_cursor < fault_events.len() && fault_events[fault_cursor].at < t1 {
                dfs.apply_fault(&fault_events[fault_cursor]);
                fault_cursor += 1;
            }
            dfs_clock = dfs.tick(t1.saturating_since(dfs_clock));
            dfs.re_replicate();
            // Best-effort during faults, like HDFS.
            let _ = dfs.append("/metro/day.log", &digest);
        });

        for i in 0..sampled {
            let at = t0
                + SimDuration::from_micros(
                    t1.saturating_since(t0).as_micros() * i / sampled.max(1),
                );
            let key = format!("k-{:05}", rank(&mut rng, cfg.keyspace.max(1)));
            sends += 1;
            cum_sampled += 1;
            let event = Event::with_key(key.clone(), vec![w as u8]);
            let _: SendOutcome = probe.time(SEND, || producer.send(&mut broker, event, at));

            while let Some(deadline) = probe.time(NEXT_DEADLINE, || server.next_deadline()) {
                if deadline > at {
                    break;
                }
                for c in probe.time(TICK, || server.tick(deadline)) {
                    pending.remove(&c.req.0);
                    cum_good += 1;
                    record(
                        probe,
                        &mut db,
                        &lat_id,
                        deadline,
                        c.latency.as_secs_f64() * 1e3,
                    );
                }
            }
            let roll = rng.next_f64();
            if roll < cfg.write_fraction {
                let kind = KINDS[rng.next_bounded(KINDS.len() as u64) as usize];
                let doc = reading(kind, serial, rng.next_f64() * 100.0);
                serial += 1;
                probe
                    .time(PUT, || server.put(&key, doc, at))
                    .expect("generated docs are valid");
                cum_good += 1;
                let ms = scserve::CACHE_HIT_COST.as_secs_f64() * 1e3;
                record(probe, &mut db, &lat_id, at, ms);
            } else if roll < cfg.write_fraction + cfg.infer_fraction {
                let row = rows[rank(&mut rng, rows.len())].clone();
                match probe.time(INFER, || server.infer(row, at)) {
                    InferSubmit::Cached { latency, .. } | InferSubmit::Stale { latency, .. } => {
                        cum_good += 1;
                        record(probe, &mut db, &lat_id, at, latency.as_secs_f64() * 1e3);
                    }
                    InferSubmit::Pending(req) => {
                        pending.insert(req.0, ());
                    }
                    InferSubmit::Shed => cum_bad += 1,
                }
            } else if rng.next_f64() < 0.5 {
                let served = probe
                    .time(GET, || server.get(&key, at))
                    .expect("gets cannot fail");
                if served.outcome.is_shed() {
                    cum_bad += 1;
                } else {
                    cum_good += 1;
                    record(
                        probe,
                        &mut db,
                        &lat_id,
                        at,
                        served.latency.as_secs_f64() * 1e3,
                    );
                }
            } else {
                let kind = KINDS[rank(&mut rng, KINDS.len())];
                let filter = Filter::Eq("kind".into(), Doc::Str(kind.into()));
                let served = probe
                    .time(QUERY, || server.query(&filter, at))
                    .expect("filters are valid");
                if served.outcome.is_shed() {
                    cum_bad += 1;
                } else {
                    cum_good += 1;
                    record(
                        probe,
                        &mut db,
                        &lat_id,
                        at,
                        served.latency.as_secs_f64() * 1e3,
                    );
                }
            }
        }
        while let Some(deadline) = probe.time(NEXT_DEADLINE, || server.next_deadline()) {
            if deadline > t1 {
                break;
            }
            for c in probe.time(TICK, || server.tick(deadline)) {
                pending.remove(&c.req.0);
                cum_good += 1;
                record(
                    probe,
                    &mut db,
                    &lat_id,
                    deadline,
                    c.latency.as_secs_f64() * 1e3,
                );
            }
        }

        cum_demand += pop.demand(w);
        record(probe, &mut db, &good_id, t1, cum_good as f64);
        record(probe, &mut db, &bad_id, t1, cum_bad as f64);
        record(probe, &mut db, &sampled_id, t1, cum_sampled as f64);
        record(probe, &mut db, &demand_id, t1, cum_demand as f64);

        let (w_good, w_bad) = probe.time(WINDOW_CLOSE, || {
            (
                increase(&db.samples(&good_id), t0.as_micros(), t1.as_micros()) as u64,
                increase(&db.samples(&bad_id), t0.as_micros(), t1.as_micros()) as u64,
            )
        });
        let utilization = (pop.demand(w) as f64 / secs) / capacity_rps(shards, pool);
        probe.time(CONTROL, || {
            let actions =
                policy.observe(w as u64, t1, w_good as usize, w_bad as usize, utilization);
            for action in actions {
                match action {
                    ScaleAction::AddShard { node } => {
                        server.add_shard(node);
                        shards += 1;
                    }
                    ScaleAction::RemoveShard { node } => {
                        server.remove_shard(node);
                        shards -= 1;
                    }
                    ScaleAction::GrowPool { workers } | ScaleAction::ShrinkPool { workers } => {
                        pool = workers;
                        server.set_ctx(ctx_for_pool(pool));
                    }
                    ScaleAction::Shed { keep_millis } => {
                        let keep = keep_millis as f64 / 1_000.0;
                        server.set_rate_limit(keep * capacity_sample(shards, pool), 8.0, t1);
                    }
                    ScaleAction::Restore => {
                        server.set_rate_limit(nominal_rate(shards, pool), 64.0, t1);
                    }
                }
            }
            server.set_service_rate(capacity_sample(shards, pool), t1);
        });

        record(probe, &mut db, &util_id, t1, utilization);
        record(probe, &mut db, &shards_id, t1, shards as f64);
        record(probe, &mut db, &pool_id, t1, pool as f64);
        let sig = *policy
            .signals()
            .last()
            .expect("observe emits one signal per window");
        record(probe, &mut db, &burn_short_id, t1, sig.burn_short);
        record(probe, &mut db, &burn_long_id, t1, sig.burn_long);
        record(
            probe,
            &mut db,
            &burn_fired_id,
            t1,
            f64::from(u8::from(sig.fired)),
        );
        probe.time(WINDOW_CLOSE, || rules.eval_window(&mut db, t0, t1));
        probe.end();
    }

    probe.begin("finish", None);
    let day_end = pop.window_end(windows - 1);
    let drain_at = SimTime::from_micros(day_end.as_micros() + 1);
    for c in probe.time(DRAIN, || server.drain(day_end)) {
        pending.remove(&c.req.0);
        cum_good += 1;
        record(
            probe,
            &mut db,
            &lat_id,
            drain_at,
            c.latency.as_secs_f64() * 1e3,
        );
    }
    record(probe, &mut db, &good_id, drain_at, cum_good as f64);
    assert!(pending.is_empty(), "drain settles every ticket");

    let end_us = drain_at.as_micros();
    let (answered, unanswered, p50_ms, p99_ms) = probe.time(DISTIL, || {
        let good = db.samples(&good_id);
        let bad = db.samples(&bad_id);
        let sampled = db.samples(&sampled_id);
        let demand = db.samples(&demand_id);
        let util = db.samples(&util_id);
        let shard_counts = db.samples(&shards_id);
        let pools = db.samples(&pool_id);
        let lat = db.samples(&lat_id);
        // The report's per-window table; only its cost is wanted here.
        for w in 0..windows {
            let f = pop.window_start(w).as_micros();
            let t = pop.window_end(w).as_micros();
            black_box((
                increase(&demand, f, t),
                increase(&sampled, f, t),
                increase(&good, f, t),
                increase(&bad, f, t),
                last_over_time(&util, f, t),
                last_over_time(&shard_counts, f, t),
                last_over_time(&pools, f, t),
            ));
        }
        (
            increase(&good, 0, end_us) as u64,
            increase(&bad, 0, end_us) as u64,
            quantile_over_time(&lat, 0, end_us, 0.50).unwrap_or(0.0),
            quantile_over_time(&lat, 0, end_us, 0.99).unwrap_or(0.0),
        )
    });
    let audit = probe.time(AUDIT, || {
        audit_delivery(broker.topic(), &[("metro", sends)])
    });
    let run = DayRun {
        outcome: DayOutcome {
            sampled: cfg.sample_total,
            answered,
            unanswered,
            delivered: audit.delivered,
            duplicates: audit.duplicates,
            lost: audit.lost,
            dfs: dfs.stats(),
            p50_ms,
            p99_ms,
            decision_log: policy.decision_log(),
        },
        serve: server.stats(),
        retries: producer.retries(),
        decisions: policy.decisions().len(),
        tsdb_samples: db.total_samples(),
        tsdb_bytes: db.compressed_bytes(),
    };
    probe.end();
    run
}

// --- Out of band: the stores under scserve. ---------------------------------

struct OutOfBand {
    find_ns: f64,
    update_ns: f64,
    docs_scanned_per_find: f64,
    predict_ns_per_row: f64,
}

/// Times `scnosql` on this workload's keyspace and filter, and the
/// serving model at the day's mean batch size, for `budget` seconds in
/// all. These calls happen *inside* scserve during the day; measured
/// here they say how much of `scserve.*` is the store and the kernel.
fn out_of_band(cfg: &MetroConfig, mean_batch: f64, budget: f64) -> OutOfBand {
    let mut rng = SeededRng::new(cfg.seed ^ 0x0B);
    let mut store = Collection::new("serving");
    let ids: Vec<_> = (0..cfg.keyspace)
        .map(|r| {
            let kind = KINDS[rng.next_bounded(KINDS.len() as u64) as usize];
            store
                .insert(reading(kind, r as i64, rng.next_f64() * 100.0))
                .expect("generated docs are valid")
        })
        .collect();
    let filters: Vec<Filter> = KINDS
        .iter()
        .map(|k| Filter::Eq("kind".into(), Doc::Str((*k).into())))
        .collect();

    let (scanned0, _) = store.query_stats();
    let mut i = 0usize;
    let (find_ns, finds) = time_for(budget / 3.0, 1, || {
        i += 1;
        black_box(
            store
                .find(&filters[i % filters.len()])
                .expect("valid filter")
                .len(),
        );
    });
    let (scanned1, _) = store.query_stats();

    let mut serial = cfg.keyspace as i64;
    let (update_ns, _) = time_for(budget / 3.0, 16, || {
        serial += 1;
        let id = ids[serial as usize % ids.len()];
        let doc = reading(KINDS[serial as usize % KINDS.len()], serial, 1.0);
        black_box(store.update(id, doc).expect("generated docs are valid"));
    });

    let rows = (mean_batch.round() as usize).max(1);
    let net = model(cfg.feature_dim);
    let x = Tensor::from_vec(
        vec![rows, cfg.feature_dim],
        (0..rows * cfg.feature_dim)
            .map(|_| rng.next_f64() as f32)
            .collect(),
    )
    .expect("sized above");
    let ctx = ExecCtx::serial();
    let (predict_ns, _) = time_for(budget / 3.0, 16, || {
        black_box(net.predict_ctx(&x, &ctx));
    });

    OutOfBand {
        find_ns,
        update_ns,
        // A full scan visits every document; the store counts scans.
        docs_scanned_per_find: per(
            ((scanned1 - scanned0) * store.len() as u64) as f64,
            finds as f64,
        ),
        predict_ns_per_row: predict_ns / rows as f64,
    }
}
