//! The Metropolis macro-simulation: a full day of city demand through
//! the whole stack, with the autoscaling loop closed.
//!
//! [`MetroSim`] wires every layer of the repo together on sim-time:
//! a [`PopulationModel`]'s demand series drives a
//! [`scstream::Broker`] (ingest), an [`scdfs::DfsCluster`] (archival), an
//! [`scserve::Server`] with an attached [`scneural`] model (queries and
//! inference), all under one shared [`scfault::FaultPlan`]. Each demand
//! window's good/bad tallies and utilization feed the
//! [`AutoscalePolicy`], whose actions are applied
//! back to the live server through its runtime knobs — shards join and
//! leave the hash ring, the scpar pool resizes through [`ExecCtx`], and
//! admission control sheds at the door.
//!
//! # Sampled execution
//!
//! A million-user day is ~4 M queries; executing each one would make the
//! benchmark minutes long. Instead the simulation *plans* at full
//! population scale and *executes* a deterministic sample:
//! `sample_total` requests (at most the planned demand) are apportioned
//! across windows exactly proportional to demand (largest-remainder, like
//! the population model itself), and the server's service rate is
//! expressed in the same sample units. Utilization — the autoscaler's
//! main input — is computed from the full-population rates, so the
//! scaling trace is the trace the full-scale system would produce.
//!
//! # The flight recorder
//!
//! The day's trajectory is not tallied by hand: every request outcome
//! increments a cumulative counter recorded into an [`sctsdb::Tsdb`] at
//! each window close (plus shard/pool/utilization/burn gauges), and
//! *everything derived* — the per-window [`WindowStats`], the policy's
//! good/bad inputs, the report's answered/unanswered — is computed back
//! out of that store with [`sctsdb::increase`] queries. Answered
//! latencies are counts in two bucketed [`sctelemetry::Histogram`]s, the
//! window's and the day's, so memory grows with windows, not requests.
//! Each close records the window's `metro:p50_ms`/`metro:p99_ms` and the
//! recording rules' `metro:rps`/`metro:shed_fraction`; the report's
//! p50/p99 are the day's.
//! [`MetroSim::run_observed`] returns the store as a
//! [`FlightRecorder`]; E19 writes it next to its BENCH JSON as
//! `flight_seed42.tsdb.json`. Attach a full [`sctelemetry::Telemetry`]
//! with [`MetroSim::with_recorder`] and serving and ingest metrics flow
//! into it, and a [`sctsdb::Scraper`] also snapshots the whole metrics
//! registry (serving, ingest, cache, pool counters) into the same flight
//! at every window close.
//!
//! # Observing the day
//!
//! [`MetroSim::run_observed`] hands a caller's [`Probe`] every call the
//! day makes into a layer, as a [`DayOp`], and the phases they fall in:
//! `"seed"` (building the plant and seeding the keyspace), one
//! `"window"` per demand window, and `"finish"` (the drain and the
//! distillation). Planning happens in [`MetroSim::new`], which the caller
//! times itself, as [`DayOp::Plan`]. The probe only watches: the day's
//! outcome does not depend on it, and [`MetroSim::run`] is the day under
//! the probe `()`.
//!
//! # Determinism
//!
//! The simulation never reads the environment. The pool size the policy
//! controls is its own integer (applied via `ScparConfig::with_threads`,
//! a pure perf knob), so the decision log, the report, the exported
//! Prometheus text, and the flight-recorder artifact are byte-identical
//! at any `SCPAR_THREADS` or `SCSIMD_FORCE` setting.

use std::sync::Arc;

use scdfs::{ClusterStats, DfsCluster};
use scfault::{FaultPlan, FaultSpec, OutageWindows, RetryPolicy};
use scneural::exec::ExecCtx;
use scneural::layers::{Dense, Relu};
use scneural::net::Sequential;
use scnosql::document::Doc;
use scobserve::BurnSignal;
use scpar::ScparConfig;
use scserve::{
    feature_rows, rank, reading, CacheConfig, InferCompletion, InferSubmit, Keyspace, ServeConfig,
    Served, Server, KINDS,
};
use scstream::{
    Broker, Bytes, DeliveryAuditor, Event, PartitionId, ResilientProducer, SendOutcome, Topic,
};
use sctelemetry::{Histogram, MetricsRegistry, Probe, Telemetry, TelemetryHandle};
use sctsdb::{
    increase, last_over_time, FlightRecorder, RecordingRule, RuleEngine, RuleExpr, Scraper,
    SeriesId, Tsdb,
};
use serde_json::json;
use simclock::{SeededRng, SimDuration, SimTime};

use crate::autoscale::{AutoscaleConfig, AutoscalePolicy, ScaleAction, ScaleDecision};
use crate::population::{apportion, PopulationConfig, PopulationModel};
use crate::topology::{SizingGuidelines, TopologyPlan};

/// Node id the ingest broker occupies in the shared fault plan.
const BROKER_NODE: u32 = 0;

/// Admission rate when not shedding, as a multiple of service capacity.
const NOMINAL_RATE_FACTOR: f64 = 4.0;

/// First node id the autoscaler hands to joining shards; far above any
/// statically planned fleet so ids never collide.
const SCALE_NODE_BASE: u32 = 1_000;

/// The calls a city day makes into a layer, as a [`Probe`] sees them.
///
/// [`DayOp::NAMES`] holds each op's name, indexed by `op as usize`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DayOp {
    /// One request's ingest event through the resilient producer.
    Send,
    /// The delivery audit of a window's ingest log and its truncation;
    /// at the day's end, the audit's tally.
    Audit,
    /// A window's archive work: its faults applied, the cluster's tick,
    /// re-replication and the append.
    Archive,
    /// A write to the serving tier (the keyspace's seeding included).
    Put,
    /// A point read.
    Get,
    /// A filtered query.
    Query,
    /// An inference submission.
    InferSubmit,
    /// The serving tier's next micro-batch deadline.
    NextDeadline,
    /// A micro-batch flush.
    Tick,
    /// The flush of everything in flight at the day's end.
    Drain,
    /// The serving tier's construction, model and fault plan attached.
    Build,
    /// One sample into the day's store.
    Record,
    /// A window's tallies read back from the store, and its recording
    /// rules.
    WindowClose,
    /// The report's numbers read out of the store.
    Distil,
    /// [`MetroSim::new`]'s planning. The day does not make this call;
    /// a caller times it around [`MetroSim::new`].
    Plan,
    /// The autoscaler's decision for a window, applied to the live server.
    Control,
}

impl DayOp {
    /// Every op's name, `<crate>.<call>`, indexed by `op as usize`.
    pub const NAMES: [&'static str; 16] = [
        "scstream.send",
        "scstream.audit_delivery",
        "scdfs.archive",
        "scserve.put",
        "scserve.get",
        "scserve.query",
        "scserve.infer_submit",
        "scserve.next_deadline",
        "scserve.tick",
        "scserve.drain",
        "scserve.build",
        "sctsdb.record",
        "sctsdb.window_close",
        "sctsdb.distil",
        "scmetro.plan",
        "scmetro.control",
    ];

    /// The op's name.
    pub fn name(self) -> &'static str {
        Self::NAMES[self as usize]
    }
}

/// Everything a Metropolis run needs.
#[derive(Debug, Clone)]
pub struct MetroConfig {
    /// Master seed; forks every stream the run draws from.
    pub seed: u64,
    /// The demand side.
    pub population: PopulationConfig,
    /// Static capacity-planning guidelines.
    pub sizing: SizingGuidelines,
    /// The closed loop.
    pub autoscale: AutoscaleConfig,
    /// Requests executed across the day (sampled execution), at most the
    /// planned demand: a larger value executes every planned request.
    pub sample_total: u64,
    /// Distinct serving keys.
    pub keyspace: usize,
    /// Key-popularity skew (see [`scserve::rank`]).
    pub skew: f64,
    /// Fraction of requests that are writes.
    pub write_fraction: f64,
    /// Fraction of requests that are inference submissions.
    pub infer_fraction: f64,
    /// Feature-row width for inference.
    pub feature_dim: usize,
    /// Distinct circulating feature rows.
    pub row_pool: usize,
    /// Fault schedule; `None` generates one from `fault_intensity`.
    pub fault_plan: Option<FaultPlan>,
    /// Intensity knob for the generated plan (ignored when a plan is
    /// supplied).
    pub fault_intensity: f64,
}

impl Default for MetroConfig {
    fn default() -> Self {
        MetroConfig {
            seed: 42,
            population: PopulationConfig::default(),
            sizing: SizingGuidelines::default(),
            autoscale: AutoscaleConfig::default(),
            sample_total: 20_000,
            keyspace: 200,
            skew: 1.0,
            write_fraction: 0.05,
            infer_fraction: 0.2,
            feature_dim: 8,
            row_pool: 32,
            fault_plan: None,
            fault_intensity: 1.0,
        }
    }
}

/// One demand window's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowStats {
    /// Window index.
    pub window: u64,
    /// Full-population demand (queries).
    pub demand: u64,
    /// Requests actually executed.
    pub sampled: u64,
    /// Answered requests (fresh, cached, stale, or degraded).
    pub good: u64,
    /// Requests that got nothing at all.
    pub bad: u64,
    /// Offered full-population load over current capacity.
    pub utilization: f64,
    /// Serving shards at the window's close.
    pub shards: usize,
    /// Pool workers at the window's close.
    pub pool: usize,
}

impl WindowStats {
    /// `bad / sampled` (0 for an empty window).
    pub fn shed_fraction(&self) -> f64 {
        if self.sampled == 0 {
            0.0
        } else {
            self.bad as f64 / self.sampled as f64
        }
    }
}

/// The distilled outcome of one Metropolis day.
#[derive(Debug, Clone, PartialEq)]
pub struct MetroReport {
    /// Simulated residents.
    pub users: u64,
    /// Daily diurnal-base queries (exact).
    pub daily_queries: u64,
    /// Full-population demand including flash crowds.
    pub total_demand: u64,
    /// Requests actually executed.
    pub sampled_requests: u64,
    /// Peak full-population demand rate, queries per sim-second.
    pub peak_rps: f64,
    /// Mean full-population demand rate.
    pub mean_rps: f64,
    /// Median answered latency, sim-milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile answered latency, sim-milliseconds.
    pub p99_ms: f64,
    /// Answered requests.
    pub answered: u64,
    /// Requests that got nothing.
    pub unanswered: u64,
    /// `unanswered / sampled_requests`.
    pub shed_fraction: f64,
    /// Shards the loop added / removed.
    pub shards_added: u64,
    /// Shards the loop removed.
    pub shards_removed: u64,
    /// Pool grow / shrink actions.
    pub pool_resizes: u64,
    /// Shed / restore actions at the admission door.
    pub shed_actions: u64,
    /// Fleet size at the day's close.
    pub final_shards: usize,
    /// Pool size at the day's close.
    pub final_pool: usize,
    /// Sim-seconds from the last serve-fleet outage's end to the first
    /// subsequent window with zero shed (0 when the day had no outage).
    pub recovery_s: f64,
    /// Ingest events acknowledged end-to-end.
    pub delivered: usize,
    /// Duplicate ingest copies (lost acks).
    pub duplicates: usize,
    /// Ingest events lost outright.
    pub lost: usize,
    /// Archive-cluster state at the day's close.
    pub dfs: ClusterStats,
    /// Every scaling decision, in order.
    pub decisions: Vec<ScaleDecision>,
    /// Per-window outcomes.
    pub windows: Vec<WindowStats>,
}

impl MetroReport {
    /// The deterministic scaling-decision log, one line per decision.
    pub fn decision_log(&self) -> String {
        let mut out = String::new();
        for d in &self.decisions {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out
    }
}

/// The wired-up city; see the module docs.
///
/// # Examples
///
/// ```
/// use scmetro::{MetroConfig, MetroSim, PopulationConfig};
///
/// let cfg = MetroConfig {
///     population: PopulationConfig { users: 50_000, windows: 24, ..PopulationConfig::default() },
///     sample_total: 2_000,
///     ..MetroConfig::default()
/// };
/// let report = MetroSim::new(cfg.clone()).run();
/// assert_eq!(report.sampled_requests, 2_000);
/// // Same seed, byte-identical scaling trace.
/// assert_eq!(report.decision_log(), MetroSim::new(cfg).run().decision_log());
/// ```
#[derive(Debug)]
pub struct MetroSim {
    cfg: MetroConfig,
    pop: PopulationModel,
    plan: TopologyPlan,
    faults: FaultPlan,
    telemetry: TelemetryHandle,
    registry: Option<MetricsRegistry>,
}

impl MetroSim {
    /// Plans the topology and fault schedule for `cfg`.
    pub fn new(cfg: MetroConfig) -> Self {
        let pop = PopulationModel::new(cfg.population.clone());
        let plan = TopologyPlan::size(&pop, &cfg.sizing);
        let faults = cfg.fault_plan.clone().unwrap_or_else(|| {
            FaultPlan::generate(
                &FaultSpec::new(cfg.population.day, plan.initial_shards as u32)
                    .intensity(cfg.fault_intensity),
                cfg.seed,
            )
        });
        MetroSim {
            cfg,
            pop,
            plan,
            faults,
            telemetry: TelemetryHandle::disabled(),
            registry: None,
        }
    }

    /// Attaches a full recorder: telemetry flows into it *and* its
    /// metrics registry is scraped into the flight recorder at every
    /// window close (a [`Scraper`] in the loop).
    pub fn with_recorder(mut self, recorder: &Arc<Telemetry>) -> Self {
        self.telemetry = recorder.handle();
        self.registry = Some(recorder.registry().clone());
        self
    }

    /// The demand model the run will execute.
    pub fn population(&self) -> &PopulationModel {
        &self.pop
    }

    /// The static deployment plan.
    pub fn topology(&self) -> &TopologyPlan {
        &self.plan
    }

    /// The fault schedule the run will suffer.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    fn model(dim: usize) -> Sequential {
        Sequential::new()
            .with(Dense::new(dim, 16, 1_901))
            .with(Relu::new())
            .with(Dense::new(16, 4, 1_902))
    }

    /// Full-population capacity at `shards` serving shards and `pool`
    /// compute workers, queries per sim-second.
    fn capacity_rps(&self, shards: usize, pool: usize) -> f64 {
        let pool_factor = 1.0 + 0.25 * pool.saturating_sub(self.cfg.autoscale.min_pool) as f64;
        self.plan.guidelines.per_shard_rps * shards as f64 * pool_factor
    }

    /// [`MetroSim::capacity_rps`] in sample units, at `ratio` sampled
    /// requests per full-population query.
    fn capacity_sample(&self, ratio: f64, shards: usize, pool: usize) -> f64 {
        (self.capacity_rps(shards, pool) * ratio).max(1e-9)
    }

    fn ctx_for_pool(pool: usize) -> ExecCtx {
        let par = if pool <= 1 {
            ScparConfig::serial()
        } else {
            ScparConfig::with_threads(pool)
        };
        ExecCtx::serial().with_par(par)
    }

    /// Requests the day executes: `sample_total`, capped at the demand.
    fn executed(&self) -> u64 {
        self.cfg.sample_total.min(self.pop.total())
    }

    /// Exact per-window sample counts, proportional to demand.
    fn samples(&self) -> Vec<u64> {
        let weights: Vec<f64> = (0..self.pop.windows())
            .map(|w| self.pop.demand(w) as f64)
            .collect();
        apportion(self.executed(), &weights)
    }

    /// Runs the day and distils it into a [`MetroReport`].
    ///
    /// # Panics
    ///
    /// Panics on internal arithmetic bugs only; every generated document,
    /// filter, and DFS write is valid by construction.
    pub fn run(self) -> MetroReport {
        self.run_observed(&mut ()).0
    }

    /// Runs the day under `probe` and returns the report plus the flight
    /// recorder holding every trajectory series the report was derived
    /// from (see the module docs).
    ///
    /// # Panics
    ///
    /// As [`MetroSim::run`].
    pub fn run_observed(self, probe: &mut impl Probe<DayOp>) -> (MetroReport, FlightRecorder) {
        probe.begin("seed", None);
        let mut day = Day::new(&self, probe);
        probe.end();
        for (w, &sampled) in self.samples().iter().enumerate() {
            probe.begin("window", Some(w as u32));
            day.archive(w, sampled, probe);
            day.serve(w, sampled, probe);
            day.account_and_control(w, probe);
            probe.end();
        }
        probe.begin("finish", None);
        let out = day.distil(probe);
        probe.end();
        out
    }
}

fn put(p: &mut impl Probe<DayOp>, db: &mut Tsdb, id: &SeriesId, at: SimTime, v: f64) {
    p.time(DayOp::Record, || db.record(id, at, v))
        .expect("the loop records each series in sim-time order");
}

/// The day's accounting system: the store, the series the loop writes,
/// the cumulative counters snapshotted into it at each window close, and
/// the answered latencies in bucketed histograms. Every derived count
/// comes back out of `db` through the query layer.
struct Ledger {
    db: Tsdb,
    good_id: SeriesId,
    bad_id: SeriesId,
    sampled_id: SeriesId,
    demand_id: SeriesId,
    p50_id: SeriesId,
    p99_id: SeriesId,
    shards_id: SeriesId,
    pool_id: SeriesId,
    util_id: SeriesId,
    burn_short_id: SeriesId,
    burn_long_id: SeriesId,
    burn_fired_id: SeriesId,
    /// Materialise `metro:rps` and `metro:shed_fraction` per window.
    rules: RuleEngine,
    good: u64,
    bad: u64,
    sampled: u64,
    demand: u64,
    /// Answered latencies, in seconds, since the last window close.
    window_latency: Histogram,
    /// Answered latencies, in seconds, over the whole day.
    day_latency: Histogram,
}

impl Ledger {
    /// An empty ledger with the epoch baselines recorded.
    fn new(windows: usize, shards: usize, pool: usize, p: &mut impl Probe<DayOp>) -> Self {
        let bad_id = SeriesId::new("metro_bad_total");
        let sampled_id = SeriesId::new("metro_sampled_total");
        let demand_id = SeriesId::new("metro_demand_total");
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
            ));
        let mut ledger = Ledger {
            db: Tsdb::with_capacity_hint(windows + 2),
            good_id: SeriesId::new("metro_good_total"),
            bad_id,
            sampled_id,
            demand_id,
            p50_id: SeriesId::new("metro:p50_ms"),
            p99_id: SeriesId::new("metro:p99_ms"),
            shards_id: SeriesId::new("metro_shards"),
            pool_id: SeriesId::new("metro_pool"),
            util_id: SeriesId::new("metro_utilization"),
            burn_short_id: SeriesId::new("metro:burn_short"),
            burn_long_id: SeriesId::new("metro:burn_long"),
            burn_fired_id: SeriesId::new("metro:burn_fired"),
            rules,
            good: 0,
            bad: 0,
            sampled: 0,
            demand: 0,
            window_latency: Histogram::bucketed(),
            day_latency: Histogram::bucketed(),
        };
        ledger.snapshot_counters(SimTime::ZERO, p);
        ledger.snapshot_fleet(SimTime::ZERO, shards, pool, p);
        ledger
    }

    /// A request answered after `latency`.
    fn answered(&mut self, latency: SimDuration) {
        self.good += 1;
        let secs = latency.as_secs_f64();
        self.window_latency.observe(secs);
        self.day_latency.observe(secs);
    }

    /// The day's answered-latency percentile `q`, in sim-milliseconds (0
    /// when nothing was answered).
    fn day_ms(&self, q: f64) -> f64 {
        self.day_latency
            .percentile(q)
            .map_or(0.0, |secs| secs * 1e3)
    }

    /// A read the server answered or shed.
    fn served<T>(&mut self, served: &Served<T>) {
        if served.outcome.is_shed() {
            self.bad += 1;
        } else {
            self.answered(served.latency);
        }
    }

    fn snapshot_counters(&mut self, at: SimTime, p: &mut impl Probe<DayOp>) {
        put(p, &mut self.db, &self.good_id, at, self.good as f64);
        put(p, &mut self.db, &self.bad_id, at, self.bad as f64);
        put(p, &mut self.db, &self.sampled_id, at, self.sampled as f64);
        put(p, &mut self.db, &self.demand_id, at, self.demand as f64);
    }

    fn snapshot_fleet(
        &mut self,
        at: SimTime,
        shards: usize,
        pool: usize,
        p: &mut impl Probe<DayOp>,
    ) {
        put(p, &mut self.db, &self.shards_id, at, shards as f64);
        put(p, &mut self.db, &self.pool_id, at, pool as f64);
    }

    /// Snapshots the cumulative counters at the close of `(t0, t1]` and
    /// returns the window's `(good, bad)` tallies — increases read back
    /// from the store, not side tallies: the store is the accounting
    /// system and the policy's inputs come out of it.
    fn close_window(
        &mut self,
        t0: SimTime,
        t1: SimTime,
        demand: u64,
        p: &mut impl Probe<DayOp>,
    ) -> (usize, usize) {
        self.demand += demand;
        self.snapshot_counters(t1, p);
        let (f, t) = (t0.as_micros(), t1.as_micros());
        p.time(DayOp::WindowClose, || {
            let good = increase(self.db.range(&self.good_id, f, t), f, t);
            let bad = increase(self.db.range(&self.bad_id, f, t), f, t);
            (good as usize, bad as usize)
        })
    }

    /// Distils the window `(t0, t1]` into the `metro:*` series: its
    /// latency percentiles, read from the window's histogram, which then
    /// starts afresh, and the recording rules.
    fn record_window(&mut self, t0: SimTime, t1: SimTime) {
        for (id, q) in [(&self.p50_id, 0.50), (&self.p99_id, 0.99)] {
            // An empty window records no percentile.
            if let Some(secs) = self.window_latency.percentile(q) {
                self.db
                    .record(id, t1, secs * 1e3)
                    .expect("the loop records each series in sim-time order");
            }
        }
        self.window_latency.reset();
        self.rules.eval_window(&mut self.db, t0, t1);
    }

    /// Post-action fleet gauges and the policy's own burn signal.
    fn record_control(
        &mut self,
        t1: SimTime,
        utilization: f64,
        shards: usize,
        pool: usize,
        sig: BurnSignal,
        p: &mut impl Probe<DayOp>,
    ) {
        put(p, &mut self.db, &self.util_id, t1, utilization);
        self.snapshot_fleet(t1, shards, pool, p);
        put(p, &mut self.db, &self.burn_short_id, t1, sig.burn_short);
        put(p, &mut self.db, &self.burn_long_id, t1, sig.burn_long);
        let fired = if sig.fired { 1.0 } else { 0.0 };
        put(p, &mut self.db, &self.burn_fired_id, t1, fired);
    }
}

/// One run of the day: the plant, the request streams and the ledger,
/// advanced window by window through the stages
/// [`archive`](Day::archive) → [`serve`](Day::serve) →
/// [`account_and_control`](Day::account_and_control) and closed by
/// [`distil`](Day::distil). Each stage hands its layer calls to the
/// run's probe.
struct Day<'a> {
    sim: &'a MetroSim,
    /// Sampled requests per full-population query.
    ratio: f64,

    // The plant.
    /// Owns the fleet size (`shards()`, `pool()`) and the decision log.
    policy: AutoscalePolicy,
    server: Server,
    broker: Broker,
    producer: ResilientProducer,
    /// Counts what reached the ingest log, a window at a time, so that the
    /// log holds one window and not the day.
    auditor: DeliveryAuditor,
    dfs: DfsCluster,
    fault_cursor: usize,
    dfs_clock: SimTime,
    /// The window digest the archive appends, refilled each window.
    digest: Vec<u8>,

    // Seeded request streams.
    rng: SeededRng,
    /// The serving key of each popularity rank and the query filter of
    /// each kind, built once; a send shares its rank's key.
    keyspace: Keyspace,
    /// The feature rows in circulation; an inference shares its row.
    rows: Vec<Arc<[f32]>>,
    serial: i64,
    sends: u64,
    delivered_sends: u64,
    /// Inference tickets issued and not yet completed.
    in_flight: u64,

    // Accounting.
    ledger: Ledger,
    /// With a full recorder attached, scrapes its registry in the loop.
    scraper: Option<Scraper>,
}

impl<'a> Day<'a> {
    /// Builds the plant at its planned size and seeds the keyspace.
    fn new(sim: &'a MetroSim, p: &mut impl Probe<DayOp>) -> Self {
        let (cfg, pop, plan) = (&sim.cfg, &sim.pop, &sim.plan);
        let windows = pop.windows();
        let ratio = sim.executed() as f64 / pop.total().max(1) as f64;
        let shards = plan.initial_shards;
        let pool = cfg.autoscale.min_pool;
        let policy = AutoscalePolicy::new(cfg.autoscale.clone(), shards, pool, SCALE_NODE_BASE);

        let capacity = sim.capacity_sample(ratio, shards, pool);
        let server = p.time(DayOp::Build, || {
            Server::new(ServeConfig {
                shards: shards as u32,
                rate_per_s: NOMINAL_RATE_FACTOR * capacity,
                burst: 64.0,
                service_rate: capacity,
                queue_capacity: 64,
                query_cache: CacheConfig {
                    ttl: SimDuration::from_secs(300),
                    ..CacheConfig::default()
                },
                ..ServeConfig::default()
            })
            .with_model(MetroSim::model(cfg.feature_dim))
            .with_ctx(MetroSim::ctx_for_pool(pool))
            .with_fault_plan(&sim.faults)
            .with_telemetry(sim.telemetry.clone())
        });

        let broker = Broker::new(
            Topic::new("metro/ingest", plan.partitions as u32),
            BROKER_NODE,
            &sim.faults,
        )
        .with_telemetry(sim.telemetry.clone());
        let producer = ResilientProducer::new(
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
        let rows = feature_rows(&mut rng, cfg.row_pool, cfg.feature_dim);

        let ledger = Ledger::new(windows, shards, pool, p);
        let scraper = sim.registry.as_ref().map(|reg| {
            Scraper::new(reg.clone())
                .with_sample_capacity(windows + 2)
                .with_label("job", "metro")
        });

        let mut day = Day {
            sim,
            ratio,
            policy,
            server,
            broker,
            producer,
            auditor: DeliveryAuditor::default(),
            dfs,
            fault_cursor: 0,
            digest: Vec::new(),
            dfs_clock: SimTime::ZERO,
            rng,
            keyspace: Keyspace::new(cfg.keyspace),
            rows,
            serial: 0,
            sends: 0,
            delivered_sends: 0,
            in_flight: 0,
            ledger,
            scraper,
        };
        // Seed the keyspace at t = 0.
        for r in 0..cfg.keyspace {
            let doc = day.next_reading();
            p.time(DayOp::Put, || {
                day.server.put(&day.keyspace.keys()[r], doc, SimTime::ZERO)
            })
            .expect("generated docs are valid");
        }
        day
    }

    /// The current fleet: serving shards and pool workers.
    fn fleet(&self) -> (usize, usize) {
        (self.policy.shards(), self.policy.pool())
    }

    /// The current fleet's capacity in sample units per sim-second.
    fn capacity_sample(&self) -> f64 {
        let (shards, pool) = self.fleet();
        self.sim.capacity_sample(self.ratio, shards, pool)
    }

    /// The next sensor reading a write stores.
    fn next_reading(&mut self) -> Doc {
        let doc = reading(&mut self.rng, self.serial);
        self.serial += 1;
        doc
    }

    /// Archive layer: suffer window `w`'s faults, heal, append.
    fn archive(&mut self, w: usize, sampled: u64, p: &mut impl Probe<DayOp>) {
        let t1 = self.sim.pop.window_end(w);
        let events = self.sim.faults.events();
        self.digest.clear();
        self.digest
            .resize((sampled as usize).max(1), (w % 251) as u8);
        p.time(DayOp::Archive, || {
            while self.fault_cursor < events.len() && events[self.fault_cursor].at < t1 {
                self.dfs.apply_fault(&events[self.fault_cursor]);
                self.fault_cursor += 1;
            }
            self.dfs_clock = self.dfs.tick(t1.saturating_since(self.dfs_clock));
            self.dfs.re_replicate();
            // Appends may fail mid-outage when too few nodes are alive;
            // the archive is best-effort during faults, like HDFS.
            let _ = self.dfs.append("/metro/day.log", &self.digest);
        });
    }

    /// Ingest and serving layers: every sampled query of window `w` is
    /// produced into the stream as an event, then issued to the server.
    /// The window's events share one payload, and each shares its key.
    fn serve(&mut self, w: usize, sampled: u64, p: &mut impl Probe<DayOp>) {
        let cfg = &self.sim.cfg;
        let t0 = self.sim.pop.window_start(w);
        let t1 = self.sim.pop.window_end(w);
        let payload = Bytes::copy_from_slice(&[w as u8]);
        for i in 0..sampled {
            let at = t0
                + SimDuration::from_micros(
                    t1.saturating_since(t0).as_micros() * i / sampled.max(1),
                );
            let keys = self.keyspace.keys();
            let r = rank(&mut self.rng, keys.len(), cfg.skew);
            self.sends += 1;
            self.ledger.sampled += 1;
            let event = Event::with_key(Arc::clone(&keys[r]), payload.clone());
            let sent = p.time(DayOp::Send, || {
                self.producer.send(&mut self.broker, event, at)
            });
            if let SendOutcome::Delivered { .. } = sent {
                self.delivered_sends += 1;
            }
            self.settle(at, p);
            self.issue(r, at, p);
        }
        // Close the window: flush the stragglers that are due, and drop
        // the window's events from the log once the audit has counted them.
        self.settle(t1, p);
        p.time(DayOp::Audit, || {
            self.auditor.observe(self.broker.topic());
            for part in (0..self.broker.topic().partition_count()).map(PartitionId) {
                let audited = self.auditor.audited(part);
                self.broker.topic_mut().truncate_before(part, audited);
            }
        });
    }

    /// Flushes every micro-batch due by `until` and books its completions.
    fn settle(&mut self, until: SimTime, p: &mut impl Probe<DayOp>) {
        while let Some(deadline) = p
            .time(DayOp::NextDeadline, || self.server.next_deadline())
            .filter(|&d| d <= until)
        {
            let done = p.time(DayOp::Tick, || self.server.tick(deadline));
            self.complete(done);
        }
    }

    fn complete(&mut self, done: Vec<InferCompletion>) {
        for c in done {
            self.in_flight -= 1;
            self.ledger.answered(c.latency);
        }
    }

    /// Issues one request on the key of popularity rank `r` at `at`: a
    /// write, an inference, a point read or a filtered query, by the
    /// configured mix.
    fn issue(&mut self, r: usize, at: SimTime, p: &mut impl Probe<DayOp>) {
        let cfg = &self.sim.cfg;
        let roll = self.rng.next_f64();
        if roll < cfg.write_fraction {
            let doc = self.next_reading();
            p.time(DayOp::Put, || {
                self.server.put(&self.keyspace.keys()[r], doc, at)
            })
            .expect("generated docs are valid");
            self.ledger.answered(scserve::CACHE_HIT_COST);
        } else if roll < cfg.write_fraction + cfg.infer_fraction {
            let row = Arc::clone(&self.rows[rank(&mut self.rng, self.rows.len(), cfg.skew)]);
            match p.time(DayOp::InferSubmit, || self.server.infer(row, at)) {
                InferSubmit::Cached { latency, .. } | InferSubmit::Stale { latency, .. } => {
                    self.ledger.answered(latency)
                }
                InferSubmit::Pending(_) => self.in_flight += 1,
                InferSubmit::Shed => self.ledger.bad += 1,
            }
        } else if self.rng.next_f64() < 0.5 {
            let served = p
                .time(DayOp::Get, || self.server.get(&self.keyspace.keys()[r], at))
                .expect("gets cannot fail");
            self.ledger.served(&served);
        } else {
            let filter = &self.keyspace.filters()[rank(&mut self.rng, KINDS.len(), cfg.skew)];
            let served = p
                .time(DayOp::Query, || self.server.query(filter, at))
                .expect("filters are valid");
            self.ledger.served(&served);
        }
    }

    /// Closes window `w`: evidence in, actions out. The policy reads the
    /// window's tallies back from the ledger, its actions are applied to
    /// the live server, and the post-action state is recorded.
    fn account_and_control(&mut self, w: usize, p: &mut impl Probe<DayOp>) {
        let pop = &self.sim.pop;
        let (t0, t1) = (pop.window_start(w), pop.window_end(w));
        let (good, bad) = self.ledger.close_window(t0, t1, pop.demand(w), p);
        let (shards, pool) = self.fleet();
        let utilization =
            (pop.demand(w) as f64 / pop.window_secs(w)) / self.sim.capacity_rps(shards, pool);
        p.time(DayOp::Control, || {
            for action in self.policy.observe(w as u64, t1, good, bad, utilization) {
                self.apply(action, t1);
            }
            // Fleet or pool changes move the service rate; sync the queue.
            self.server.set_service_rate(self.capacity_sample(), t1);
        });

        let sig = *self
            .policy
            .signals()
            .last()
            .expect("observe emits one signal per window");
        // The post-action fleet.
        let (shards, pool) = self.fleet();
        self.ledger
            .record_control(t1, utilization, shards, pool, sig, p);
        p.time(DayOp::WindowClose, || self.ledger.record_window(t0, t1));
        if let Some(sc) = self.scraper.as_mut() {
            sc.sync();
            sc.scrape_at(t1);
        }
    }

    /// Applies one scaling action to the live server at `t1`. The policy
    /// has already moved the fleet to its post-action size.
    fn apply(&mut self, action: ScaleAction, t1: SimTime) {
        match action {
            ScaleAction::AddShard { node } => {
                self.server.add_shard(node);
            }
            ScaleAction::RemoveShard { node } => {
                self.server.remove_shard(node);
            }
            ScaleAction::GrowPool { workers } | ScaleAction::ShrinkPool { workers } => {
                self.server.set_ctx(MetroSim::ctx_for_pool(workers));
            }
            ScaleAction::Shed { keep_millis } => {
                let keep = keep_millis as f64 / 1_000.0;
                self.server
                    .set_rate_limit(keep * self.capacity_sample(), 8.0, t1);
            }
            ScaleAction::Restore => {
                self.server
                    .set_rate_limit(NOMINAL_RATE_FACTOR * self.capacity_sample(), 64.0, t1);
            }
        }
    }

    /// Per-window outcomes, queried back out of the store (`good` and
    /// `bad` are the decoded counter series the caller also totals).
    fn window_stats(&self, good: &[(u64, f64)], bad: &[(u64, f64)]) -> Vec<WindowStats> {
        let (pop, ledger) = (&self.sim.pop, &self.ledger);
        let sampled = ledger.db.samples(&ledger.sampled_id);
        let demand = ledger.db.samples(&ledger.demand_id);
        let util = ledger.db.samples(&ledger.util_id);
        let shards = ledger.db.samples(&ledger.shards_id);
        let pool = ledger.db.samples(&ledger.pool_id);
        (0..pop.windows())
            .map(|w| {
                let f = pop.window_start(w).as_micros();
                let t = pop.window_end(w).as_micros();
                WindowStats {
                    window: w as u64,
                    demand: increase(&demand, f, t) as u64,
                    sampled: increase(&sampled, f, t) as u64,
                    good: increase(good, f, t) as u64,
                    bad: increase(bad, f, t) as u64,
                    utilization: last_over_time(&util, f, t).unwrap_or(0.0),
                    shards: last_over_time(&shards, f, t).unwrap_or(0.0) as usize,
                    pool: last_over_time(&pool, f, t).unwrap_or(0.0) as usize,
                }
            })
            .collect()
    }

    /// Sim-seconds from the last serve-fleet outage's end to the first
    /// clean window after it (0 when the day had no outage).
    fn recovery_s(&self, window_stats: &[WindowStats]) -> f64 {
        let pop = &self.sim.pop;
        let outages = OutageWindows::node_crashes(&self.sim.faults);
        let last_outage_end = (0..self.sim.plan.initial_shards as u32)
            .flat_map(|n| outages.windows_for(n).iter().map(|&(_, e)| e))
            .max();
        let Some(end) = last_outage_end else {
            return 0.0;
        };
        window_stats
            .iter()
            .find(|s| pop.window_end(s.window as usize) > end && s.bad == 0)
            .map(|s| {
                pop.window_end(s.window as usize)
                    .saturating_since(end)
                    .as_secs_f64()
            })
            .unwrap_or(f64::INFINITY)
    }

    /// Drains the day's tail and distils the store into the report:
    /// everything past the drain is queries over the ledger.
    fn distil(mut self, p: &mut impl Probe<DayOp>) -> (MetroReport, FlightRecorder) {
        let (cfg, pop) = (&self.sim.cfg, &self.sim.pop);
        let executed = self.sim.executed();
        // Drain whatever inference is still in flight at the day's end. The
        // tail lands one microsecond past the last window close so window
        // queries over `(t0, t1]` never see it but full-day queries do, and
        // in the day's latency histogram but no window's.
        let day_end = pop.window_end(pop.windows() - 1);
        let drain_at = SimTime::from_micros(day_end.as_micros() + 1);
        let done = p.time(DayOp::Drain, || self.server.drain(day_end));
        self.complete(done);
        let ledger = &mut self.ledger;
        put(
            p,
            &mut ledger.db,
            &ledger.good_id,
            drain_at,
            ledger.good as f64,
        );
        debug_assert_eq!(self.in_flight, 0, "drain settles every ticket");

        let end_us = drain_at.as_micros();
        let (window_stats, answered, unanswered, p50_ms, p99_ms) = p.time(DayOp::Distil, || {
            let ledger = &self.ledger;
            let good = ledger.db.samples(&ledger.good_id);
            let bad = ledger.db.samples(&ledger.bad_id);
            let window_stats = self.window_stats(&good, &bad);
            let answered = increase(&good, 0, end_us) as u64;
            let unanswered = increase(&bad, 0, end_us) as u64;
            let (p50_ms, p99_ms) = (ledger.day_ms(0.50), ledger.day_ms(0.99));
            (window_stats, answered, unanswered, p50_ms, p99_ms)
        });
        let recovery_s = self.recovery_s(&window_stats);

        let audit = p.time(DayOp::Audit, || {
            self.auditor.observe(self.broker.topic());
            self.auditor.finish(&[("metro", self.sends)])
        });
        debug_assert!(audit.delivered >= self.delivered_sends as usize);
        let decisions = self.policy.decisions();
        let count = |of: fn(&ScaleAction) -> bool| {
            decisions.iter().filter(|d| of(&d.action)).count() as u64
        };

        let report = MetroReport {
            users: cfg.population.users,
            daily_queries: pop.base_total(),
            total_demand: pop.total(),
            sampled_requests: executed,
            peak_rps: pop.peak_rps(),
            mean_rps: pop.mean_rps(),
            p50_ms,
            p99_ms,
            answered,
            unanswered,
            shed_fraction: unanswered as f64 / executed.max(1) as f64,
            shards_added: count(|a| matches!(a, ScaleAction::AddShard { .. })),
            shards_removed: count(|a| matches!(a, ScaleAction::RemoveShard { .. })),
            pool_resizes: count(|a| {
                matches!(
                    a,
                    ScaleAction::GrowPool { .. } | ScaleAction::ShrinkPool { .. }
                )
            }),
            shed_actions: count(|a| matches!(a, ScaleAction::Shed { .. } | ScaleAction::Restore)),
            final_shards: self.policy.shards(),
            final_pool: self.policy.pool(),
            recovery_s,
            delivered: audit.delivered,
            duplicates: audit.duplicates,
            lost: audit.lost,
            dfs: self.dfs.stats(),
            decisions: decisions.to_vec(),
            windows: window_stats,
        };

        // Fold the scraped registry series into the flight artifact.
        let mut db = self.ledger.db;
        if let Some(sc) = self.scraper {
            sc.export_into(&mut db);
        }
        let flight = FlightRecorder::new(db)
            .with_meta("bench", json!("metropolis"))
            .with_meta("seed", json!(cfg.seed))
            .with_meta("users", json!(cfg.population.users))
            .with_meta("windows", json!(pop.windows() as u64))
            .with_meta("sample_total", json!(executed));
        (report, flight)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scfault::FaultKind;

    fn small() -> MetroConfig {
        MetroConfig {
            population: PopulationConfig {
                users: 50_000,
                windows: 24,
                ..PopulationConfig::default()
            },
            sample_total: 2_000,
            ..MetroConfig::default()
        }
    }

    #[test]
    fn accounts_for_every_sampled_request_modulo_pending() {
        let r = MetroSim::new(small()).run();
        assert_eq!(r.sampled_requests, 2_000);
        assert_eq!(r.answered + r.unanswered, 2_000);
        assert!(r.p99_ms >= r.p50_ms);
    }

    #[test]
    fn latency_percentiles_are_the_bucketed_histograms() {
        // Answered latencies in µs, window by window; the last is empty.
        let windows: [&[u64]; 3] = [&[3, 40, 41, 900, 12_000, 7, 7], &[250_000, 1, 5, 80], &[]];
        let mut ledger = Ledger::new(windows.len(), 1, 1, &mut ());
        let day = Histogram::bucketed();
        for (w, latencies) in (0u64..).zip(windows) {
            let window = Histogram::bucketed();
            for &us in latencies {
                let latency = SimDuration::from_micros(us);
                ledger.answered(latency);
                window.observe(latency.as_secs_f64());
                day.observe(latency.as_secs_f64());
            }
            let (t0, t1) = (SimTime::from_secs(60 * w), SimTime::from_secs(60 * (w + 1)));
            ledger.close_window(t0, t1, 1, &mut ());
            ledger.record_window(t0, t1);
            for (id, q) in [(&ledger.p50_id, 0.50), (&ledger.p99_id, 0.99)] {
                let want = window.snapshot().percentile(q);
                let got = ledger
                    .db
                    .samples(id)
                    .into_iter()
                    .find(|&(t, _)| t > t0.as_micros());
                assert_eq!(got, want.map(|secs| (t1.as_micros(), secs * 1e3)), "w{w}");
            }
        }
        for q in [0.50, 0.99] {
            assert_eq!(
                ledger.day_ms(q),
                day.snapshot().percentile(q).unwrap() * 1e3
            );
        }
    }

    #[test]
    fn same_seed_byte_identical_report() {
        let a = MetroSim::new(small()).run();
        let b = MetroSim::new(small()).run();
        assert_eq!(a, b);
        assert_eq!(a.decision_log(), b.decision_log());
    }

    #[test]
    fn different_seed_different_trace() {
        let a = MetroSim::new(small()).run();
        let b = MetroSim::new(MetroConfig { seed: 7, ..small() }).run();
        assert_ne!(a, b);
    }

    #[test]
    fn peaks_force_the_loop_to_scale_up() {
        // Slow shards make the diurnal peak tower over the mean-sized
        // static plan, so the loop must grow the fleet.
        let cfg = MetroConfig {
            sizing: SizingGuidelines {
                per_shard_rps: 1.0,
                ..SizingGuidelines::default()
            },
            fault_plan: Some(FaultPlan::empty()),
            ..small()
        };
        let initial = MetroSim::new(cfg.clone()).topology().initial_shards;
        let r = MetroSim::new(cfg).run();
        assert!(
            r.shards_added > 0,
            "mean-sized static plan must be outgrown at the diurnal peak:\n{}",
            r.decision_log()
        );
        assert!(r.final_shards >= initial);
    }

    #[test]
    fn recovery_is_finite_after_a_crash_and_restart() {
        // Node 0 is both a serving shard and the ingest broker: a
        // two-hour outage in the middle of the morning peak.
        let plan = FaultPlan::empty()
            .with_event(
                SimTime::from_secs(6 * 3600),
                FaultKind::NodeCrash { node: 0 },
            )
            .with_event(
                SimTime::from_secs(8 * 3600),
                FaultKind::NodeRestart { node: 0 },
            );
        let r = MetroSim::new(MetroConfig {
            fault_plan: Some(plan),
            ..small()
        })
        .run();
        assert!(r.recovery_s.is_finite(), "the loop must recover");
        assert!(r.recovery_s >= 0.0);
    }

    #[test]
    fn the_log_holds_at_most_a_window_at_day_end() {
        // The default day: outages, lost acks and resends included.
        let sim = MetroSim::new(small());
        let mut day = Day::new(&sim, &mut ());
        let mut stored = 0;
        for (w, &sampled) in sim.samples().iter().enumerate() {
            day.archive(w, sampled, &mut ());
            day.serve(w, sampled, &mut ());
            day.account_and_control(w, &mut ());
            let topic = day.broker.topic();
            assert_eq!(
                topic.total_events(),
                0,
                "window {w} was audited and dropped"
            );
            stored = (0..topic.partition_count())
                .map(|p| topic.end_offset(PartitionId(p)).0)
                .sum();
        }
        assert!(stored >= day.delivered_sends, "offsets still count the day");
        let (report, _) = day.distil(&mut ());
        assert_eq!(stored as usize, report.delivered + report.duplicates);
        assert!(
            report.duplicates > 0 && report.lost > 0,
            "a day with resends"
        );
        assert_eq!(report.delivered + report.lost, 2_000);
    }

    #[test]
    fn ingest_is_audited_end_to_end() {
        let r = MetroSim::new(MetroConfig {
            fault_plan: Some(FaultPlan::empty()),
            ..small()
        })
        .run();
        assert_eq!(r.lost, 0, "no faults, no loss");
        assert_eq!(r.delivered as u64, r.sampled_requests);
        assert_eq!(r.duplicates, 0);
    }
}
