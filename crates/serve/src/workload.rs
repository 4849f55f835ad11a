//! Seed-deterministic workload generation for the serving tier.
//!
//! [`WorkloadGen`] drives a [`Server`] with a mixed read/write/inference
//! request stream over sim-time and distils the run into a
//! [`ServingReport`] (experiments E17 and E18). Arrivals are open-loop:
//! Poisson at a fixed rate, independent of how the server copes. This is
//! the honest overload model: when the server saturates, demand does not
//! politely slow down, so latency and shed fraction show the true knee.
//!
//! Everything — inter-arrival gaps, key popularity, op mix — is drawn
//! from a [`SeededRng`], so a `(config, seed)` pair replays the same
//! request trace on every run and thread count.

use scnosql::document::{Doc, Filter};
use sctelemetry::{percentile_sorted, Report};
use simclock::{SeededRng, SimDuration, SimTime};
use std::io::{Cursor, Write};
use std::sync::Arc;

use crate::server::{InferSubmit, Server};

/// Feature-row width for inference requests.
const FEATURE_DIM: usize = 8;

/// Distinct feature rows in circulation (drives inference cache hits and
/// micro-batch coalescing).
const ROW_POOL: usize = 32;

/// Distinct serving keys, seeded with one document each.
const KEYSPACE: usize = 200;

/// Key-popularity skew, passed to [`rank`].
const SKEW: f64 = 1.0;

/// Workload shape knobs.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// RNG seed; same seed, same request trace.
    pub seed: u64,
    /// Requests to issue.
    pub requests: usize,
    /// Fraction of requests that are writes (cache-invalidating puts).
    pub write_fraction: f64,
    /// Fraction of requests that are inference submissions.
    pub infer_fraction: f64,
    /// Mean Poisson arrival rate, requests per sim-second, regardless of
    /// server state.
    pub rate_per_s: f64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            seed: 0,
            requests: 2_000,
            write_fraction: 0.05,
            infer_fraction: 0.3,
            rate_per_s: 1_000.0,
        }
    }
}

/// Outcome summary of one workload run; implements
/// [`sctelemetry::Report`] so it can ride the dashboard JSON path.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingReport {
    /// Requests issued.
    pub requests: u64,
    /// Requests answered (fresh, cached, stale, or degraded).
    pub completed: u64,
    /// Requests rejected by admission control. A stale cache entry may
    /// still have produced a degraded answer for some of these;
    /// `requests - completed` of them got nothing at all.
    pub shed: u64,
    /// Serving-cache hit rate over the run.
    pub hit_rate: f64,
    /// Median answered-request latency, sim-milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile answered-request latency, sim-milliseconds.
    pub p99_ms: f64,
    /// Mean distinct rows per flushed micro-batch.
    pub mean_batch: f64,
    /// `shed / requests`.
    pub shed_fraction: f64,
    /// Reads rerouted off a down primary.
    pub reroutes: u64,
    /// Answers served stale during outages or overload.
    pub stale_served: u64,
    /// Partial degraded answers.
    pub degraded: u64,
}

impl Report for ServingReport {
    fn kv(&self) -> Vec<(String, f64)> {
        vec![
            ("requests".into(), self.requests as f64),
            ("completed".into(), self.completed as f64),
            ("shed".into(), self.shed as f64),
            ("hit_rate".into(), self.hit_rate),
            ("p50_ms".into(), self.p50_ms),
            ("p99_ms".into(), self.p99_ms),
            ("mean_batch".into(), self.mean_batch),
            ("shed_fraction".into(), self.shed_fraction),
            ("reroutes".into(), self.reroutes as f64),
            ("stale_served".into(), self.stale_served as f64),
            ("degraded".into(), self.degraded as f64),
        ]
    }
}

/// The four document kinds city traffic writes and queries over.
pub const KINDS: [&str; 4] = ["traffic", "air", "camera", "event"];

/// Zipf-ish rank in `0..n`: `n · u^(1+skew)`. A skew of 0 is uniform; a
/// larger one concentrates draws on low ranks.
pub fn rank(rng: &mut SeededRng, n: usize, skew: f64) -> usize {
    let u = rng.next_f64();
    ((n as f64 * u.powf(1.0 + skew)) as usize).min(n - 1)
}

/// The serving key of popularity rank `r`: `k-` and at least five
/// digits, formatted on the stack, so the key costs one allocation.
pub fn key(r: usize) -> Arc<str> {
    // `k-` and the 20 digits of the widest `usize`.
    let mut buf = Cursor::new([0u8; 22]);
    write!(buf, "k-{r:05}").expect("22 bytes hold any rank");
    let len = buf.position() as usize;
    std::str::from_utf8(&buf.get_ref()[..len])
        .expect("keys are ASCII")
        .into()
}

/// What a request generator draws from, built once: the serving key of
/// each popularity rank and the query filter of each of the [`KINDS`].
#[derive(Debug, Clone)]
pub struct Keyspace {
    keys: Vec<Arc<str>>,
    filters: [Filter; KINDS.len()],
}

impl Keyspace {
    /// The keys of ranks `0..n` (at least one) and the four filters.
    pub fn new(n: usize) -> Self {
        Keyspace {
            keys: (0..n.max(1)).map(key).collect(),
            filters: KINDS.map(|kind| Filter::Eq("kind".into(), Doc::Str(kind.into()))),
        }
    }

    /// The key of each popularity rank; share one with `Arc::clone`.
    pub fn keys(&self) -> &[Arc<str>] {
        &self.keys
    }

    /// The `kind == KINDS[i]` filter of each kind, in `KINDS` order.
    pub fn filters(&self) -> &[Filter; KINDS.len()] {
        &self.filters
    }
}

/// The sensor reading a write stores: a uniform kind, the write's `serial`
/// and a reading in `[0, 100)`.
pub fn reading(rng: &mut SeededRng, serial: i64) -> Doc {
    let kind = KINDS[rng.next_bounded(KINDS.len() as u64) as usize];
    Doc::object([
        ("kind", Doc::Str(kind.into())),
        ("v", Doc::I64(serial)),
        ("reading", Doc::F64(rng.next_f64() * 100.0)),
    ])
}

/// The `pool` feature rows of width `dim` in circulation (at least one of
/// each), drawn from a fork of `rng`. A request shares its row with
/// `Arc::clone`.
pub fn feature_rows(rng: &mut SeededRng, pool: usize, dim: usize) -> Vec<Arc<[f32]>> {
    let mut row_rng = rng.fork();
    (0..pool.max(1))
        .map(|_| (0..dim.max(1)).map(|_| row_rng.next_f64() as f32).collect())
        .collect()
}

/// Deterministic request generator; see the module docs.
///
/// # Examples
///
/// ```
/// use scserve::{Server, ServeConfig, WorkloadConfig, WorkloadGen};
///
/// let mut server = Server::new(ServeConfig::default());
/// let cfg = WorkloadConfig { requests: 200, infer_fraction: 0.0, ..WorkloadConfig::default() };
/// let report = WorkloadGen::new(cfg).run(&mut server);
/// assert_eq!(report.requests, 200);
/// assert!(report.hit_rate > 0.0, "skewed keys must produce cache hits");
/// ```
#[derive(Debug)]
pub struct WorkloadGen {
    cfg: WorkloadConfig,
    rng: SeededRng,
    /// The keys and filters requests draw from, built once.
    keyspace: Keyspace,
    /// The `v` the next write stores; a run starts it past the seeded keys.
    serial: i64,
}

/// What a run has counted so far.
#[derive(Debug, Default)]
struct Tally {
    completed: u64,
    unanswered: u64,
    latencies_ms: Vec<f64>,
}

impl Tally {
    /// One more request answered, after `latency`.
    fn answered(&mut self, latency: SimDuration) {
        self.completed += 1;
        self.latencies_ms.push(latency.as_secs_f64() * 1e3);
    }
}

impl WorkloadGen {
    /// A generator for `cfg`, seeded from `cfg.seed`.
    pub fn new(cfg: WorkloadConfig) -> Self {
        let rng = SeededRng::new(cfg.seed ^ 0x5c5e_42e1);
        WorkloadGen {
            keyspace: Keyspace::new(KEYSPACE),
            cfg,
            rng,
            serial: 0,
        }
    }

    fn rank(&mut self, n: usize) -> usize {
        rank(&mut self.rng, n, SKEW)
    }

    /// Runs the workload against `server` and summarizes it.
    ///
    /// The server is first seeded with one document per key at `t = 0`.
    /// Inference requests are only issued when a model is attached
    /// (otherwise their share of the mix falls to point gets).
    ///
    /// # Panics
    ///
    /// Panics only on internal arithmetic bugs; the generated documents
    /// and filters are valid by construction.
    pub fn run(&mut self, server: &mut Server) -> ServingReport {
        // Seed the keyspace.
        for r in 0..KEYSPACE {
            let doc = reading(&mut self.rng, r as i64);
            server
                .put(&self.keyspace.keys()[r], doc, SimTime::ZERO)
                .expect("generated docs are valid");
        }
        let rows = feature_rows(&mut self.rng, ROW_POOL, FEATURE_DIM);

        let base_stats = server.stats();
        self.serial = KEYSPACE as i64;
        let mut tally = Tally {
            latencies_ms: Vec::with_capacity(self.cfg.requests),
            ..Tally::default()
        };

        let now = self.open_loop(server, &rows, &mut tally);
        for c in server.drain(now) {
            tally.answered(c.latency);
        }

        let Tally {
            completed,
            unanswered,
            mut latencies_ms,
            ..
        } = tally;
        latencies_ms.sort_by(f64::total_cmp);
        let stats = server.stats();
        let requests = self.cfg.requests as u64;
        // Admission-control rejections, whether or not a stale fallback
        // still answered; `unanswered` (tracked above) is their subset
        // with no answer at all and equals `requests - completed`.
        let shed = stats.shed - base_stats.shed;
        debug_assert_eq!(completed + unanswered, requests);
        debug_assert!(unanswered <= shed);
        ServingReport {
            requests,
            completed,
            shed,
            hit_rate: stats.hit_rate(),
            p50_ms: percentile_sorted(&latencies_ms, 0.50).unwrap_or(0.0),
            p99_ms: percentile_sorted(&latencies_ms, 0.99).unwrap_or(0.0),
            mean_batch: stats.mean_batch(),
            shed_fraction: if requests == 0 {
                0.0
            } else {
                shed as f64 / requests as f64
            },
            reroutes: stats.reroutes - base_stats.reroutes,
            stale_served: stats.stale_served - base_stats.stale_served,
            degraded: stats.degraded - base_stats.degraded,
        }
    }

    /// Open-loop arrivals: exponential gaps at `rate_per_s`, whatever the
    /// server does. Returns the time of the last arrival.
    fn open_loop(
        &mut self,
        server: &mut Server,
        rows: &[Arc<[f32]>],
        tally: &mut Tally,
    ) -> SimTime {
        let rate_per_s = self.cfg.rate_per_s;
        let rate = if rate_per_s.is_finite() && rate_per_s > 0.0 {
            rate_per_s
        } else {
            1.0
        };
        let mut now = SimTime::ZERO;
        for _ in 0..self.cfg.requests {
            // Exponential inter-arrival gap.
            let u = self.rng.next_f64();
            let gap = -(1.0 - u).max(f64::MIN_POSITIVE).ln() / rate;
            now += SimDuration::from_secs_f64(gap);
            // Flush any batch whose delay knob fired before `now`.
            while let Some(deadline) = server.next_deadline() {
                if deadline > now {
                    break;
                }
                for c in server.tick(deadline) {
                    tally.answered(c.latency);
                }
            }
            self.issue(server, now, rows, tally);
        }
        now
    }

    /// Issues one request at `now`; writes/gets/queries resolve
    /// immediately, inference may leave a pending ticket.
    fn issue(&mut self, server: &mut Server, now: SimTime, rows: &[Arc<[f32]>], tally: &mut Tally) {
        let roll = self.rng.next_f64();
        if roll < self.cfg.write_fraction {
            let r = self.rank(self.keyspace.keys().len());
            let doc = reading(&mut self.rng, self.serial);
            self.serial += 1;
            server
                .put(&self.keyspace.keys()[r], doc, now)
                .expect("generated docs are valid");
            // Writes are acknowledged synchronously; charge one cache-hit
            // cost so they participate in the latency sample.
            tally.answered(crate::server::CACHE_HIT_COST);
            return;
        }
        if server.has_model() && roll < self.cfg.write_fraction + self.cfg.infer_fraction {
            let row = Arc::clone(&rows[self.rank(rows.len())]);
            match server.infer(row, now) {
                InferSubmit::Cached { latency, .. } | InferSubmit::Stale { latency, .. } => {
                    tally.answered(latency);
                }
                InferSubmit::Pending(_) => {}
                InferSubmit::Shed => tally.unanswered += 1,
            }
            return;
        }
        let (is_shed, latency) = if self.rng.next_f64() < 0.5 {
            let r = self.rank(self.keyspace.keys().len());
            let served = server
                .get(&self.keyspace.keys()[r], now)
                .expect("gets cannot fail");
            (served.outcome.is_shed(), served.latency)
        } else {
            let kind = self.rank(KINDS.len());
            let served = server
                .query(&self.keyspace.filters()[kind], now)
                .expect("workload filters are valid");
            (served.outcome.is_shed(), served.latency)
        };
        if is_shed {
            tally.unanswered += 1;
        } else {
            tally.answered(latency);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServeConfig;
    use scneural::exec::ExecCtx;
    use scneural::layers::{Dense, Relu};
    use scneural::net::Sequential;
    use scpar::ScparConfig;

    fn model(dim: usize) -> Sequential {
        Sequential::new()
            .with(Dense::new(dim, 16, 11))
            .with(Relu::new())
            .with(Dense::new(16, 4, 12))
    }

    #[test]
    fn open_loop_accounts_for_every_request() {
        let mut server = Server::new(ServeConfig::default()).with_model(model(8));
        let cfg = WorkloadConfig {
            requests: 500,
            ..WorkloadConfig::default()
        };
        let report = WorkloadGen::new(cfg).run(&mut server);
        assert_eq!(report.requests, 500);
        assert!(report.completed <= 500);
        assert!(
            500 - report.completed <= report.shed,
            "every unanswered request must stem from an admission shed"
        );
        assert!(report.hit_rate > 0.0);
        assert!(report.p99_ms >= report.p50_ms);
    }

    #[test]
    fn an_outage_leaves_no_unanswered_request_uncounted() {
        use scfault::{FaultKind, FaultPlan};

        // One replica and a dark shard: partial answers trip the breaker,
        // and what it then refuses has nothing cached to fall back on.
        let plan = FaultPlan::empty().with_event(SimTime::ZERO, FaultKind::NodeCrash { node: 0 });
        let mut server = Server::new(ServeConfig {
            replicas: 1,
            breaker_failures: 1,
            ..ServeConfig::default()
        })
        .with_fault_plan(&plan);
        let report = WorkloadGen::new(WorkloadConfig {
            requests: 500,
            infer_fraction: 0.0,
            ..WorkloadConfig::default()
        })
        .run(&mut server); // debug builds assert `unanswered <= shed` inside
        assert!(report.completed < report.requests, "the breaker refused");
        assert!(report.requests - report.completed <= report.shed);
    }

    #[test]
    fn same_seed_same_report_any_thread_count() {
        let mk = |threads: usize| {
            let par = if threads <= 1 {
                ScparConfig::serial()
            } else {
                ScparConfig::with_threads(threads)
            };
            let mut server = Server::new(ServeConfig::default())
                .with_model(model(8))
                .with_ctx(ExecCtx::serial().with_par(par));
            WorkloadGen::new(WorkloadConfig {
                requests: 600,
                seed: 7,
                ..WorkloadConfig::default()
            })
            .run(&mut server)
        };
        let serial = mk(1);
        assert_eq!(serial, mk(2));
        assert_eq!(serial, mk(8));
    }

    #[test]
    fn different_seeds_differ() {
        let run = |seed: u64| {
            let mut server = Server::new(ServeConfig::default());
            WorkloadGen::new(WorkloadConfig {
                seed,
                infer_fraction: 0.0,
                requests: 300,
                ..WorkloadConfig::default()
            })
            .run(&mut server)
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn overload_sheds_instead_of_blowing_latency() {
        let cfg = ServeConfig {
            rate_per_s: 100.0,
            burst: 10.0,
            service_rate: 100.0,
            queue_capacity: 20,
            ..ServeConfig::default()
        };
        let mut server = Server::new(cfg.clone());
        let report = WorkloadGen::new(WorkloadConfig {
            requests: 2_000,
            infer_fraction: 0.0,
            rate_per_s: 2_000.0,
            ..WorkloadConfig::default()
        })
        .run(&mut server);
        assert!(report.shed_fraction > 0.3, "overload must shed");
        let bound_ms =
            (cfg.queue_capacity as f64 / cfg.service_rate) * 1e3 + (1.0 / cfg.service_rate) * 1e3;
        assert!(
            report.p99_ms <= bound_ms + 1e-6,
            "p99 {} must respect the queue bound {}",
            report.p99_ms,
            bound_ms
        );
    }
}
