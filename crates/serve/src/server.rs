//! The serving front end: one object tying together shard routing,
//! caches, micro-batching, and admission control.
//!
//! A [`Server`] owns a set of replicated document shards (scnosql
//! [`Collection`]s placed by the consistent-hash [`ShardMap`]), an
//! optional inference model, and the serving machinery around them. Every
//! read walks the same stages, each a private method that is the only
//! writer of its counter, its span name and its [`Outcome`] variant:
//!
//! ```text
//!            arrive        current       enter_queue     enter_backend
//! request ─► token bucket ─► cache ─► bounded queue ─► breaker ─► shards / batcher
//!               │ refused     │ hit      │ refused        │ refused    │ no live replica
//!               ▼             ▼          ▼                ▼            ▼
//!             refuse         hit       stale, else floor (get) or refuse   … else answered
//!         (infer: stale first)                                     (cached on the way out)
//! ```
//!
//! **Cache coherence rule.** Every write bumps the server's generation;
//! query-cache entries are stamped with the generation at fill time and a
//! hit is honoured only if the stamp is current *and* the entry is within
//! TTL. A cached answer therefore can never reflect a state older than
//! the latest acknowledged write — the equivalence suite drives
//! write/read interleavings to hold this to "bit-identical with the
//! direct call".
//!
//! **Degradation ladder.** A refusal is counted at the gate that made it
//! (`scserve_shed_total`), whether or not an answer follows; which answer
//! follows depends on the request, which says so by the stage it calls
//! (the table is in DESIGN.md § Serving layer; `degradation_ladder_is_pinned`
//! holds every cell). The rate gate answers `Shed`, except that `infer`
//! first tries its cached output, of any age. The full queue and the open
//! breaker answer `Stale` — the last cached answer, *ignoring TTL and
//! generation* — else an empty `Degraded` (`get`) or `Shed` (`query`,
//! `infer`; `infer` is not behind the breaker). With a shard down (an
//! injected [`scfault::FaultPlan`]) reads reroute to the key's next live
//! replica; with none left, `get` falls back as if refused and `query`
//! prefers `Stale` to the live shards' `Degraded` rows.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use scfault::{CircuitBreaker, FaultPlan, OutageWindows};
use scneural::exec::ExecCtx;
use scneural::net::Sequential;
use scnosql::document::{Collection, Doc, DocId, Filter};
use scnosql::NosqlError;
use sctelemetry::{SpanContext, SpanGuard, TelemetryHandle, TraceId, WorkDelta, STREAM_SERVE};
use simclock::hash::{fnv1a, fnv1a_from, mix64};
use simclock::{SimDuration, SimTime};

use crate::admission::{Admission, ServiceQueue, TokenBucket};
use crate::batch::{row_fingerprint, BatchConfig, MicroBatcher, ReqId};
use crate::cache::{CacheConfig, InferenceCache, QueryCache};
use crate::shard::ShardMap;

/// Sim-time cost charged for an answer served straight from memory
/// (cache hit, stale serve): no queueing, no backend work.
pub const CACHE_HIT_COST: SimDuration = SimDuration::from_micros(50);

/// Work-accounting kernel of the micro-batcher (requests served per flush).
const KERNEL_BATCHER: &str = "serve/batcher";
/// Work-accounting kernel of admission control (rate gate decisions).
const KERNEL_ADMISSION: &str = "serve/admission";
/// Work-accounting kernel of the query cache (hits, misses, stale serves).
const KERNEL_CACHE: &str = "serve/cache";

/// Rows returned by a query: `(key, document)` pairs in key order.
///
/// Shared, not copied: the keys and documents are the `Arc`s the shards
/// store, and the slice itself is one allocation that the answer, the
/// cache entry, every later hit and every stale serve all hold.
pub type Rows = Arc<[(Arc<str>, Arc<Doc>)]>;

/// Cache fingerprint of a request: [`crate::hash_bytes`] of `prefix ‖ rest`,
/// with `rest` streamed through the hash instead of formatted into a
/// `String` first.
fn fingerprint(prefix: &str, rest: impl std::fmt::Display) -> u64 {
    struct Fnv(u64);
    impl std::fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0 = fnv1a_from(self.0, s.as_bytes());
            Ok(())
        }
    }
    let mut hash = Fnv(fnv1a(prefix.as_bytes()));
    write!(hash, "{rest}").expect("hashing cannot fail");
    mix64(hash.0)
}

/// All serving knobs in one place.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of shard nodes at startup (ids `0..shards`).
    pub shards: u32,
    /// Replicas per key (clamped to the live shard count), at most 4:
    /// [`Server::new`] refuses more.
    pub replicas: usize,
    /// Query-result cache policy.
    pub query_cache: CacheConfig,
    /// Inference-output cache policy.
    pub infer_cache: CacheConfig,
    /// Micro-batching knobs.
    pub batch: BatchConfig,
    /// Token-bucket refill rate, requests per sim-second.
    pub rate_per_s: f64,
    /// Token-bucket burst capacity.
    pub burst: f64,
    /// Backend service rate, requests per sim-second.
    pub service_rate: f64,
    /// Bounded-queue capacity; beyond it requests are shed.
    pub queue_capacity: usize,
    /// Consecutive backend failures before the circuit breaker opens.
    pub breaker_failures: u32,
}

/// Virtual nodes per shard on the hash ring.
const VNODES: u32 = 64;

/// Sim-time an open breaker waits before a half-open probe.
const BREAKER_RESET: SimDuration = SimDuration::from_secs(1);

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 4,
            replicas: 2,
            query_cache: CacheConfig::default(),
            infer_cache: CacheConfig::default(),
            batch: BatchConfig::default(),
            rate_per_s: 100_000.0,
            burst: 1_000.0,
            service_rate: 10_000.0,
            queue_capacity: 1_000,
            breaker_failures: 5,
        }
    }
}

/// How an answer was produced.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome<T> {
    /// Computed by the backend just now (and cached on the way out).
    Fresh(T),
    /// Served from a valid (unexpired, current-generation) cache entry.
    Cached(T),
    /// Served from an expired or superseded cache entry because the
    /// authoritative shards were unreachable.
    Stale(T),
    /// Computed, but with one or more keys unreachable — a partial,
    /// degraded answer.
    Degraded(T),
    /// Rejected by admission control; no answer.
    Shed,
}

impl<T> Outcome<T> {
    /// The carried answer, if any.
    #[cfg(test)]
    fn value(&self) -> Option<&T> {
        match self {
            Outcome::Fresh(v) | Outcome::Cached(v) | Outcome::Stale(v) | Outcome::Degraded(v) => {
                Some(v)
            }
            Outcome::Shed => None,
        }
    }

    /// Whether the request was shed.
    pub fn is_shed(&self) -> bool {
        matches!(self, Outcome::Shed)
    }
}

/// A served query: the outcome plus the sim-time latency it cost.
#[derive(Debug, Clone, PartialEq)]
pub struct Served<T> {
    /// What was answered and how.
    pub outcome: Outcome<T>,
    /// End-to-end sim-time latency (0 for shed requests).
    pub latency: SimDuration,
}

/// Outcome of submitting one inference request.
#[derive(Debug, Clone, PartialEq)]
pub enum InferSubmit {
    /// Served immediately from the inference cache.
    Cached {
        /// Output row, shared with the cache.
        output: Arc<[f32]>,
        /// Latency charged ([`CACHE_HIT_COST`]).
        latency: SimDuration,
    },
    /// Served from an expired cache entry (degraded answer under
    /// overload or outage).
    Stale {
        /// Output row (from the expired entry), shared with the cache.
        output: Arc<[f32]>,
        /// Latency charged ([`CACHE_HIT_COST`]).
        latency: SimDuration,
    },
    /// Queued for the next micro-batch; redeem the ticket from
    /// [`Server::tick`] completions.
    Pending(ReqId),
    /// Rejected by admission control with nothing cached to fall back on.
    Shed,
}

impl InferSubmit {
    /// An answer `infer` gave on the spot, in this enum's shape.
    fn immediate(served: Served<Arc<[f32]>>) -> Self {
        let latency = served.latency;
        match served.outcome {
            Outcome::Cached(output) => InferSubmit::Cached { output, latency },
            Outcome::Stale(output) => InferSubmit::Stale { output, latency },
            Outcome::Shed => InferSubmit::Shed,
            Outcome::Fresh(_) | Outcome::Degraded(_) => {
                unreachable!("the model answers through `tick`, never at submit time")
            }
        }
    }
}

/// One inference completion delivered by [`Server::tick`].
#[derive(Debug, Clone, PartialEq)]
pub struct InferCompletion {
    /// Ticket returned at submit time.
    pub req: ReqId,
    /// Output row, shared with the inference cache and with every
    /// request coalesced onto the same input row.
    pub output: Arc<[f32]>,
    /// End-to-end sim-time latency: queue wait + batch residency.
    pub latency: SimDuration,
}

/// Counter snapshot for one server.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServeStats {
    /// Requests seen (queries + gets + inference submissions).
    pub requests: u64,
    /// Answers served from a valid cache entry.
    pub cache_hits: u64,
    /// Cache lookups that missed.
    pub cache_misses: u64,
    /// Requests rejected by admission control.
    pub shed: u64,
    /// Reads redirected from a down primary to a live replica.
    pub reroutes: u64,
    /// Answers served stale (TTL or generation ignored) during outages.
    pub stale_served: u64,
    /// Partial (degraded) answers.
    pub degraded: u64,
    /// Acknowledged writes.
    pub writes: u64,
    /// Micro-batches flushed.
    pub batches: u64,
    /// Distinct rows across all flushed micro-batches.
    pub batched_rows: u64,
    /// Inference requests coalesced onto an identical pending row.
    pub coalesced: u64,
    /// Documents moved by shard add/remove rebalancing.
    pub rebalance_moves: u64,
}

impl ServeStats {
    /// Cache hits over cache lookups (0 when none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Shed requests over all requests (0 when none).
    pub fn shed_fraction(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.shed as f64 / self.requests as f64
        }
    }

    /// Mean distinct rows per flushed micro-batch (0 when none flushed).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_rows as f64 / self.batches as f64
        }
    }
}

/// One read on its way through the stages: the name of its root span, its
/// arrival time and its trace root.
#[derive(Debug, Clone, Copy)]
struct Req {
    name: &'static str,
    at: SimTime,
    ctx: SpanContext,
}

/// The document a cached `get` answer holds.
fn first_doc(rows: &Rows) -> Option<Arc<Doc>> {
    rows.first().map(|(_, doc)| Arc::clone(doc))
}

/// Records the queue wait from `from` under `g`; returns when service starts.
fn queue_span(g: &mut SpanGuard<'_>, from: SimTime, wait: SimDuration) -> SimTime {
    g.child_span("admission/queue", from, from + wait);
    from + wait
}

/// Records `req`'s span tree, ending at `end`. The `children` closure
/// runs only when telemetry is enabled, so child names (which may
/// format shard ids) are never materialized on the disabled path.
fn trace_request(
    telemetry: &TelemetryHandle,
    req: Req,
    end: SimTime,
    children: impl FnOnce(&mut SpanGuard<'_>),
) {
    if !telemetry.is_enabled() {
        return;
    }
    let mut guard = telemetry.span_guard("scserve", req.name, req.at, req.ctx);
    children(&mut guard);
    guard.finish(end);
}

/// Records the span tree of one batched inference flushed at `flushed`:
/// batch wait + queue wait + per-layer forward; the children partition
/// the request's latency.
fn trace_completion(
    telemetry: &TelemetryHandle,
    model: &Sequential,
    req: Req,
    flushed: SimTime,
    wait: SimDuration,
    service: SimDuration,
) {
    let fwd_end = flushed + wait + service;
    trace_request(telemetry, req, fwd_end, |g| {
        g.child_span("batch/wait", req.at, flushed);
        let fwd_start = queue_span(g, flushed, wait);
        let mut fg = telemetry.span_guard("scserve", "model/forward", fwd_start, g.child_ctx());
        let layer_names = model.layer_names();
        let layers = layer_names.len() as u64;
        // Equal per-layer slices; the last absorbs rounding.
        if let Some(micros) = service.as_micros().checked_div(layers) {
            let slice = SimDuration::from_micros(micros);
            for (i, name) in layer_names.iter().enumerate() {
                let s = fwd_start + SimDuration::from_micros(slice.as_micros() * i as u64);
                let e = if i as u64 == layers - 1 {
                    fwd_end
                } else {
                    s + slice
                };
                fg.child_span(&format!("layer/{i}-{name}"), s, e);
            }
        }
        fg.finish(fwd_end);
    });
}

/// The serving key [`Server::put`] stores a document under: text, which
/// a new key's `put` copies once into the `Arc<str>` the directory and
/// the shards share, or an `Arc<str>`, which they share as it is.
pub trait ServingKey {
    /// The key's text.
    fn text(&self) -> &str;
    /// The key as the `Arc<str>` the server keeps.
    fn into_arc(self) -> Arc<str>;
}

impl ServingKey for &str {
    fn text(&self) -> &str {
        self
    }

    fn into_arc(self) -> Arc<str> {
        Arc::from(self)
    }
}

impl ServingKey for &String {
    fn text(&self) -> &str {
        self
    }

    fn into_arc(self) -> Arc<str> {
        Arc::from(self.as_str())
    }
}

impl ServingKey for &Arc<str> {
    fn text(&self) -> &str {
        self
    }

    fn into_arc(self) -> Arc<str> {
        Arc::clone(self)
    }
}

/// Most replicas a key can have: [`Placements`] holds them inline.
const MAX_REPLICAS: usize = 4;

/// A key's replica placements, `(shard, doc id)` in ring order, held in
/// the directory's entry itself rather than in a list of their own.
#[derive(Debug, Clone, Copy)]
struct Placements {
    len: usize,
    slots: [(u32, DocId); MAX_REPLICAS],
}

impl Placements {
    const EMPTY: Placements = Placements {
        len: 0,
        slots: [(0, DocId(0)); MAX_REPLICAS],
    };

    fn push(&mut self, placement: (u32, DocId)) {
        self.slots[self.len] = placement;
        self.len += 1;
    }

    fn clear(&mut self) {
        self.len = 0;
    }
}

impl std::ops::Deref for Placements {
    type Target = [(u32, DocId)];

    fn deref(&self) -> &Self::Target {
        &self.slots[..self.len]
    }
}

#[derive(Debug, Default)]
struct Shard {
    collection: Collection,
    /// Per-shard `DocId` → serving key and this copy's rank in the key's
    /// replica list (0 is the primary), for mapping fan-out hits back and
    /// deciding which copy answers.
    keys: BTreeMap<DocId, (Arc<str>, usize)>,
}

/// The sharded, cached, batched serving front end. See the module docs.
///
/// # Examples
///
/// ```
/// use scserve::{Outcome, ServeConfig, Server};
/// use scnosql::document::{Doc, Filter};
/// use simclock::SimTime;
///
/// let mut s = Server::new(ServeConfig::default());
/// s.put("cam-1", Doc::object([("kind", Doc::Str("camera".into()))]), SimTime::ZERO).unwrap();
/// let q = Filter::Eq("kind".into(), Doc::Str("camera".into()));
/// let first = s.query(&q, SimTime::from_millis(1)).unwrap();
/// assert!(matches!(first.outcome, Outcome::Fresh(_)));
/// let second = s.query(&q, SimTime::from_millis(2)).unwrap();
/// assert!(matches!(second.outcome, Outcome::Cached(_)));
/// ```
#[derive(Debug)]
pub struct Server {
    cfg: ServeConfig,
    map: ShardMap,
    shards: BTreeMap<u32, Shard>,
    /// key → `(shard, doc id)` replica placements, ring order.
    directory: BTreeMap<Arc<str>, Placements>,
    /// The nodes a key routes to: one buffer for every new key's `put`
    /// and every key a rebalance visits.
    route: Vec<u32>,
    /// A miss's answering rows, gathered from the shards and sorted here
    /// before they move into the answer's slice.
    rows: Vec<(Arc<str>, Arc<Doc>)>,
    /// The paths every shard indexes: each [`Filter::index_path`] a query
    /// has reached the shards with, in the order first asked.
    indexed: Vec<String>,
    model: Option<Sequential>,
    ctx: ExecCtx,
    query_cache: QueryCache<Rows>,
    infer_cache: InferenceCache,
    batcher: MicroBatcher,
    bucket: TokenBucket,
    queue: ServiceQueue,
    breaker: CircuitBreaker,
    telemetry: TelemetryHandle,
    outages: Option<OutageWindows>,
    generation: u64,
    /// Pending inference bookkeeping: ticket → (the request as it arrived,
    /// its queue wait).
    waiting: BTreeMap<u64, (Req, SimDuration)>,
    /// Seed for deterministic trace-id derivation.
    trace_seed: u64,
    /// Monotone request sequence number feeding trace-id derivation.
    req_seq: u64,
    stats: ServeStats,
}

impl Server {
    /// A server with `cfg.shards` (at least one) empty shards and no model.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.replicas` is above 4: a key's placements are held
    /// inline, in room for four.
    pub fn new(mut cfg: ServeConfig) -> Self {
        assert!(
            cfg.replicas <= MAX_REPLICAS,
            "{} replicas per key; a server keeps at most {MAX_REPLICAS}",
            cfg.replicas
        );
        cfg.shards = cfg.shards.max(1);
        let map = ShardMap::with_nodes(cfg.shards, VNODES);
        let shards = (0..cfg.shards).map(|n| (n, Shard::default())).collect();
        Server {
            map,
            shards,
            directory: BTreeMap::new(),
            route: Vec::new(),
            rows: Vec::new(),
            indexed: Vec::new(),
            model: None,
            ctx: ExecCtx::serial(),
            query_cache: QueryCache::new(cfg.query_cache),
            infer_cache: InferenceCache::new(cfg.infer_cache),
            batcher: MicroBatcher::new(cfg.batch),
            bucket: TokenBucket::new(cfg.rate_per_s, cfg.burst),
            queue: ServiceQueue::new(cfg.service_rate, cfg.queue_capacity),
            breaker: CircuitBreaker::new(cfg.breaker_failures, BREAKER_RESET),
            telemetry: TelemetryHandle::disabled(),
            outages: None,
            generation: 0,
            waiting: BTreeMap::new(),
            trace_seed: 0,
            req_seq: 0,
            stats: ServeStats::default(),
            cfg,
        }
    }

    /// Attaches the inference model served by [`Server::infer`]. Swapping
    /// models clears the inference cache — outputs of the old model must
    /// not answer for the new one.
    pub fn with_model(mut self, model: Sequential) -> Self {
        self.infer_cache.clear();
        self.model = Some(model);
        self
    }

    /// Builder form of [`Server::set_ctx`].
    pub fn with_ctx(mut self, ctx: ExecCtx) -> Self {
        self.set_ctx(ctx);
        self
    }

    // ------------------------------------------------------------------
    // Runtime reconfiguration (the autoscaler's knobs)
    // ------------------------------------------------------------------

    /// Replaces the execution context used for batched inference (worker
    /// pool, telemetry) in place — a mid-run pool resize. Because scpar results are bit-identical at any worker
    /// count, this only changes *how fast wall-clock work happens*, never
    /// an answer; how many rows share a batch stays
    /// [`BatchConfig::max_batch`](crate::BatchConfig).
    pub fn set_ctx(&mut self, ctx: ExecCtx) {
        self.ctx = ctx;
    }

    /// Reconfigures the token bucket in place — admission-control
    /// shedding, tightened by an autoscaler that has run out of capacity
    /// to add and restored once the burn subsides. Tokens accrued so far
    /// refill at the old rate up to `now`.
    pub fn set_rate_limit(&mut self, rate_per_s: f64, burst: f64, now: SimTime) {
        self.bucket.set_rate(rate_per_s, burst, now);
    }

    /// Reconfigures the backend drain rate in place — the capacity knob
    /// that follows shard adds/removes and pool resizes. Queued work
    /// drains at the old rate up to `now`; the backlog carries over.
    pub fn set_service_rate(&mut self, service_rate: f64, now: SimTime) {
        self.queue.set_rate(service_rate, now);
    }

    /// Attaches a telemetry handle; all `scserve_*` metrics flow to it.
    pub fn with_telemetry(mut self, telemetry: TelemetryHandle) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Sets the seed from which request trace ids are derived
    /// (`TraceId::derive(seed, STREAM_SERVE, request_index)`); the same
    /// seed names the same traces at any thread count.
    pub fn with_trace_seed(mut self, seed: u64) -> Self {
        self.trace_seed = seed;
        self
    }

    /// Subjects the shard fleet to `plan`'s node-crash windows: shard `n`
    /// is considered down while fault node `n` is crashed.
    pub fn with_fault_plan(mut self, plan: &FaultPlan) -> Self {
        self.outages = Some(OutageWindows::node_crashes(plan));
        self
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServeStats {
        self.stats
    }

    /// The routing map (read-only view).
    pub fn shard_map(&self) -> &ShardMap {
        &self.map
    }

    /// Whether an inference model is attached.
    pub fn has_model(&self) -> bool {
        self.model.is_some()
    }

    /// Keys currently stored.
    pub fn len(&self) -> usize {
        self.directory.len()
    }

    /// Whether no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.directory.is_empty()
    }

    /// `(full scans, index-assisted finds)` of shard `node`'s collection.
    #[cfg(test)]
    fn shard_query_stats(&self, node: u32) -> (u64, u64) {
        self.shards[&node].collection.query_stats()
    }

    fn shard_down(&self, shard: u32, now: SimTime) -> bool {
        self.outages.as_ref().is_some_and(|w| w.is_down(shard, now))
    }

    fn effective_replicas(&self) -> usize {
        self.cfg.replicas.clamp(1, self.map.len().max(1))
    }

    // ------------------------------------------------------------------
    // Write path
    // ------------------------------------------------------------------

    /// Inserts or replaces the document stored under `key` on every
    /// replica shard — one `Arc<Doc>` that all of them hold — then
    /// invalidates the query cache (generation bump) before acknowledging.
    /// A new key is kept as one `Arc<str>`: an `&Arc<str>` key is shared,
    /// text is copied once.
    ///
    /// # Errors
    ///
    /// Propagates [`NosqlError`] for invalid documents; nothing is stored
    /// and no invalidation happens on error.
    pub fn put(&mut self, key: impl ServingKey, doc: Doc, now: SimTime) -> Result<(), NosqlError> {
        // Replica writes apply the same doc, so a validation failure hits
        // the first replica before anything is stored — no partial writes.
        let doc = Arc::new(doc);
        if let Some(existing) = self.directory.get(key.text()) {
            // Replace: each replica's slot takes the new `Arc`.
            for (node, id) in existing.iter() {
                let shard = self.shards.get_mut(node).expect("directory is consistent");
                shard.collection.update(*id, Arc::clone(&doc))?;
            }
        } else {
            let replicas = self.effective_replicas();
            self.map
                .route_replicas(key.text().as_bytes(), replicas, &mut self.route);
            let key = key.into_arc();
            let mut placements = Placements::EMPTY;
            for (rank, node) in self.route.iter().enumerate() {
                let shard = self.shards.get_mut(node).expect("ring nodes have shards");
                let id = shard.collection.insert(Arc::clone(&doc))?;
                shard.keys.insert(id, (Arc::clone(&key), rank));
                placements.push((*node, id));
            }
            self.directory.insert(key, placements);
        }
        self.ack_write(now);
        Ok(())
    }

    /// Acknowledges a write: the generation bump outdates every cached
    /// query answer.
    fn ack_write(&mut self, now: SimTime) {
        self.generation += 1;
        self.stats.writes += 1;
        self.telemetry
            .counter_inc("scserve_writes_total", "acknowledged serving-tier writes");
        let req = self.begin("request/put", now);
        trace_request(&self.telemetry, req, now + CACHE_HIT_COST, |_| {});
    }

    // ------------------------------------------------------------------
    // The request path, as stages. Each is the only writer of its counter,
    // its span name and its `Outcome` variant; `get`, `query` and `infer`
    // differ in which of them they call (the table in the module docs).
    // ------------------------------------------------------------------

    /// Opens the next request's trace. The root context is pure arithmetic
    /// on the `(seed, sequence)` pair, so it costs the same (a few ns, no
    /// allocation) whether or not telemetry is attached.
    fn begin(&mut self, name: &'static str, at: SimTime) -> Req {
        let ctx = SpanContext::root(TraceId::derive(self.trace_seed, STREAM_SERVE, self.req_seq));
        self.req_seq += 1;
        Req { name, at, ctx }
    }

    fn note_shed(&mut self) {
        self.stats.shed += 1;
        self.telemetry.counter_inc(
            "scserve_shed_total",
            "requests rejected by admission control",
        );
    }

    /// Every read starts here: trace root, request count, rate gate.
    /// `false` is the gate's refusal, already counted as a shed.
    fn arrive(&mut self, name: &'static str, now: SimTime) -> (Req, bool) {
        let req = self.begin(name, now);
        self.stats.requests += 1;
        self.telemetry
            .counter_inc("scserve_requests_total", "serving requests received");
        self.telemetry.work(KERNEL_ADMISSION, WorkDelta::items(1));
        let admitted = self.bucket.try_acquire(now);
        if !admitted {
            self.note_shed();
        }
        (req, admitted)
    }

    /// The query-cache entry under `fp`, if it is within TTL and no write
    /// has been acknowledged since it was filled.
    fn current(&mut self, fp: u64, now: SimTime) -> Option<Rows> {
        let (gen, rows) = self.query_cache.get(&fp, now)?;
        (gen == self.generation).then_some(rows)
    }

    /// An answer that cost no backend work: [`CACHE_HIT_COST`], traced as
    /// the root over the one `child`.
    fn in_memory<T>(&self, req: Req, child: &str, outcome: Outcome<T>) -> Served<T> {
        let end = req.at + CACHE_HIT_COST;
        trace_request(&self.telemetry, req, end, |g| {
            g.child_span(child, req.at, end);
        });
        Served {
            outcome,
            latency: CACHE_HIT_COST,
        }
    }

    /// `value` came from a valid cache entry.
    fn hit<T>(&mut self, req: Req, value: T) -> Served<T> {
        self.stats.cache_hits += 1;
        self.telemetry
            .counter_inc("scserve_cache_hit_total", "answers served from cache");
        self.telemetry
            .work(KERNEL_CACHE, WorkDelta::items(1).with_cache(1, 0));
        self.in_memory(req, "cache/hit", Outcome::Cached(value))
    }

    /// `value` came from a cache entry that has expired or been superseded,
    /// read because the backend could not be asked or could not answer.
    fn stale<T>(&mut self, req: Req, value: T) -> Served<T> {
        self.stats.stale_served += 1;
        self.telemetry.counter_inc(
            "scserve_stale_served_total",
            "degraded answers served from expired cache entries",
        );
        self.telemetry
            .work(KERNEL_CACHE, WorkDelta::items(1).with_cache(1, 0));
        self.in_memory(req, "cache/stale", Outcome::Stale(value))
    }

    /// No answer: a zero-length root span (the trace stays complete) plus a
    /// `request/shed` event whose detail carries the trace id for SLO
    /// availability accounting. The refusal itself was counted at the gate.
    fn refuse<T>(&self, req: Req) -> Served<T> {
        if self.telemetry.is_enabled() {
            self.telemetry
                .span_in("scserve", "request/shed", req.at, req.at, req.ctx);
            self.telemetry.event(
                "scserve",
                "request/shed",
                req.at,
                format_args!("trace={}", req.ctx.trace.as_hex()),
            );
        }
        Served {
            outcome: Outcome::Shed,
            latency: SimDuration::ZERO,
        }
    }

    /// Counts an answer with keys missing from it.
    fn degrade(&mut self) {
        self.stats.degraded += 1;
        self.telemetry.counter_inc(
            "scserve_degraded_total",
            "partial or empty degraded answers",
        );
    }

    /// The floor of a ladder that always answers: `value`, which holds
    /// nothing the backend said, as a degraded answer from memory.
    fn floor<T>(&mut self, req: Req, value: T) -> Served<T> {
        self.degrade();
        self.in_memory(req, "degraded", Outcome::Degraded(value))
    }

    /// A cache miss asks for a queue slot and gets its wait ahead of
    /// service, or `None` — counted as a shed — when the queue is full.
    fn enter_queue(&mut self, now: SimTime) -> Option<SimDuration> {
        self.stats.cache_misses += 1;
        self.telemetry
            .counter_inc("scserve_cache_miss_total", "cache lookups that missed");
        self.telemetry
            .work(KERNEL_CACHE, WorkDelta::items(1).with_cache(0, 1));
        match self.queue.offer(now) {
            Admission::Admitted { wait } => {
                self.telemetry.observe(
                    "scserve_queue_wait_seconds",
                    "queue wait ahead of admitted backend requests",
                    wait.as_secs_f64(),
                );
                Some(wait)
            }
            Admission::Shed => {
                self.note_shed();
                None
            }
        }
    }

    /// [`Server::enter_queue`], then the circuit breaker in front of the
    /// shards; an open breaker refuses, and is counted, as a full queue is.
    fn enter_backend(&mut self, now: SimTime) -> Option<SimDuration> {
        let wait = self.enter_queue(now)?;
        if !self.breaker.allow(now) {
            self.note_shed();
            return None;
        }
        Some(wait)
    }

    fn note_reroutes(&mut self, reads: u64) {
        if reads > 0 {
            self.stats.reroutes += reads;
            self.telemetry.counter_add(
                "scserve_reroute_total",
                "reads redirected from a down primary to a live replica",
                reads,
            );
        }
    }

    /// What the backend said after `wait` in the queue and one service
    /// time, traced as those two children.
    fn answered<T>(
        &self,
        req: Req,
        wait: SimDuration,
        backend: impl std::fmt::Display,
        outcome: Outcome<T>,
    ) -> Served<T> {
        let latency = wait + self.queue.service_time();
        trace_request(&self.telemetry, req, req.at + latency, |g| {
            let served_from = queue_span(g, req.at, wait);
            g.child_span(&backend.to_string(), served_from, req.at + latency);
        });
        Served { outcome, latency }
    }

    // ------------------------------------------------------------------
    // Read path
    // ------------------------------------------------------------------

    /// Point lookup by serving key.
    ///
    /// Walks the key's replicas in ring order, skipping shards that are
    /// down under the injected fault plan (counting a reroute when the
    /// primary is skipped). Refused by the queue or the breaker, or with
    /// every replica down, falls back to the stale cache, then to a
    /// degraded empty answer.
    ///
    /// # Errors
    ///
    /// This path performs no filter evaluation and cannot fail; the
    /// `Result` mirrors [`Server::query`] for a uniform calling shape.
    pub fn get(&mut self, key: &str, now: SimTime) -> Result<Served<Option<Arc<Doc>>>, NosqlError> {
        let (req, admitted) = self.arrive("request/get", now);
        if !admitted {
            return Ok(self.refuse(req));
        }
        let fp = fingerprint("get:", key);
        if let Some(rows) = self.current(fp, now) {
            return Ok(self.hit(req, first_doc(&rows)));
        }
        if let Some(wait) = self.enter_backend(now) {
            let Some((key, placements)) = self.directory.get_key_value(key) else {
                // Key simply does not exist; an authoritative miss.
                self.breaker.record_success();
                self.query_cache
                    .insert(fp, (self.generation, Rows::default()), now);
                return Ok(self.answered(req, wait, "backend/lookup", Outcome::Fresh(None)));
            };
            let live = placements
                .iter()
                .position(|(node, _)| !self.shard_down(*node, now));
            if let Some(rank) = live {
                let ((node, id), key) = (placements[rank], Arc::clone(key));
                self.note_reroutes(u64::from(rank > 0));
                self.breaker.record_success();
                let doc = self.shards[&node].collection.get(id).cloned();
                let rows: Rows = doc.clone().map(|d| (key, d)).into_iter().collect();
                self.query_cache.insert(fp, (self.generation, rows), now);
                let backend = format_args!("backend/shard-{node}");
                return Ok(self.answered(req, wait, backend, Outcome::Fresh(doc)));
            }
            self.breaker.record_failure(now);
        }
        // Refused at the queue or the breaker, or every replica down.
        Ok(match self.query_cache.peek_ignore_ttl(&fp) {
            Some((_, rows)) => self.stale(req, first_doc(&rows)),
            None => self.floor(req, None),
        })
    }

    /// Filter query fanned out across the shard fleet.
    ///
    /// Results are `(key, document)` pairs in key order, each key
    /// answered by its first *live* replica (deduplicating the copies):
    /// with the fleet up that is the copy of rank 0, and the directory is
    /// consulted only while some shard is down.
    /// Complete answers are cached under the current generation; answers
    /// with unreachable keys are `Degraded` (or `Stale` when a prior
    /// cached answer exists) and are never cached.
    ///
    /// The tier indexes the paths it is asked by: the first miss whose
    /// filter an index could serve ([`Filter::index_path`]) builds that
    /// index on every shard, and shards that join later get it before they
    /// are filled. Nothing observable changes but the wall-clock cost of a
    /// miss; the price is one index per distinct path ever queried, at 16
    /// bytes per stored copy each, for as long as the server lives.
    ///
    /// # Errors
    ///
    /// Propagates filter validation failures ([`NosqlError`]) from the
    /// underlying collections.
    pub fn query(&mut self, filter: &Filter, now: SimTime) -> Result<Served<Rows>, NosqlError> {
        let (req, admitted) = self.arrive("request/query", now);
        if !admitted {
            return Ok(self.refuse(req));
        }
        let fp = fingerprint("query:", format_args!("{filter:?}"));
        if let Some(rows) = self.current(fp, now) {
            return Ok(self.hit(req, rows));
        }
        let Some(wait) = self.enter_backend(now) else {
            return Ok(match self.query_cache.peek_ignore_ttl(&fp) {
                Some((_, cached)) => self.stale(req, cached),
                None => self.refuse(req),
            });
        };
        let (rows, unreachable) = self.fan_out(filter, now)?;
        let outcome = if unreachable == 0 {
            self.breaker.record_success();
            self.query_cache
                .insert(fp, (self.generation, Arc::clone(&rows)), now);
            Outcome::Fresh(rows)
        } else {
            self.breaker.record_failure(now);
            self.degrade();
            // Prefer a complete-but-stale cached answer over a fresh
            // partial one.
            if let Some((_, cached)) = self.query_cache.peek_ignore_ttl(&fp) {
                return Ok(self.stale(req, cached));
            }
            Outcome::Degraded(rows)
        };
        Ok(self.answered(req, wait, "backend/query", outcome))
    }

    /// `query`'s backend step: the matching rows the live shards hold, in
    /// key order, and how many stored keys no live shard holds.
    fn fan_out(&mut self, filter: &Filter, now: SimTime) -> Result<(Rows, usize), NosqlError> {
        self.index_asked_path(filter);
        // Each key is answered by its first live replica. Keys with no
        // live replica make the answer degraded; both are counted off the
        // directory, which only an outage makes worth walking.
        let down: Vec<u32> = self
            .shards
            .keys()
            .copied()
            .filter(|&node| self.shard_down(node, now))
            .collect();
        let mut unreachable = 0usize;
        let mut rerouted = 0u64;
        if !down.is_empty() {
            for placements in self.directory.values() {
                match placements.iter().position(|(node, _)| !down.contains(node)) {
                    Some(i) => rerouted += u64::from(i > 0),
                    None => unreachable += 1,
                }
            }
        }
        self.note_reroutes(rerouted);

        self.rows.clear();
        for (node, shard) in &self.shards {
            if down.contains(node) {
                continue;
            }
            shard.collection.find_each(filter, |id, doc| {
                let (key, rank) = shard.keys.get(&id).expect("every doc has a serving key");
                // A live copy answers iff every replica ahead of it is down.
                let answers = match *rank {
                    0 => true,
                    _ if down.is_empty() => false,
                    rank => self.directory[key][..rank]
                        .iter()
                        .all(|(ahead, _)| down.contains(ahead)),
                };
                if answers {
                    self.rows.push((Arc::clone(key), Arc::clone(doc)));
                }
            })?;
        }
        // One copy of each key answers, so an unstable sort (which needs
        // no scratch) orders them as a stable one would.
        self.rows.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
        // One exact allocation, into which the rows move.
        Ok((self.rows.drain(..).collect(), unreachable))
    }

    /// The auto-index stage: the first time a filter an index could serve
    /// reaches the shards, every shard indexes its path. Remembered, so
    /// [`Server::add_shard`] can give a new shard the same indexes.
    fn index_asked_path(&mut self, filter: &Filter) {
        let Some(path) = filter.index_path() else {
            return;
        };
        if self.indexed.iter().any(|known| known == path) {
            return;
        }
        for shard in self.shards.values_mut() {
            shard.collection.create_index(path);
        }
        self.indexed.push(path.to_string());
    }

    // ------------------------------------------------------------------
    // Inference path
    // ------------------------------------------------------------------

    /// Submits one feature row for inference.
    ///
    /// Cache hit → answered immediately; miss → coalesced into the
    /// pending micro-batch (redeem the ticket from [`Server::tick`]).
    /// Admission failures fall back to an expired cache entry when one
    /// exists (the degraded answer), else shed. A row of a width the model
    /// does not take is shed at submission and counted in
    /// `scserve_width_refused_total`. An `Arc<[f32]>` row is shared, not
    /// copied; a `Vec<f32>` is copied into one.
    ///
    /// # Panics
    ///
    /// Panics if no model was attached via [`Server::with_model`].
    pub fn infer(&mut self, row: impl Into<Arc<[f32]>>, now: SimTime) -> InferSubmit {
        let row = row.into();
        let (req, admitted) = self.arrive("request/infer", now);
        let model = self.model.as_ref().expect("Server::infer requires a model");
        if !self.batcher.takes_width(model, row.len()) {
            self.telemetry.counter_inc(
                "scserve_width_refused_total",
                "inference rows refused for a width the model does not take",
            );
            return InferSubmit::immediate(self.refuse(req));
        }
        let fp = row_fingerprint(&row);
        if admitted {
            if let Some(output) = self.infer_cache.get(&fp, now) {
                return InferSubmit::immediate(self.hit(req, output));
            }
            // No breaker here: the model is not behind the shards.
            if let Some(wait) = self.enter_queue(now) {
                let ticket = self.batcher.submit(row, now);
                self.waiting.insert(ticket.0, (req, wait));
                return InferSubmit::Pending(ticket);
            }
        }
        // Refused at either gate. The rate gate sits ahead of the cache, so
        // the output kept there may be any age.
        InferSubmit::immediate(match self.infer_cache.peek_ignore_ttl(&fp) {
            Some(output) => self.stale(req, output),
            None => self.refuse(req),
        })
    }

    /// Advances the batcher to `now`: flushes if either batching knob
    /// fired and returns the completions. Call this whenever sim-time
    /// advances past [`Server::next_deadline`].
    pub fn tick(&mut self, now: SimTime) -> Vec<InferCompletion> {
        if !self.batcher.due(now) {
            return Vec::new();
        }
        self.flush(now)
    }

    /// Force-flushes any pending micro-batch (end-of-run drain).
    pub fn drain(&mut self, now: SimTime) -> Vec<InferCompletion> {
        self.flush(now)
    }

    /// The sim-time at which the pending batch's delay knob fires.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.batcher.next_deadline()
    }

    /// One flush: the outputs go into the inference cache and out as
    /// completions, sharing one row per distinct input with both.
    fn flush(&mut self, now: SimTime) -> Vec<InferCompletion> {
        let Some(model) = self.model.as_ref() else {
            return Vec::new(); // nothing can be pending without a model
        };
        let (_, coalesced) = self.batcher.stats();
        let Some(batch) = self.batcher.flush_now(model, &self.ctx, now) else {
            return Vec::new();
        };
        self.stats.batches += 1;
        self.stats.batched_rows += batch.batch_size() as u64;
        self.stats.coalesced = coalesced;
        self.telemetry
            .counter_inc("scserve_batches_total", "micro-batches flushed");
        self.telemetry.observe_exact(
            "scserve_batch_size",
            "distinct rows per flushed micro-batch",
            batch.batch_size() as f64,
        );
        if self.telemetry.is_enabled() {
            // Batch composition is a function of the arrival sequence only,
            // so this delta is deterministic. Model flops are attributed by
            // the model's own handle, not double-counted here.
            let out_bytes: u64 = batch.distinct.iter().map(|(_, o)| o.len() as u64 * 4).sum();
            self.telemetry.work(
                KERNEL_BATCHER,
                WorkDelta::items(batch.requests() as u64).with_bytes(out_bytes),
            );
        }
        for (fp, out) in batch.distinct {
            self.infer_cache.insert(*fp, Arc::clone(out), now);
        }
        let service = self.queue.service_time();
        let mut completions = Vec::with_capacity(batch.requests());
        for (ticket, output) in batch.outputs() {
            let (req, wait) = self
                .waiting
                .remove(&ticket.0)
                .expect("every batched request was registered");
            trace_completion(&self.telemetry, model, req, now, wait, service);
            completions.push(InferCompletion {
                req: ticket,
                output: Arc::clone(output),
                latency: now.saturating_since(req.at) + wait + service,
            });
        }
        completions
    }

    // ------------------------------------------------------------------
    // Rebalancing
    // ------------------------------------------------------------------

    /// Adds a shard node and rebalances: only keys whose replica set
    /// changed move, per the consistent-hash minimal-movement property.
    /// Returns the number of document copies moved.
    pub fn add_shard(&mut self, node: u32) -> usize {
        if self.map.contains(node) {
            return 0;
        }
        self.map.add_node(node);
        let shard = self.shards.entry(node).or_default();
        for path in &self.indexed {
            shard.collection.create_index(path);
        }
        self.rebalance()
    }

    /// Removes a shard node, migrating its document copies to the new
    /// replica owners first. Returns the number of copies moved. The last
    /// node stays: with nowhere to migrate to, removing it would drop every
    /// document.
    pub fn remove_shard(&mut self, node: u32) -> usize {
        if !self.map.contains(node) || self.map.len() == 1 {
            return 0;
        }
        self.map.remove_node(node);
        let moves = self.rebalance();
        let drained = self.shards.remove(&node);
        debug_assert!(
            drained.is_none_or(|s| s.collection.is_empty()),
            "rebalance must empty a removed shard"
        );
        moves
    }

    fn rebalance(&mut self) -> usize {
        let replicas = self.effective_replicas();
        let mut moves = 0usize;
        let new_nodes = &mut self.route;
        for (key, placements) in &mut self.directory {
            self.map.route_replicas(key.as_bytes(), replicas, new_nodes);
            if placements.iter().map(|(n, _)| n).eq(new_nodes.iter()) {
                continue;
            }
            let doc = placements
                .iter()
                .find_map(|(n, id)| self.shards.get(n).and_then(|s| s.collection.get(*id)))
                .cloned()
                .expect("at least one replica still holds the doc");
            let old = *placements;
            placements.clear();
            for (rank, node) in new_nodes.iter().enumerate() {
                let shard = self.shards.get_mut(node).expect("ring nodes have shards");
                let id = match old.iter().find(|(n, _)| n == node) {
                    // A copy that stays may still change rank.
                    Some(&(_, id)) => {
                        shard.keys.get_mut(&id).expect("every doc has a key").1 = rank;
                        id
                    }
                    None => {
                        let id = shard
                            .collection
                            .insert(Arc::clone(&doc))
                            .expect("stored docs are always valid");
                        shard.keys.insert(id, (Arc::clone(key), rank));
                        moves += 1;
                        id
                    }
                };
                placements.push((*node, id));
            }
            for (node, id) in old.iter() {
                if !new_nodes.contains(node) {
                    if let Some(shard) = self.shards.get_mut(node) {
                        shard.collection.remove(*id);
                        shard.keys.remove(id);
                        moves += 1;
                    }
                }
            }
        }
        self.stats.rebalance_moves += moves as u64;
        self.telemetry.counter_add(
            "scserve_rebalance_moves_total",
            "document copies moved by shard add/remove rebalancing",
            moves as u64,
        );
        moves
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scfault::{FaultKind, FaultPlan};
    use scneural::layers::{Dense, Relu};

    fn doc(kind: &str, v: i64) -> Doc {
        Doc::object([("kind", Doc::Str(kind.into())), ("v", Doc::I64(v))])
    }

    fn seeded_server(cfg: ServeConfig) -> Server {
        let mut s = Server::new(cfg);
        for i in 0..20 {
            let kind = if i % 2 == 0 { "even" } else { "odd" };
            s.put(&format!("k-{i:03}"), doc(kind, i), SimTime::ZERO)
                .unwrap();
        }
        s
    }

    #[test]
    fn streamed_fingerprints_equal_the_hash_of_the_formatted_request() {
        use crate::shard::hash_bytes;

        assert_eq!(fingerprint("get:", "k-00017"), hash_bytes(b"get:k-00017"));

        let filter = Filter::And(vec![
            Filter::Eq("kind".into(), Doc::Str("air".into())),
            Filter::Range("v".into(), -1.5, 2e9),
        ]);
        assert_eq!(
            fingerprint("query:", format_args!("{filter:?}")),
            hash_bytes(format!("query:{filter:?}").as_bytes())
        );
    }

    #[test]
    fn put_get_round_trips() {
        let mut s = seeded_server(ServeConfig::default());
        let got = s.get("k-003", SimTime::from_millis(1)).unwrap();
        assert!(matches!(&got.outcome, Outcome::Fresh(Some(d)) if **d == doc("odd", 3)));
        let missing = s.get("nope", SimTime::from_millis(2)).unwrap();
        assert!(matches!(missing.outcome, Outcome::Fresh(None)));
    }

    #[test]
    fn query_caches_and_write_invalidates() {
        let mut s = seeded_server(ServeConfig::default());
        let f = Filter::Eq("kind".into(), Doc::Str("even".into()));
        let first = s.query(&f, SimTime::from_millis(1)).unwrap();
        let Outcome::Fresh(rows) = &first.outcome else {
            panic!("cold query must be fresh")
        };
        assert_eq!(rows.len(), 10);
        let second = s.query(&f, SimTime::from_millis(2)).unwrap();
        assert!(matches!(second.outcome, Outcome::Cached(_)));
        assert!(second.latency < first.latency);

        s.put("k-100", doc("even", 100), SimTime::from_millis(3))
            .unwrap();
        let third = s.query(&f, SimTime::from_millis(4)).unwrap();
        let Outcome::Fresh(rows) = &third.outcome else {
            panic!("a write must invalidate the cached answer")
        };
        assert_eq!(rows.len(), 11);
    }

    #[test]
    fn replicas_land_on_distinct_shards() {
        let s = seeded_server(ServeConfig::default());
        for placements in s.directory.values() {
            assert_eq!(placements.len(), 2);
            assert_ne!(placements[0].0, placements[1].0);
        }
    }

    #[test]
    fn outage_reroutes_then_serves_stale() {
        let cfg = ServeConfig {
            replicas: 1, // single replica so a crash makes keys unreachable
            ..ServeConfig::default()
        };
        let mut s = seeded_server(cfg);
        let f = Filter::Eq("kind".into(), Doc::Str("odd".into()));
        // Warm the cache while everything is healthy.
        let warm = s.query(&f, SimTime::from_millis(1)).unwrap();
        assert!(matches!(warm.outcome, Outcome::Fresh(_)));

        // Crash shard 0 from t=1s to t=5s.
        let plan = FaultPlan::empty()
            .with_event(SimTime::from_secs(1), FaultKind::NodeCrash { node: 0 })
            .with_event(SimTime::from_secs(5), FaultKind::NodeRestart { node: 0 });
        s = s.with_fault_plan(&plan);

        // Cached answer still serves (generation unchanged).
        let hit = s.query(&f, SimTime::from_secs(2)).unwrap();
        assert!(matches!(hit.outcome, Outcome::Cached(_)));

        // A write invalidates; the re-query must now degrade to the stale
        // answer because shard 0's keys are unreachable.
        s.put("k-999", doc("odd", 999), SimTime::from_secs(2))
            .unwrap();
        let stale = s.query(&f, SimTime::from_secs(3)).unwrap();
        assert!(
            matches!(stale.outcome, Outcome::Stale(_)),
            "expected stale fallback, got {:?}",
            stale.outcome
        );
        assert!(s.stats().stale_served >= 1);

        // After restart the fresh (complete) answer returns.
        let fresh = s.query(&f, SimTime::from_secs(6)).unwrap();
        let Outcome::Fresh(rows) = &fresh.outcome else {
            panic!("restored shard must serve fresh")
        };
        assert_eq!(rows.len(), 11);
    }

    #[test]
    fn outage_with_replicas_reroutes_without_degrading() {
        let mut s = seeded_server(ServeConfig::default()); // 2 replicas
        let plan = FaultPlan::empty()
            .with_event(SimTime::from_secs(1), FaultKind::NodeCrash { node: 0 })
            .with_event(SimTime::from_secs(9), FaultKind::NodeRestart { node: 0 });
        s = s.with_fault_plan(&plan);
        let f = Filter::Eq("kind".into(), Doc::Str("even".into()));
        let served = s.query(&f, SimTime::from_secs(2)).unwrap();
        let Outcome::Fresh(rows) = &served.outcome else {
            panic!(
                "replicated keys survive a single crash: {:?}",
                served.outcome
            )
        };
        assert_eq!(rows.len(), 10);
        assert!(s.stats().reroutes > 0, "shard-0 primaries must reroute");
    }

    #[test]
    fn rate_limit_sheds() {
        let cfg = ServeConfig {
            rate_per_s: 10.0,
            burst: 2.0,
            ..ServeConfig::default()
        };
        let mut s = seeded_server(cfg);
        let mut sheds = 0;
        for _ in 0..10 {
            let served = s.get("k-001", SimTime::from_millis(1)).unwrap();
            if served.outcome.is_shed() || matches!(served.outcome, Outcome::Stale(_)) {
                sheds += 1;
            }
        }
        assert!(sheds >= 7, "burst of 2 admits few of 10 simultaneous gets");
        assert!(s.stats().shed >= 7);
        assert!(s.stats().shed_fraction() > 0.5);
    }

    #[test]
    fn inference_caches_and_batches() {
        let model = Sequential::new()
            .with(Dense::new(4, 8, 5))
            .with(Relu::new())
            .with(Dense::new(8, 2, 6));
        let mut s = Server::new(ServeConfig {
            batch: BatchConfig {
                max_batch: 2,
                max_delay: SimDuration::from_millis(5),
            },
            ..ServeConfig::default()
        })
        .with_model(model);

        let row = vec![0.1f32, 0.2, 0.3, 0.4];
        let sub = s.infer(row.clone(), SimTime::ZERO);
        let InferSubmit::Pending(req) = sub else {
            panic!("cold inference must queue")
        };
        assert!(s.tick(SimTime::from_millis(1)).is_empty(), "not due yet");
        let done = s.tick(SimTime::from_millis(5));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].req, req);
        assert!(done[0].latency >= SimDuration::from_millis(5));

        // Identical row now hits the inference cache.
        let hit = s.infer(row, SimTime::from_millis(6));
        assert!(matches!(hit, InferSubmit::Cached { .. }));
        assert_eq!(s.stats().batches, 1);
    }

    #[test]
    fn a_row_of_the_wrong_width_is_shed_at_submission() {
        use sctelemetry::Telemetry;

        let telemetry = Telemetry::shared();
        let server = |telemetry: TelemetryHandle| {
            Server::new(ServeConfig::default())
                .with_model(Sequential::new().with(Dense::new(4, 2, 5)))
                .with_telemetry(telemetry)
        };
        let row = vec![0.1f32, 0.2, 0.3, 0.4];
        let mut mixed = server(telemetry.handle());
        let mut alone = server(TelemetryHandle::disabled());
        let pending = mixed.infer(row.clone(), SimTime::ZERO);
        assert!(matches!(pending, InferSubmit::Pending(_)));
        assert_eq!(
            mixed.infer(vec![0.5f32, 0.6, 0.7], SimTime::from_millis(1)),
            InferSubmit::Shed
        );
        let refused = telemetry.registry().get("scserve_width_refused_total");
        assert_eq!(refused.unwrap().as_counter().unwrap().get(), 1);
        assert_eq!(alone.infer(row, SimTime::ZERO), pending);
        assert_eq!(
            mixed.drain(SimTime::from_millis(2)),
            alone.drain(SimTime::from_millis(2)),
            "the pending row completes as it would alone"
        );
    }

    #[test]
    fn swapping_the_model_clears_the_inference_cache() {
        let model = |seed| Sequential::new().with(Dense::new(4, 2, seed));
        let mut s = Server::new(ServeConfig::default()).with_model(model(5));
        let row = vec![0.1f32, 0.2, 0.3, 0.4];
        assert!(matches!(
            s.infer(row.clone(), SimTime::ZERO),
            InferSubmit::Pending(_)
        ));
        s.drain(SimTime::from_millis(1));
        assert!(matches!(
            s.infer(row.clone(), SimTime::from_millis(2)),
            InferSubmit::Cached { .. }
        ));
        let mut s = s.with_model(model(6));
        assert!(
            matches!(
                s.infer(row, SimTime::from_millis(3)),
                InferSubmit::Pending(_)
            ),
            "the old model's output must not answer for the new one"
        );
    }

    #[test]
    fn request_paths_record_complete_span_trees() {
        use sctelemetry::{Telemetry, TraceRecord};

        let telemetry = Telemetry::shared();
        let model = Sequential::new()
            .with(Dense::new(4, 8, 5))
            .with(Relu::new())
            .with(Dense::new(8, 2, 6));
        let mut s = Server::new(ServeConfig::default())
            .with_model(model)
            .with_telemetry(telemetry.handle())
            .with_trace_seed(42);
        s.put("k-1", doc("even", 1), SimTime::ZERO).unwrap();
        s.get("k-1", SimTime::from_millis(1)).unwrap(); // fresh
        s.get("k-1", SimTime::from_millis(2)).unwrap(); // cached
        let sub = s.infer(vec![0.1, 0.2, 0.3, 0.4], SimTime::from_millis(3));
        assert!(matches!(sub, InferSubmit::Pending(_)));
        s.drain(SimTime::from_millis(4));

        let records = telemetry.trace();
        let spans: Vec<_> = records
            .iter()
            .filter_map(|r| match r {
                TraceRecord::Span(sp) => Some(sp),
                _ => None,
            })
            .collect();
        assert!(
            spans.iter().all(|sp| sp.ctx.is_some()),
            "no context-less spans"
        );
        let roots: Vec<_> = spans
            .iter()
            .filter(|sp| sp.ctx.unwrap().parent.is_none())
            .collect();
        assert_eq!(roots.len(), 4, "put + 2 gets + infer, got {roots:#?}");
        // Distinct, deterministic trace ids.
        let ids: std::collections::BTreeSet<u64> =
            roots.iter().map(|sp| sp.ctx.unwrap().trace.0).collect();
        assert_eq!(ids.len(), 4);
        assert!(ids.contains(&TraceId::derive(42, STREAM_SERVE, 0).0));
        // The infer root carries per-layer forward grandchildren.
        let layer_spans = spans
            .iter()
            .filter(|sp| sp.name.starts_with("layer/"))
            .count();
        assert_eq!(layer_spans, 3, "Dense, Relu, Dense");
        // Fresh-get children partition the recorded latency exactly.
        let fresh_root = roots
            .iter()
            .find(|sp| sp.name == "request/get" && sp.start == SimTime::from_millis(1))
            .unwrap();
        let child_total: u64 = spans
            .iter()
            .filter(|sp| sp.ctx.unwrap().parent == Some(fresh_root.ctx.unwrap().span))
            .map(|sp| sp.end.saturating_since(sp.start).as_micros())
            .sum();
        assert_eq!(
            child_total,
            fresh_root
                .end
                .saturating_since(fresh_root.start)
                .as_micros()
        );
    }

    #[test]
    fn rate_limit_shed_marks_trace() {
        use sctelemetry::{Telemetry, TraceRecord};

        let telemetry = Telemetry::shared();
        let cfg = ServeConfig {
            rate_per_s: 10.0,
            burst: 1.0,
            ..ServeConfig::default()
        };
        let mut s = Server::new(cfg)
            .with_telemetry(telemetry.handle())
            .with_trace_seed(7);
        s.put("k", doc("even", 0), SimTime::ZERO).unwrap();
        for _ in 0..5 {
            s.get("k", SimTime::from_millis(1)).unwrap();
        }
        let records = telemetry.trace();
        let shed_events = records
            .iter()
            .filter(|r| matches!(r, TraceRecord::Event(e) if e.name == "request/shed"))
            .count();
        assert!(shed_events >= 3, "tight bucket must shed most requests");
        // Every shed event's detail names a recorded zero-length root.
        for r in &records {
            let TraceRecord::Event(e) = r else { continue };
            assert!(e.detail.starts_with("trace="), "detail: {}", e.detail);
        }
    }

    const ODD_ROW: [f32; 4] = [0.1, 0.2, 0.3, 0.4];

    fn odd() -> Filter {
        Filter::Eq("kind".into(), Doc::Str("odd".into()))
    }

    /// A server on which the next `get("k-003")`, `query(odd())` or
    /// `infer(ODD_ROW)` at `at` meets `refusal`, with an outdated answer of
    /// each in the cache iff `stale`.
    fn server_refusing_at(refusal: &str, stale: bool, at: SimTime) -> Server {
        let mut cfg = ServeConfig {
            replicas: 1,
            ..ServeConfig::default()
        };
        cfg.infer_cache.ttl = SimDuration::from_secs(1);
        match refusal {
            "queue full" => cfg.queue_capacity = 1,
            "breaker open" => cfg.breaker_failures = 1,
            _ => {}
        }
        let mut s = seeded_server(cfg).with_model(Sequential::new().with(Dense::new(4, 2, 5)));
        if stale {
            // Outdated by a write (get, query) or by its TTL (infer).
            let t = SimTime::from_millis;
            s.get("k-003", t(1)).unwrap();
            s.query(&odd(), t(2)).unwrap();
            s.infer(ODD_ROW.to_vec(), t(3));
            s.drain(t(4));
            s.put("k-999", doc("odd", 999), t(5)).unwrap();
        }
        if matches!(refusal, "breaker open" | "every replica down") {
            let mut plan = FaultPlan::empty();
            for node in 0..4 {
                plan = plan.with_event(SimTime::from_secs(5), FaultKind::NodeCrash { node });
            }
            s = s.with_fault_plan(&plan);
        }
        match refusal {
            "rate gate" => {
                s.set_rate_limit(1e-9, 1.0, at);
                s.get("filler", at).unwrap(); // takes the one token
            }
            "queue full" => {
                s.get("filler", at).unwrap(); // takes the one slot
            }
            "breaker open" => {
                let tripped = s.get("k-001", at).unwrap(); // one failure opens it
                assert!(matches!(tripped.outcome, Outcome::Degraded(None)));
            }
            "every replica down" => {}
            other => panic!("unknown refusal point {other}"),
        }
        s
    }

    /// What one request did, in one line: `Variant latency | ServeStats
    /// delta | spans and events, each as name[start..end] in µs since the
    /// request`. The counters a fresh registry saw must tell the same story
    /// as the stats.
    fn rung(kind: &str, refusal: &str, stale: bool) -> String {
        use sctelemetry::{Telemetry, TraceRecord};

        let at = SimTime::from_secs(10);
        let mut s = server_refusing_at(refusal, stale, at);
        let telemetry = Telemetry::shared();
        s = s.with_telemetry(telemetry.handle());
        let before = s.stats();
        let (variant, latency) = match kind {
            "get" => {
                let served = s.get("k-003", at).unwrap();
                (format!("{:?}", served.outcome), served.latency)
            }
            "query" => {
                let served = s.query(&odd(), at).unwrap();
                (format!("{:?}", served.outcome), served.latency)
            }
            "infer" => match s.infer(ODD_ROW.to_vec(), at) {
                InferSubmit::Cached { latency, .. } => ("Cached".into(), latency),
                InferSubmit::Stale { latency, .. } => ("Stale".into(), latency),
                InferSubmit::Pending(_) => ("Pending".into(), SimDuration::ZERO),
                InferSubmit::Shed => ("Shed".into(), SimDuration::ZERO),
            },
            other => panic!("unknown request kind {other}"),
        };
        let variant = variant.split('(').next().unwrap().to_string();
        let after = s.stats();

        let fields = [
            ("requests", after.requests - before.requests),
            ("cache_hit", after.cache_hits - before.cache_hits),
            ("cache_miss", after.cache_misses - before.cache_misses),
            ("shed", after.shed - before.shed),
            ("reroute", after.reroutes - before.reroutes),
            ("stale_served", after.stale_served - before.stale_served),
            ("degraded", after.degraded - before.degraded),
            ("writes", after.writes - before.writes),
        ];
        let registry = telemetry.registry();
        let mut delta = Vec::new();
        for (field, moved) in fields {
            let counter = registry
                .get(&format!("scserve_{field}_total"))
                .map_or(0, |m| m.as_counter().unwrap().get());
            assert_eq!(counter, moved, "{kind}/{refusal}/{stale}: {field}");
            if moved > 0 {
                delta.push(format!("{field}+{moved}"));
            }
        }
        let since = |t: SimTime| t.saturating_since(at).as_micros();
        let trace: Vec<String> = telemetry
            .trace()
            .iter()
            .map(|r| match r {
                TraceRecord::Span(sp) => {
                    format!("{}[{}..{}]", sp.name, since(sp.start), since(sp.end))
                }
                TraceRecord::Event(e) => format!("!{}", e.name),
            })
            .collect();
        format!(
            "{variant} {}us | {} | {}",
            latency.as_micros(),
            delta.join(" "),
            trace.join(" ")
        )
    }

    #[test]
    fn degradation_ladder_is_pinned() {
        // Captured from the three hand-written ladders this table replaced;
        // only the breaker-open rows of get and query have moved since
        // (their `shed+1` was missing).
        const LADDER: [(&str, &str, bool, &str); 24] = [
            ("get", "rate gate", true, "Shed 0us | requests+1 shed+1 | request/shed[0..0] !request/shed"),
            ("get", "rate gate", false, "Shed 0us | requests+1 shed+1 | request/shed[0..0] !request/shed"),
            ("get", "queue full", true, "Stale 50us | requests+1 cache_miss+1 shed+1 stale_served+1 | cache/stale[0..50] request/get[0..50]"),
            ("get", "queue full", false, "Degraded 50us | requests+1 cache_miss+1 shed+1 degraded+1 | degraded[0..50] request/get[0..50]"),
            ("get", "breaker open", true, "Stale 50us | requests+1 cache_miss+1 shed+1 stale_served+1 | cache/stale[0..50] request/get[0..50]"),
            ("get", "breaker open", false, "Degraded 50us | requests+1 cache_miss+1 shed+1 degraded+1 | degraded[0..50] request/get[0..50]"),
            ("get", "every replica down", true, "Stale 50us | requests+1 cache_miss+1 stale_served+1 | cache/stale[0..50] request/get[0..50]"),
            ("get", "every replica down", false, "Degraded 50us | requests+1 cache_miss+1 degraded+1 | degraded[0..50] request/get[0..50]"),
            ("query", "rate gate", true, "Shed 0us | requests+1 shed+1 | request/shed[0..0] !request/shed"),
            ("query", "rate gate", false, "Shed 0us | requests+1 shed+1 | request/shed[0..0] !request/shed"),
            ("query", "queue full", true, "Stale 50us | requests+1 cache_miss+1 shed+1 stale_served+1 | cache/stale[0..50] request/query[0..50]"),
            ("query", "queue full", false, "Shed 0us | requests+1 cache_miss+1 shed+1 | request/shed[0..0] !request/shed"),
            ("query", "breaker open", true, "Stale 50us | requests+1 cache_miss+1 shed+1 stale_served+1 | cache/stale[0..50] request/query[0..50]"),
            ("query", "breaker open", false, "Shed 0us | requests+1 cache_miss+1 shed+1 | request/shed[0..0] !request/shed"),
            ("query", "every replica down", true, "Stale 50us | requests+1 cache_miss+1 stale_served+1 degraded+1 | cache/stale[0..50] request/query[0..50]"),
            ("query", "every replica down", false, "Degraded 100us | requests+1 cache_miss+1 degraded+1 | admission/queue[0..0] backend/query[0..100] request/query[0..100]"),
            ("infer", "rate gate", true, "Stale 50us | requests+1 shed+1 stale_served+1 | cache/stale[0..50] request/infer[0..50]"),
            ("infer", "rate gate", false, "Shed 0us | requests+1 shed+1 | request/shed[0..0] !request/shed"),
            ("infer", "queue full", true, "Shed 0us | requests+1 cache_miss+1 shed+1 | request/shed[0..0] !request/shed"),
            ("infer", "queue full", false, "Shed 0us | requests+1 cache_miss+1 shed+1 | request/shed[0..0] !request/shed"),
            ("infer", "breaker open", true, "Pending 0us | requests+1 cache_miss+1 | "),
            ("infer", "breaker open", false, "Pending 0us | requests+1 cache_miss+1 | "),
            ("infer", "every replica down", true, "Pending 0us | requests+1 cache_miss+1 | "),
            ("infer", "every replica down", false, "Pending 0us | requests+1 cache_miss+1 | "),
        ];
        let mut wrong = Vec::new();
        for (kind, refusal, stale, expected) in LADDER {
            let got = rung(kind, refusal, stale);
            if got != expected {
                wrong.push(format!("(\"{kind}\", \"{refusal}\", {stale}, \"{got}\"),"));
            }
        }
        assert!(wrong.is_empty(), "rungs that moved:\n{}", wrong.join("\n"));
    }

    #[test]
    fn breaker_open_refusals_are_counted() {
        use sctelemetry::Telemetry;

        let telemetry = Telemetry::shared();
        let mut s = seeded_server(ServeConfig {
            replicas: 1,
            breaker_failures: 1,
            ..ServeConfig::default()
        })
        .with_telemetry(telemetry.handle());
        let plan =
            FaultPlan::empty().with_event(SimTime::from_secs(1), FaultKind::NodeCrash { node: 0 });
        s = s.with_fault_plan(&plan);
        let kind = |k: &str| Filter::Eq("kind".into(), Doc::Str(k.into()));
        let at = SimTime::from_secs(2);

        // Shard 0's keys are unreachable: a partial answer, and the one
        // failure that opens the breaker.
        let partial = s.query(&kind("odd"), at).unwrap();
        assert!(matches!(partial.outcome, Outcome::Degraded(_)));
        assert_eq!(s.stats().shed, 0);

        // Refused by the open breaker with nothing cached: no answer, and
        // counted like any other refusal.
        let refused = s.query(&kind("even"), at).unwrap();
        assert!(refused.outcome.is_shed());
        assert_eq!(s.stats().shed, 1, "a breaker-open query is a shed");

        // `get` floors at an empty degraded answer; the refusal still counts.
        let floored = s.get("k-003", at).unwrap();
        assert!(matches!(floored.outcome, Outcome::Degraded(None)));
        assert_eq!(s.stats().shed, 2, "a breaker-open get is a shed");
        let counter = telemetry.registry().get("scserve_shed_total").unwrap();
        assert_eq!(counter.as_counter().unwrap().get(), 2);
    }

    #[test]
    fn add_remove_shard_preserves_data_and_moves_little() {
        let mut s = seeded_server(ServeConfig::default());
        let f = Filter::Exists("kind".into());
        let before = s.query(&f, SimTime::from_millis(1)).unwrap();
        let before_rows = before.outcome.value().unwrap().clone();
        assert_eq!(before_rows.len(), 20);

        let moved_in = s.add_shard(10);
        // 20 keys × 2 replicas = 40 copies; a 1-of-5 node picks up ~1/5.
        assert!(
            moved_in < 40,
            "adding one node must not reshuffle everything"
        );
        let after_add = s.query(&f, SimTime::from_millis(2)).unwrap();
        assert_eq!(after_add.outcome.value().unwrap(), &before_rows);

        let moved_out = s.remove_shard(10);
        assert_eq!(moved_in, moved_out, "the node drains exactly what it took");
        let after_remove = s.query(&f, SimTime::from_millis(3)).unwrap();
        assert_eq!(after_remove.outcome.value().unwrap(), &before_rows);
        assert!(!s.shards.contains_key(&10));
    }

    /// Asserts that the directory, the shards' key maps and their
    /// collections describe the same copies: every key sits on the nodes
    /// the ring routes it to, in rank order, each copy knows its key and
    /// rank, holds the key's one document, and no shard holds anything
    /// else.
    fn assert_directory_consistent(s: &Server) {
        let mut route = Vec::new();
        let mut placed: BTreeMap<u32, usize> = BTreeMap::new();
        for (key, placements) in &s.directory {
            s.map
                .route_replicas(key.as_bytes(), s.effective_replicas(), &mut route);
            let nodes: Vec<u32> = placements.iter().map(|&(node, _)| node).collect();
            assert_eq!(nodes, route, "{key}: placements follow the ring");
            let doc = s.shards[&nodes[0]].collection.get(placements[0].1);
            let doc = doc.expect("the primary holds its copy");
            for (rank, (node, id)) in placements.iter().enumerate() {
                let shard = &s.shards[node];
                let (held, held_rank) = &shard.keys[id];
                assert_eq!((&**held, *held_rank), (&**key, rank), "{key} on {node}");
                let copy = shard.collection.get(*id).expect("a placed copy is stored");
                assert!(
                    Arc::ptr_eq(copy, doc),
                    "{key}: one document on every replica"
                );
                *placed.entry(*node).or_default() += 1;
            }
        }
        for (node, shard) in &s.shards {
            let copies = placed.get(node).copied().unwrap_or(0);
            assert_eq!(
                shard.collection.len(),
                copies,
                "shard {node} holds its copies"
            );
            assert_eq!(shard.keys.len(), copies, "shard {node} keys its copies");
            assert!(shard
                .collection
                .iter()
                .all(|(id, _)| shard.keys.contains_key(&id)));
        }
    }

    #[test]
    fn placements_stay_consistent_through_writes_and_reshards() {
        // Three replicas, and four: as many as a key's placements hold.
        for replicas in [3, MAX_REPLICAS] {
            writes_and_reshards_keep_placements_consistent(replicas);
        }
    }

    fn writes_and_reshards_keep_placements_consistent(replicas: usize) {
        let mut rng = simclock::SeededRng::new(37);
        let mut s = Server::new(ServeConfig {
            shards: 3,
            replicas,
            ..ServeConfig::default()
        });
        let (mut t, mut written) = (0, std::collections::BTreeSet::new());
        let mut widest = 0;
        for step in 0..600 {
            t += 1;
            let at = SimTime::from_millis(t);
            match rng.next_bounded(20) {
                0 => {
                    s.add_shard(rng.next_bounded(8) as u32);
                }
                1 => {
                    s.remove_shard(rng.next_bounded(8) as u32);
                }
                _ => {
                    let key = format!("k-{:03}", rng.next_bounded(120));
                    s.put(&key, doc("even", step), at).unwrap();
                    written.insert(key);
                }
            }
            assert_directory_consistent(&s);
            let held = s.directory.values().map(|p| p.len()).max();
            widest = widest.max(held.unwrap_or(0));
        }
        assert!(s.stats().rebalance_moves > 0, "the sequence resharded");
        assert_eq!(s.len(), written.len(), "every key written survives");
        assert_eq!(widest, replicas, "some key held every replica");
    }

    #[test]
    #[should_panic(expected = "5 replicas per key; a server keeps at most 4")]
    fn more_replicas_than_a_key_holds_is_refused() {
        Server::new(ServeConfig {
            replicas: MAX_REPLICAS + 1,
            ..ServeConfig::default()
        });
    }

    #[test]
    fn the_tier_indexes_the_paths_it_is_asked_by() {
        let mut s = seeded_server(ServeConfig::default());
        let t = SimTime::from_millis;
        let nodes: Vec<u32> = s.map.nodes().collect();
        let stats = |s: &Server| -> Vec<(u64, u64)> {
            nodes.iter().map(|&n| s.shard_query_stats(n)).collect()
        };

        // A filter no index could serve is scanned, and indexes nothing.
        s.query(&Filter::Exists("kind".into()), t(1)).unwrap();
        assert_eq!(stats(&s), [(1, 0); 4]);
        assert!(s.indexed.is_empty());

        // The first miss by `kind` is already answered from its index.
        let first = s.query(&odd(), t(2)).unwrap();
        assert_eq!(first.outcome.value().unwrap().len(), 10);
        assert_eq!(stats(&s), [(1, 1); 4]);
        assert_eq!(s.indexed, ["kind"]);

        // A hit never reaches the shards; another value of the same path
        // finds the index there; an `And` is indexed by its first arm.
        s.query(&odd(), t(3)).unwrap();
        let even = Filter::Eq("kind".into(), Doc::Str("even".into()));
        s.query(&even, t(4)).unwrap();
        assert_eq!(stats(&s), [(1, 2); 4]);
        let both = Filter::And(vec![Filter::Range("v".into(), 0.0, 9.0), odd()]);
        let served = s.query(&both, t(5)).unwrap();
        assert_eq!(served.outcome.value().unwrap().len(), 5);
        assert_eq!(stats(&s), [(1, 3); 4]);
        assert_eq!(s.indexed, ["kind", "v"]);
    }

    #[test]
    fn a_new_shard_carries_the_indexes() {
        let mut s = seeded_server(ServeConfig::default());
        let before = s.query(&odd(), SimTime::from_millis(1)).unwrap();
        assert!(s.add_shard(10) > 0, "the new shard takes copies");
        assert_eq!(s.shard_query_stats(10), (0, 0));

        // A write outdates the cached answer; the miss that follows is
        // index-assisted on the new shard like on the old ones.
        s.put("k-100", doc("odd", 101), SimTime::from_millis(2))
            .unwrap();
        let after = s.query(&odd(), SimTime::from_millis(3)).unwrap();
        assert_eq!(s.shard_query_stats(10), (0, 1), "no scan on the new shard");
        let rows = after.outcome.value().unwrap();
        assert_eq!(rows[..10], before.outcome.value().unwrap()[..]);
        assert_eq!(&*rows[10].0, "k-100");
    }

    #[test]
    fn last_shard_is_never_removed() {
        let mut s = seeded_server(ServeConfig {
            shards: 2,
            ..ServeConfig::default()
        });
        assert!(s.remove_shard(1) > 0, "node 1 drains onto node 0");
        assert_eq!(s.remove_shard(0), 0, "the last node stays");
        assert!(s.shards.contains_key(&0));
        let t = SimTime::from_millis(1);
        let kept = s.get("k-003", t).unwrap();
        assert!(kept.outcome.value().unwrap().is_some(), "data intact");
        s.put("k-new", doc("even", 99), t).unwrap();
        let got = s.get("k-new", t).unwrap();
        assert_eq!(
            got.outcome.value().unwrap().as_deref(),
            Some(&doc("even", 99))
        );
    }

    #[test]
    fn zero_shards_is_clamped_to_one() {
        let mut s = Server::new(ServeConfig {
            shards: 0,
            ..ServeConfig::default()
        });
        s.put("k", doc("even", 1), SimTime::ZERO).unwrap();
        let got = s.get("k", SimTime::from_millis(1)).unwrap();
        assert_eq!(
            got.outcome.value().unwrap().as_deref(),
            Some(&doc("even", 1))
        );
    }
}
