//! Property tests for the serving-layer invariants.
//!
//! Seven families, matching the scserve design claims:
//!
//! - **Routing** — every key routes to exactly one live shard, replicas
//!   are distinct, and routing is a pure function of the node set.
//! - **Minimal movement** — removing one of `N` nodes remaps about
//!   `keys / N` keys; survivors' keys never move.
//! - **Cache freshness** — under arbitrary insert / read / invalidate /
//!   advance interleavings, a cache read never returns a value that is
//!   wrong for its key or older than the TTL.
//! - **Exact LRU** — after every insert, read or clock advance, the cache
//!   holds exactly the keys a recency-ordered reference model holds.
//! - **Scale-event coherence** — cache generation stamps survive shard
//!   add/remove cycles: across arbitrary autoscale interleavings a
//!   served answer never reflects a state older than the latest
//!   acknowledged write and is never served beyond its TTL.
//! - **Ownership** — across fleet sizes, replica counts, outage masks and
//!   add/remove-shard and put sequences, each key is answered
//!   once, by its first live replica, and the reroute / degraded / stale
//!   counters move as a walk over every key's replica list says.
//! - **Hostile input** — keys from arbitrary bytes (empty, up to 64 KiB,
//!   non-ASCII), documents holding NaN or ±inf and nested up to 128
//!   levels, filters on missing or mistyped paths, inference rows holding
//!   NaN or ±inf or of the wrong width, and timestamps in any order get a
//!   typed answer, never a panic; each read is counted once, and the rate
//!   gate admits no more than the time seen refills.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use proptest::prelude::*;
use scfault::{FaultKind, FaultPlan};
use scneural::layers::{Dense, Relu};
use scneural::net::Sequential;
use scnosql::document::{Doc, Filter};
use scserve::{
    CacheConfig, InferSubmit, LruTtlCache, Outcome, Rows, ServeConfig, Server, ShardMap,
};
use simclock::{SimDuration, SimTime};

/// The key's home node: its first replica.
fn home(map: &ShardMap, key: &[u8]) -> Option<u32> {
    let mut out = Vec::new();
    map.route_replicas(key, 1, &mut out);
    out.first().copied()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every key routes to exactly one node, and that node is a live ring
    /// member. Replica lists lead with the home node and never repeat.
    #[test]
    fn every_key_routes_to_exactly_one_live_shard(
        nodes in 1u32..12,
        vnodes in 1u32..96,
        replicas in 1usize..5,
        keys in proptest::collection::vec(any::<u64>(), 1..200),
    ) {
        let map = ShardMap::with_nodes(nodes, vnodes);
        let mut reps = Vec::new();
        for key in &keys {
            let bytes = key.to_le_bytes();
            let first = home(&map, &bytes).expect("non-empty ring always routes");
            prop_assert!(map.contains(first), "routed to a dead node");
            // Routing is a function: ask twice, same answer.
            prop_assert_eq!(home(&map, &bytes), Some(first));
            map.route_replicas(&bytes, replicas, &mut reps);
            prop_assert_eq!(reps.len(), replicas.min(nodes as usize));
            prop_assert_eq!(reps[0], first, "replica list must lead with home");
            let mut uniq = reps.clone();
            uniq.sort_unstable();
            uniq.dedup();
            prop_assert_eq!(uniq.len(), reps.len(), "replicas must be distinct");
        }
    }

    /// Removing one of `N` nodes only moves the keys the node owned —
    /// about `keys / N` — and never touches a survivor's keys. The bound
    /// allows consistent hashing's placement variance on top of ⌈keys/N⌉.
    #[test]
    fn removal_remaps_at_most_its_share_plus_slack(
        nodes in 2u32..10,
        victim_ix in 0u32..10,
        nkeys in 100usize..600,
    ) {
        let mut map = ShardMap::with_nodes(nodes, 128);
        let victim = victim_ix % nodes;
        let keys: Vec<Vec<u8>> = (0..nkeys)
            .map(|i| format!("key-{i}").into_bytes())
            .collect();
        let before: Vec<u32> = keys.iter().map(|k| home(&map, k).unwrap()).collect();
        map.remove_node(victim);
        let mut moved = 0usize;
        for (key, &was) in keys.iter().zip(&before) {
            let now = home(&map, key).unwrap();
            if was == victim {
                prop_assert_ne!(now, victim, "keys must leave the removed node");
                moved += 1;
            } else {
                prop_assert_eq!(now, was, "a survivor's key moved");
            }
        }
        let fair_share = nkeys.div_ceil(nodes as usize);
        let slack = fair_share + 16; // ring-variance allowance (128 vnodes)
        prop_assert!(
            moved <= fair_share + slack,
            "removing 1 of {} nodes moved {} of {} keys (fair share {})",
            nodes, moved, nkeys, fair_share
        );
    }

    /// Adding a node then removing it restores the exact prior routing.
    #[test]
    fn add_remove_is_a_routing_no_op(
        nodes in 1u32..8,
        newcomer in 100u32..200,
        keys in proptest::collection::vec(any::<u64>(), 1..150),
    ) {
        let mut map = ShardMap::with_nodes(nodes, 64);
        let before: Vec<_> = keys.iter().map(|k| home(&map, &k.to_le_bytes())).collect();
        map.add_node(newcomer);
        map.remove_node(newcomer);
        let after: Vec<_> = keys.iter().map(|k| home(&map, &k.to_le_bytes())).collect();
        prop_assert_eq!(before, after);
    }
}

/// One step of the cache interleaving driver.
#[derive(Debug, Clone)]
enum CacheOp {
    /// Insert key → versioned value.
    Insert(u8),
    /// Read a key and check freshness.
    Read(u8),
    /// Advance sim-time by this many milliseconds.
    Advance(u16),
}

/// Cache ops over the keys `0..keys`.
fn cache_op(keys: u8) -> impl Strategy<Value = CacheOp> {
    prop_oneof![
        (0..keys).prop_map(CacheOp::Insert),
        (0..keys).prop_map(CacheOp::Read),
        (0u16..500).prop_map(CacheOp::Advance),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Under arbitrary insert/read/invalidate/advance interleavings a
    /// read never observes (a) a value other than the key's latest
    /// insert, (b) a value older than the TTL, or (c) an invalidated
    /// value. Eviction may cause misses, never wrong hits.
    #[test]
    fn no_stale_read_under_arbitrary_interleavings(
        capacity in 1usize..64,
        ttl_ms in 1u64..2_000,
        ops in proptest::collection::vec(cache_op(u8::MAX), 1..200),
    ) {
        let ttl = SimDuration::from_millis(ttl_ms);
        let mut cache: LruTtlCache<u8, u64> = LruTtlCache::new(CacheConfig {
            capacity,
            ttl,
        });
        // Ground truth: key → (latest version, insert time).
        let mut model: std::collections::BTreeMap<u8, (u64, SimTime)> = Default::default();
        let mut now = SimTime::ZERO;
        let mut version = 0u64;

        for op in ops {
            match op {
                CacheOp::Insert(k) => {
                    version += 1;
                    cache.insert(k, version, now);
                    model.insert(k, (version, now));
                }
                CacheOp::Read(k) => {
                    if let Some(v) = cache.get(&k, now) {
                        let (want, at) = model
                            .get(&k)
                            .copied()
                            .expect("hit for a never-inserted key");
                        prop_assert_eq!(v, want, "hit returned a superseded value");
                        prop_assert!(
                            now.saturating_since(at) < ttl,
                            "hit at {:?} for a value inserted at {:?} breaches ttl {:?}",
                            now, at, ttl
                        );
                    }
                }
                CacheOp::Advance(ms) => {
                    now += SimDuration::from_millis(ms as u64);
                }
            }
        }
    }

    /// The cache is an exact LRU: after every op it holds the keys of a
    /// reference model that keeps keys in recency order, drops the least
    /// recently used one when a new key arrives at capacity, and drops an
    /// expired key on the read that finds it.
    #[test]
    fn cache_holds_exactly_the_lru_model_keys(
        capacity in 1usize..64,
        ttl_ms in 1u64..2_000,
        ops in proptest::collection::vec(cache_op(96), 1..300),
    ) {
        let ttl = SimDuration::from_millis(ttl_ms);
        let mut cache: LruTtlCache<u8, ()> = LruTtlCache::new(CacheConfig { capacity, ttl });
        // Keys from least to most recently used, and each key's insert time.
        let mut order: VecDeque<u8> = VecDeque::new();
        let mut inserted: BTreeMap<u8, SimTime> = BTreeMap::new();
        let mut now = SimTime::ZERO;
        for op in ops {
            match op {
                CacheOp::Insert(k) => {
                    cache.insert(k, (), now);
                    if let Some(at) = order.iter().position(|&o| o == k) {
                        order.remove(at);
                    } else if order.len() == capacity {
                        let lru = order.pop_front().expect("capacity is at least 1");
                        inserted.remove(&lru);
                    }
                    order.push_back(k);
                    inserted.insert(k, now);
                }
                CacheOp::Read(k) => {
                    let hit = cache.get(&k, now).is_some();
                    if let Some(at) = order.iter().position(|&o| o == k) {
                        order.remove(at);
                        if now.saturating_since(inserted[&k]) < ttl {
                            order.push_back(k);
                        } else {
                            inserted.remove(&k);
                        }
                    }
                    prop_assert_eq!(hit, inserted.contains_key(&k));
                }
                CacheOp::Advance(ms) => now += SimDuration::from_millis(ms as u64),
            }
            let held: Vec<u8> = (0..96).filter(|k| cache.peek_ignore_ttl(k).is_some()).collect();
            let mut want: Vec<u8> = order.iter().copied().collect();
            want.sort_unstable();
            prop_assert_eq!(held, want);
        }
    }

    /// With capacity for every key, a read immediately after an insert
    /// always hits (eviction can only be the reason for a miss).
    #[test]
    fn uncontended_cache_never_misses(
        keys in proptest::collection::vec(any::<u8>(), 1..100),
    ) {
        let mut cache: LruTtlCache<u8, u64> = LruTtlCache::new(CacheConfig {
            capacity: 256,
            ttl: SimDuration::from_secs(60),
        });
        let now = SimTime::ZERO;
        for (i, k) in keys.into_iter().enumerate() {
            cache.insert(k, i as u64, now);
            prop_assert_eq!(cache.get(&k, now), Some(i as u64));
        }
    }
}

/// One step of the autoscale-cycle coherence driver.
#[derive(Debug, Clone)]
enum FleetOp {
    /// Write a new version under this key (bumps the generation).
    Put(u8),
    /// Read a key and check the answer against the ground truth.
    Get(u8),
    /// Autoscale up: add the next shard node and rebalance.
    AddShard,
    /// Autoscale down: remove the most recently added node (never a
    /// seed node, so the fleet never shrinks below its base size).
    RemoveShard,
    /// Turn the runtime knobs mid-run (service rate / rate limit), as
    /// the scmetro autoscaler does, with values that keep admission
    /// open so every answer stays checkable.
    Retune(bool),
    /// Advance sim-time by this many milliseconds (can cross the TTL).
    Advance(u16),
}

fn fleet_op() -> impl Strategy<Value = FleetOp> {
    prop_oneof![
        (0u8..24).prop_map(FleetOp::Put),
        (0u8..24).prop_map(FleetOp::Get),
        (0u8..24).prop_map(FleetOp::Get),
        Just(FleetOp::AddShard),
        Just(FleetOp::RemoveShard),
        any::<bool>().prop_map(FleetOp::Retune),
        (1u16..5_000).prop_map(FleetOp::Advance),
    ]
}

fn versioned(v: i64) -> Doc {
    Doc::object([("v", Doc::I64(v))])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cache generation stamps survive autoscale add/remove cycles:
    /// under arbitrary put/get/add-shard/remove-shard/retune/advance
    /// interleavings of a healthy fleet, every served answer
    ///
    /// 1. equals the latest acknowledged write for its key (a cached
    ///    entry whose generation a rebalance failed to invalidate or a
    ///    write failed to supersede would violate this),
    /// 2. is never served from the cache beyond its TTL (a `Cached`
    ///    outcome at `now` implies a fill within `ttl`), and
    /// 3. is never `Stale` or `Degraded` — with every shard live those
    ///    ladder rungs are unreachable, scale events included.
    #[test]
    fn cache_generations_survive_autoscale_cycles(
        ttl_ms in 50u64..10_000,
        ops in proptest::collection::vec(fleet_op(), 1..120),
    ) {
        let ttl = SimDuration::from_millis(ttl_ms);
        let base = ServeConfig::default();
        let mut server = Server::new(ServeConfig {
            query_cache: CacheConfig { ttl, ..CacheConfig::default() },
            ..base.clone()
        });
        // Ground truth: key → latest acknowledged version, plus the
        // fill time of the freshest backend answer per key (a `Cached`
        // outcome must trace back to a fill within TTL).
        let mut model: std::collections::BTreeMap<u8, i64> = Default::default();
        let mut filled: std::collections::BTreeMap<u8, SimTime> = Default::default();
        let mut now = SimTime::ZERO;
        let mut version = 0i64;
        let mut next_node = base.shards;
        let mut added: Vec<u32> = Vec::new();

        for op in ops {
            match op {
                FleetOp::Put(k) => {
                    version += 1;
                    server
                        .put(&format!("key-{k:02}"), versioned(version), now)
                        .unwrap();
                    model.insert(k, version);
                }
                FleetOp::Get(k) => {
                    let served = server.get(&format!("key-{k:02}"), now).unwrap();
                    let want = model.get(&k).map(|v| versioned(*v));
                    match served.outcome {
                        Outcome::Fresh(doc) => {
                            prop_assert_eq!(doc.as_deref(), want.as_ref(), "fresh answer lost a write");
                            filled.insert(k, now);
                        }
                        Outcome::Cached(doc) => {
                            prop_assert_eq!(doc.as_deref(), want.as_ref(), "cached answer is stale");
                            let at = filled.get(&k).copied()
                                .expect("a cached answer implies a prior fill");
                            prop_assert!(
                                now.saturating_since(at) < ttl,
                                "cache hit at {:?} for an entry filled at {:?} breaches ttl {:?}",
                                now, at, ttl
                            );
                        }
                        other => prop_assert!(
                            false,
                            "healthy fleet must answer fresh or cached, got {:?}",
                            other
                        ),
                    }
                }
                FleetOp::AddShard => {
                    server.add_shard(next_node);
                    added.push(next_node);
                    next_node += 1;
                }
                FleetOp::RemoveShard => {
                    if let Some(node) = added.pop() {
                        server.remove_shard(node);
                    }
                }
                FleetOp::Retune(up) => {
                    let rate = if up { 2.0 * base.service_rate } else { base.service_rate };
                    server.set_service_rate(rate, now);
                    server.set_rate_limit(base.rate_per_s, base.burst, now);
                }
                FleetOp::Advance(ms) => {
                    now += SimDuration::from_millis(ms as u64);
                }
            }
        }
    }
}

/// One step of the replica-ownership driver.
#[derive(Debug, Clone)]
enum OwnerOp {
    /// Write a new version under this key.
    Put(u8),
    /// Add the next shard node and rebalance.
    AddShard,
    /// Remove the shard at this position of the live list (any node,
    /// seed nodes included; the server keeps the last one).
    RemoveShard(u8),
    /// Point-read a key while these shard nodes are down.
    Get(u8, Vec<u32>),
    /// Run one of the filters while these shard nodes are down.
    Query(u8, Vec<u32>),
}

/// Node ids an outage mask may name: the seed fleet plus every addable id.
const OWNER_NODES: u32 = 12;

fn outage_mask() -> impl Strategy<Value = Vec<u32>> {
    prop_oneof![
        Just(Vec::new()),
        proptest::collection::vec(0u32..OWNER_NODES, 1..4),
    ]
}

fn owner_op() -> impl Strategy<Value = OwnerOp> {
    prop_oneof![
        (0u8..24).prop_map(OwnerOp::Put),
        (0u8..24).prop_map(OwnerOp::Put),
        Just(OwnerOp::AddShard),
        any::<u8>().prop_map(OwnerOp::RemoveShard),
        ((0u8..24), outage_mask()).prop_map(|(k, m)| OwnerOp::Get(k, m)),
        ((0u8..OWNER_FILTERS), outage_mask()).prop_map(|(f, m)| OwnerOp::Query(f, m)),
        ((0u8..OWNER_FILTERS), outage_mask()).prop_map(|(f, m)| OwnerOp::Query(f, m)),
    ]
}

const OWNER_KINDS: [&str; 3] = ["traffic", "air", "camera"];

fn owner_doc(k: u8, v: i64) -> Doc {
    Doc::object([
        ("kind", Doc::Str(OWNER_KINDS[k as usize % 3].into())),
        ("v", Doc::I64(v)),
    ])
}

const OWNER_FILTERS: u8 = 9;

/// The filters a schedule asks, by how the tier comes to answer them.
/// 0–2 are indexed from their first miss on — wherever in the schedule's
/// puts, shard changes and outages that falls — and 4–6 ask the same
/// three questions in a form that never gets an index (`Or`), so each
/// schedule is answered from buckets and from scans side by side. 3 never
/// gets one either; 7 and 8 bring a second, numeric index whose buckets
/// are born and emptied by every put.
fn owner_filter(f: u8) -> Filter {
    let kind = |k: u8| Filter::Eq("kind".into(), Doc::Str(OWNER_KINDS[k as usize].into()));
    match f {
        0..=2 => kind(f),
        3 => Filter::Exists("v".into()),
        4..=6 => Filter::Or(vec![kind(f - 4)]),
        7 => Filter::Range("v".into(), 5.0, 40.0),
        _ => Filter::And(vec![
            Filter::Exists("kind".into()),
            Filter::Range("v".into(), 0.0, 25.0),
            kind(1),
        ]),
    }
}

/// The answer's rows, by value (read through the shared `Arc`s).
fn rows_by_value(rows: &Rows) -> Vec<(String, Doc)> {
    rows.iter()
        .map(|(k, d)| (k.to_string(), Doc::clone(d)))
        .collect()
}

/// A point answer's document, by value.
fn doc_by_value(doc: &Option<Arc<Doc>>) -> Option<Doc> {
    doc.as_deref().cloned()
}

/// The outcome with its answer mapped through `f` — how a served answer
/// is brought to the model's by-value form, outcome rung and all.
fn outcome_by_value<T, U>(outcome: &Outcome<T>, f: impl Fn(&T) -> U) -> Outcome<U> {
    match outcome {
        Outcome::Fresh(v) => Outcome::Fresh(f(v)),
        Outcome::Cached(v) => Outcome::Cached(f(v)),
        Outcome::Stale(v) => Outcome::Stale(f(v)),
        Outcome::Degraded(v) => Outcome::Degraded(f(v)),
        Outcome::Shed => Outcome::Shed,
    }
}

/// Step `i` happens at `owner_time(i)`; its outage (if any) covers only it.
fn owner_time(step: usize) -> SimTime {
    SimTime::from_millis(10 * (step as u64 + 1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Which copy answers: across fleet sizes, replica counts, outage
    /// masks and add/remove-shard and put sequences, `query`
    /// returns each matching key once, in key order, with the document of
    /// its first live replica — and `reroutes`, `degraded` and
    /// `stale_served` move exactly as a model that walks every key's
    /// replica list says they should. `get` is held to the same model.
    /// The model knows nothing of indexes: a filter answered by a scan, by
    /// an index born mid-schedule and kept up through every later put,
    /// removal and rebalance, or by one a new shard was handed on joining
    /// (see [`owner_filter`]) must all equal the walk.
    #[test]
    fn first_live_replica_answers_and_counters_match_a_directory_walk(
        shards in 1u32..6,
        replicas in 1usize..4,
        ops in proptest::collection::vec(owner_op(), 1..100),
    ) {
        // Each read's outage is a crash/restart pair around its own step.
        let mut plan = FaultPlan::empty();
        for (step, op) in ops.iter().enumerate() {
            if let OwnerOp::Get(_, down) | OwnerOp::Query(_, down) = op {
                let at = owner_time(step);
                for &node in down {
                    plan = plan
                        .with_event(at, FaultKind::NodeCrash { node })
                        .with_event(at + SimDuration::from_millis(5), FaultKind::NodeRestart { node });
                }
            }
        }
        let mut server = Server::new(ServeConfig {
            shards,
            replicas,
            // The breaker would answer for the shards after five partial
            // answers in a row; this test is about the shards.
            breaker_failures: u32::MAX,
            ..ServeConfig::default()
        })
        .with_fault_plan(&plan);

        // Ground truth: the documents, the write generation, and what the
        // cache holds per read (the generation and answer of its last
        // complete fill; nothing expires or is evicted in this test).
        let mut model: BTreeMap<String, Doc> = BTreeMap::new();
        let mut generation = 0u64;
        let mut version = 0i64;
        let mut query_fills: BTreeMap<u8, (u64, Vec<(String, Doc)>)> = BTreeMap::new();
        let mut get_fills: BTreeMap<u8, (u64, Option<Doc>)> = BTreeMap::new();
        let mut next_node = shards;

        for (step, op) in ops.iter().enumerate() {
            let now = owner_time(step);
            let before = server.stats();
            // (reroutes, degraded, stale_served) this step must add.
            let mut want = (0u64, 0u64, 0u64);
            // First live replica of `key` under `down`: its position in
            // the key's replica list, `None` with every replica down.
            let live = server.shard_map().nodes().count();
            let first_live = |server: &Server, key: &str, down: &[u32]| {
                let mut reps = Vec::new();
                server
                    .shard_map()
                    .route_replicas(key.as_bytes(), replicas.clamp(1, live), &mut reps);
                reps.iter().position(|n| !down.contains(n))
            };
            match op {
                OwnerOp::Put(k) => {
                    version += 1;
                    let key = format!("k-{k:02}");
                    server.put(&key, owner_doc(*k, version), now).unwrap();
                    model.insert(key, owner_doc(*k, version));
                    generation += 1;
                }
                OwnerOp::AddShard => {
                    if next_node < OWNER_NODES {
                        server.add_shard(next_node);
                        next_node += 1;
                    }
                }
                OwnerOp::RemoveShard(ix) => {
                    let ids: Vec<u32> = server.shard_map().nodes().collect();
                    server.remove_shard(ids[*ix as usize % ids.len()]);
                }
                OwnerOp::Get(k, down) => {
                    let key = format!("k-{k:02}");
                    let served = server.get(&key, now).unwrap();
                    let got = outcome_by_value(&served.outcome, doc_by_value);
                    let fill = get_fills.get(k).cloned();
                    let expect = match (&fill, model.get(&key)) {
                        (Some((gen, doc)), _) if *gen == generation => Outcome::Cached(doc.clone()),
                        (_, None) => {
                            get_fills.insert(*k, (generation, None));
                            Outcome::Fresh(None)
                        }
                        (_, Some(doc)) => match first_live(&server, &key, down) {
                            Some(i) => {
                                want.0 += u64::from(i > 0);
                                get_fills.insert(*k, (generation, Some(doc.clone())));
                                Outcome::Fresh(Some(doc.clone()))
                            }
                            None => match fill {
                                Some((_, doc)) => {
                                    want.2 += 1;
                                    Outcome::Stale(doc)
                                }
                                None => {
                                    want.1 += 1;
                                    Outcome::Degraded(None)
                                }
                            },
                        },
                    };
                    prop_assert_eq!(got, expect, "get({})", key);
                }
                OwnerOp::Query(f, down) => {
                    let filter = owner_filter(*f);
                    let served = server.query(&filter, now).unwrap();
                    let got = outcome_by_value(&served.outcome, rows_by_value);
                    let fill = query_fills.get(f).cloned();
                    let expect = match fill {
                        Some((gen, rows)) if gen == generation => Outcome::Cached(rows),
                        _ => {
                            // The walk: every key's replica list, matching or not.
                            let mut rows = Vec::new();
                            let mut unreachable = 0usize;
                            for (key, doc) in &model {
                                match first_live(&server, key, down) {
                                    Some(i) => {
                                        want.0 += u64::from(i > 0);
                                        if filter.matches(doc) {
                                            rows.push((key.clone(), doc.clone()));
                                        }
                                    }
                                    None => unreachable += 1,
                                }
                            }
                            if unreachable == 0 {
                                query_fills.insert(*f, (generation, rows.clone()));
                                Outcome::Fresh(rows)
                            } else {
                                want.1 += 1;
                                match fill {
                                    Some((_, rows)) => {
                                        want.2 += 1;
                                        Outcome::Stale(rows)
                                    }
                                    None => Outcome::Degraded(rows),
                                }
                            }
                        }
                    };
                    // Key order with no key twice, and each document by value.
                    prop_assert_eq!(got, expect, "query({})", f);
                }
            }
            let after = server.stats();
            prop_assert_eq!(
                (
                    after.reroutes - before.reroutes,
                    after.degraded - before.degraded,
                    after.stale_served - before.stale_served,
                ),
                want,
                "(reroutes, degraded, stale_served) deltas at step {} ({:?})", step, op
            );
        }
    }
}

/// One request built from hostile input, with whether a store would take
/// it: a document with no non-finite number, a filter with finite, ordered
/// range bounds or a finite geo center and radius ≥ 0, a row as wide as
/// the model's input.
#[derive(Debug, Clone)]
enum HostileOp {
    Put(String, Doc, bool),
    Get(String),
    Query(Filter, bool),
    Infer(Vec<f32>, bool),
}

/// The input width of [`hostile_model`].
const MODEL_WIDTH: usize = 4;

/// The model the hostile server serves.
fn hostile_model() -> Sequential {
    Sequential::new()
        .with(Dense::new(MODEL_WIDTH, 3, 5))
        .with(Relu::new())
}

/// Keys from arbitrary bytes, read as lossy UTF-8: empty, short, or up to
/// 64 KiB, with every invalid byte a non-ASCII replacement character.
fn hostile_key() -> impl Strategy<Value = String> {
    prop_oneof![
        1 => Just(Vec::new()),
        6 => proptest::collection::vec(any::<u8>(), 0..16),
        1 => proptest::collection::vec(any::<u8>(), 0..64 * 1024 + 1),
    ]
    .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

/// A number that is finite, NaN or ±inf.
fn hostile_number() -> impl Strategy<Value = f64> {
    prop_oneof![
        3 => any::<f64>(),
        1 => Just(f64::NAN),
        1 => Just(f64::INFINITY),
        1 => Just(f64::NEG_INFINITY),
    ]
}

/// A put of a document whose `v` and `loc.lat` may be non-finite, whose
/// `kind` is a string or a number, and whose `deep` holds `v` under up to
/// 128 levels of objects and arrays, the JSON shim's nesting cap.
fn hostile_put() -> impl Strategy<Value = HostileOp> {
    (
        hostile_key(),
        hostile_number(),
        hostile_number(),
        any::<bool>(),
        0usize..=128,
    )
        .prop_map(|(key, v, lat, text, depth)| {
            let kind = if text {
                Doc::Str("traffic".into())
            } else {
                Doc::F64(v)
            };
            let deep = (0..depth).fold(Doc::F64(v), |inner, level| match level % 2 {
                0 => Doc::object([("d", inner)]),
                _ => Doc::Array(vec![inner]),
            });
            let doc = Doc::object([
                ("kind", kind),
                ("v", Doc::F64(v)),
                (
                    "loc",
                    Doc::object([("lat", Doc::F64(lat)), ("lon", Doc::F64(0.0))]),
                ),
                ("deep", deep),
            ]);
            HostileOp::Put(key, doc, v.is_finite() && lat.is_finite())
        })
}

/// Paths that exist, are missing, or hold a value of another type than the
/// filter expects.
const HOSTILE_PATHS: [&str; 7] = ["kind", "v", "loc", "loc.lat", "deep.d", "missing", ""];

/// A query on one of [`HOSTILE_PATHS`] with numbers that may be non-finite.
fn hostile_query() -> impl Strategy<Value = HostileOp> {
    let path = (0..HOSTILE_PATHS.len()).prop_map(|p| HOSTILE_PATHS[p].to_string());
    (path, hostile_number(), hostile_number(), 0u8..4).prop_map(|(path, a, b, kind)| {
        let finite = a.is_finite() && b.is_finite();
        match kind {
            0 => HostileOp::Query(Filter::Eq(path, Doc::F64(a)), true),
            1 => HostileOp::Query(Filter::Range(path, a, b), finite && a <= b),
            2 => HostileOp::Query(Filter::Exists(path), true),
            _ => HostileOp::Query(
                Filter::Near {
                    path,
                    lat: a,
                    lon: b,
                    radius_m: a,
                },
                finite && a >= 0.0,
            ),
        }
    })
}

/// A row of finite, NaN or ±inf values: as wide as the model, of another
/// width, or empty.
fn hostile_infer() -> impl Strategy<Value = HostileOp> {
    let value = || hostile_number().prop_map(|v| v as f32);
    prop_oneof![
        3 => proptest::collection::vec(value(), MODEL_WIDTH),
        1 => proptest::collection::vec(value(), 0..2 * MODEL_WIDTH),
    ]
    .prop_map(|row| {
        let fits = row.len() == MODEL_WIDTH;
        HostileOp::Infer(row, fits)
    })
}

fn hostile_op() -> impl Strategy<Value = HostileOp> {
    prop_oneof![
        hostile_put(),
        hostile_key().prop_map(HostileOp::Get),
        hostile_query(),
        hostile_infer(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Hostile keys, documents, filters, rows and timestamps never panic
    /// the request path. A put or query fails with a typed error exactly
    /// when its input is one a store refuses (a refused query may be shed
    /// first), a get never fails, a row of the wrong width is shed, every
    /// queued row completes once, and each get, query or infer adds
    /// exactly one request. The rate gate (1 request/s, burst 2; the queue
    /// never fills) admits at most `burst + rate × latest time seen`,
    /// whatever order the times come in.
    #[test]
    fn hostile_input_gets_a_typed_answer_and_is_counted(
        ops in proptest::collection::vec((hostile_op(), 0u64..10_000), 1..48),
    ) {
        let (rate, burst) = (1.0, 2.0);
        let cfg = ServeConfig {
            rate_per_s: rate,
            burst,
            service_rate: 1e9,
            queue_capacity: 1 << 20,
            ..ServeConfig::default()
        };
        let mut server = Server::new(cfg).with_model(hostile_model());
        let (mut pending, mut completed) = (Vec::new(), Vec::new());
        let mut latest = SimTime::ZERO;
        for (op, at_ms) in ops {
            let now = SimTime::from_millis(at_ms);
            latest = latest.max(now);
            let before = server.stats().requests;
            let reads = match op {
                HostileOp::Put(key, doc, valid) => {
                    prop_assert_eq!(server.put(key.as_str(), doc, now).is_ok(), valid);
                    0
                }
                HostileOp::Get(key) => {
                    prop_assert!(server.get(&key, now).is_ok());
                    1
                }
                HostileOp::Query(filter, valid) => {
                    match server.query(&filter, now) {
                        Ok(served) => prop_assert!(valid || served.outcome.is_shed()),
                        Err(_) => prop_assert!(!valid),
                    }
                    1
                }
                HostileOp::Infer(row, fits) => {
                    match server.infer(row, now) {
                        InferSubmit::Pending(ticket) if fits => pending.push(ticket.0),
                        InferSubmit::Shed => {}
                        answer => prop_assert!(fits, "a row of the wrong width got {:?}", answer),
                    }
                    completed.extend(server.tick(now).iter().map(|c| c.req.0));
                    1
                }
            };
            prop_assert_eq!(server.stats().requests - before, reads);
        }
        completed.extend(server.drain(latest).iter().map(|c| c.req.0));
        completed.sort_unstable();
        pending.sort_unstable();
        prop_assert_eq!(completed, pending, "every queued row completes once");
        let stats = server.stats();
        let admitted = (stats.requests - stats.shed) as f64;
        prop_assert!(
            admitted <= burst + rate * latest.as_secs_f64() + 1e-9,
            "{} admitted by {:?}", admitted, latest
        );
    }
}
