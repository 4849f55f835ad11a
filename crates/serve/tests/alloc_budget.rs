//! Allocation budget of the serving read and write paths.
//!
//! Documents and result rows are shared (`Arc`) from the write to the
//! answer, so what a request allocates must not scale with what it
//! *carries*: a warm hit hands out the cached slice, a miss bumps one
//! refcount per row, a replacing write stores one `Arc` on every replica,
//! a flush nobody traces builds nothing a trace would read, runs the model
//! on the batcher's workspace and shares one output row per input with the
//! cache and the completions, an inference
//! hit or a submission of a shared row copies no row, and the index
//! the tier builds on the path it is asked by is kept up with keys borrowed
//! from the documents — nothing per write, nothing per rebalanced copy.
//! A rebalance routes every key into one reused buffer and a key's
//! placements sit inline in the directory, so it allocates for the keys
//! it moves, a fraction per copy, and not for those that stay. A new
//! key's `put` routes into the same buffer and shares an `Arc<str>` key.
//! A miss walks each shard's index bucket in place, gathers and sorts its
//! rows in a reused buffer and moves them into the answer's slice. A request
//! generator's serving key is formatted on the stack and costs one
//! allocation, and its reading names its fields with literals. A counting
//! `#[global_allocator]` (the E14 pattern, per thread so the tests can run
//! side by side) holds the paths to that.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use scneural::layers::{Dense, Relu};
use scneural::net::Sequential;
use scnosql::document::{Doc, Filter};
use scserve::{InferSubmit, Outcome, ServeConfig, Server};
use simclock::SimTime;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: a thread being torn down still allocates.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the heap allocations this thread
/// made meanwhile.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// A reading of kind `"hot"` padded with `extra` string fields.
fn reading(v: i64, extra: usize) -> Doc {
    let pad = (0..extra).map(|i| (format!("pad-{i:03}"), Doc::Str(format!("value-{i:03}"))));
    Doc::object(
        [
            ("kind".to_string(), Doc::Str("hot".into())),
            ("v".to_string(), Doc::I64(v)),
        ]
        .into_iter()
        .chain(pad),
    )
}

fn key(i: usize) -> String {
    format!("k-{i:04}")
}

fn seeded(cfg: ServeConfig, keys: usize, extra: usize) -> Server {
    seeded_with(cfg, &(0..keys).map(key).collect::<Vec<_>>(), extra)
}

fn seeded_with(cfg: ServeConfig, keys: &[String], extra: usize) -> Server {
    let mut server = Server::new(cfg);
    for (i, k) in keys.iter().enumerate() {
        server
            .put(k, reading(i as i64, extra), SimTime::ZERO)
            .unwrap();
    }
    server
}

fn hot() -> Filter {
    Filter::Eq("kind".into(), Doc::Str("hot".into()))
}

/// Allocations of a warm `query` hit and a warm `get` hit on a store of
/// `keys` documents of `extra` padding fields each.
fn warm_hits(keys: usize, extra: usize) -> (u64, u64) {
    let mut server = seeded(ServeConfig::default(), keys, extra);
    let filter = hot();
    let t = SimTime::from_millis(1);
    server.query(&filter, t).unwrap();
    server.get("k-0003", t).unwrap();

    let (served, query_allocs) = allocations_in(|| server.query(&filter, t).unwrap());
    let Outcome::Cached(rows) = &served.outcome else {
        panic!("second query must hit: {:?}", served.outcome)
    };
    assert_eq!(rows.len(), keys);
    let (served, get_allocs) = allocations_in(|| server.get("k-0003", t).unwrap());
    assert!(matches!(served.outcome, Outcome::Cached(Some(_))));
    (query_allocs, get_allocs)
}

#[test]
fn warm_hits_allocate_a_constant_whatever_the_answer_holds() {
    let small = warm_hits(5, 0);
    assert_eq!(small, warm_hits(500, 0), "row count must not matter");
    assert_eq!(small, warm_hits(5, 64), "document size must not matter");
    assert_eq!(
        small,
        (0, 0),
        "a hit is a refcount bump on the cached slice"
    );
}

/// Allocations of one `query` miss answering `keys` rows of documents with
/// `extra` padding fields each.
fn miss(keys: usize, extra: usize) -> u64 {
    let mut server = seeded(ServeConfig::default(), keys, extra);
    let filter = hot();
    server.query(&filter, SimTime::from_millis(1)).unwrap();
    // A write supersedes the cached answer: the next query is a miss that
    // also replaces (and frees) the entry it finds.
    server
        .put("k-0000", reading(-1, extra), SimTime::from_millis(2))
        .unwrap();
    let (served, allocs) =
        allocations_in(|| server.query(&filter, SimTime::from_millis(3)).unwrap());
    let Outcome::Fresh(rows) = &served.outcome else {
        panic!("a write must invalidate: {:?}", served.outcome)
    };
    assert_eq!(rows.len(), keys);
    allocs
}

#[test]
fn a_miss_allocates_per_row_not_per_document() {
    const KEYS: usize = 400;
    let small = miss(KEYS, 0);
    assert_eq!(small, miss(KEYS, 64), "document size must not matter");
    // The answer's slice alone: each shard's index bucket is walked in
    // place, and the rows are gathered and sorted in a reused buffer, then
    // moved into the slice (a deep copy made seven per row, twice; a list
    // of hits per shard, one per shard).
    assert_eq!(small, 1);
    for keys in [40, 4 * KEYS] {
        assert_eq!(miss(keys, 0), small, "nor the row count");
    }
}

/// Allocations of a `put` that replaces a key held on `replicas` shards.
fn replacing_put(replicas: usize) -> u64 {
    let mut server = seeded(
        ServeConfig {
            shards: 4,
            replicas,
            ..ServeConfig::default()
        },
        20,
        8,
    );
    let doc = reading(99, 8);
    let ((), allocs) =
        allocations_in(|| server.put("k-0007", doc, SimTime::from_millis(1)).unwrap());
    allocs
}

#[test]
fn a_replacing_put_allocates_the_same_at_any_replica_count() {
    let one = replacing_put(1);
    assert_eq!(one, replacing_put(2));
    assert_eq!(one, replacing_put(4));
    assert_eq!(one, 1, "one `Arc`, which every replica stores");
}

#[test]
fn a_replacing_put_on_an_indexed_server_allocates_nothing_for_the_index() {
    let mut server = seeded(ServeConfig::default(), 20, 8);
    // The first miss indexes `kind` on every shard.
    server.query(&hot(), SimTime::from_millis(1)).unwrap();
    let doc = reading(99, 8);
    let ((), allocs) =
        allocations_in(|| server.put("k-0007", doc, SimTime::from_millis(2)).unwrap());
    assert_eq!(
        allocs, 1,
        "the document's `Arc`; its bucket is found borrowed"
    );
    let served = server.query(&hot(), SimTime::from_millis(3)).unwrap();
    let rows = served.outcome.value().unwrap();
    assert_eq!(
        *rows[7].1,
        reading(99, 8),
        "and the bucket has the new version"
    );
}

fn five_shards() -> ServeConfig {
    ServeConfig {
        shards: 5,
        ..ServeConfig::default()
    }
}

/// Allocations of adding a sixth shard to — then removing it from — a
/// server of `keys`, indexed on `kind` or not, and the copies moved.
fn reshard(keys: &[String], indexed: bool) -> (u64, usize) {
    let mut server = seeded_with(five_shards(), keys, 0);
    if indexed {
        server.query(&hot(), SimTime::from_millis(1)).unwrap();
    }
    let (moves, allocs) = allocations_in(|| server.add_shard(5) + server.remove_shard(5));
    (allocs, moves)
}

#[test]
fn a_rebalance_move_allocates_nothing_for_the_index() {
    for keys in [250, 1_000, 2_000] {
        let keys: Vec<String> = (0..keys).map(key).collect();
        let (plain, moves) = reshard(&keys, false);
        let (indexed, same_moves) = reshard(&keys, true);
        assert_eq!(moves, same_moves);
        assert!(moves > keys.len() / 2, "{moves} copies moved");
        // A moving key's placements are rewritten in place: what is left
        // is the new shard's B-tree nodes and index, a fraction per copy
        // moved.
        for allocs in [plain, indexed] {
            let per_move = allocs as f64 / moves as f64;
            assert!(per_move <= 0.25, "{per_move:.3} allocations per move");
        }
        // The new shard's index and its one bucket, doubling as it fills:
        // a handful, however many copies move in and out.
        let for_the_index = indexed - plain;
        assert!(
            for_the_index <= 16,
            "{for_the_index} allocations for the index over {moves} moves"
        );
    }
}

#[test]
fn a_rebalance_allocates_for_the_keys_it_moves_not_for_those_it_stores() {
    // Sort keys by whether a sixth shard changes their replica list (two
    // replicas, the default).
    let before = Server::new(five_shards()).shard_map().clone();
    let mut after = before.clone();
    after.add_node(5);
    let (mut moving, mut staying) = (Vec::new(), Vec::new());
    let (mut was, mut now) = (Vec::new(), Vec::new());
    for k in (0..6_000).map(key) {
        before.route_replicas(k.as_bytes(), 2, &mut was);
        after.route_replicas(k.as_bytes(), 2, &mut now);
        if was == now {
            staying.push(k);
        } else {
            moving.push(k);
        }
    }
    let moving = &moving[..100];
    let with_staying = |n: usize| reshard(&[moving, &staying[..n]].concat(), false);
    let (few, moves) = with_staying(250);
    let (many, same_moves) = with_staying(3_000);
    assert_eq!(moves, same_moves, "the same copies move");
    assert!(moves >= 2 * moving.len(), "{moves} copies moved");
    assert_eq!(
        few,
        many,
        "2 750 more keys that stay put cost {} more allocations",
        many as i64 - few as i64
    );
}

/// Allocations of an untraced flush of one pending row, for a model of
/// `layers` layers, on a server that has flushed once before.
fn flush(layers: usize) -> u64 {
    let model = (0..layers).fold(Sequential::new(), |net, i| match i % 2 {
        0 => net.with(Dense::new(4, 4, i as u64)),
        _ => net.with(Relu::new()),
    });
    let mut server = Server::new(ServeConfig::default()).with_model(model);
    // The first flush grows the batcher's buffers, its workspace and the
    // cache's maps; it is also the process's first forward pass, which
    // reads `SCSIMD_FORCE`.
    server.infer(vec![0.4f32, 0.3, 0.2, 0.1], SimTime::ZERO);
    assert_eq!(server.drain(SimTime::from_millis(1)).len(), 1);
    let submitted = server.infer(vec![0.1f32, 0.2, 0.3, 0.4], SimTime::from_millis(2));
    assert!(matches!(submitted, InferSubmit::Pending(_)));
    let (done, flush) = allocations_in(|| server.drain(SimTime::from_millis(3)));
    assert_eq!(done.len(), 1);
    flush
}

#[test]
fn an_untraced_flush_allocates_nothing_per_layer() {
    let three = flush(3);
    assert_eq!(three, flush(9), "layer count must not matter");
    // The one output row that the cache and the completion share, and the
    // completions: the forward pass runs on the batcher's workspace, and
    // there is no list of layer names, which only a trace reads, and no
    // copy of the input or the output.
    assert_eq!(three, 2);
}

#[test]
fn an_inference_hit_and_a_shared_row_submission_copy_no_row() {
    let model = Sequential::new().with(Dense::new(4, 4, 1));
    let mut server = Server::new(ServeConfig::default()).with_model(model);
    let hot: Arc<[f32]> = Arc::from([0.1f32, 0.2, 0.3, 0.4]);
    let cold: Arc<[f32]> = Arc::from([0.4f32, 0.3, 0.2, 0.1]);
    // The first flush grows the batcher's buffers and the cache's maps.
    server.infer(Arc::clone(&hot), SimTime::ZERO);
    let done = server.drain(SimTime::from_millis(1));

    let t = SimTime::from_millis(2);
    let (hit, allocations) = allocations_in(|| server.infer(Arc::clone(&hot), t));
    let InferSubmit::Cached { output, .. } = hit else {
        panic!("a flushed row must hit: {hit:?}")
    };
    assert!(
        Arc::ptr_eq(&output, &done[0].output),
        "the cache holds the completion's row"
    );
    assert_eq!(allocations, 0, "a hit is a refcount bump");

    let (submitted, allocations) = allocations_in(|| server.infer(Arc::clone(&cold), t));
    assert!(matches!(submitted, InferSubmit::Pending(_)));
    assert_eq!(allocations, 0, "a shared row is queued, not copied");
    let owned = cold.to_vec();
    let (submitted, allocations) = allocations_in(|| server.infer(owned, t));
    assert!(matches!(submitted, InferSubmit::Pending(_)));
    assert_eq!(allocations, 1, "an owned row is copied into a shared one");
}

#[test]
fn a_generated_serving_key_is_one_allocation() {
    use scserve::key;

    let (seven, allocations) = allocations_in(|| key(7));
    assert_eq!(&*seven, "k-00007");
    assert_eq!(allocations, 1, "the text is formatted on the stack");
    // Wider than five digits: the rank is not cut.
    let (wide, allocations) = allocations_in(|| key(123_456));
    assert_eq!(&*wide, "k-123456");
    assert_eq!(allocations, 1);
}

#[test]
fn a_generated_reading_allocates_its_fields_and_its_kind() {
    use scserve::reading;
    use simclock::SeededRng;

    let mut rng = SeededRng::new(7);
    for serial in 0..16 {
        let (doc, allocations) = allocations_in(|| reading(&mut rng, serial));
        assert_eq!(doc.path("v"), Some(&Doc::I64(serial)));
        assert_eq!(
            allocations, 2,
            "the field list and the `kind` text; the names are literals"
        );
    }
}

#[test]
fn a_new_key_put_allocates_its_document_and_b_tree_nodes() {
    const KEYS: usize = 2_000;
    let mut server = Server::new(ServeConfig::default());
    let docs: Vec<Doc> = (0..KEYS as i64).map(|v| reading(v, 0)).collect();
    let keys: Vec<Arc<str>> = (0..KEYS).map(|i| key(i).into()).collect();
    let ((), allocations) = allocations_in(|| {
        for (k, doc) in keys.iter().zip(docs) {
            server.put(k, doc, SimTime::ZERO).unwrap();
        }
    });
    assert_eq!(server.len(), KEYS);
    // The `Arc<Doc>` and the B-tree nodes of the directory, the shards'
    // key maps and their collections (0.83 per put): the key is shared,
    // the placements sit inline in the directory, and the route is
    // written into a reused buffer. A text key and a placement list made
    // it 3.83.
    assert_eq!(allocations, 3_663, "{KEYS} new-key puts");
}

#[test]
fn a_text_key_is_copied_once_and_a_shared_key_is_stored_shared() {
    // The same new key into two servers in the same state: as text and as
    // an `Arc<str>`.
    let (mut by_text, mut by_arc) = (
        seeded(ServeConfig::default(), 20, 0),
        seeded(ServeConfig::default(), 20, 0),
    );
    let shared: Arc<str> = Arc::from(key(20));
    let t = SimTime::ZERO;
    let ((), copied) = allocations_in(|| by_text.put(&*shared, reading(20, 0), t).unwrap());
    let ((), kept) = allocations_in(|| by_arc.put(&shared, reading(20, 0), t).unwrap());
    assert_eq!(
        copied,
        kept + 1,
        "text is copied once, an `Arc<str>` not at all"
    );

    let served = by_arc.query(&hot(), SimTime::from_millis(1)).unwrap();
    let (row_key, _) = &served.outcome.value().unwrap()[20];
    assert!(
        Arc::ptr_eq(row_key, &shared),
        "the answer's row holds the caller's key"
    );
}
