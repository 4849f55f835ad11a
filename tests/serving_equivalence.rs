//! Serving-layer equivalence proofs (scserve).
//!
//! The serving tier adds sharding, caching, micro-batching, and admission
//! control between consumers and the storage/inference backends — and
//! promises that none of it changes any answer. These tests pin that
//! promise down in its strongest form:
//!
//! 1. `Server::query(f)` returns exactly `Collection::find(f)` — cold
//!    cache, warm cache, after invalidating writes, and after TTL expiry.
//! 2. Micro-batched inference is **bit-identical** to single-row
//!    `Sequential::predict_ctx` at batch sizes 1 / 7 / 32 and worker
//!    counts 1 / 2 / 8.
//! 3. A randomized put/get/query interleaving against a
//!    flat reference model never observes a divergent answer.

use std::sync::Arc;

use proptest::prelude::*;
use smartcity::neural::exec::ExecCtx;
use smartcity::neural::layers::{Dense, Relu};
use smartcity::neural::net::Sequential;
use smartcity::neural::tensor::Tensor;
use smartcity::nosql::document::{Collection, Doc, Filter};
use smartcity::par::ScparConfig;
use smartcity::serve::{BatchConfig, CacheConfig, InferSubmit, Outcome, ServeConfig, Server};
use smartcity::simclock::{SimDuration, SimTime};

fn doc(kind: &str, v: i64) -> Doc {
    Doc::object([
        ("kind", Doc::Str(kind.into())),
        ("v", Doc::I64(v)),
        ("reading", Doc::F64(v as f64 * 1.5)),
    ])
}

/// Sorted debug renderings — an order- and id-insensitive multiset view
/// of the documents by value (served ones are read through their `Arc`).
fn multiset<'a>(docs: impl IntoIterator<Item = &'a Doc>) -> Vec<String> {
    let mut out: Vec<String> = docs.into_iter().map(|d| format!("{d:?}")).collect();
    out.sort();
    out
}

fn reference_find(reference: &Collection, filter: &Filter) -> Vec<String> {
    multiset(
        reference
            .find(filter)
            .expect("reference filters are valid")
            .into_iter()
            .map(|(_, d)| &**d),
    )
}

/// The answer `outcome` carries, if any.
fn answer<T>(outcome: &Outcome<T>) -> Option<&T> {
    match outcome {
        Outcome::Fresh(v) | Outcome::Cached(v) | Outcome::Stale(v) | Outcome::Degraded(v) => {
            Some(v)
        }
        Outcome::Shed => None,
    }
}

fn served_rows(server: &mut Server, filter: &Filter, now: SimTime) -> (Vec<String>, Outcome<()>) {
    let served = server.query(filter, now).expect("filters are valid");
    let tag = match &served.outcome {
        Outcome::Fresh(_) => Outcome::Fresh(()),
        Outcome::Cached(_) => Outcome::Cached(()),
        Outcome::Stale(_) => Outcome::Stale(()),
        Outcome::Degraded(_) => Outcome::Degraded(()),
        Outcome::Shed => Outcome::Shed,
    };
    let rows = answer(&served.outcome).cloned().unwrap_or_default();
    (multiset(rows.iter().map(|(_, d)| &**d)), tag)
}

/// serve(q) == collection.find(q) across every cache state: cold, warm
/// (cached), invalidated-by-write, and TTL-expired.
#[test]
fn query_equals_direct_find_in_all_cache_states() {
    let ttl = SimDuration::from_secs(10);
    let mut server = Server::new(ServeConfig {
        query_cache: CacheConfig {
            ttl,
            ..CacheConfig::default()
        },
        ..ServeConfig::default()
    });
    let mut reference = Collection::new("reference");

    for i in 0..40 {
        let kind = ["traffic", "air", "camera"][i % 3];
        let d = doc(kind, i as i64);
        server
            .put(&format!("k-{i:03}"), d.clone(), SimTime::ZERO)
            .unwrap();
        reference.insert(d).unwrap();
    }
    let filters = [
        Filter::Eq("kind".into(), Doc::Str("air".into())),
        Filter::Range("v".into(), 5.0, 25.0),
        Filter::Exists("reading".into()),
        Filter::Eq("kind".into(), Doc::Str("nope".into())),
    ];

    for (i, filter) in filters.iter().enumerate() {
        let t = SimTime::from_millis(1 + i as u64);
        // Cold.
        let (rows, tag) = served_rows(&mut server, filter, t);
        assert_eq!(tag, Outcome::Fresh(()));
        assert_eq!(rows, reference_find(&reference, filter));
        // Warm: the cached answer must be the same bytes.
        let (rows, tag) = served_rows(&mut server, filter, t);
        assert_eq!(tag, Outcome::Cached(()));
        assert_eq!(rows, reference_find(&reference, filter));
    }

    // A write invalidates every cached answer; re-queries must equal the
    // updated reference, not the stale cache.
    let d = doc("air", 999);
    server
        .put("k-999", d.clone(), SimTime::from_millis(50))
        .unwrap();
    reference.insert(d).unwrap();
    for (i, filter) in filters.iter().enumerate() {
        let t = SimTime::from_millis(60 + i as u64);
        let (rows, tag) = served_rows(&mut server, filter, t);
        assert_eq!(tag, Outcome::Fresh(()), "writes must invalidate");
        assert_eq!(rows, reference_find(&reference, filter));
    }

    // TTL expiry: long after the cache went cold the answers still match.
    let late = SimTime::from_millis(100) + ttl + ttl;
    for filter in &filters {
        let (rows, tag) = served_rows(&mut server, filter, late);
        assert_eq!(tag, Outcome::Fresh(()), "expired entries must refetch");
        assert_eq!(rows, reference_find(&reference, filter));
    }
}

/// Micro-batched inference is bit-identical to per-row prediction for
/// batch sizes 1 / 7 / 32 under 1 / 2 / 8 worker threads.
#[test]
fn batched_inference_is_bit_identical_to_single_row() {
    const DIM: usize = 6;
    let model = || {
        Sequential::new()
            .with(Dense::new(DIM, 16, 21))
            .with(Relu::new())
            .with(Dense::new(16, 3, 22))
    };
    // 32 distinct deterministic rows.
    let rows: Vec<Vec<f32>> = (0..32)
        .map(|i| {
            (0..DIM)
                .map(|j| ((i * DIM + j) as f32 * 0.37).sin())
                .collect()
        })
        .collect();
    // Ground truth: one row at a time, serial.
    let serial = ExecCtx::serial();
    let reference = model();
    let expected: Vec<Vec<f32>> = rows
        .iter()
        .map(|r| {
            reference
                .predict_ctx(&Tensor::from_vec(vec![1, DIM], r.clone()).unwrap(), &serial)
                .data()
                .to_vec()
        })
        .collect();

    for max_batch in [1usize, 7, 32] {
        for threads in [1usize, 2, 8] {
            let par = if threads == 1 {
                ScparConfig::serial()
            } else {
                ScparConfig::with_threads(threads)
            };
            let mut server = Server::new(ServeConfig {
                batch: BatchConfig {
                    max_batch,
                    max_delay: SimDuration::from_millis(4),
                },
                ..ServeConfig::default()
            })
            .with_model(model())
            .with_ctx(ExecCtx::serial().with_par(par));

            let mut outputs: Vec<Option<Arc<[f32]>>> = vec![None; rows.len()];
            let mut tickets = Vec::new();
            for (i, row) in rows.iter().enumerate() {
                let t = SimTime::from_millis(i as u64);
                match server.infer(row.clone(), t) {
                    InferSubmit::Pending(req) => tickets.push((req, i)),
                    InferSubmit::Cached { output, .. } => outputs[i] = Some(output),
                    other => panic!("unexpected admission outcome: {other:?}"),
                }
                for done in server.tick(t) {
                    let &(_, idx) = tickets
                        .iter()
                        .find(|(r, _)| *r == done.req)
                        .expect("completion matches a ticket");
                    outputs[idx] = Some(done.output);
                }
            }
            for done in server.drain(SimTime::from_secs(1)) {
                let &(_, idx) = tickets
                    .iter()
                    .find(|(r, _)| *r == done.req)
                    .expect("completion matches a ticket");
                outputs[idx] = Some(done.output);
            }

            for (i, out) in outputs.iter().enumerate() {
                let out = out
                    .as_ref()
                    .unwrap_or_else(|| panic!("row {i} never completed"));
                let bits_equal = out.len() == expected[i].len()
                    && out
                        .iter()
                        .zip(&expected[i])
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(
                    bits_equal,
                    "row {i} diverged at max_batch={max_batch} threads={threads}"
                );
            }
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    Put(usize, i64),
    Get(usize),
    Query(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..24, -100i64..100).prop_map(|(k, v)| Op::Put(k, v)),
        (0usize..24).prop_map(Op::Get),
        (0usize..3).prop_map(Op::Query),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary put/get/query interleavings: the served answer
    /// always equals a flat (unsharded, uncached) reference model.
    #[test]
    fn random_interleavings_never_diverge(ops in proptest::collection::vec(op_strategy(), 1..80)) {
        let mut server = Server::new(ServeConfig::default());
        let mut model: std::collections::BTreeMap<String, Doc> = Default::default();
        let kinds = ["traffic", "air", "camera"];

        for (step, op) in ops.into_iter().enumerate() {
            let now = SimTime::from_millis(step as u64);
            match op {
                Op::Put(k, v) => {
                    let key = format!("k-{k:02}");
                    let d = doc(kinds[k % 3], v);
                    server.put(&key, d.clone(), now).unwrap();
                    model.insert(key, d);
                }
                Op::Get(k) => {
                    let key = format!("k-{k:02}");
                    let served = server.get(&key, now).unwrap();
                    let got = answer(&served.outcome).and_then(|d| d.as_deref());
                    prop_assert_eq!(got, model.get(&key), "get({}) diverged", key);
                }
                Op::Query(f) => {
                    let filter = Filter::Eq("kind".into(), Doc::Str(kinds[f].into()));
                    let served = server.query(&filter, now).unwrap();
                    let rows = answer(&served.outcome).cloned().unwrap_or_default();
                    let got = multiset(rows.iter().map(|(_, d)| &**d));
                    let want = multiset(
                        model
                            .values()
                            .filter(|d| d.path("kind").and_then(|x| x.as_str()) == Some(kinds[f])),
                    );
                    prop_assert_eq!(got, want, "query({}) diverged", kinds[f]);
                }
            }
        }
    }
}
