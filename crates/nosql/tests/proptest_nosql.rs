//! Property tests: the LSM table must behave exactly like a model BTreeMap
//! under any operation sequence, and document queries must agree with a
//! brute-force scan.

use std::collections::BTreeMap;

use proptest::prelude::*;
use scnosql::document::{Collection, Doc, DocId, Filter};
use scnosql::wide_column::Table;

#[derive(Debug, Clone)]
enum Op {
    Put(u8, Vec<u8>),
    Delete(u8),
    Flush,
    Compact,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..8))
            .prop_map(|(k, v)| Op::Put(k, v)),
        2 => any::<u8>().prop_map(Op::Delete),
        1 => Just(Op::Flush),
        1 => Just(Op::Compact),
    ]
}

/// One step of the index-maintenance driver; the `u8`s pick a live
/// document (modulo how many there are).
#[derive(Debug, Clone)]
enum DocOp {
    Insert(Doc),
    Update(u8, Doc),
    Remove(u8),
    /// Index `"x"` (false) or `"tag"` (true) — again, when it already is.
    CreateIndex(bool),
}

/// A value for `"x"`, drawn so that every kind of index key collides with
/// a neighbour: `I64(n)`, `F64(n as f64)` and both zeros share a bucket
/// and are told apart (or not) by `==`, composites share one by their
/// debug form, and `None` leaves the field out.
fn x_value() -> impl Strategy<Value = Option<Doc>> {
    prop_oneof![
        3 => (-2i64..4).prop_map(|n| Some(Doc::I64(n))),
        3 => (-2i64..4).prop_map(|n| Some(Doc::F64(n as f64))),
        1 => (-2i64..4).prop_map(|n| Some(Doc::F64(n as f64 + 0.5))),
        1 => Just(Some(Doc::F64(-0.0))),
        1 => (0u8..3).prop_map(|s| Some(Doc::Str(format!("s{s}")))),
        1 => any::<bool>().prop_map(|b| Some(Doc::Bool(b))),
        1 => Just(Some(Doc::Null)),
        1 => (0i64..2).prop_map(|n| Some(Doc::Array(vec![Doc::I64(n)]))),
        1 => Just(None),
    ]
}

fn tagged_doc() -> impl Strategy<Value = Doc> {
    (x_value(), 0u8..3).prop_map(|(x, tag)| {
        let tag = ("tag".to_string(), Doc::Str(format!("t{tag}")));
        Doc::object(x.map(|x| ("x".to_string(), x)).into_iter().chain([tag]))
    })
}

fn doc_op() -> impl Strategy<Value = DocOp> {
    prop_oneof![
        4 => tagged_doc().prop_map(DocOp::Insert),
        3 => (any::<u8>(), tagged_doc()).prop_map(|(i, d)| DocOp::Update(i, d)),
        2 => any::<u8>().prop_map(DocOp::Remove),
        1 => any::<bool>().prop_map(DocOp::CreateIndex),
    ]
}

/// Every shape `find` treats differently, over the values [`x_value`] draws.
fn probes() -> Vec<Filter> {
    let x = |v: Doc| Filter::Eq("x".into(), v);
    let tag = |t: &str| Filter::Eq("tag".into(), Doc::Str(t.into()));
    vec![
        x(Doc::I64(1)),
        x(Doc::F64(1.0)),
        x(Doc::I64(0)),
        x(Doc::F64(0.0)),
        x(Doc::F64(-0.0)),
        x(Doc::F64(2.5)),
        x(Doc::Str("s1".into())),
        x(Doc::Bool(true)),
        x(Doc::Null),
        x(Doc::Array(vec![Doc::I64(1)])),
        tag("t0"),
        tag("t9"),
        Filter::Range("x".into(), -1.0, 2.0),
        Filter::Range("x".into(), 0.0, 0.0),
        Filter::And(vec![tag("t1"), Filter::Range("x".into(), 0.0, 3.0)]),
        Filter::And(vec![Filter::Exists("x".into()), tag("t2"), x(Doc::I64(2))]),
        Filter::Or(vec![tag("t0"), x(Doc::Null)]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Indexed ≡ scan, whenever the index is born: under any interleaving
    /// of insert / update / remove / create_index, every probe returns the
    /// same `(id, document)` pairs from the indexed collection as from one
    /// that never had an index — in strictly ascending id order, so an
    /// `Eq` on `I64(1)` never answers with the `F64(1.0)` in its bucket.
    #[test]
    fn indexed_find_matches_scan_under_any_interleaving(
        ops in proptest::collection::vec(doc_op(), 1..60),
    ) {
        let mut indexed = Collection::new("indexed");
        let mut plain = Collection::new("plain");
        let mut live: Vec<DocId> = Vec::new();
        for op in ops {
            match op {
                DocOp::Insert(doc) => {
                    let id = indexed.insert(doc.clone()).unwrap();
                    prop_assert_eq!(plain.insert(doc).unwrap(), id);
                    live.push(id);
                }
                DocOp::Update(i, doc) if !live.is_empty() => {
                    let id = live[i as usize % live.len()];
                    indexed.update(id, doc.clone()).unwrap();
                    plain.update(id, doc).unwrap();
                }
                DocOp::Remove(i) if !live.is_empty() => {
                    let id = live.swap_remove(i as usize % live.len());
                    prop_assert_eq!(indexed.remove(id), plain.remove(id));
                }
                DocOp::CreateIndex(on_tag) => {
                    indexed.create_index(if on_tag { "tag" } else { "x" });
                }
                DocOp::Update(..) | DocOp::Remove(..) => {}
            }
            for probe in probes() {
                let got = indexed.find(&probe).unwrap();
                prop_assert!(
                    got.windows(2).all(|w| w[0].0 < w[1].0),
                    "{:?}: not in id order", probe
                );
                prop_assert_eq!(got, plain.find(&probe).unwrap(), "{:?}", probe);
            }
        }
        prop_assert_eq!(plain.query_stats().1, 0, "the model only ever scans");
    }

    /// LSM table ≡ BTreeMap model under arbitrary put/delete/flush/compact
    /// sequences: every get and every scan agrees.
    #[test]
    fn lsm_matches_model(ops in proptest::collection::vec(op_strategy(), 0..60)) {
        let mut table = Table::new("t", 5); // tiny budget → frequent flushes
        let mut model: BTreeMap<String, Vec<u8>> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Put(k, v) => {
                    let key = format!("k{k:03}");
                    table.put(&key, "f", "q", v.clone()).unwrap();
                    model.insert(key, v);
                }
                Op::Delete(k) => {
                    let key = format!("k{k:03}");
                    table.delete(&key, "f", "q").unwrap();
                    model.remove(&key);
                }
                Op::Flush => table.flush(),
                Op::Compact => table.compact(),
            }
        }
        // Point reads agree.
        for k in 0u16..=255 {
            let key = format!("k{k:03}");
            prop_assert_eq!(table.get(&key, "f", "q"), model.get(&key).cloned());
        }
        // Full scan agrees (ordered).
        let scanned: Vec<(String, Vec<u8>)> =
            table.scan_rows("", "\u{10FFFF}").map(|(k, v)| (k.row, v)).collect();
        let expected: Vec<(String, Vec<u8>)> =
            model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        prop_assert_eq!(scanned, expected);
    }

    /// Indexed and unindexed queries return identical results for any data.
    #[test]
    fn document_index_matches_scan(
        values in proptest::collection::vec((0i64..20, 0i64..5), 1..40),
        query_val in 0i64..20,
        range in (0i64..10, 10i64..20),
    ) {
        let mut indexed = Collection::new("a");
        indexed.create_index("x");
        let mut plain = Collection::new("b");
        for (x, y) in &values {
            let doc = Doc::object([("x", Doc::I64(*x)), ("y", Doc::I64(*y))]);
            indexed.insert(doc.clone()).unwrap();
            plain.insert(doc).unwrap();
        }
        let eq = Filter::Eq("x".into(), Doc::I64(query_val));
        prop_assert_eq!(indexed.count(&eq).unwrap(), plain.count(&eq).unwrap());

        let rf = Filter::Range("x".into(), range.0 as f64, range.1 as f64);
        prop_assert_eq!(indexed.count(&rf).unwrap(), plain.count(&rf).unwrap());
    }

    /// WAL recovery loses nothing: state after crash+replay equals state
    /// before the crash.
    #[test]
    fn wal_recovery_is_lossless(
        kvs in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..30),
    ) {
        let mut table = Table::new("t", 1000); // never auto-flush
        let mut model: BTreeMap<String, Vec<u8>> = BTreeMap::new();
        for (k, v) in kvs {
            let key = format!("k{k}");
            table.put(&key, "f", "q", vec![v]).unwrap();
            model.insert(key, vec![v]);
        }
        let recovered = table.recover_from();
        for (k, v) in &model {
            let got = recovered.get(k, "f", "q");
            prop_assert_eq!(got.as_ref(), Some(v));
        }
    }
}
