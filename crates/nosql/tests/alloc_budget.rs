//! Allocation budget of building a document and of counting matches.
//!
//! An object's field names are `Cow<'static, str>`: a literal name is
//! borrowed and an owned `String` name is moved in, so building an object
//! allocates its field list and whatever its values own, and never a copy
//! of a name. A count walks the scan or the index bucket it would answer
//! from and collects nothing. `sctelemetry::CountingAlloc`, the one
//! counting allocator (per thread, so the tests can run side by side),
//! holds it to that.

use scnosql::document::{Collection, Doc, Filter};
use sctelemetry::{counted, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn literal_names_cost_nothing() {
    let (doc, heap) = counted(|| {
        Doc::object([
            ("v", Doc::I64(7)),
            ("reading", Doc::F64(42.5)),
            ("ok", Doc::Bool(true)),
            ("gap", Doc::Null),
        ])
    });
    assert_eq!(doc.path("reading"), Some(&Doc::F64(42.5)));
    assert_eq!(heap.allocs, 1, "the field list alone");
}

#[test]
fn an_object_allocates_its_field_lists_and_the_values_it_owns() {
    let (doc, heap) = counted(|| {
        Doc::object([
            ("kind", Doc::Str("air".into())),
            (
                "geo",
                Doc::object([("lat", Doc::F64(30.4)), ("lon", Doc::F64(-91.1))]),
            ),
        ])
    });
    assert_eq!(doc.path("geo.lon"), Some(&Doc::F64(-91.1)));
    assert_eq!(heap.allocs, 3, "two field lists and the `kind` text");
}

#[test]
fn an_owned_name_is_moved_in_not_copied() {
    let names = ["kind".to_string(), "v".to_string()];
    let values = [Doc::Null, Doc::I64(1)];
    let (doc, heap) = counted(|| Doc::object(names.into_iter().zip(values)));
    assert_eq!(doc.path("v"), Some(&Doc::I64(1)));
    assert_eq!(heap.allocs, 1, "the field list alone");
}

/// Allocations of counting the documents of kind `kind` among 200
/// readings of four kinds, with `kind` indexed or not, and the count.
fn count_by_kind(indexed: bool) -> (usize, u64) {
    let mut readings = Collection::new("readings");
    if indexed {
        readings.create_index("kind");
    }
    for v in 0..200 {
        let kind = ["air", "noise", "traffic", "water"][v % 4];
        let doc = Doc::object([("kind", Doc::Str(kind.into())), ("v", Doc::I64(v as i64))]);
        readings.insert(doc).unwrap();
    }
    let air = Filter::Eq("kind".into(), Doc::Str("air".into()));
    let (count, heap) = counted(|| readings.count(&air).unwrap());
    let walked = if indexed { (0, 1) } else { (1, 0) };
    assert_eq!(readings.query_stats(), walked, "indexed: {indexed}");
    (count, heap.allocs)
}

#[test]
fn a_count_allocates_nothing() {
    for indexed in [true, false] {
        let (count, allocations) = count_by_kind(indexed);
        assert_eq!(count, 50);
        assert_eq!(allocations, 0, "indexed: {indexed}");
    }
}
