//! Allocation budget of a window close.
//!
//! Rules and window readers go through a range cursor
//! ([`sctsdb::Tsdb::range`]), which decodes from the nearest checkpoint
//! and materialises nothing, so what a window close allocates depends on
//! the window, not on how much of the day came before it. The engine
//! sorts its quantiles and holds its rule values in scratch it keeps from
//! window to window. A counting `#[global_allocator]` (the E14 pattern,
//! per thread so the tests can run side by side) holds it to that.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sctsdb::{increase, RecordingRule, RuleEngine, RuleExpr, Series, SeriesId, Tsdb};
use simclock::SimTime;

struct CountingAlloc;

thread_local! {
    static ALLOCATED_BYTES: Cell<u64> = const { Cell::new(0) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: a thread being torn down still allocates.
        let _ = ALLOCATED_BYTES.try_with(|n| n.set(n.get() + layout.size() as u64));
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the bytes this thread requested
/// from the heap meanwhile.
fn bytes_allocated_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATED_BYTES.with(Cell::get);
    let out = f();
    (out, ALLOCATED_BYTES.with(Cell::get) - before)
}

/// Runs `f` and returns its result with the heap allocations this
/// thread made meanwhile.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

const WINDOW: u64 = 50;

/// A store holding two counters and a latency series of `samples`
/// samples each, one per microsecond from 1; and the bounds of its last
/// `WINDOW`-sample window.
fn day(samples: u64) -> (Tsdb, SimTime, SimTime) {
    let mut db = Tsdb::new();
    for i in 1..=samples {
        let at = SimTime::from_micros(i);
        db.record(&SeriesId::new("req_total"), at, i as f64)
            .unwrap();
        db.record(&SeriesId::new("bad_total"), at, (i / 10) as f64)
            .unwrap();
        db.record(&SeriesId::new("lat_ms"), at, (i % 97) as f64)
            .unwrap();
    }
    (
        db,
        SimTime::from_micros(samples - WINDOW),
        SimTime::from_micros(samples),
    )
}

/// The day's rule set: a rate, a ratio of increases and two quantiles.
fn rules() -> RuleEngine {
    let id = SeriesId::new;
    RuleEngine::new()
        .with_rule(RecordingRule::new(
            "job:rps",
            RuleExpr::Rate(id("req_total")),
        ))
        .with_rule(RecordingRule::new(
            "job:bad_fraction",
            RuleExpr::Ratio(
                Box::new(RuleExpr::Increase(id("bad_total"))),
                Box::new(RuleExpr::Increase(id("req_total"))),
            ),
        ))
        .with_rule(RecordingRule::new(
            "job:p50",
            RuleExpr::Quantile(id("lat_ms"), 0.50),
        ))
        .with_rule(RecordingRule::new(
            "job:p99",
            RuleExpr::Quantile(id("lat_ms"), 0.99),
        ))
}

/// Bytes `eval_window` allocates over the last window of a `samples`-long
/// day, once the rule outputs exist.
fn window_close_bytes(samples: u64) -> u64 {
    let (mut db, from, to) = day(samples);
    let rules = rules();
    // The first evaluation creates the four output series.
    let warm_from = SimTime::from_micros(from.as_micros() - WINDOW);
    rules.eval_window(&mut db, warm_from, from);
    let ((), bytes) = bytes_allocated_in(|| rules.eval_window(&mut db, from, to));
    assert_eq!(
        db.samples(&SeriesId::new("job:rps")).last(),
        Some(&(samples, 1e6))
    );
    assert_eq!(
        db.samples(&SeriesId::new("job:p99")).len(),
        2,
        "both windows held samples"
    );
    bytes
}

#[test]
fn a_window_close_allocates_for_the_window_not_the_day() {
    let short = window_close_bytes(1_000);
    let long = window_close_bytes(100_000);
    assert_eq!(
        short, long,
        "eval_window over a {WINDOW}-sample window: {short} B after 1 000 samples, {long} B after 100 000"
    );
    // The outputs' second samples (128 B): the quantiles sort in the
    // engine's scratch, grown by the first window, and the rule values
    // wait in it too. A full decode of one series alone would be 1.6 MB.
    assert!(short <= 256, "{short} B");
}

#[test]
fn a_warm_window_close_allocates_no_scratch() {
    let id = SeriesId::new;
    let quantiles = RuleEngine::new()
        .with_rule(RecordingRule::new(
            "job:p50",
            RuleExpr::Quantile(id("lat_ms"), 0.50),
        ))
        .with_rule(RecordingRule::new(
            "job:p99",
            RuleExpr::Quantile(id("lat_ms"), 0.99),
        ));
    let (mut db, _, _) = day(1_000);
    let mut twin = db.clone();
    let window = |k: u64| {
        (
            SimTime::from_micros(k * WINDOW),
            SimTime::from_micros((k + 1) * WINDOW),
        )
    };
    // The first window creates the outputs and grows the scratch.
    let (from, to) = window(0);
    quantiles.eval_window(&mut db, from, to);
    let ((), rules) = bytes_allocated_in(|| {
        for k in 1..20 {
            let (from, to) = window(k);
            quantiles.eval_window(&mut db, from, to);
        }
    });
    // A twin of the store records the same outputs, read back from it:
    // what the rules allocated beyond that is scratch.
    let outputs = [id("job:p50"), id("job:p99")];
    let samples = outputs.clone().map(|out| db.samples(&out));
    let record = |twin: &mut Tsdb, windows: std::ops::Range<usize>| {
        for (out, samples) in outputs.iter().zip(&samples) {
            for &(t, v) in &samples[windows.clone()] {
                twin.record(out, SimTime::from_micros(t), v).unwrap();
            }
        }
    };
    record(&mut twin, 0..1);
    let ((), recorded) = bytes_allocated_in(|| record(&mut twin, 1..20));
    assert_eq!(twin, db);
    assert_eq!(
        rules, recorded,
        "the rules allocated {rules} B, the outputs {recorded} B"
    );
}

#[test]
fn increase_over_a_cursor_allocates_nothing() {
    let (db, from, to) = day(100_000);
    let id = SeriesId::new("req_total");
    let (f, t) = (from.as_micros(), to.as_micros());
    let (got, bytes) = bytes_allocated_in(|| increase(db.range(&id, f, t), f, t));
    assert_eq!(got, WINDOW as f64);
    assert_eq!(bytes, 0);
}

#[test]
fn a_series_reserves_the_checkpoints_its_samples_fill() {
    // A checkpoint is taken at every 64th sample after the first, so up to
    // 64 samples fill none: the reserve is the sample stream alone. Past
    // 64, the stream and the checkpoint list, and the samples fit both.
    for samples in [1u64, 64, 65, 200] {
        let id = SeriesId::new("lat_ms");
        let (mut series, reserved) = allocations_in(|| Series::with_capacity(id, samples as usize));
        let lists = if samples <= 64 { 1 } else { 2 };
        assert_eq!(reserved, lists, "{samples} samples");
        let ((), filled) = allocations_in(|| {
            for i in 0..samples {
                series.push(i * 1_000, (i % 7) as f64).unwrap();
            }
        });
        assert_eq!(filled, 0, "{samples} samples fill their reserve");
    }
}
