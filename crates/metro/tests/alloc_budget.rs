//! Allocation budget of the whole city day, call by call.
//!
//! A day's requests flow through ingest (scstream), the archive (scdfs),
//! serving (scserve) and accounting (sctsdb); what they allocate per
//! request is citybench's `allocs_per_op`. The keys and query filters are
//! built once, a send shares its key and its window's one payload and is
//! stored under a typed stamp without a copy, an inference shares its row
//! and its output, a write's reading names its fields with literals, the
//! server keeps the keyspace's own keys with their placements inline, a
//! miss walks each shard's index bucket in place, an archived block's
//! replicas share one copy, an answered latency is a count in a fixed
//! bucketed histogram, and the per-window scans, the archive digest and
//! placement, the serving tier's routes and miss rows, the rule engine
//! and the micro-batcher reuse their buffers, so that count is a budget a
//! regression has to break here, in `cargo test`.
//!
//! The day runs under a probe that brackets each of its layer calls
//! ([`DayOp`]) with the counter, in the same run that reads the whole-day
//! count: what the whole day counted outside the calls is the remainder,
//! the whole day is pinned exactly, and each call and the remainder have a
//! budget of their own. Like citybench, the whole day counts every
//! allocation and reallocation made while `MetroSim::new(cfg)` and the run
//! execute, planning included (as [`DayOp::Plan`]), and divides by the
//! requests the day sampled.
//!
//! The counter is `sctelemetry::CountingAlloc`, the one counting allocator,
//! read process-wide (`AllocCount::process`), not per thread: a day may run
//! pool threads. So this target has no test harness (`harness = false` in
//! `Cargo.toml`): its `main` runs the one check on the main thread, and no
//! libtest thread allocates beside it (libtest's main thread allocates as
//! it sets up its wait, and on some runs that landed inside the first
//! day). `cargo test --release -p scmetro --test alloc_budget` prints the
//! per-call table PERF.md quotes.

use scmetro::{DayOp, MetroConfig, MetroSim};
use scneural::tensor::Tensor;
use sctelemetry::{counted, CountingAlloc, Probe};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const OPS: usize = DayOp::NAMES.len();

/// Counts the allocations inside each bracketed call. Its own
/// bookkeeping allocates nothing.
struct Ledger([u64; OPS]);

impl Probe<DayOp> for Ledger {
    fn time<R>(&mut self, op: DayOp, f: impl FnOnce() -> R) -> R {
        let (out, heap) = counted(f);
        self.0[op as usize] += heap.process;
        out
    }
}

/// One day's allocations per sampled request: by call, the remainder
/// between calls, and the whole day.
struct PerRequest {
    by_op: [f64; OPS],
    remainder: f64,
    whole: f64,
}

/// Runs one day under `cfg` through the ledger.
fn day(cfg: MetroConfig) -> PerRequest {
    let mut ledger = Ledger([0; OPS]);
    let ((report, _flight), whole) = counted(|| {
        let sim = ledger.time(DayOp::Plan, || MetroSim::new(cfg));
        sim.run_observed(&mut ledger)
    });
    let whole = whole.process;
    let inside: u64 = ledger.0.iter().sum();
    let remainder = whole - inside;
    let requests = report.sampled_requests as f64;
    assert!(requests > 0.0);
    PerRequest {
        by_op: ledger.0.map(|n| n as f64 / requests),
        remainder: remainder as f64 / requests,
        whole: whole as f64 / requests,
    }
}

/// A mix's pins: the allocations per request each call read when it was
/// pinned (debug and release read the same), and the day's.
struct Pins {
    calls: [(DayOp, f64); OPS],
    remainder: f64,
    /// The whole day, exactly.
    whole: f64,
    /// The whole day's budget; every other pin gets the headroom the
    /// budget has over the whole day.
    budget: f64,
}

/// citybench's `city_day`.
const HOT: Pins = Pins {
    calls: [
        (DayOp::Send, 0.0040),
        (DayOp::Audit, 0.0026),
        (DayOp::Archive, 0.0634),
        (DayOp::Put, 0.1194),
        (DayOp::Get, 0.4114),
        (DayOp::Query, 0.2476),
        (DayOp::InferSubmit, 0.0034),
        (DayOp::NextDeadline, 0.0),
        (DayOp::Tick, 0.3946),
        (DayOp::Drain, 0.0),
        (DayOp::Build, 0.0146),
        (DayOp::Record, 0.0042),
        (DayOp::WindowClose, 0.0022),
        (DayOp::Distil, 0.0016),
        (DayOp::Plan, 0.0014),
        (DayOp::Control, 0.0798),
    ],
    remainder: 0.2564,
    whole: 1.6066,
    budget: 1.88,
};

/// citybench's `city_day_churn`.
const CHURN: Pins = Pins {
    calls: [
        (DayOp::Send, 0.0110),
        (DayOp::Audit, 0.0120),
        // 318 allocations over the day's 1 000 requests; clippy reads the
        // literal 0.318 as an approximation of 1/π.
        (DayOp::Archive, 318.0 / 1_000.0),
        (DayOp::Put, 4.1750),
        (DayOp::Get, 0.2590),
        (DayOp::Query, 0.4580),
        (DayOp::InferSubmit, 0.0070),
        (DayOp::NextDeadline, 0.0),
        (DayOp::Tick, 0.1230),
        (DayOp::Drain, 0.0),
        (DayOp::Build, 0.0730),
        (DayOp::Record, 0.0210),
        (DayOp::WindowClose, 0.0110),
        (DayOp::Distil, 0.0080),
        (DayOp::Plan, 0.0070),
        (DayOp::Control, 2.3070),
    ],
    remainder: 7.2270,
    whole: 15.0170,
    budget: 15.9,
};

/// Asserts the day `got` of `mix` within `pins`.
fn assert_within(mix: &str, got: &PerRequest, pins: &Pins) {
    let headroom = pins.budget / pins.whole;
    for (i, &(op, pinned)) in pins.calls.iter().enumerate() {
        assert_eq!(op as usize, i, "{mix}: pins follow `DayOp::NAMES`");
        let read = got.by_op[i];
        assert!(
            read <= pinned * headroom,
            "{mix}: {} allocates {read:.4} per request, pinned at {pinned} (+{:.1} %)",
            op.name(),
            (headroom - 1.0) * 100.0
        );
    }
    assert!(
        got.remainder <= pins.remainder * headroom,
        "{mix}: {:.4} allocations per request between the calls, pinned at {}",
        got.remainder,
        pins.remainder
    );
    assert_eq!(
        got.whole, pins.whole,
        "{mix}: {:.4} allocations per request, pinned at {} exactly",
        got.whole, pins.whole
    );
}

/// libtest's name for the one check, for `--list`.
const NAME: &str = "a_city_day_allocates_within_its_budget_per_request";

fn main() {
    if std::env::args().any(|arg| arg == "--list") {
        println!("{NAME}: test");
        return;
    }
    a_city_day_allocates_within_its_budget_per_request();
    println!("test {NAME} ... ok");
}

fn a_city_day_allocates_within_its_budget_per_request() {
    // Resolve the process-wide SIMD backend before counting: reading
    // `SCSIMD_FORCE` allocates once per process when it is set, and that
    // belongs to no day (it landed in the first day's first tick).
    let one = Tensor::zeros(vec![1, 1]);
    one.matmul(&one).expect("1×1 shapes agree");
    // citybench's `city_day`: a hot 200-key set, 5 % writes.
    let hot = day(MetroConfig {
        sample_total: 5_000,
        keyspace: 200,
        skew: 1.0,
        write_fraction: 0.05,
        infer_fraction: 0.2,
        ..MetroConfig::default()
    });
    // citybench's `city_day_churn`: half writes over a flat 2 000 keys.
    let churn = day(MetroConfig {
        sample_total: 1_000,
        keyspace: 2_000,
        skew: 0.2,
        write_fraction: 0.5,
        infer_fraction: 0.05,
        ..MetroConfig::default()
    });

    println!("| call | `city_day` | `city_day_churn` |");
    println!("|---|---|---|");
    for (i, name) in DayOp::NAMES.iter().enumerate() {
        println!("| `{name}` | {:.4} | {:.4} |", hot.by_op[i], churn.by_op[i]);
    }
    println!(
        "| between the calls | {:.4} | {:.4} |",
        hot.remainder, churn.remainder
    );
    println!(
        "| **total** | **{:.4}** | **{:.4}** |",
        hot.whole, churn.whole
    );

    assert_within("city_day", &hot, &HOT);
    assert_within("city_day_churn", &churn, &CHURN);
}
