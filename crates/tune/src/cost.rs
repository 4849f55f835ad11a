//! Seeded analytic cost model — the default candidate scorer.
//!
//! The model prices a schedule in *model nanoseconds*: nominal FLOP and
//! byte-stream costs for the useful work, a fixed dispatch charge per scpar
//! task, and a round-robin assignment of tasks to workers (the fan-out
//! finishes when the busiest worker does). It is a caricature of the real
//! machine, and that is the point: the same inputs produce the same scores
//! on every host, so CI can regenerate and verify the committed table
//! bit-for-bit. Hosts that want real numbers run `tune_gen --measure`
//! instead (median-of-N wall clock) and commit the measured winners.
//!
//! The `seed` feeds a parts-per-billion multiplicative jitter whose only
//! job is to make *exact* score ties astronomically unlikely while leaving
//! every meaningful comparison untouched; the final tie-break (smaller
//! candidate wins) is explicit in the generator regardless.

use crate::key::{KernelId, TuneKey};

/// Dispatch cost of one task submitted to the scpar pool, model ns.
const DISPATCH_NS: f64 = 20_000.0;
/// Loop/closure overhead per task on the inline (serial) path, model ns.
const SERIAL_TASK_NS: f64 = 200.0;
/// One f32 FLOP, model ns (≈2 GFLOP/s scalar).
const FLOP32_NS: f64 = 0.5;
/// One f64 FLOP, model ns.
const FLOP64_NS: f64 = 1.0;
/// One streamed byte, model ns (≈16 GB/s).
const BYTE_NS: f64 = 0.0625;
/// Per-row inference cost proxy, model ns per input element: stands in
/// for the hidden layers the key cannot see.
const PREDICT_ROW_FACTOR_NS: f64 = 128.0;
/// Tensor assembly cost per predict chunk, model ns.
const PREDICT_TASK_NS: f64 = 512.0;
/// Partial-sum allocation cost per k-means task, model ns per k·dim slot.
const KMEANS_ALLOC_NS: f64 = 8.0;
/// Fixed cost of waking one micro-batch flush, model ns.
const FLUSH_BASE_NS: f64 = 100_000.0;
/// Queue-fill wait per additional pending row in a flush, model ns.
const FILL_WAIT_NS: f64 = 300.0;

/// Deterministic analytic scorer for one `(TuneKey, candidate)` pair.
///
/// Lower scores are better. See the module docs for what the model
/// charges; see [`crate::candidates`] for the ladders it ranks.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    seed: u64,
}

impl CostModel {
    /// A model whose tie-breaking jitter is derived from `seed`.
    pub fn new(seed: u64) -> CostModel {
        CostModel { seed }
    }

    /// The seed this model was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Model cost (ns) of running `key`'s kernel with the candidate value.
    ///
    /// Mirrors the real code paths: one inline call when the schedule
    /// collapses to a single task (a panel at least as tall as the matrix
    /// takes the serial branch), round-robin fan-out otherwise.
    pub fn score(&self, key: &TuneKey, candidate: usize) -> f64 {
        let c = candidate.max(1) as u64;
        let dims = key.dims();
        let threads = key.threads();
        let base = match key.kernel() {
            KernelId::MatmulF32 | KernelId::MatmulF64 => {
                let (m, k, n) = (dims[0], dims[1], dims[2]);
                let (flop, esize) = if key.kernel() == KernelId::MatmulF32 {
                    (FLOP32_NS, 4.0)
                } else {
                    (FLOP64_NS, 8.0)
                };
                let per_row = 2.0 * (k * n) as f64 * flop;
                // Every task streams the whole B matrix.
                let per_task = (k * n) as f64 * esize * BYTE_NS;
                fanout_ns(m, c, threads, per_row, per_task)
            }
            KernelId::Predict => {
                let (rows, row_elems) = (dims[0], dims[1]);
                let per_row = row_elems as f64 * PREDICT_ROW_FACTOR_NS;
                fanout_ns(rows, c, threads, per_row, PREDICT_TASK_NS)
            }
            KernelId::Kmeans => {
                let (points, dim, k) = (dims[0], dims[1], dims[2]);
                let cells = points.div_ceil(256).max(1);
                let per_cell = 256.0 * 3.0 * (dim * k) as f64 * FLOP64_NS;
                let per_task = (dim * k) as f64 * KMEANS_ALLOC_NS;
                fanout_ns(cells, c, threads, per_cell, per_task)
            }
            KernelId::MicroBatch => {
                // Amortized per-request cost: flush overhead spread over
                // the batch, the row's own work, and the expected wait for
                // the batch to fill.
                let params = dims[0] as f64;
                let b = c as f64;
                let flush = FLUSH_BASE_NS + params * 0.25;
                flush / b + 2.0 * params * FLOP32_NS + FILL_WAIT_NS * (b - 1.0) / 2.0
            }
        };
        base * (1.0 + self.jitter(key, candidate) * 1e-9)
    }

    /// Seeded jitter in `[0, 1)` for `(key, candidate)`.
    fn jitter(&self, key: &TuneKey, candidate: usize) -> f64 {
        // FNV-1a over the canonical key. A local copy (like `splitmix64`
        // below) rather than `simclock::hash`: sctune depends on no
        // workspace crate.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in key.canonical().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let z = splitmix64(self.seed ^ h ^ (candidate as u64).wrapping_mul(0x9e37));
        (z >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Model time of fanning `units` of work out in `chunk`-unit tasks over
/// `threads` round-robin workers.
fn fanout_ns(units: u64, chunk: u64, threads: u64, per_unit_ns: f64, per_task_ns: f64) -> f64 {
    let chunk = chunk.max(1);
    let units = units.max(1);
    let tasks = units.div_ceil(chunk);
    if threads <= 1 || tasks <= 1 {
        // Inline path: no pool dispatch. Multi-task serial execution (the
        // k-means chunk loop) still pays a small per-task loop cost.
        let loop_cost = if tasks > 1 {
            SERIAL_TASK_NS * tasks as f64
        } else {
            0.0
        };
        return units as f64 * per_unit_ns + per_task_ns * tasks as f64 + loop_cost;
    }
    let mut worker = vec![0.0f64; threads as usize];
    let mut remaining = units;
    let mut i = 0usize;
    while remaining > 0 {
        let u = remaining.min(chunk);
        worker[i % threads as usize] += DISPATCH_NS + per_task_ns + u as f64 * per_unit_ns;
        remaining -= u;
        i += 1;
    }
    worker.iter().copied().fold(0.0, f64::max)
}

/// splitmix64 step, the repo's stock seeding mixer.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::candidates;

    fn best(model: &CostModel, key: &TuneKey) -> usize {
        candidates(key.kernel())
            .iter()
            .copied()
            .min_by(|&a, &b| {
                model
                    .score(key, a)
                    .total_cmp(&model.score(key, b))
                    .then(a.cmp(&b))
            })
            .unwrap()
    }

    #[test]
    fn scores_are_deterministic_per_seed() {
        let key = TuneKey::matmul_f32(512, 512, 512, 4, "any");
        let a = CostModel::new(42);
        let b = CostModel::new(42);
        assert_eq!(a.score(&key, 64).to_bits(), b.score(&key, 64).to_bits());
        // A different seed moves only the ppb jitter, never the ranking.
        let c = CostModel::new(7);
        assert_eq!(best(&a, &key), best(&c, &key));
    }

    #[test]
    fn overhead_dominated_shapes_prefer_tall_panels() {
        // 8192×16 times 16×16 at two threads: per-task work is tiny, so
        // the dispatch charge dominates and the tallest panel must win.
        let model = CostModel::new(42);
        let key = TuneKey::matmul_f64(8192, 16, 16, 2, "any");
        assert_eq!(best(&model, &key), 256);
    }

    #[test]
    fn balanced_square_shapes_prefer_even_fanout() {
        // 512³ on 4 threads: 4 tasks of 128 rows fill every worker with
        // one dispatch each — finer panels only add dispatch, and 256-row
        // panels idle half the pool.
        let model = CostModel::new(42);
        let key = TuneKey::matmul_f32(512, 512, 512, 4, "any");
        assert_eq!(best(&model, &key), 128);
    }

    #[test]
    fn serial_kmeans_prefers_coarse_tasks() {
        let model = CostModel::new(42);
        let key = TuneKey::kmeans(10_000, 8, 16, 1);
        assert_eq!(best(&model, &key), 16);
    }

    #[test]
    fn micro_batch_optimum_is_interior() {
        let model = CostModel::new(42);
        let key = TuneKey::micro_batch(41_608);
        let b = best(&model, &key);
        let ladder = candidates(KernelId::MicroBatch);
        assert_ne!(b, ladder[0], "flush amortization should beat batch=8");
        assert_ne!(b, *ladder.last().unwrap(), "fill wait should cap the batch");
    }
}
