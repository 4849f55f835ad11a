//! Micro-batching with request coalescing for inference serving.
//!
//! City dashboards and camera feeds issue many small inference requests;
//! running them one row at a time wastes the batched kernels `scneural`
//! already has. [`MicroBatcher`] coalesces pending requests and flushes
//! them as one `Sequential::predict_into` call when either knob fires:
//!
//! - **max batch**: `max_batch` *distinct* rows are pending, or
//! - **max delay**: the oldest pending request has waited `max_delay` of
//!   sim-time.
//!
//! Identical pending rows are *coalesced*: the row is computed once and
//! its output fanned out to every waiting request, so a thundering herd
//! on one hot camera frame costs one model evaluation. Rows go in and
//! outputs come out as shared `Arc<[f32]>`: a coalesced waiter, the
//! inference cache and a completion hold the same output row, and a
//! caller that keeps its rows shared submits one without a copy.
//!
//! **Determinism argument.** Every layer in `scneural` computes inference
//! rows independently (`predict_into` is built on that), so the logits
//! for a row do not depend on which batch it rode in — batch sizes 1, 7,
//! and 32 give bit-identical outputs per row, as `tests/
//! serving_equivalence.rs` proves. Batch composition itself is a function
//! of the request arrival sequence only (never of thread count or wall
//! time), so telemetry is reproducible too.

use std::sync::Arc;

use scneural::exec::ExecCtx;
use scneural::net::{Sequential, Workspace};
use scneural::tensor::Tensor;
use simclock::hash::{fnv1a, fnv1a_from, mix64};
use simclock::{SimDuration, SimTime};

/// Batching knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchConfig {
    /// Flush as soon as this many distinct rows are pending (at least 1).
    pub max_batch: usize,
    /// Flush once the oldest pending request has waited this long.
    pub max_delay: SimDuration,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_batch: 32,
            max_delay: SimDuration::from_millis(5),
        }
    }
}

/// Ticket for a submitted inference request, redeemed at flush time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReqId(pub u64);

/// Stable fingerprint of an input row: the FNV/splitmix hash of its f32
/// bit patterns. Used both for coalescing and as the inference-cache key.
/// The bytes hashed are the row's length as a little-endian `u64`, then
/// each value's bits, little-endian, streamed without a buffer.
pub fn row_fingerprint(row: &[f32]) -> u64 {
    let len = fnv1a(&(row.len() as u64).to_le_bytes());
    mix64(
        row.iter()
            .fold(len, |h, v| fnv1a_from(h, &v.to_bits().to_le_bytes())),
    )
}

/// One flushed batch, borrowed from the batcher until its next call: the
/// outputs of the distinct rows evaluated and the requests they answer.
#[derive(Debug, Clone)]
pub struct FlushedBatch<'a> {
    /// `(row fingerprint, output row)` for each distinct row evaluated, in
    /// first-submission order — what the inference cache should absorb.
    pub distinct: &'a [(u64, Arc<[f32]>)],
    /// Every request served, in submission order, with the index of its
    /// output row in `distinct`.
    pub served: &'a [(ReqId, usize)],
    /// When the flush happened.
    pub at: SimTime,
}

impl<'a> FlushedBatch<'a> {
    /// Number of distinct rows evaluated (the model-side batch size).
    pub fn batch_size(&self) -> usize {
        self.distinct.len()
    }

    /// Requests served by this flush (≥ `batch_size` when coalescing won).
    pub fn requests(&self) -> usize {
        self.served.len()
    }

    /// `(request, output row)` pairs in submission order; coalesced
    /// requests share their row.
    pub fn outputs(&self) -> impl Iterator<Item = (ReqId, &'a Arc<[f32]>)> + 'a {
        let distinct = self.distinct;
        self.served.iter().map(move |&(id, i)| (id, &distinct[i].1))
    }
}

/// Coalescing micro-batcher over a shared immutable model.
///
/// # Examples
///
/// ```
/// use scserve::{BatchConfig, MicroBatcher};
/// use scneural::exec::ExecCtx;
/// use scneural::layers::{Dense, Relu};
/// use scneural::net::Sequential;
/// use simclock::{SimDuration, SimTime};
///
/// let net = Sequential::new().with(Dense::new(4, 2, 1)).with(Relu::new());
/// let ctx = ExecCtx::serial();
/// let mut b = MicroBatcher::new(BatchConfig { max_batch: 2, max_delay: SimDuration::from_millis(5) });
/// b.submit(vec![0.1, 0.2, 0.3, 0.4], SimTime::ZERO);
/// assert!(!b.due(SimTime::ZERO), "below both knobs");
/// b.submit(vec![0.4, 0.3, 0.2, 0.1], SimTime::ZERO);
/// assert!(b.due(SimTime::ZERO));
/// let batch = b.flush_now(&net, &ctx, SimTime::ZERO).unwrap();
/// assert_eq!(batch.batch_size(), 2);
/// ```
#[derive(Debug)]
pub struct MicroBatcher {
    cfg: BatchConfig,
    /// Distinct pending rows in first-submission order.
    rows: Vec<(u64, Arc<[f32]>)>,
    /// Every pending request, with the index of its row in `rows`, in
    /// submission order.
    waiters: Vec<(ReqId, usize)>,
    /// The model's input, its workspace and its output, reshaped by each
    /// flush.
    input: Tensor,
    workspace: Workspace,
    output: Tensor,
    /// The last flush's [`FlushedBatch::distinct`] and
    /// [`FlushedBatch::served`]. Every buffer here is cleared, not
    /// dropped, so a warm batcher submits and flushes without allocating
    /// for them.
    distinct: Vec<(u64, Arc<[f32]>)>,
    served: Vec<(ReqId, usize)>,
    oldest: Option<SimTime>,
    next_req: u64,
    flushes: u64,
    coalesced: u64,
}

impl MicroBatcher {
    /// An empty batcher with the given knobs.
    pub fn new(cfg: BatchConfig) -> Self {
        MicroBatcher {
            cfg: BatchConfig {
                max_batch: cfg.max_batch.max(1),
                ..cfg
            },
            rows: Vec::new(),
            waiters: Vec::new(),
            input: Tensor::default(),
            workspace: Workspace::default(),
            output: Tensor::default(),
            distinct: Vec::new(),
            served: Vec::new(),
            oldest: None,
            next_req: 0,
            flushes: 0,
            coalesced: 0,
        }
    }

    /// `(flushes, coalesced_requests)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.flushes, self.coalesced)
    }

    /// Queues a row for the next batch, coalescing onto an identical
    /// pending row if one exists. Returns the request's ticket. An
    /// `Arc<[f32]>` row is shared, not copied; a `Vec<f32>` is copied into
    /// one.
    pub fn submit(&mut self, row: impl Into<Arc<[f32]>>, now: SimTime) -> ReqId {
        let row = row.into();
        let id = ReqId(self.next_req);
        self.next_req += 1;
        let fp = row_fingerprint(&row);
        let index = match self.rows.iter().position(|(f, _)| *f == fp) {
            Some(index) => {
                self.coalesced += 1;
                index
            }
            None => {
                self.rows.push((fp, row));
                self.rows.len() - 1
            }
        };
        self.waiters.push((id, index));
        self.oldest.get_or_insert(now);
        id
    }

    /// Whether a `width`-wide row may join the pending batch, which is one
    /// `[rows, width]` input: the width of the rows already pending, or,
    /// with none pending, a width `model` plans. The plan goes into the
    /// workspace the next flush plans into, so a warm batcher allocates
    /// nothing here.
    pub fn takes_width(&mut self, model: &Sequential, width: usize) -> bool {
        match self.rows.first() {
            Some((_, row)) => row.len() == width,
            None => model.plan_in(&[1, width], &mut self.workspace).is_ok(),
        }
    }

    /// Whether a flush is due at `now` (either knob fired).
    pub fn due(&self, now: SimTime) -> bool {
        if self.rows.len() >= self.cfg.max_batch {
            return true;
        }
        match self.oldest {
            Some(t) => now.saturating_since(t) >= self.cfg.max_delay,
            None => false,
        }
    }

    /// When the delay knob will fire for the current pending set, if any.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.oldest.map(|t| t + self.cfg.max_delay)
    }

    /// Evaluates every pending distinct row as one batched
    /// `predict_into` call on the batcher's own workspace and fans outputs
    /// back out to all waiters. Returns `None` when nothing is pending.
    ///
    /// A warm batcher allocates one shared output row per distinct row and
    /// nothing for the forward pass.
    ///
    /// # Panics
    ///
    /// Panics with the `PlanError`'s `Display` if the model refuses the
    /// rows' width.
    pub fn flush_now(
        &mut self,
        model: &Sequential,
        ctx: &ExecCtx,
        now: SimTime,
    ) -> Option<FlushedBatch<'_>> {
        if self.rows.is_empty() {
            return None;
        }
        self.oldest = None;
        self.flushes += 1;

        let rows = &self.rows;
        let dim = rows[0].1.len();
        debug_assert!(rows.iter().all(|(_, r)| r.len() == dim));
        self.input.resize_to(&[rows.len(), dim]);
        for (i, (_, r)) in rows.iter().enumerate() {
            self.input.data_mut()[i * dim..][..dim].copy_from_slice(r);
        }
        let (input, out) = (&self.input, &mut self.output);
        model
            .predict_into(input, ctx, &mut self.workspace, out)
            .unwrap_or_else(|e| panic!("{e}"));
        let out = &self.output;
        let out_dim = out.len() / rows.len();

        self.distinct.clear();
        self.distinct
            .extend(rows.iter().enumerate().map(|(i, (fp, _))| {
                let output = &out.data()[i * out_dim..(i + 1) * out_dim];
                (*fp, Arc::from(output))
            }));
        self.rows.clear();
        // Waiters were pushed in ticket order, so `served` is in
        // submission order.
        self.served.clear();
        self.served.append(&mut self.waiters);
        Some(FlushedBatch {
            distinct: &self.distinct,
            served: &self.served,
            at: now,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scneural::layers::{Dense, Relu};

    fn net() -> Sequential {
        Sequential::new()
            .with(Dense::new(3, 8, 11))
            .with(Relu::new())
            .with(Dense::new(8, 2, 12))
    }

    fn row(seed: u64) -> Vec<f32> {
        (0..3)
            .map(|i| ((seed * 31 + i) % 17) as f32 / 17.0)
            .collect()
    }

    #[test]
    fn max_batch_triggers_flush() {
        let net = net();
        let mut b = MicroBatcher::new(BatchConfig {
            max_batch: 3,
            max_delay: SimDuration::from_secs(1),
        });
        b.submit(row(1), SimTime::ZERO);
        b.submit(row(2), SimTime::ZERO);
        assert!(!b.due(SimTime::ZERO));
        b.submit(row(3), SimTime::ZERO);
        assert!(b.due(SimTime::ZERO));
        let batch = b
            .flush_now(&net, &ExecCtx::serial(), SimTime::ZERO)
            .unwrap();
        assert_eq!(batch.batch_size(), 3);
        assert_eq!(batch.requests(), 3);
        assert!(b.rows.is_empty());
    }

    #[test]
    fn max_delay_triggers_flush() {
        let net = net();
        let mut b = MicroBatcher::new(BatchConfig {
            max_batch: 100,
            max_delay: SimDuration::from_millis(5),
        });
        b.submit(row(1), SimTime::from_millis(10));
        assert!(!b.due(SimTime::from_millis(14)));
        assert!(b.due(SimTime::from_millis(15)));
        assert_eq!(b.next_deadline(), Some(SimTime::from_millis(15)));
        let batch = b
            .flush_now(&net, &ExecCtx::serial(), SimTime::from_millis(15))
            .unwrap();
        assert_eq!(batch.batch_size(), 1);
    }

    #[test]
    fn identical_rows_coalesce() {
        let net = net();
        let mut b = MicroBatcher::new(BatchConfig {
            max_batch: 2,
            max_delay: SimDuration::from_secs(1),
        });
        let a = b.submit(row(1), SimTime::ZERO);
        let dup = b.submit(row(1), SimTime::ZERO);
        assert_eq!(b.rows.len(), 1, "identical row coalesces");
        b.submit(row(2), SimTime::ZERO);
        assert!(b.due(SimTime::ZERO));
        let batch = b
            .flush_now(&net, &ExecCtx::serial(), SimTime::ZERO)
            .unwrap();
        assert_eq!(batch.batch_size(), 2, "two distinct rows evaluated");
        assert_eq!(batch.requests(), 3, "three requests served");
        let out_a = batch.outputs().find(|(id, _)| *id == a).unwrap().1;
        let out_dup = batch.outputs().find(|(id, _)| *id == dup).unwrap().1;
        assert!(Arc::ptr_eq(out_a, out_dup), "one output row, shared");
        assert!(Arc::ptr_eq(out_a, &batch.distinct[0].1));
        let ids: Vec<u64> = batch.outputs().map(|(id, _)| id.0).collect();
        assert_eq!(ids, [0, 1, 2], "outputs in submission order");
        assert_eq!(b.stats().1, 1, "one request coalesced");
        // The next batch starts empty.
        b.submit(row(3), SimTime::ZERO);
        let next = b
            .flush_now(&net, &ExecCtx::serial(), SimTime::ZERO)
            .unwrap();
        assert_eq!((next.batch_size(), next.requests()), (1, 1));
        assert_eq!(next.outputs().next().unwrap().0, ReqId(3));
    }

    /// The inference cache and coalescing are keyed by the fingerprint:
    /// these values were computed by the buffered hash it replaced.
    #[test]
    fn row_fingerprints_are_pinned() {
        let nan = f32::from_bits(0x7fc0_0000);
        assert_eq!(row_fingerprint(&[]), 0x5ba3_14b8_cfda_3b6b);
        assert_eq!(row_fingerprint(&[0.0, -0.0]), 0xdab6_0e30_e746_4cd0);
        assert_eq!(
            row_fingerprint(&[1.5, nan, f32::INFINITY]),
            0x1045_656e_d215_1aeb
        );
        let mut rng = simclock::SeededRng::new(42);
        let row = &crate::workload::feature_rows(&mut rng, 1, 16)[0];
        assert_eq!(row_fingerprint(row), 0x9d20_ff9c_1146_3a2d);
    }

    #[test]
    fn batched_equals_single_row() {
        let net = net();
        let ctx = ExecCtx::serial();
        let rows: Vec<Vec<f32>> = (0..7).map(row).collect();
        let mut b = MicroBatcher::new(BatchConfig {
            max_batch: 7,
            max_delay: SimDuration::from_secs(1),
        });
        let ids: Vec<ReqId> = rows
            .iter()
            .map(|r| b.submit(r.clone(), SimTime::ZERO))
            .collect();
        let batch = b.flush_now(&net, &ctx, SimTime::ZERO).unwrap();
        for (id, r) in ids.iter().zip(&rows) {
            let single = net.predict_ctx(
                &Tensor::from_vec(vec![1, r.len()], r.clone()).unwrap(),
                &ctx,
            );
            let batched = batch.outputs().find(|(i, _)| i == id).unwrap().1;
            let same = single
                .data()
                .iter()
                .zip(batched.iter())
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "batched row diverged from single-row inference");
        }
    }

    #[test]
    fn empty_flush_is_none() {
        let net = net();
        let mut b = MicroBatcher::new(BatchConfig::default());
        assert!(b
            .flush_now(&net, &ExecCtx::serial(), SimTime::ZERO)
            .is_none());
    }
}
