//! Early-exit (device/server split) inference — the architecture of Figs. 5
//! and 7.
//!
//! The paper splits a model between a local device (edge/fog node) and an
//! analysis server: a *front* backbone and a cheap *exit head* run locally;
//! if the exit head's prediction is not confident enough, the feature map
//! "obtained before the branch is sent to the analysis server in which it
//! goes through the remaining ... layers". [`EarlyExitNet`] reproduces that
//! shape for any backbone, with both the confidence policy of Fig. 5 and the
//! entropy policy of Fig. 7.

use crate::exec::ExecCtx;
use crate::layers::{entropy, Layer, PlanError};
use crate::loss::softmax_cross_entropy;
use crate::net::{Sequential, Workspace};
use crate::optim::Adam;
use crate::serialize::{self, LoadError};
use crate::tensor::{argmax, Tensor};

/// When to accept the local exit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExitPolicy {
    /// Exit locally when the top class probability is at least this value
    /// (Fig. 5: "if the score of the classification is higher than a
    /// predefined threshold").
    Confidence(f32),
    /// Exit locally when the prediction entropy (nats) is at most this value
    /// (Fig. 7 uses an entropy score on Output 1).
    Entropy(f32),
}

/// Where a sample's final prediction was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExitPoint {
    /// Accepted at the local (device) exit head.
    Local,
    /// Escalated to the analysis server's full network.
    Server,
}

/// Per-sample outcome of an early-exit inference.
#[derive(Debug, Clone, PartialEq)]
pub struct ExitDecision {
    /// Which path produced the prediction.
    pub exit: ExitPoint,
    /// Predicted class.
    pub class: usize,
    /// Top-class probability of the accepted prediction.
    pub confidence: f32,
    /// Entropy (nats) of the *local* head's distribution (the quantity the
    /// policy inspected).
    pub local_entropy: f32,
    /// Bytes of feature map that were (or would have been) shipped upstream;
    /// zero for local exits.
    pub feature_bytes: usize,
}

/// A network split into a locally executed front + exit head and a
/// server-side remainder + final head.
///
/// # Examples
///
/// ```
/// use scneural::early_exit::{EarlyExitNet, ExitPolicy};
/// use scneural::exec::ExecCtx;
/// use scneural::layers::{Dense, Relu};
/// use scneural::net::Sequential;
/// use scneural::tensor::Tensor;
///
/// let net = EarlyExitNet::new(
///     Sequential::new().with(Dense::new(4, 8, 0)).with(Relu::new()),
///     Sequential::new().with(Dense::new(8, 3, 1)),
///     Sequential::new().with(Dense::new(8, 8, 2)).with(Relu::new()),
///     Sequential::new().with(Dense::new(8, 3, 3)),
///     ExitPolicy::Confidence(0.99),
/// );
/// let decisions = net.infer_ctx(&Tensor::full(vec![2, 4], 1.0), &ExecCtx::serial());
/// assert_eq!(decisions.len(), 2);
/// ```
#[derive(Debug)]
pub struct EarlyExitNet {
    front: Sequential,
    exit_head: Sequential,
    rest: Sequential,
    final_head: Sequential,
    policy: ExitPolicy,
}

/// What [`EarlyExitNet::infer_into`] writes besides the decisions: the
/// shared [`Workspace`] its four segments run on, their outputs, and the
/// list and the gathered feature maps of the escalated rows. Each buffer
/// is reshaped, not dropped, so a warm workspace makes a batch allocate
/// nothing but its decisions. The caller that serves owns one; the net
/// stays `&self`.
#[derive(Debug, Default)]
pub struct ExitWorkspace {
    net: Workspace,
    features: Tensor,
    local: Tensor,
    escalate: Vec<usize>,
    gathered: Tensor,
    deep: Tensor,
    server: Tensor,
}

/// Softmax in place over the rows of a 2-D `logits`, and its column count.
///
/// # Panics
///
/// Panics if `logits` is not 2-D or has no columns: a head of no classes.
fn softmax_in_place(logits: &mut Tensor) -> usize {
    let c = logits.cols(); // asserts 2-D
    assert!(c > 0, "a head of no classes");
    scsimd::softmax_rows_f32(logits.data_mut(), c, scsimd::Isa::active());
    c
}

impl EarlyExitNet {
    /// Assembles a split network. `front` feeds both `exit_head` (local
    /// prediction) and `rest` → `final_head` (server prediction).
    pub fn new(
        front: Sequential,
        exit_head: Sequential,
        rest: Sequential,
        final_head: Sequential,
        policy: ExitPolicy,
    ) -> Self {
        EarlyExitNet {
            front,
            exit_head,
            rest,
            final_head,
            policy,
        }
    }

    /// Replaces the exit policy (e.g. for a threshold sweep).
    pub fn set_policy(&mut self, policy: ExitPolicy) {
        self.policy = policy;
    }

    /// Total trainable parameters in the local part (front + exit head) —
    /// what must fit on the edge/fog device.
    pub fn local_param_count(&self) -> usize {
        self.front.param_count() + self.exit_head.param_count()
    }

    /// Total trainable parameters in the server part.
    pub fn server_param_count(&self) -> usize {
        self.rest.param_count() + self.final_head.param_count()
    }

    fn policy_accepts(&self, confidence: f32, entropy: f32) -> bool {
        match self.policy {
            ExitPolicy::Confidence(min) => confidence >= min,
            ExitPolicy::Entropy(max) => entropy <= max,
        }
    }

    /// Runs split inference on a batch under an [`ExecCtx`], deciding per
    /// sample whether the local exit suffices or the feature map must go
    /// upstream; batch chunks fan out on the `scpar` worker pool. An empty
    /// batch yields no decisions. This is [`EarlyExitNet::infer_into`] into
    /// a fresh workspace.
    ///
    /// # Panics
    ///
    /// Panics with the [`PlanError`]'s `Display` if a segment refuses its
    /// input's shape.
    pub fn infer_ctx(&self, input: &Tensor, ctx: &ExecCtx) -> Vec<ExitDecision> {
        let mut decisions = Vec::new();
        self.infer_into(input, ctx, &mut ExitWorkspace::default(), &mut decisions)
            .unwrap_or_else(|e| panic!("{e}"));
        decisions
    }

    /// Split inference into `decisions` (cleared first, one per row), with
    /// every intermediate in `ws`: the front's feature map, the local head's
    /// probabilities (its logits, softmaxed in place), the escalated rows
    /// gathered into the workspace (or the feature map itself when every
    /// row escalates) and the server part's probabilities. A warm `ws`
    /// allocates nothing; `decisions` grows to the batch.
    ///
    /// Every segment runs through [`Sequential::predict_into`], whose
    /// fixed row-chunking makes every per-sample probability — and therefore
    /// every exit decision — bit-identical to the serial path and to the
    /// row run alone.
    ///
    /// # Errors
    ///
    /// The [`PlanError`] of the first segment that refuses its input's
    /// shape.
    pub fn infer_into(
        &self,
        input: &Tensor,
        ctx: &ExecCtx,
        ws: &mut ExitWorkspace,
        decisions: &mut Vec<ExitDecision>,
    ) -> Result<(), PlanError> {
        decisions.clear();
        let n = input.shape().first().copied().unwrap_or(0);
        if n == 0 {
            return Ok(());
        }
        let ExitWorkspace {
            net,
            features,
            local,
            escalate,
            gathered,
            deep,
            server,
        } = ws;
        self.front.predict_into(input, ctx, net, features)?;
        self.exit_head.predict_into(features, ctx, net, local)?;
        let c = softmax_in_place(local);
        let row_len = features.len() / n;
        escalate.clear();
        for (i, probs) in local.data().chunks_exact(c).enumerate() {
            let class = argmax(probs);
            let (confidence, local_entropy) = (probs[class], entropy(probs));
            let (exit, feature_bytes) = if self.policy_accepts(confidence, local_entropy) {
                (ExitPoint::Local, 0)
            } else {
                escalate.push(i); // its class is the server part's, below
                (ExitPoint::Server, row_len * std::mem::size_of::<f32>())
            };
            decisions.push(ExitDecision {
                exit,
                class,
                confidence,
                local_entropy,
                feature_bytes,
            });
        }
        if escalate.is_empty() {
            return Ok(());
        }
        let shipped = if escalate.len() < n {
            gathered.gather_rows(features, escalate);
            &*gathered
        } else {
            &*features // every row escalated: ship the feature map as it is
        };
        self.rest.predict_into(shipped, ctx, net, deep)?;
        self.final_head.predict_into(deep, ctx, net, server)?;
        let c = softmax_in_place(server);
        for (&i, probs) in escalate.iter().zip(server.data().chunks_exact(c)) {
            let class = argmax(probs);
            decisions[i].class = class;
            decisions[i].confidence = probs[class];
        }
        Ok(())
    }

    /// Jointly trains both exits: `loss = w_local * L(exit) + w_server *
    /// L(final)`, `L` the softmax cross-entropy. Returns `(local_loss,
    /// server_loss)`.
    pub fn train_step(
        &mut self,
        input: &Tensor,
        classes: &[usize],
        optimizer: &mut Adam,
        local_weight: f32,
    ) -> (f32, f32) {
        let features = self.front.forward(input);

        let local_logits = self.exit_head.forward(&features);
        let (l_local, g_local) = softmax_cross_entropy(&local_logits, classes);

        let deep = self.rest.forward(&features);
        let final_logits = self.final_head.forward(&deep);
        let (l_server, g_server) = softmax_cross_entropy(&final_logits, classes);

        // Backward through both heads into the shared feature map.
        let g_feat_local = self.exit_head.backward(&g_local.scale(local_weight));
        let g_deep = self.final_head.backward(&g_server);
        let g_feat_server = self.rest.backward(&g_deep);
        let g_feat = g_feat_local
            .add(&g_feat_server)
            .expect("both feature-shaped");
        self.front.backward(&g_feat);

        let mut params = self.front.params_mut();
        params.extend(self.exit_head.params_mut());
        params.extend(self.rest.params_mut());
        params.extend(self.final_head.params_mut());
        optimizer.step(params);
        (l_local, l_server)
    }

    /// Fraction of `decisions` (one [`EarlyExitNet::infer_ctx`] pass) whose
    /// class matches its label; 0 for an empty batch.
    ///
    /// # Panics
    ///
    /// Panics if `classes.len()` differs from the number of decisions.
    pub fn accuracy(decisions: &[ExitDecision], classes: &[usize]) -> f64 {
        assert_eq!(decisions.len(), classes.len(), "one label per sample");
        if classes.is_empty() {
            return 0.0;
        }
        let correct = decisions
            .iter()
            .zip(classes)
            .filter(|(d, &c)| d.class == c)
            .count();
        correct as f64 / classes.len() as f64
    }

    /// Fraction of `decisions` that were escalated to the server; 0 for an
    /// empty batch.
    pub fn offload_fraction(decisions: &[ExitDecision]) -> f64 {
        if decisions.is_empty() {
            return 0.0;
        }
        let up = decisions
            .iter()
            .filter(|d| d.exit == ExitPoint::Server)
            .count();
        up as f64 / decisions.len() as f64
    }

    /// `[first][u32 len][second]`: two [`serialize::save_params`] blobs, the
    /// second behind its length.
    fn save_halves(first: &Sequential, second: &Sequential) -> Vec<u8> {
        let mut blob = serialize::save_params(first);
        let tail = serialize::save_params(second);
        blob.extend_from_slice(&(tail.len() as u32).to_le_bytes());
        blob.extend_from_slice(&tail);
        blob
    }

    /// Serializes the *local* part (front + exit head) — the bytes deployed
    /// to an edge/fog device in the paper's hardware layer.
    pub fn save_local(&self) -> Vec<u8> {
        Self::save_halves(&self.front, &self.exit_head)
    }

    /// Serializes the *server* part (rest + final head).
    pub fn save_server(&self) -> Vec<u8> {
        Self::save_halves(&self.rest, &self.final_head)
    }

    /// Loads a [`EarlyExitNet::save_halves`] blob: both segments are parsed
    /// and checked to the last byte before either is assigned.
    fn load_halves(
        first: &mut Sequential,
        second: &mut Sequential,
        mut bytes: &[u8],
    ) -> Result<(), LoadError> {
        let head = serialize::parse_params(first, &mut bytes)?;
        let len = serialize::take_u32(&mut bytes)?;
        let mut segment = serialize::take(&mut bytes, len)?;
        let tail = serialize::parse_params(second, &mut segment)?;
        serialize::expect_end(segment)?;
        serialize::expect_end(bytes)?;
        serialize::commit_params(first, head);
        serialize::commit_params(second, tail);
        Ok(())
    }

    /// Restores the local part from [`EarlyExitNet::save_local`] bytes. On
    /// error the network is exactly as it was.
    ///
    /// # Errors
    ///
    /// Returns a [`crate::serialize::LoadError`] on malformed blobs or
    /// architecture mismatch.
    pub fn load_local(&mut self, bytes: &[u8]) -> Result<(), LoadError> {
        Self::load_halves(&mut self.front, &mut self.exit_head, bytes)
    }

    /// Restores the server part from [`EarlyExitNet::save_server`] bytes. On
    /// error the network is exactly as it was.
    ///
    /// # Errors
    ///
    /// Returns a [`crate::serialize::LoadError`] on malformed blobs or
    /// architecture mismatch.
    pub fn load_server(&mut self, bytes: &[u8]) -> Result<(), LoadError> {
        Self::load_halves(&mut self.rest, &mut self.final_head, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecCtx;
    use crate::layers::{Dense, Relu};
    use crate::optim::Adam;
    use simclock::SeededRng;

    fn toy_net(policy: ExitPolicy) -> EarlyExitNet {
        EarlyExitNet::new(
            Sequential::new()
                .with(Dense::new(2, 12, 0))
                .with(Relu::new()),
            Sequential::new().with(Dense::new(12, 2, 1)),
            Sequential::new()
                .with(Dense::new(12, 12, 2))
                .with(Relu::new()),
            Sequential::new().with(Dense::new(12, 2, 3)),
            policy,
        )
    }

    fn blobs(n: usize, sep: f64, seed: u64) -> (Tensor, Vec<usize>) {
        let mut rng = SeededRng::new(seed);
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let cls = i % 2;
            let c = if cls == 0 { -sep } else { sep };
            data.push(rng.gaussian(c, 1.0) as f32);
            data.push(rng.gaussian(c, 1.0) as f32);
            labels.push(cls);
        }
        (Tensor::from_vec(vec![n, 2], data).unwrap(), labels)
    }

    #[test]
    fn threshold_zero_exits_all_local() {
        let net = toy_net(ExitPolicy::Confidence(0.0));
        let (x, _) = blobs(10, 2.0, 1);
        let d = net.infer_ctx(&x, &ExecCtx::serial());
        assert!(d.iter().all(|d| d.exit == ExitPoint::Local));
        assert!(d.iter().all(|d| d.feature_bytes == 0));
    }

    #[test]
    fn threshold_above_one_escalates_all() {
        let net = toy_net(ExitPolicy::Confidence(1.01));
        let (x, _) = blobs(10, 2.0, 2);
        let d = net.infer_ctx(&x, &ExecCtx::serial());
        assert!(d.iter().all(|d| d.exit == ExitPoint::Server));
        assert!(d.iter().all(|d| d.feature_bytes > 0));
    }

    #[test]
    fn offload_fraction_monotone_in_threshold() {
        let mut net = toy_net(ExitPolicy::Confidence(0.5));
        let (x, y) = blobs(60, 1.0, 3);
        let mut opt = Adam::new(0.02);
        for _ in 0..50 {
            net.train_step(&x, &y, &mut opt, 0.5);
        }
        let mut last = -1.0;
        for &t in &[0.5, 0.7, 0.9, 0.99] {
            net.set_policy(ExitPolicy::Confidence(t));
            let frac = EarlyExitNet::offload_fraction(&net.infer_ctx(&x, &ExecCtx::serial()));
            assert!(frac >= last, "offload fraction must rise with threshold");
            last = frac;
        }
    }

    #[test]
    fn entropy_policy_escalates_uncertain() {
        let net = toy_net(ExitPolicy::Entropy(0.0001));
        let (x, _) = blobs(10, 0.1, 4); // barely separated → high entropy
        let d = net.infer_ctx(&x, &ExecCtx::serial());
        // An untrained head on overlapping blobs is uncertain.
        assert!(d.iter().filter(|d| d.exit == ExitPoint::Server).count() >= 8);
    }

    #[test]
    fn joint_training_improves_both_exits() {
        let mut net = toy_net(ExitPolicy::Confidence(0.5));
        let (x, y) = blobs(80, 2.0, 5);
        let mut opt = Adam::new(0.02);
        let (l0_local, l0_server) = net.train_step(&x, &y, &mut opt, 1.0);
        let mut last = (0.0, 0.0);
        for _ in 0..80 {
            last = net.train_step(&x, &y, &mut opt, 1.0);
        }
        assert!(last.0 < l0_local, "local loss should drop");
        assert!(last.1 < l0_server, "server loss should drop");
        let decisions = net.infer_ctx(&x, &ExecCtx::serial());
        assert!(EarlyExitNet::accuracy(&decisions, &y) > 0.9);
    }

    #[test]
    fn param_split_accounting() {
        let net = toy_net(ExitPolicy::Confidence(0.5));
        // front: 2*12+12 = 36; exit: 12*2+2 = 26 → 62 local.
        assert_eq!(net.local_param_count(), 62);
        // rest: 12*12+12 = 156; final: 26 → 182 server.
        assert_eq!(net.server_param_count(), 182);
    }

    #[test]
    fn empty_batch_yields_no_decisions() {
        let net = toy_net(ExitPolicy::Confidence(0.5));
        let empty = Tensor::zeros(vec![0, 2]);
        assert!(net.infer_ctx(&empty, &ExecCtx::serial()).is_empty());
        assert_eq!(EarlyExitNet::accuracy(&[], &[]), 0.0);
        assert_eq!(EarlyExitNet::offload_fraction(&[]), 0.0);
    }

    #[test]
    fn shared_net_infers_from_two_threads() {
        // Mid threshold, so both threads walk the local and the server part.
        let net = toy_net(ExitPolicy::Confidence(0.6));
        let (x, _) = blobs(40, 1.0, 8);
        let serial = net.infer_ctx(&x, &ExecCtx::serial());
        for exit in [ExitPoint::Local, ExitPoint::Server] {
            assert!(serial.iter().any(|d| d.exit == exit), "no {exit:?} exit");
        }
        let (net, x) = (&net, &x);
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        net.infer_ctx(x, &ExecCtx::serial())
                    })
                })
                .collect();
            for w in workers {
                assert_eq!(w.join().expect("infer_ctx does not panic"), serial);
            }
        });
    }

    #[test]
    fn decisions_report_policy_quantities() {
        let net = toy_net(ExitPolicy::Confidence(0.9));
        let (x, _) = blobs(5, 1.0, 6);
        for d in net.infer_ctx(&x, &ExecCtx::serial()) {
            assert!((0.0..=1.0).contains(&d.confidence));
            assert!(d.local_entropy >= 0.0);
        }
    }
}

#[cfg(test)]
mod deploy_tests {
    use super::*;
    use crate::exec::ExecCtx;
    use crate::layers::{Dense, Relu};
    use crate::optim::Adam;
    use crate::tensor::Tensor;

    fn net(seed: u64) -> EarlyExitNet {
        EarlyExitNet::new(
            Sequential::new()
                .with(Dense::new(3, 6, seed))
                .with(Relu::new()),
            Sequential::new().with(Dense::new(6, 2, seed + 1)),
            Sequential::new()
                .with(Dense::new(6, 6, seed + 2))
                .with(Relu::new()),
            Sequential::new().with(Dense::new(6, 2, seed + 3)),
            ExitPolicy::Confidence(0.5),
        )
    }

    #[test]
    fn deployment_roundtrip_preserves_decisions() {
        let mut trained = net(1);
        let x = Tensor::from_vec(vec![4, 3], vec![0.1; 12]).unwrap();
        let y = vec![0usize, 1, 0, 1];
        let mut opt = Adam::new(0.05);
        for _ in 0..20 {
            trained.train_step(&x, &y, &mut opt, 0.5);
        }
        let expected = trained.infer_ctx(&x, &ExecCtx::serial());

        // Ship the two halves to "fresh hardware" (different init).
        let mut deployed = net(99);
        deployed.load_local(&trained.save_local()).unwrap();
        deployed.load_server(&trained.save_server()).unwrap();
        assert_eq!(deployed.infer_ctx(&x, &ExecCtx::serial()), expected);
    }

    #[test]
    fn local_blob_smaller_than_server_when_split_that_way() {
        let n = net(2);
        // Here local (3*6+6 + 6*2+2 = 38 params) < server (6*6+6 + 14 = 56).
        assert!(n.save_local().len() < n.save_server().len());
    }

    #[test]
    fn load_rejects_mismatched_architecture() {
        let trained = net(3);
        let mut other = EarlyExitNet::new(
            Sequential::new().with(Dense::new(4, 6, 0)),
            Sequential::new().with(Dense::new(6, 2, 1)),
            Sequential::new().with(Dense::new(6, 6, 2)),
            Sequential::new().with(Dense::new(6, 2, 3)),
            ExitPolicy::Confidence(0.5),
        );
        assert!(other.load_local(&trained.save_local()).is_err());
    }

    #[test]
    fn blob_format_is_pinned() {
        // Captured before the loader was rewritten to parse forward: the
        // bytes a deployed device already holds must keep loading.
        let n = net(1);
        let (local, server) = (n.save_local(), n.save_server());
        assert_eq!((local.len(), server.len()), (220, 292));
        assert_eq!(simclock::hash::fnv1a(&local), 0xb197_ad1e_6d93_15d0);
        assert_eq!(simclock::hash::fnv1a(&server), 0x10f3_0b93_a15d_48e6);
    }

    #[test]
    fn failed_load_leaves_both_halves_untouched() {
        let mut target = net(5);
        let before = (target.save_local(), target.save_server());
        let good = net(6).save_local();
        let front_len = serialize::save_params(&net(6).front).len();

        // A valid front followed by a damaged exit head: the front must
        // not have been committed by the time the head fails.
        let mut bad_head = good.clone();
        bad_head[front_len + 4] ^= 0xff; // the head's magic
        assert_eq!(target.load_local(&bad_head), Err(LoadError::BadMagic));
        // A length field that disagrees with what follows it.
        let mut bad_len = good.clone();
        bad_len[front_len] ^= 0x01;
        assert!(target.load_local(&bad_len).is_err());
        // Bytes after the second segment.
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(target.load_local(&trailing).is_err());
        assert!(target.load_server(&good).is_err(), "wrong half");

        assert_eq!((target.save_local(), target.save_server()), before);
        target.load_local(&good).unwrap();
        assert_eq!(target.save_local(), good);
    }

    #[test]
    fn weight_bytes_that_look_like_a_segment_header_do_not_split_the_blob() {
        // Make the exit head's last bias bytes read as `[u32 len = 4]"SCNN"`
        // ending the blob: a backwards scan for the split would stop there.
        let mut trained = net(7);
        let decoy: Vec<f32> = [4u32.to_le_bytes(), *b"SCNN"]
            .iter()
            .map(|b| f32::from_le_bytes(*b))
            .collect();
        let bias = trained.exit_head.params_mut().pop().expect("dense bias");
        bias.value = Tensor::from_vec(vec![1, 2], decoy).unwrap();
        let blob = trained.save_local();
        assert!(blob.ends_with(b"\x04\0\0\0SCNN"));

        let mut deployed = net(8);
        deployed.load_local(&blob).unwrap();
        assert_eq!(deployed.save_local(), blob);
    }

    #[test]
    fn load_rejects_garbage() {
        let mut n = net(4);
        assert!(n.load_local(b"garbage").is_err());
        assert!(n.load_local(&[]).is_err());
    }
}
