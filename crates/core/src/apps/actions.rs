//! Suspicious behaviour and crime action recognition (paper §IV-A2, Fig. 7).
//!
//! Fig. 7's architecture: a stack of ResNet blocks turns each frame into an
//! activity representation; LSTM layers extract temporal patterns; fully
//! connected classifiers produce decisions. The network has two computation
//! paths — ResNet block 1 + LSTM 1 + FC 1 run on the local device (exit 1);
//! when the entropy of Output 1 is too high, the feature map from ResNet
//! block 1 is sent to the analysis server, which runs the remaining blocks,
//! LSTM 2, and FC 2 (Output 2).

use scdata::actions::{ActionClass, Clip};
use scneural::blocks::{ResidualBlock, Shortcut};
use scneural::early_exit::{EarlyExitNet, ExitDecision, ExitPoint, ExitPolicy};
use scneural::exec::ExecCtx;
use scneural::layers::{Dense, GlobalAvgPool};
use scneural::loss::SoftmaxCrossEntropy;
use scneural::net::Sequential;
use scneural::optim::Adam;
use scneural::rnn::{LastStep, Lstm, TimeDistributed};
use scneural::tensor::Tensor;

/// Converts clips (equal frame counts and sizes) into an
/// `[n*t, 1, h, w]` frame tensor.
///
/// # Panics
///
/// Panics if `clips` is empty or shapes are inconsistent.
fn clips_to_tensor(clips: &[Clip]) -> Tensor {
    assert!(!clips.is_empty(), "no clips");
    let t = clips[0].len();
    let (w, h) = (clips[0].frames[0].width(), clips[0].frames[0].height());
    let mut data = Vec::with_capacity(clips.len() * t * w * h);
    for clip in clips {
        assert_eq!(clip.len(), t, "inconsistent clip lengths");
        for f in &clip.frames {
            assert_eq!((f.width(), f.height()), (w, h), "inconsistent frame sizes");
            data.extend_from_slice(f.pixels());
        }
    }
    Tensor::from_vec(vec![clips.len() * t, 1, h, w], data).expect("sized above")
}

/// Outcome of recognizing one clip.
#[derive(Debug, Clone, PartialEq)]
pub struct Recognition {
    /// Predicted behaviour class.
    pub class: ActionClass,
    /// Which path produced it.
    pub exit: ExitPoint,
    /// Top-class probability of the accepted output.
    pub confidence: f32,
    /// Entropy of Output 1 (what the gate inspected), in nats.
    pub entropy: f32,
    /// Feature-map bytes shipped to the server (0 for local exits).
    pub feature_bytes: usize,
}

impl Recognition {
    /// Whether the paper's application would alert a human operator.
    pub fn raises_alert(&self) -> bool {
        self.class.is_suspicious()
    }
}

/// The Fig. 7 recognizer: an [`EarlyExitNet`] whose backbone runs a
/// per-frame CNN under a per-clip LSTM, gated on the entropy of Output 1.
#[derive(Debug)]
pub struct ActionRecognizer {
    net: EarlyExitNet,
    frames_per_clip: usize,
    optimizer: Adam,
}

impl ActionRecognizer {
    /// Builds the recognizer for `side`×`side` frames, clips of
    /// `frames_per_clip`, and `classes` outputs, exiting locally when the
    /// Output-1 entropy is ≤ `entropy_threshold` nats.
    ///
    /// # Panics
    ///
    /// Panics unless `side` is a multiple of 4 and ≥ 8.
    pub fn new(
        side: usize,
        frames_per_clip: usize,
        classes: usize,
        entropy_threshold: f32,
        seed: u64,
    ) -> Self {
        assert!(
            side >= 8 && side.is_multiple_of(4),
            "side must be a multiple of 4, at least 8"
        );
        let (c1, c2, h1, h2) = (4, 8, 16, 16);
        // The paper's block uses a conv shortcut (Fig. 8).
        let block1 = ResidualBlock::new(1, c1, 2, Shortcut::Conv, seed);
        let block2 = ResidualBlock::new(c1, c2, 2, Shortcut::Conv, seed.wrapping_add(3));
        // Device part: block 1 on every frame; Output 1 is LSTM 1 + FC 1
        // over its pooled features.
        let front = Sequential::new().with(TimeDistributed::new(block1));
        let exit_head = Sequential::new()
            .with(TimeDistributed::new(GlobalAvgPool::new()))
            .with(Lstm::new(c1, h1, seed.wrapping_add(1)))
            .with(LastStep::new())
            .with(Dense::new(h1, classes, seed.wrapping_add(2)));
        // Server part: the remaining block, then LSTM 2 + FC 2 (Output 2).
        let rest = Sequential::new().with(TimeDistributed::new(block2));
        let final_head = Sequential::new()
            .with(TimeDistributed::new(GlobalAvgPool::new()))
            .with(Lstm::new(c2, h2, seed.wrapping_add(4)))
            .with(LastStep::new())
            .with(Dense::new(h2, classes, seed.wrapping_add(5)));
        ActionRecognizer {
            net: EarlyExitNet::new(
                front,
                exit_head,
                rest,
                final_head,
                ExitPolicy::Entropy(entropy_threshold),
            ),
            frames_per_clip,
            optimizer: Adam::new(3e-3),
        }
    }

    /// Replaces the entropy threshold (for E6's sweep).
    pub fn set_entropy_threshold(&mut self, threshold: f32) {
        self.net.set_policy(ExitPolicy::Entropy(threshold));
    }

    /// Parameters that live on the local device (block 1 + LSTM 1 + FC 1).
    pub fn local_param_count(&self) -> usize {
        self.net.local_param_count()
    }

    /// Clips as the `[n, t, 1, h, w]` batch the network takes.
    fn clip_batch(&self, clips: &[Clip]) -> Tensor {
        let frames = clips_to_tensor(clips);
        let (h, w) = (frames.shape()[2], frames.shape()[3]);
        Tensor::from_vec(
            vec![clips.len(), self.frames_per_clip, 1, h, w],
            frames.into_data(),
        )
        .expect("every clip has frames_per_clip frames")
    }

    /// One joint training step on labelled clips. Returns
    /// `(output1_loss, output2_loss)`.
    fn train_step(&mut self, clips: &[Clip], labels: &[usize]) -> (f32, f32) {
        let x = self.clip_batch(clips);
        let mut loss = SoftmaxCrossEntropy::new();
        self.net
            .train_step(&x, labels, &mut loss, &mut self.optimizer, 0.5)
    }

    /// Trains for `epochs` full-batch epochs.
    pub fn train(&mut self, clips: &[Clip], labels: &[usize], epochs: usize) -> Vec<(f32, f32)> {
        (0..epochs)
            .map(|_| self.train_step(clips, labels))
            .collect()
    }

    /// One pass over the split network. No clips, no decisions.
    fn decide(&self, clips: &[Clip]) -> Vec<ExitDecision> {
        if clips.is_empty() {
            return Vec::new();
        }
        self.net
            .infer_ctx(&self.clip_batch(clips), &ExecCtx::serial())
    }

    /// Recognizes a batch of clips with entropy-gated early exit. An empty
    /// batch yields no recognitions.
    pub fn recognize(&self, clips: &[Clip]) -> Vec<Recognition> {
        self.decide(clips)
            .into_iter()
            .map(|d| Recognition {
                class: ActionClass::ALL[d.class],
                exit: d.exit,
                confidence: d.confidence,
                entropy: d.local_entropy,
                feature_bytes: d.feature_bytes,
            })
            .collect()
    }

    /// Accuracy + offload fraction on labelled clips under the current gate.
    pub fn evaluate(&self, clips: &[Clip], labels: &[usize]) -> (f64, f64) {
        let decisions = self.decide(clips);
        (
            EarlyExitNet::accuracy(&decisions, labels),
            EarlyExitNet::offload_fraction(&decisions),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scdata::actions::ClipGenerator;

    fn dataset(per_class: usize, seed: u64) -> (Vec<Clip>, Vec<usize>) {
        ClipGenerator::new(16, 16, 8, seed).dataset(per_class)
    }

    #[test]
    fn clips_to_tensor_shape() {
        let (clips, _) = dataset(1, 1);
        let t = clips_to_tensor(&clips);
        assert_eq!(t.shape(), &[6 * 8, 1, 16, 16]);
    }

    #[test]
    fn untrained_recognizer_runs() {
        let (clips, _) = dataset(1, 2);
        let rec = ActionRecognizer::new(16, 8, 6, 0.5, 3);
        let out = rec.recognize(&clips);
        assert_eq!(out.len(), 6);
        assert!(out.iter().all(|r| r.confidence > 0.0 && r.entropy >= 0.0));
    }

    #[test]
    fn empty_batch_yields_no_recognitions() {
        let rec = ActionRecognizer::new(16, 8, 6, 0.5, 3);
        assert!(rec.recognize(&[]).is_empty());
        assert_eq!(rec.evaluate(&[], &[]), (0.0, 0.0));
    }

    #[test]
    fn trains_above_chance() {
        let (clips, labels) = dataset(4, 4);
        let mut rec = ActionRecognizer::new(16, 8, 6, f32::INFINITY, 5); // all local
        let losses = rec.train(&clips, &labels, 60);
        assert!(
            losses.last().unwrap().0 < losses[0].0,
            "local loss decreases"
        );
        let (acc, _) = rec.evaluate(&clips, &labels);
        assert!(acc > 0.5, "train accuracy {acc} (chance is 0.17)");
    }

    #[test]
    fn entropy_gate_extremes() {
        let (clips, _) = dataset(2, 6);
        let mut rec = ActionRecognizer::new(16, 8, 6, f32::INFINITY, 7);
        let all_local = rec.recognize(&clips);
        assert!(all_local.iter().all(|r| r.exit == ExitPoint::Local));
        rec.set_entropy_threshold(-1.0);
        let all_server = rec.recognize(&clips);
        assert!(all_server.iter().all(|r| r.exit == ExitPoint::Server));
        assert!(all_server.iter().all(|r| r.feature_bytes > 0));
    }

    #[test]
    fn offload_monotone_in_tightening_threshold() {
        let (clips, labels) = dataset(3, 8);
        let mut rec = ActionRecognizer::new(16, 8, 6, 0.5, 9);
        rec.train(&clips, &labels, 25);
        let mut last = 2.0;
        for t in [1.5f32, 0.8, 0.3, 0.05] {
            rec.set_entropy_threshold(t);
            let (_, offload) = rec.evaluate(&clips, &labels);
            assert!((0.0..=1.0).contains(&offload));
            assert!(offload >= -1e-9 && last >= offload - 1.0); // sanity
                                                                // Tighter (smaller) threshold must not decrease offload.
            if last <= 1.0 {
                assert!(offload >= last - 1e-9, "offload {offload} after {last}");
            }
            last = offload;
        }
    }

    #[test]
    fn alerts_on_suspicious_classes() {
        let r = Recognition {
            class: ActionClass::Fighting,
            exit: ExitPoint::Local,
            confidence: 0.9,
            entropy: 0.1,
            feature_bytes: 0,
        };
        assert!(r.raises_alert());
        let r = Recognition {
            class: ActionClass::Walking,
            ..r
        };
        assert!(!r.raises_alert());
    }

    #[test]
    fn local_params_smaller_than_total() {
        let rec = ActionRecognizer::new(16, 8, 6, 0.5, 10);
        let local = rec.local_param_count();
        assert!(local > 0);
        // Block 2 has more channels, so the server side is bigger.
        assert!(rec.net.server_param_count() > local);
    }

    #[test]
    fn decisions_identical_at_any_thread_count() {
        // 36 clips: more than one `predict_ctx` chunk of whole clips.
        let (clips, _) = dataset(6, 11);
        let mut rec = ActionRecognizer::new(16, 8, 6, f32::INFINITY, 12);
        // Gate at the median Output-1 entropy so both exits are taken.
        let mut entropies: Vec<f32> = rec.recognize(&clips).iter().map(|r| r.entropy).collect();
        entropies.sort_by(f32::total_cmp);
        rec.set_entropy_threshold(entropies[entropies.len() / 2]);

        let x = rec.clip_batch(&clips);
        let serial = rec.net.infer_ctx(&x, &ExecCtx::serial());
        for exit in [ExitPoint::Local, ExitPoint::Server] {
            assert!(serial.iter().any(|d| d.exit == exit), "no {exit:?} exit");
        }
        for threads in [1, 2, 8] {
            let ctx = ExecCtx::serial().with_par(scpar::ScparConfig::with_threads(threads));
            assert_eq!(rec.net.infer_ctx(&x, &ctx), serial, "{threads} threads");
        }
    }
}
