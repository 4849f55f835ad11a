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
use scneural::early_exit::ExitPoint;
use scneural::layers::{entropy_rows, softmax_rows, Dense, GlobalAvgPool, Layer};
use scneural::loss::{Loss, LossTarget, SoftmaxCrossEntropy};
use scneural::optim::{Adam, Optimizer};
use scneural::rnn::{LastStep, Lstm};
use scneural::tensor::Tensor;

/// Converts clips (equal frame counts and sizes) into an
/// `[n*t, 1, h, w]` frame tensor.
///
/// # Panics
///
/// Panics if `clips` is empty or shapes are inconsistent.
pub fn clips_to_tensor(clips: &[Clip]) -> Tensor {
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

/// The Fig. 7 recognizer with its two computation paths.
#[derive(Debug)]
pub struct ActionRecognizer {
    block1: ResidualBlock,
    pool1: GlobalAvgPool,
    lstm1: Lstm,
    last1: LastStep,
    fc1: Dense,
    block2: ResidualBlock,
    pool2: GlobalAvgPool,
    lstm2: Lstm,
    last2: LastStep,
    fc2: Dense,
    classes: usize,
    frames_per_clip: usize,
    side: usize,
    c1: usize,
    entropy_threshold: f32,
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
        ActionRecognizer {
            // The paper's block uses a conv shortcut (Fig. 8).
            block1: ResidualBlock::new(1, c1, 2, Shortcut::Conv, seed),
            pool1: GlobalAvgPool::new(),
            lstm1: Lstm::new(c1, h1, seed.wrapping_add(1)),
            last1: LastStep::new(),
            fc1: Dense::new(h1, classes, seed.wrapping_add(2)),
            block2: ResidualBlock::new(c1, c2, 2, Shortcut::Conv, seed.wrapping_add(3)),
            pool2: GlobalAvgPool::new(),
            lstm2: Lstm::new(c2, h2, seed.wrapping_add(4)),
            last2: LastStep::new(),
            fc2: Dense::new(h2, classes, seed.wrapping_add(5)),
            classes,
            frames_per_clip,
            side,
            c1,
            entropy_threshold,
            optimizer: Adam::new(3e-3),
        }
    }

    /// Replaces the entropy threshold (for E6's sweep).
    pub fn set_entropy_threshold(&mut self, threshold: f32) {
        self.entropy_threshold = threshold;
    }

    /// The current entropy threshold.
    pub fn entropy_threshold(&self) -> f32 {
        self.entropy_threshold
    }

    /// Parameters that live on the local device (block 1 + LSTM 1 + FC 1).
    pub fn local_param_count(&self) -> usize {
        self.block1
            .params()
            .iter()
            .map(|p| p.value.len())
            .sum::<usize>()
            + self
                .lstm1
                .params()
                .iter()
                .map(|p| p.value.len())
                .sum::<usize>()
            + self
                .fc1
                .params()
                .iter()
                .map(|p| p.value.len())
                .sum::<usize>()
    }

    fn seq_reshape(&self, pooled: &Tensor, n: usize, c: usize) -> Tensor {
        pooled
            .reshape(vec![n, self.frames_per_clip, c])
            .expect("row-major layout matches")
    }

    /// Local path, training pass: frames → block1 → (feature map, Output-1
    /// logits).
    fn forward_local(&mut self, frames: &Tensor, n: usize) -> (Tensor, Tensor) {
        let feat1 = self.block1.forward(frames);
        let pooled1 = self.pool1.forward(&feat1);
        let seq1 = self.seq_reshape(&pooled1, n, self.c1);
        let h1 = self.lstm1.forward(&seq1);
        let last = self.last1.forward(&h1);
        let out1 = self.fc1.forward(&last);
        (feat1, out1)
    }

    /// Local path, inference pass.
    fn infer_local(&self, frames: &Tensor, n: usize) -> (Tensor, Tensor) {
        let feat1 = self.block1.infer(frames);
        let pooled1 = self.pool1.infer(&feat1);
        let seq1 = self.seq_reshape(&pooled1, n, self.c1);
        let h1 = self.lstm1.infer(&seq1);
        let out1 = self.fc1.infer(&self.last1.infer(&h1));
        (feat1, out1)
    }

    /// Server path, training pass: block-1 feature maps → remaining network
    /// → Output-2 logits.
    fn forward_server(&mut self, feat1: &Tensor, n: usize) -> Tensor {
        let feat2 = self.block2.forward(feat1);
        let pooled2 = self.pool2.forward(&feat2);
        let c2 = pooled2.shape()[1];
        let seq2 = self.seq_reshape(&pooled2, n, c2);
        let h2 = self.lstm2.forward(&seq2);
        let last = self.last2.forward(&h2);
        self.fc2.forward(&last)
    }

    /// Server path, inference pass.
    fn infer_server(&self, feat1: &Tensor, n: usize) -> Tensor {
        let feat2 = self.block2.infer(feat1);
        let pooled2 = self.pool2.infer(&feat2);
        let c2 = pooled2.shape()[1];
        let seq2 = self.seq_reshape(&pooled2, n, c2);
        let h2 = self.lstm2.infer(&seq2);
        self.fc2.infer(&self.last2.infer(&h2))
    }

    /// One joint training step on labelled clips. Returns
    /// `(output1_loss, output2_loss)`.
    pub fn train_step(&mut self, clips: &[Clip], labels: &[usize]) -> (f32, f32) {
        let n = clips.len();
        let frames = clips_to_tensor(clips);
        let (feat1, out1) = self.forward_local(&frames, n);
        let out2 = self.forward_server(&feat1, n);

        let mut loss = SoftmaxCrossEntropy::new();
        let (l1, g1) = loss.forward(&out1, &LossTarget::Classes(labels));
        let (l2, g2) = loss.forward(&out2, &LossTarget::Classes(labels));

        // Server path backward → gradient on feat1.
        let g = self.fc2.backward(&g2);
        let g = self.last2.backward(&g);
        let g = self.lstm2.backward(&g);
        let c2 = g.shape()[2];
        let g = g
            .reshape(vec![n * self.frames_per_clip, c2])
            .expect("row-major layout matches");
        let g = self.pool2.backward(&g);
        let g_feat_server = self.block2.backward(&g);

        // Local path backward → gradient on feat1.
        let g = self.fc1.backward(&g1.scale(0.5));
        let g = self.last1.backward(&g);
        let g = self.lstm1.backward(&g);
        let g = g
            .reshape(vec![n * self.frames_per_clip, self.c1])
            .expect("row-major layout matches");
        let g_feat_local = self.pool1.backward(&g);

        let g_feat = g_feat_local.add(&g_feat_server).expect("both feat1-shaped");
        self.block1.backward(&g_feat);

        let mut params = self.block1.params_mut();
        params.extend(self.lstm1.params_mut());
        params.extend(self.fc1.params_mut());
        params.extend(self.block2.params_mut());
        params.extend(self.lstm2.params_mut());
        params.extend(self.fc2.params_mut());
        self.optimizer.step(params);
        (l1, l2)
    }

    /// Trains for `epochs` full-batch epochs.
    pub fn train(&mut self, clips: &[Clip], labels: &[usize], epochs: usize) -> Vec<(f32, f32)> {
        (0..epochs)
            .map(|_| self.train_step(clips, labels))
            .collect()
    }

    /// Selects the frame-rows of the given clips from an `[n*t, ...]`
    /// tensor.
    fn select_clips(&self, t: &Tensor, indices: &[usize]) -> Tensor {
        let shape = t.shape();
        let per_frame: usize = shape[1..].iter().product();
        let per_clip = self.frames_per_clip * per_frame;
        let mut data = Vec::with_capacity(indices.len() * per_clip);
        for &i in indices {
            data.extend_from_slice(&t.data()[i * per_clip..(i + 1) * per_clip]);
        }
        let mut new_shape = shape.to_vec();
        new_shape[0] = indices.len() * self.frames_per_clip;
        Tensor::from_vec(new_shape, data).expect("sized above")
    }

    /// Recognizes a batch of clips with entropy-gated early exit. An empty
    /// batch yields no recognitions.
    pub fn recognize(&self, clips: &[Clip]) -> Vec<Recognition> {
        let n = clips.len();
        if n == 0 {
            return Vec::new();
        }
        let frames = clips_to_tensor(clips);
        let (feat1, out1) = self.infer_local(&frames, n);
        let probs1 = softmax_rows(&out1);
        let entropies = entropy_rows(&probs1);
        let classes1 = probs1.argmax_rows();

        let feat_elems = feat1.len() / n;
        let per_clip_bytes = feat_elems * std::mem::size_of::<f32>();

        let mut escalate: Vec<usize> = Vec::new();
        let mut results: Vec<Option<Recognition>> = Vec::with_capacity(n);
        for i in 0..n {
            if entropies[i] <= self.entropy_threshold {
                results.push(Some(Recognition {
                    class: ActionClass::ALL[classes1[i]],
                    exit: ExitPoint::Local,
                    confidence: probs1.at(i, classes1[i]),
                    entropy: entropies[i],
                    feature_bytes: 0,
                }));
            } else {
                results.push(None);
                escalate.push(i);
            }
        }
        if !escalate.is_empty() {
            let sub = self.select_clips(&feat1, &escalate);
            let out2 = self.infer_server(&sub, escalate.len());
            let probs2 = softmax_rows(&out2);
            let classes2 = probs2.argmax_rows();
            for (slot, &orig) in escalate.iter().enumerate() {
                results[orig] = Some(Recognition {
                    class: ActionClass::ALL[classes2[slot]],
                    exit: ExitPoint::Server,
                    confidence: probs2.at(slot, classes2[slot]),
                    entropy: entropies[orig],
                    feature_bytes: per_clip_bytes,
                });
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every clip decided"))
            .collect()
    }

    /// Accuracy + offload fraction on labelled clips under the current gate.
    pub fn evaluate(&self, clips: &[Clip], labels: &[usize]) -> (f64, f64) {
        let recs = self.recognize(clips);
        let correct = recs
            .iter()
            .zip(labels)
            .filter(|(r, &l)| r.class.index() == l)
            .count();
        let offloaded = recs.iter().filter(|r| r.exit == ExitPoint::Server).count();
        (
            correct as f64 / clips.len().max(1) as f64,
            offloaded as f64 / clips.len().max(1) as f64,
        )
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Frame side length.
    pub fn side(&self) -> usize {
        self.side
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
        // block2 alone has more channels, so the server side is bigger.
        let block2: usize = rec.block2.params().iter().map(|p| p.value.len()).sum();
        assert!(block2 > 0);
    }
}
