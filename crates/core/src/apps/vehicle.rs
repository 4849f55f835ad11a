//! Vehicle detection and classification (paper §IV-A1, Figs. 5 & 6).
//!
//! The paper runs Tiny YOLO on local devices and escalates to YOLOv2 on the
//! analysis server when the local score is below threshold. Here the same
//! split is built from scratch: a shared convolutional *front* runs on the
//! device, a small dense head gives the local ("tiny") prediction, and jobs
//! that fail the confidence policy ship the front's feature map to the
//! deeper server-side stack — exactly Fig. 5's blue line.

use scdata::vehicles::VehicleClassId;
use scdata::video::{BoxPx, Frame};
use scneural::early_exit::{EarlyExitNet, ExitDecision, ExitPoint, ExitPolicy, ExitWorkspace};
use scneural::exec::ExecCtx;
use scneural::layers::{Conv2d, Dense, Flatten, Relu};
use scneural::net::Sequential;
use scneural::optim::Adam;
use scneural::tensor::Tensor;

/// Converts grayscale frames (all the same size) into an `[n, 1, h, w]`
/// tensor.
///
/// # Panics
///
/// Panics if `frames` is empty or sizes are inconsistent.
pub fn frames_to_tensor(frames: &[Frame]) -> Tensor {
    let mut tensor = Tensor::default();
    load_frames(frames, &mut tensor);
    tensor
}

/// [`frames_to_tensor`] into `tensor`'s reused storage.
///
/// # Panics
///
/// Panics if `frames` is empty or sizes are inconsistent.
fn load_frames(frames: &[Frame], tensor: &mut Tensor) {
    assert!(!frames.is_empty(), "no frames");
    let (w, h) = (frames[0].width(), frames[0].height());
    tensor.resize_to(&[frames.len(), 1, h, w]);
    for (i, f) in frames.iter().enumerate() {
        assert_eq!((f.width(), f.height()), (w, h), "inconsistent frame sizes");
        tensor.data_mut()[i * w * h..][..w * h].copy_from_slice(f.pixels());
    }
}

/// The early-exit vehicle classifier over fixed-size crops.
///
/// It owns what a classification writes (the batch's input and an
/// [`ExitWorkspace`]), so a warm `classify` allocates its decisions and
/// nothing else.
#[derive(Debug)]
pub struct VehicleClassifier {
    net: EarlyExitNet,
    side: usize,
    input: Tensor,
    workspace: ExitWorkspace,
}

impl VehicleClassifier {
    /// Builds the split model for `classes` classes over `side`×`side`
    /// crops, exiting locally when confidence ≥ `threshold`.
    ///
    /// # Panics
    ///
    /// Panics if `side < 8` or `classes == 0`.
    pub fn new(classes: usize, side: usize, threshold: f32, seed: u64) -> Self {
        assert!(
            side >= 8 && side.is_multiple_of(4),
            "side must be a multiple of 4, at least 8"
        );
        assert!(classes > 0, "need at least one class");
        let half = side / 2;
        let quarter = side / 4;
        // Device part: one strided conv = the "tiny" backbone.
        let front = Sequential::new()
            .with(Conv2d::new(1, 6, 3, 2, 1, seed))
            .with(Relu::new());
        // Tiny head: direct classification from early features.
        let exit_head = Sequential::new().with(Flatten::new()).with(Dense::new(
            6 * half * half,
            classes,
            seed.wrapping_add(1),
        ));
        // Server part: two more convs = the "full" backbone.
        let rest = Sequential::new()
            .with(Conv2d::new(6, 12, 3, 2, 1, seed.wrapping_add(2)))
            .with(Relu::new())
            .with(Conv2d::new(12, 12, 3, 1, 1, seed.wrapping_add(3)))
            .with(Relu::new());
        let final_head = Sequential::new().with(Flatten::new()).with(Dense::new(
            12 * quarter * quarter,
            classes,
            seed.wrapping_add(4),
        ));
        VehicleClassifier {
            net: EarlyExitNet::new(
                front,
                exit_head,
                rest,
                final_head,
                ExitPolicy::Confidence(threshold),
            ),
            side,
            input: Tensor::default(),
            workspace: ExitWorkspace::default(),
        }
    }

    /// Crop side length.
    fn side(&self) -> usize {
        self.side
    }

    /// Replaces the confidence threshold (for E4's sweep).
    pub fn set_threshold(&mut self, threshold: f32) {
        self.net.set_policy(ExitPolicy::Confidence(threshold));
    }

    /// Direct access to the underlying split network.
    pub fn network_mut(&mut self) -> &mut EarlyExitNet {
        &mut self.net
    }

    /// Serialized weights of the device-side part — what the hardware layer
    /// pushes to edge/fog nodes after training on the analysis servers.
    pub fn export_device_model(&self) -> Vec<u8> {
        self.net.save_local()
    }

    /// Serialized weights of the server-side part.
    pub fn export_server_model(&self) -> Vec<u8> {
        self.net.save_server()
    }

    /// Loads previously exported device/server weights into a
    /// same-architecture classifier (a fresh deployment target). Both blobs
    /// load or neither does.
    ///
    /// # Errors
    ///
    /// Returns a [`scneural::serialize::LoadError`] if either blob does not
    /// match this classifier's architecture.
    pub fn import_models(
        &mut self,
        device: &[u8],
        server: &[u8],
    ) -> Result<(), scneural::serialize::LoadError> {
        let previous = self.net.save_local();
        self.net.load_local(device)?;
        self.net.load_server(server).inspect_err(|_| {
            self.net
                .load_local(&previous)
                .expect("a blob this network just wrote")
        })
    }

    /// Trains both exits jointly on labelled crops. Returns per-epoch
    /// `(local_loss, server_loss)`.
    pub fn train(
        &mut self,
        frames: &[Frame],
        labels: &[usize],
        epochs: usize,
        lr: f32,
    ) -> Vec<(f32, f32)> {
        let x = frames_to_tensor(frames);
        let mut opt = Adam::new(lr);
        (0..epochs)
            .map(|_| self.net.train_step(&x, labels, &mut opt, 0.5))
            .collect()
    }

    /// Classifies crops under the current exit policy. No frames, no
    /// decisions. The frames are copied straight into the classifier's
    /// input buffer, and the split network runs on its workspace.
    ///
    /// Serial on purpose: a 64-frame batch is about 0.95 ms of kernels
    /// (≈ 14.8 µs a frame on a 2-core AVX2 host), and
    /// `scpar::par_map_chunks` spawns its scoped threads on every call,
    /// four calls per pass, so two threads buy no steady gain:
    /// `scpar.speedup_2t` has read from 0.56 to 1.24 across traced
    /// `camera_infer` runs on that host, slower than serial in some runs
    /// and ≈ 1.2× in others. Fanning out here waits for a persistent pool
    /// (ROADMAP item 4).
    ///
    /// # Panics
    ///
    /// Panics if the frames' sizes are inconsistent, or are not the
    /// classifier's crops.
    pub fn classify(&mut self, frames: &[Frame]) -> Vec<ExitDecision> {
        if frames.is_empty() {
            return Vec::new();
        }
        load_frames(frames, &mut self.input);
        let mut decisions = Vec::with_capacity(frames.len());
        let ctx = ExecCtx::serial();
        self.net
            .infer_into(&self.input, &ctx, &mut self.workspace, &mut decisions)
            .unwrap_or_else(|e| panic!("{e}"));
        decisions
    }

    /// Combined accuracy and offload fraction on a labelled set, from one
    /// pass over the split network.
    pub fn evaluate(&mut self, frames: &[Frame], labels: &[usize]) -> (f64, f64) {
        let decisions = self.classify(frames);
        (
            EarlyExitNet::accuracy(&decisions, labels),
            EarlyExitNet::offload_fraction(&decisions),
        )
    }
}

/// One detected vehicle in a scene.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// Where the vehicle is.
    pub bbox: BoxPx,
    /// Predicted class.
    pub class: VehicleClassId,
    /// Confidence of the accepted prediction.
    pub confidence: f32,
    /// Which exit produced the prediction.
    pub exit: ExitPoint,
}

/// Sliding-window detector over road scenes: proposes bright regions, then
/// classifies each crop with the early-exit classifier.
#[derive(Debug)]
pub struct SceneDetector {
    classifier: VehicleClassifier,
    stride: usize,
    objectness: f32,
    nms_iou: f64,
}

impl SceneDetector {
    /// Wraps a trained classifier. `objectness` is the minimum fraction of
    /// bright (non-road) pixels for a window to become a proposal.
    pub fn new(classifier: VehicleClassifier, objectness: f32) -> Self {
        let stride = (classifier.side() / 2).max(1);
        SceneDetector {
            classifier,
            stride,
            objectness,
            nms_iou: 0.3,
        }
    }

    fn crop(scene: &Frame, x0: usize, y0: usize, side: usize) -> Frame {
        let mut out = Frame::new(side, side);
        for y in 0..side {
            for x in 0..side {
                let sx = x0 + x;
                let sy = y0 + y;
                if sx < scene.width() && sy < scene.height() {
                    out.set(x, y, scene.get(sx, sy));
                }
            }
        }
        out
    }

    fn window_objectness(scene: &Frame, x0: usize, y0: usize, side: usize) -> f32 {
        let mut bright = 0usize;
        let mut total = 0usize;
        for y in y0..(y0 + side).min(scene.height()) {
            for x in x0..(x0 + side).min(scene.width()) {
                total += 1;
                if scene.get(x, y) > 0.3 {
                    bright += 1;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            bright as f32 / total as f32
        }
    }

    /// Detects vehicles in a scene: propose → classify (early-exit) →
    /// non-maximum suppression.
    pub fn detect(&mut self, scene: &Frame) -> Vec<Detection> {
        let side = self.classifier.side();
        let mut proposals: Vec<BoxPx> = Vec::new();
        let mut y0 = 0;
        while y0 + side / 2 < scene.height().max(1) {
            let mut x0 = 0;
            while x0 + side / 2 < scene.width().max(1) {
                if Self::window_objectness(scene, x0, y0, side) >= self.objectness {
                    proposals.push(BoxPx {
                        x0,
                        y0,
                        x1: (x0 + side).min(scene.width()),
                        y1: (y0 + side).min(scene.height()),
                    });
                }
                x0 += self.stride;
            }
            y0 += self.stride;
        }
        if proposals.is_empty() {
            return Vec::new();
        }
        let crops: Vec<Frame> = proposals
            .iter()
            .map(|b| Self::crop(scene, b.x0, b.y0, side))
            .collect();
        let decisions = self.classifier.classify(&crops);

        let mut detections: Vec<Detection> = proposals
            .into_iter()
            .zip(decisions)
            .map(|(bbox, d)| Detection {
                bbox,
                class: VehicleClassId(d.class as u16),
                confidence: d.confidence,
                exit: d.exit,
            })
            .collect();

        // Non-maximum suppression.
        detections.sort_by(|a, b| b.confidence.total_cmp(&a.confidence));
        let mut kept: Vec<Detection> = Vec::new();
        for d in detections {
            if kept.iter().all(|k| k.bbox.iou(&d.bbox) < self.nms_iou) {
                kept.push(d);
            }
        }
        kept
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scdata::vehicles::VehicleCatalog;
    use scdata::video::FrameGenerator;

    fn small_dataset(classes: usize, per_class: usize) -> (Vec<Frame>, Vec<usize>) {
        let catalog = VehicleCatalog::generate(classes, 1);
        let mut gen = FrameGenerator::new(catalog, 16, 16, 2).noise(0.01);
        gen.dataset(classes, per_class)
    }

    #[test]
    fn classifier_trains_above_chance() {
        let (frames, labels) = small_dataset(4, 10);
        let mut clf = VehicleClassifier::new(4, 16, 0.5, 3);
        clf.train(&frames, &labels, 40, 0.01);
        let (acc, _) = clf.evaluate(&frames, &labels);
        assert!(acc > 0.7, "train accuracy {acc}");
    }

    #[test]
    fn threshold_zero_never_offloads() {
        let (frames, labels) = small_dataset(3, 4);
        let mut clf = VehicleClassifier::new(3, 16, 0.0, 4);
        clf.train(&frames, &labels, 5, 0.01);
        let (_, offload) = clf.evaluate(&frames, &labels);
        assert_eq!(offload, 0.0);
    }

    #[test]
    fn threshold_above_one_always_offloads() {
        let (frames, labels) = small_dataset(3, 4);
        let mut clf = VehicleClassifier::new(3, 16, 1.5, 5);
        clf.train(&frames, &labels, 5, 0.01);
        let (_, offload) = clf.evaluate(&frames, &labels);
        assert_eq!(offload, 1.0);
        let decisions = clf.classify(&frames);
        assert!(decisions.iter().all(|d| d.feature_bytes > 0));
    }

    #[test]
    fn offload_fraction_monotone() {
        let (frames, labels) = small_dataset(4, 8);
        let mut clf = VehicleClassifier::new(4, 16, 0.5, 6);
        clf.train(&frames, &labels, 30, 0.01);
        let mut last = -1.0;
        for t in [0.3, 0.6, 0.9, 0.99] {
            clf.set_threshold(t);
            let (_, offload) = clf.evaluate(&frames, &labels);
            assert!(offload >= last, "offload must rise with threshold");
            last = offload;
        }
    }

    #[test]
    fn scene_detector_finds_vehicles() {
        let classes = 4;
        let catalog = VehicleCatalog::generate(classes, 1);
        let mut gen = FrameGenerator::new(catalog.clone(), 16, 16, 2).noise(0.01);
        let (frames, labels) = gen.dataset(classes, 10);
        let mut clf = VehicleClassifier::new(classes, 16, 0.5, 7);
        clf.train(&frames, &labels, 30, 0.01);

        // Build a 48x48 scene with 2 vehicles.
        let mut scene_gen = FrameGenerator::new(catalog, 48, 48, 8).noise(0.01);
        let (scene, truths) = scene_gen.scene(2);
        let mut detector = SceneDetector::new(clf, 0.15);
        let detections = detector.detect(&scene);
        assert!(!detections.is_empty(), "should propose something");
        // At least one truth is matched by IoU > 0.1.
        let matched = truths
            .iter()
            .any(|t| detections.iter().any(|d| d.bbox.iou(&t.bbox) > 0.1));
        assert!(matched, "detections {detections:?} vs truths {truths:?}");
    }

    #[test]
    fn empty_scene_yields_nothing() {
        let (frames, labels) = small_dataset(3, 4);
        let mut clf = VehicleClassifier::new(3, 16, 0.5, 9);
        clf.train(&frames, &labels, 5, 0.01);
        let mut detector = SceneDetector::new(clf, 0.15);
        let empty = Frame::new(48, 48); // all black
        assert!(detector.detect(&empty).is_empty());
    }

    #[test]
    fn nms_suppresses_overlaps() {
        let (frames, labels) = small_dataset(3, 6);
        let mut clf = VehicleClassifier::new(3, 16, 0.5, 10);
        clf.train(&frames, &labels, 20, 0.01);
        let catalog = VehicleCatalog::generate(3, 1);
        let mut scene_gen = FrameGenerator::new(catalog, 32, 32, 11).noise(0.01);
        let (scene, _) = scene_gen.scene(1);
        let mut detector = SceneDetector::new(clf, 0.1);
        let detections = detector.detect(&scene);
        for i in 0..detections.len() {
            for j in (i + 1)..detections.len() {
                assert!(detections[i].bbox.iou(&detections[j].bbox) < 0.3);
            }
        }
    }

    #[test]
    fn classify_nothing_yields_nothing() {
        let mut clf = VehicleClassifier::new(3, 16, 0.5, 12);
        assert!(clf.classify(&[]).is_empty());
        assert_eq!(clf.evaluate(&[], &[]), (0.0, 0.0));
    }

    #[test]
    fn frames_to_tensor_shape() {
        let frames = vec![Frame::new(8, 8), Frame::new(8, 8)];
        assert_eq!(frames_to_tensor(&frames).shape(), &[2, 1, 8, 8]);
    }

    #[test]
    #[should_panic(expected = "inconsistent")]
    fn frames_to_tensor_rejects_mixed_sizes() {
        let _ = frames_to_tensor(&[Frame::new(8, 8), Frame::new(4, 4)]);
    }
}
