#![allow(clippy::needless_range_loop)]

//! Integration: the deep-learning methodologies of §III working on the
//! synthetic data layer — spatial (CNN), temporal (LSTM), and multi-modal
//! (fusion AE + CCA) analyses each reach above-chance quality.

use scdata::actions::ClipGenerator;
use scdata::vehicles::VehicleCatalog;
use scdata::video::FrameGenerator;
use simclock::hash::fnv1a;
use simclock::SeededRng;
use smartcity::core::apps::actions::ActionRecognizer;
use smartcity::core::apps::vehicle::VehicleClassifier;
use smartcity::neural::autoencoder::FusionAutoencoder;
use smartcity::neural::cca::Cca;
use smartcity::neural::optim::Adam;
use smartcity::neural::tensor::Tensor;

#[test]
fn spatial_cnn_learns_vehicle_classes() {
    let classes = 5;
    let catalog = VehicleCatalog::generate(classes, 11);
    let mut gen = FrameGenerator::new(catalog, 16, 16, 12).noise(0.02);
    let (frames, labels) = gen.dataset(classes, 12);
    let mut clf = VehicleClassifier::new(classes, 16, 0.0, 13); // all-local
    clf.train(&frames, &labels, 50, 0.01);
    let (acc, _) = clf.evaluate(&frames, &labels);
    assert!(
        acc > 0.6,
        "accuracy {acc} (chance {})",
        1.0 / classes as f64
    );
}

#[test]
fn temporal_lstm_beats_chance_on_actions() {
    let mut gen = ClipGenerator::new(16, 16, 8, 14);
    let (clips, labels) = gen.dataset(5);
    let mut rec = ActionRecognizer::new(16, 8, 6, f32::INFINITY, 15);
    rec.train(&clips, &labels, 50);
    let (acc, _) = rec.evaluate(&clips, &labels);
    assert!(acc > 0.4, "accuracy {acc} (chance 0.167)");
}

/// Synthetic gunshot events observed through two modalities (§III-C): an
/// audio energy profile and a video flash profile, both driven by a shared
/// latent "event intensity".
fn gunshot_modalities(n: usize, seed: u64) -> (Tensor, Tensor, Vec<usize>) {
    let mut rng = SeededRng::new(seed);
    let (da, dv) = (6, 10);
    let mut audio = Vec::new();
    let mut video = Vec::new();
    let mut labels = Vec::new();
    for i in 0..n {
        let is_gunshot = i % 2 == 0;
        let intensity: f64 = if is_gunshot {
            rng.range_f64(0.7, 1.0)
        } else {
            rng.range_f64(0.0, 0.3)
        };
        for j in 0..da {
            let base = if j < 2 { intensity } else { 0.2 };
            audio.push((base + rng.gaussian(0.0, 0.05)).clamp(0.0, 1.0) as f32);
        }
        for j in 0..dv {
            let base = if j % 3 == 0 { intensity } else { 0.3 };
            video.push((base + rng.gaussian(0.0, 0.05)).clamp(0.0, 1.0) as f32);
        }
        labels.push(usize::from(is_gunshot));
    }
    (
        Tensor::from_vec(vec![n, da], audio).unwrap(),
        Tensor::from_vec(vec![n, dv], video).unwrap(),
        labels,
    )
}

#[test]
fn multimodal_cca_finds_shared_gunshot_signal() {
    let (audio, video, _) = gunshot_modalities(200, 16);
    let cca = Cca::fit(&audio, &video, 2, 1e-4).unwrap();
    assert!(
        cca.correlations()[0] > 0.8,
        "shared intensity must dominate: {:?}",
        cca.correlations()
    );
}

/// CCA's exact bits on the gunshot views: the fitted model through `Debug`
/// (each correlation in its shortest round-trip form, so every bit counts).
/// The f64 algebra under it is a scalar loop; this pins that the loop's
/// operation order never drifts, on any ISA.
#[test]
fn multimodal_cca_bits_are_pinned() {
    let (audio, video, _) = gunshot_modalities(200, 16);
    let cca = Cca::fit(&audio, &video, 2, 1e-4).unwrap();
    let h = fnv1a(format!("{cca:?}").as_bytes());
    assert_eq!(h, 0x84ca_149e_1869_a124, "CCA fingerprint {h:#018x}");
}

#[test]
fn fusion_autoencoder_latent_separates_events() {
    let (audio, video, labels) = gunshot_modalities(120, 17);
    let mut fae = FusionAutoencoder::new(6, 5, 10, 6, 3, 18);
    let mut opt = Adam::new(0.01);
    for _ in 0..200 {
        fae.train_step(&audio, &video, &mut opt);
    }
    // The fused latent's centroid distance between classes exceeds the
    // within-class spread — linearly separable enough for a detector.
    let z = fae.fuse(&audio, &video);
    let k = z.cols();
    let mut centroids = [vec![0.0f64; k], vec![0.0f64; k]];
    let mut counts = [0usize; 2];
    for (i, &l) in labels.iter().enumerate() {
        counts[l] += 1;
        for j in 0..k {
            centroids[l][j] += z.at(i, j) as f64;
        }
    }
    for (c, count) in centroids.iter_mut().zip(counts) {
        for v in c.iter_mut() {
            *v /= count as f64;
        }
    }
    let between: f64 = centroids[0]
        .iter()
        .zip(&centroids[1])
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt();
    assert!(between > 0.1, "class centroids too close: {between}");

    // Nearest-centroid classification in the fused space beats chance well.
    let mut correct = 0;
    for (i, &l) in labels.iter().enumerate() {
        let dist = |c: &[f64]| -> f64 { (0..k).map(|j| (z.at(i, j) as f64 - c[j]).powi(2)).sum() };
        let pred = usize::from(dist(&centroids[1]) < dist(&centroids[0]));
        if pred == l {
            correct += 1;
        }
    }
    let acc = correct as f64 / labels.len() as f64;
    assert!(acc > 0.85, "fused-latent accuracy {acc}");
}

#[test]
fn fused_latent_tolerates_missing_modality() {
    let (audio, video, _) = gunshot_modalities(80, 19);
    let mut fae = FusionAutoencoder::new(6, 5, 10, 6, 3, 20);
    let mut opt = Adam::new(0.01);
    for _ in 0..150 {
        fae.train_step(&audio, &video, &mut opt);
    }
    // Audio-only inference still produces a finite, informative latent.
    let z = fae.fuse_a_only(&audio);
    assert_eq!(z.shape(), &[80, 3]);
    assert!(z.data().iter().all(|v| v.is_finite()));
    assert!(z.norm_sq() > 0.0);
}
