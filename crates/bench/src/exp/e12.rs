#![allow(clippy::needless_range_loop)]

//! E12 (§III-C): multi-modal fusion for gunshot detection — single-modality
//! vs fused accuracy (nearest-centroid in latent space) and the CCA
//! correlation recovery.

use crate::{f3, header, table, BenchJson};
use scneural::autoencoder::{Autoencoder, FusionAutoencoder};
use scneural::cca::Cca;
use scneural::optim::Adam;
use scneural::tensor::Tensor;
use simclock::SeededRng;

/// Synthetic gunshot events as audio (6-dim) + video (10-dim) feature
/// vectors sharing a latent intensity. Intentionally noisy per modality so
/// fusion has headroom over single-modal detectors.
fn gunshot_data(n: usize, noise: f64, seed: u64) -> (Tensor, Tensor, Vec<usize>) {
    let mut rng = SeededRng::new(seed);
    let (da, dv) = (6, 10);
    let mut audio = Vec::new();
    let mut video = Vec::new();
    let mut labels = Vec::new();
    for i in 0..n {
        let shot = i % 2 == 0;
        let z: f64 = if shot {
            rng.range_f64(0.65, 1.0)
        } else {
            rng.range_f64(0.0, 0.35)
        };
        for j in 0..da {
            let base = if j < 2 { z } else { 0.25 };
            audio.push((base + rng.gaussian(0.0, noise)).clamp(0.0, 1.0) as f32);
        }
        for j in 0..dv {
            let base = if j % 3 == 0 { z } else { 0.35 };
            video.push((base + rng.gaussian(0.0, noise)).clamp(0.0, 1.0) as f32);
        }
        labels.push(usize::from(shot));
    }
    (
        Tensor::from_vec(vec![n, da], audio).unwrap(),
        Tensor::from_vec(vec![n, dv], video).unwrap(),
        labels,
    )
}

/// Nearest-centroid accuracy in a latent space.
fn centroid_accuracy(z: &Tensor, labels: &[usize]) -> f64 {
    let k = z.cols();
    let mut centroids = [vec![0.0f64; k], vec![0.0f64; k]];
    let mut counts = [0usize; 2];
    for (i, &l) in labels.iter().enumerate() {
        counts[l] += 1;
        for j in 0..k {
            centroids[l][j] += z.at(i, j) as f64;
        }
    }
    for (c, n) in centroids.iter_mut().zip(counts) {
        for v in c.iter_mut() {
            *v /= n.max(1) as f64;
        }
    }
    let correct = labels
        .iter()
        .enumerate()
        .filter(|(i, &l)| {
            let d = |c: &[f64]| {
                (0..k)
                    .map(|j| (z.at(*i, j) as f64 - c[j]).powi(2))
                    .sum::<f64>()
            };
            usize::from(d(&centroids[1]) < d(&centroids[0])) == l
        })
        .count();
    correct as f64 / labels.len() as f64
}

pub fn run(quick: bool) -> BenchJson {
    header(
        "E12",
        "§III-C",
        "Multi-modal fusion (AE) + CCA on synthetic gunshot audio/video",
    );
    let noise = 0.22; // high per-modality noise: fusion should win
    let (audio, video, labels) = gunshot_data(if quick { 160 } else { 240 }, noise, 50);

    // Single-modality AEs vs fused AE.
    let mut ae_audio = Autoencoder::new(6, &[5], 2, 51);
    let mut ae_video = Autoencoder::new(10, &[7], 2, 52);
    let mut fused = FusionAutoencoder::new(6, 5, 10, 6, 3, 53);
    let mut opt_a = Adam::new(0.01);
    let mut opt_v = Adam::new(0.01);
    let mut opt_f = Adam::new(0.01);
    for _ in 0..if quick { 100 } else { 250 } {
        ae_audio.train_step(&audio, &mut opt_a);
        ae_video.train_step(&video, &mut opt_v);
        fused.train_step(&audio, &video, &mut opt_f);
    }
    let acc_audio = centroid_accuracy(&ae_audio.encode(&audio), &labels);
    let acc_video = centroid_accuracy(&ae_video.encode(&video), &labels);
    let z = fused.fuse(&audio, &video);
    let acc_fused = centroid_accuracy(&z, &labels);
    let acc_audio_only_fused = centroid_accuracy(&fused.fuse_a_only(&audio), &labels);
    table(
        &["detector", "latent_dim", "accuracy"],
        &[
            vec!["audio-only AE".into(), "2".into(), f3(acc_audio)],
            vec!["video-only AE".into(), "2".into(), f3(acc_video)],
            vec!["fused AE (paper)".into(), "3".into(), f3(acc_fused)],
            vec![
                "fused AE, audio only at test".into(),
                "3".into(),
                f3(acc_audio_only_fused),
            ],
        ],
    );

    // CCA correlation recovery across noise levels.
    println!("\nCCA top canonical correlation vs modality noise:");
    let mut json = BenchJson::new("e12", quick);
    json.det_f("accuracy_audio_only", acc_audio)
        .det_f("accuracy_video_only", acc_video)
        .det_f("accuracy_fused", acc_fused);
    let mut rows = Vec::new();
    for &nz in &[0.05, 0.15, 0.3, 0.5] {
        let (a, v, _) = gunshot_data(if quick { 200 } else { 300 }, nz, 54);
        let cca = Cca::fit(&a, &v, 2, 1e-5).unwrap();
        if (nz - 0.15).abs() < 1e-9 {
            json.det_f("cca_rho1_noise_0_15", cca.correlations()[0]);
        }
        rows.push(vec![
            f3(nz),
            f3(cca.correlations()[0]),
            f3(cca.correlations()[1]),
        ]);
    }
    table(&["noise", "rho_1", "rho_2"], &rows);
    json
}
