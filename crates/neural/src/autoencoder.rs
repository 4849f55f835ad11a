//! Deep autoencoders and multi-modal fusion (paper §III-C).
//!
//! The paper's multi-modal methodology fuses "information of multiple modals,
//! such as video (image data) and sound (audio data) for gun shots" using
//! "fusion based on deep auto-encoders". [`Autoencoder`] is a plain deep AE;
//! [`FusionAutoencoder`] encodes each modality separately, concatenates the
//! latent codes through a shared fusion layer, and reconstructs both
//! modalities — the classic Ngiam et al. bimodal architecture the paper cites.

use crate::layers::{Dense, Layer, Relu, Sigmoid};
use crate::loss::mean_squared_error;
use crate::net::Sequential;
use crate::optim::Adam;
use crate::tensor::Tensor;

/// A deep autoencoder: `input → encoder → latent → decoder → reconstruction`.
///
/// # Examples
///
/// ```
/// use scneural::autoencoder::Autoencoder;
/// use scneural::tensor::Tensor;
///
/// let ae = Autoencoder::new(8, &[6], 3, 42);
/// let x = Tensor::full(vec![2, 8], 1.0);
/// assert_eq!(ae.encode(&x).shape(), &[2, 3]);
/// assert_eq!(ae.reconstruct(&x).shape(), &[2, 8]);
/// ```
#[derive(Debug)]
pub struct Autoencoder {
    encoder: Sequential,
    decoder: Sequential,
}

impl Autoencoder {
    /// Builds a symmetric AE: `input → hidden... → latent → reversed
    /// hidden... → input`, with ReLU between layers and a sigmoid output
    /// (inputs are expected in `[0, 1]`).
    pub fn new(input: usize, hidden: &[usize], latent: usize, seed: u64) -> Self {
        let mut encoder = Sequential::new();
        let mut dims = vec![input];
        dims.extend_from_slice(hidden);
        dims.push(latent);
        for (i, w) in dims.windows(2).enumerate() {
            encoder.push(Box::new(Dense::new(
                w[0],
                w[1],
                seed.wrapping_add(i as u64),
            )));
            if i + 2 < dims.len() {
                encoder.push(Box::new(Relu::new()));
            }
        }
        let mut decoder = Sequential::new();
        let rev: Vec<usize> = dims.iter().rev().copied().collect();
        for (i, w) in rev.windows(2).enumerate() {
            decoder.push(Box::new(Dense::new(
                w[0],
                w[1],
                seed.wrapping_add(100 + i as u64),
            )));
            if i + 2 < rev.len() {
                decoder.push(Box::new(Relu::new()));
            } else {
                decoder.push(Box::new(Sigmoid::new()));
            }
        }
        Autoencoder { encoder, decoder }
    }

    /// Encodes input to latent codes.
    pub fn encode(&self, input: &Tensor) -> Tensor {
        self.encoder.predict(input)
    }

    /// Full reconstruction pass.
    pub fn reconstruct(&self, input: &Tensor) -> Tensor {
        let z = self.encoder.predict(input);
        self.decoder.predict(&z)
    }

    /// One training step minimizing reconstruction MSE. Returns the loss.
    pub fn train_step(&mut self, input: &Tensor, optimizer: &mut Adam) -> f32 {
        let z = self.encoder.forward(input);
        let out = self.decoder.forward(&z);
        let (loss, grad) = mean_squared_error(&out, input);
        let g_latent = self.decoder.backward(&grad);
        self.encoder.backward(&g_latent);
        let mut params = self.encoder.params_mut();
        params.extend(self.decoder.params_mut());
        optimizer.step(params);
        loss
    }
}

/// A bimodal fusion autoencoder: two modality encoders meeting in a shared
/// latent, decoded back to both modalities.
///
/// The fused latent can be used directly as a joint representation for
/// downstream classifiers (see the E12 experiment), including when one
/// modality is missing at inference time (zero-filled).
#[derive(Debug)]
pub struct FusionAutoencoder {
    encoder_a: Sequential,
    encoder_b: Sequential,
    fusion: Sequential,
    defusion: Sequential,
    decoder_a: Sequential,
    decoder_b: Sequential,
    dim_b: usize,
    code_a: usize,
}

impl FusionAutoencoder {
    /// Builds a fusion AE for modalities of width `dim_a`/`dim_b`, each with
    /// its own pre-fusion code width, joined into a shared `latent`.
    pub fn new(
        dim_a: usize,
        code_a: usize,
        dim_b: usize,
        code_b: usize,
        latent: usize,
        seed: u64,
    ) -> Self {
        let enc = |d_in: usize, d_out: usize, s: u64| {
            Sequential::new()
                .with(Dense::new(d_in, d_out, s))
                .with(Relu::new())
        };
        FusionAutoencoder {
            encoder_a: enc(dim_a, code_a, seed),
            encoder_b: enc(dim_b, code_b, seed.wrapping_add(1)),
            fusion: Sequential::new()
                .with(Dense::new(code_a + code_b, latent, seed.wrapping_add(2)))
                .with(Relu::new()),
            defusion: Sequential::new()
                .with(Dense::new(latent, code_a + code_b, seed.wrapping_add(3)))
                .with(Relu::new()),
            decoder_a: Sequential::new()
                .with(Dense::new(code_a, dim_a, seed.wrapping_add(4)))
                .with(Sigmoid::new()),
            decoder_b: Sequential::new()
                .with(Dense::new(code_b, dim_b, seed.wrapping_add(5)))
                .with(Sigmoid::new()),
            dim_b,
            code_a,
        }
    }

    /// Fused latent code for a pair of modality batches.
    ///
    /// # Panics
    ///
    /// Panics if the two batches have different row counts.
    pub fn fuse(&self, a: &Tensor, b: &Tensor) -> Tensor {
        assert_eq!(a.rows(), b.rows(), "modalities must align by row");
        let za = self.encoder_a.predict(a);
        let zb = self.encoder_b.predict(b);
        let joint = Tensor::hstack(&[za, zb]).expect("same rows");
        self.fusion.predict(&joint)
    }

    /// Fused latent when only modality A is observed (B zero-filled) —
    /// exercises the cross-modal robustness the fusion is trained for.
    pub fn fuse_a_only(&self, a: &Tensor) -> Tensor {
        let zeros = Tensor::zeros(vec![a.rows(), self.dim_b]);
        self.fuse(a, &zeros)
    }

    /// Reconstructs both modalities from a pair of inputs.
    pub fn reconstruct(&self, a: &Tensor, b: &Tensor) -> (Tensor, Tensor) {
        let z = self.fuse(a, b);
        let codes = self.defusion.predict(&z);
        let (ca, cb) = codes.hsplit(self.code_a);
        (self.decoder_a.predict(&ca), self.decoder_b.predict(&cb))
    }

    /// One joint reconstruction training step. Returns the summed MSE of both
    /// modality reconstructions.
    pub fn train_step(&mut self, a: &Tensor, b: &Tensor, optimizer: &mut Adam) -> f32 {
        let za = self.encoder_a.forward(a);
        let zb = self.encoder_b.forward(b);
        let joint = Tensor::hstack(&[za, zb]).expect("same rows");
        let z = self.fusion.forward(&joint);
        let codes = self.defusion.forward(&z);
        let (ca, cb) = codes.hsplit(self.code_a);
        let out_a = self.decoder_a.forward(&ca);
        let out_b = self.decoder_b.forward(&cb);

        let (loss_a, grad_a) = mean_squared_error(&out_a, a);
        let (loss_b, grad_b) = mean_squared_error(&out_b, b);

        let g_ca = self.decoder_a.backward(&grad_a);
        let g_cb = self.decoder_b.backward(&grad_b);
        let g_codes = Tensor::hstack(&[g_ca, g_cb]).expect("same rows");
        let g_z = self.defusion.backward(&g_codes);
        let g_joint = self.fusion.backward(&g_z);
        let (g_za, g_zb) = g_joint.hsplit(self.code_a);
        self.encoder_a.backward(&g_za);
        self.encoder_b.backward(&g_zb);

        let mut params = self.encoder_a.params_mut();
        params.extend(self.encoder_b.params_mut());
        params.extend(self.fusion.params_mut());
        params.extend(self.defusion.params_mut());
        params.extend(self.decoder_a.params_mut());
        params.extend(self.decoder_b.params_mut());
        optimizer.step(params);
        loss_a + loss_b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use simclock::SeededRng;

    fn structured_batch(n: usize, d: usize, seed: u64) -> Tensor {
        // Low-rank structure: each row is one of two prototype patterns plus
        // noise, so a small latent suffices.
        let mut rng = SeededRng::new(seed);
        let mut data = Vec::with_capacity(n * d);
        for i in 0..n {
            let proto = i % 2;
            for j in 0..d {
                let base = if (j + proto) % 2 == 0 { 0.9 } else { 0.1 };
                data.push((base + rng.gaussian(0.0, 0.02)).clamp(0.0, 1.0) as f32);
            }
        }
        Tensor::from_vec(vec![n, d], data).unwrap()
    }

    #[test]
    fn autoencoder_shapes() {
        let ae = Autoencoder::new(10, &[8, 6], 2, 1);
        let x = Tensor::full(vec![3, 10], 1.0);
        assert_eq!(ae.encode(&x).shape(), &[3, 2]);
        assert_eq!(ae.reconstruct(&x).shape(), &[3, 10]);
    }

    #[test]
    fn autoencoder_learns_reconstruction() {
        let x = structured_batch(32, 8, 2);
        let mut ae = Autoencoder::new(8, &[6], 2, 3);
        let mut opt = Adam::new(0.01);
        let error = |ae: &Autoencoder| ae.reconstruct(&x).sub(&x).unwrap().norm_sq();
        let e0 = error(&ae);
        for _ in 0..300 {
            ae.train_step(&x, &mut opt);
        }
        let e1 = error(&ae);
        assert!(e1 < e0 * 0.3, "error {e0} -> {e1}");
    }

    #[test]
    fn fusion_shapes() {
        let fae = FusionAutoencoder::new(6, 4, 10, 5, 3, 4);
        let a = Tensor::full(vec![2, 6], 1.0);
        let b = Tensor::full(vec![2, 10], 1.0);
        assert_eq!(fae.fuse(&a, &b).shape(), &[2, 3]);
        let (ra, rb) = fae.reconstruct(&a, &b);
        assert_eq!(ra.shape(), &[2, 6]);
        assert_eq!(rb.shape(), &[2, 10]);
    }

    #[test]
    fn fusion_learns_joint_reconstruction() {
        // Correlated modalities: B is a noisy projection of A's pattern.
        let a = structured_batch(24, 6, 5);
        let b = structured_batch(24, 10, 5); // same prototype sequence (i % 2)
        let mut fae = FusionAutoencoder::new(6, 5, 10, 6, 4, 6);
        let mut opt = Adam::new(0.01);
        let l0 = fae.train_step(&a, &b, &mut opt);
        let mut l1 = l0;
        for _ in 0..250 {
            l1 = fae.train_step(&a, &b, &mut opt);
        }
        assert!(l1 < l0 * 0.3, "loss {l0} -> {l1}");
    }

    #[test]
    fn fuse_a_only_runs() {
        let fae = FusionAutoencoder::new(4, 3, 5, 3, 2, 7);
        let a = Tensor::full(vec![3, 4], 1.0);
        assert_eq!(fae.fuse_a_only(&a).shape(), &[3, 2]);
    }

    #[test]
    #[should_panic(expected = "align by row")]
    fn fuse_rejects_mismatched_batches() {
        let fae = FusionAutoencoder::new(4, 3, 5, 3, 2, 8);
        let _ = fae.fuse(
            &Tensor::full(vec![2, 4], 1.0),
            &Tensor::full(vec![3, 5], 1.0),
        );
    }
}
