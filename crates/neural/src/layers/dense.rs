//! Fully connected layers, activations, and regularizers.

use simclock::SeededRng;

use sctelemetry::WorkDelta;

use crate::init;
use crate::layers::{batch_rows, elems, softmax_rows, stream_bytes, Layer, Param};
use crate::tensor::Tensor;

/// A fully connected (affine) layer: `y = x W + b`.
///
/// Input `[batch, in_features]`, output `[batch, out_features]`.
///
/// # Examples
///
/// ```
/// use scneural::layers::{Dense, Layer};
/// use scneural::tensor::Tensor;
///
/// let d = Dense::new(3, 2, 42);
/// let x = Tensor::ones(vec![4, 3]);
/// let y = d.infer(&x);
/// assert_eq!(y.shape(), &[4, 2]);
/// ```
#[derive(Debug)]
pub struct Dense {
    weight: Param,
    bias: Param,
    cached_input: Option<Tensor>,
}

impl Dense {
    /// Creates a layer with He-uniform weights derived from `seed`.
    pub fn new(in_features: usize, out_features: usize, seed: u64) -> Self {
        let mut rng = SeededRng::new(seed);
        Dense {
            weight: Param::new(init::he_uniform(
                vec![in_features, out_features],
                in_features,
                &mut rng,
            )),
            bias: Param::new(Tensor::zeros(vec![1, out_features])),
            cached_input: None,
        }
    }

    /// Input feature count.
    fn in_features(&self) -> usize {
        self.weight.value.shape()[0]
    }

    /// Output feature count.
    fn out_features(&self) -> usize {
        self.weight.value.shape()[1]
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        self.cached_input = Some(input.clone());
        self.infer(input)
    }

    /// The bias is added into the product, which this call owns.
    fn infer(&self, input: &Tensor) -> Tensor {
        let mut y = input
            .matmul(&self.weight.value)
            .expect("dense input width must equal in_features");
        y.add_row_assign(&self.bias.value);
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        // Taken, not borrowed, here and in every layer below: a net that is
        // done training holds its parameters, not its last batch.
        let input = self.cached_input.take().expect("backward before forward");
        let dw = input
            .transpose()
            .matmul(grad_out)
            .expect("shape checked in forward");
        self.weight.grad.add_assign(&dw);
        self.bias.grad.add_assign(&grad_out.sum_rows());
        grad_out
            .matmul(&self.weight.value.transpose())
            .expect("shape checked in forward")
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }

    fn name(&self) -> &'static str {
        "Dense"
    }

    fn infer_work(&self, input: &[usize], output: &[usize]) -> WorkDelta {
        // Per row: a k×n multiply-add matmul row (2kn) plus the bias add (n).
        let rows = batch_rows(input);
        let (k, n) = (self.in_features() as u64, self.out_features() as u64);
        WorkDelta::flops(rows * (2 * k + 1) * n)
            .with_bytes(stream_bytes(input, output))
            .with_items(rows)
    }
}

/// Applies an in-place scsimd slice kernel to `x`, on the process-wide ISA
/// (bit-identical on every backend).
fn vec_apply(mut x: Tensor, op: fn(&mut [f32], scsimd::Isa)) -> Tensor {
    op(x.data_mut(), scsimd::Isa::active());
    x
}

/// `[batch, ...]` → `[batch, features]` of the same elements.
fn flat_shape(shape: &[usize]) -> Vec<usize> {
    assert!(!shape.is_empty(), "flatten needs a batched input");
    vec![shape[0], shape[1..].iter().product()]
}

/// Rectified linear activation.
#[derive(Debug, Default)]
pub struct Relu {
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// Creates a ReLU.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        self.mask = Some(input.data().iter().map(|&x| x > 0.0).collect());
        vec_apply(input.clone(), scsimd::relu_f32)
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        vec_apply(input.clone(), scsimd::relu_f32)
    }

    fn infer_owned(&self, input: Tensor) -> Tensor {
        vec_apply(input, scsimd::relu_f32)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mask = self.mask.take().expect("backward before forward");
        let data = grad_out
            .data()
            .iter()
            .zip(mask)
            .map(|(&g, m)| if m { g } else { 0.0 })
            .collect();
        Tensor::from_vec(grad_out.shape().to_vec(), data).expect("same length")
    }

    fn name(&self) -> &'static str {
        "Relu"
    }

    fn infer_work(&self, input: &[usize], output: &[usize]) -> WorkDelta {
        // One max per element.
        WorkDelta::flops(elems(input))
            .with_bytes(stream_bytes(input, output))
            .with_items(batch_rows(input))
    }
}

/// Logistic sigmoid activation.
#[derive(Debug, Default)]
pub struct Sigmoid {
    output: Option<Tensor>,
}

impl Sigmoid {
    /// Creates a sigmoid.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Sigmoid {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let out = vec_apply(input.clone(), scsimd::sigmoid_f32);
        self.output = Some(out.clone());
        out
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        vec_apply(input.clone(), scsimd::sigmoid_f32)
    }

    fn infer_owned(&self, input: Tensor) -> Tensor {
        vec_apply(input, scsimd::sigmoid_f32)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let out = self.output.take().expect("backward before forward");
        let deriv = out.map(|y| y * (1.0 - y));
        grad_out.mul(&deriv).expect("same shape")
    }

    fn name(&self) -> &'static str {
        "Sigmoid"
    }

    fn infer_work(&self, input: &[usize], output: &[usize]) -> WorkDelta {
        // exp, add, divide, negate: four ops per element.
        WorkDelta::flops(4 * elems(input))
            .with_bytes(stream_bytes(input, output))
            .with_items(batch_rows(input))
    }
}

/// Hyperbolic tangent activation.
#[derive(Debug, Default)]
pub struct Tanh {
    output: Option<Tensor>,
}

impl Layer for Tanh {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let out = vec_apply(input.clone(), scsimd::tanh_f32);
        self.output = Some(out.clone());
        out
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        vec_apply(input.clone(), scsimd::tanh_f32)
    }

    fn infer_owned(&self, input: Tensor) -> Tensor {
        vec_apply(input, scsimd::tanh_f32)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let out = self.output.take().expect("backward before forward");
        let deriv = out.map(|y| 1.0 - y * y);
        grad_out.mul(&deriv).expect("same shape")
    }

    fn name(&self) -> &'static str {
        "Tanh"
    }

    fn infer_work(&self, input: &[usize], output: &[usize]) -> WorkDelta {
        // Counted like sigmoid: four ops per element.
        WorkDelta::flops(4 * elems(input))
            .with_bytes(stream_bytes(input, output))
            .with_items(batch_rows(input))
    }
}

/// Row-wise softmax as a standalone inference layer.
///
/// For training, prefer [`crate::loss::SoftmaxCrossEntropy`], which fuses the
/// softmax into the loss gradient; this layer's backward pass implements the
/// full Jacobian product and is provided for completeness.
#[derive(Debug, Default)]
pub struct Softmax {
    output: Option<Tensor>,
}

impl Layer for Softmax {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let out = softmax_rows(input);
        self.output = Some(out.clone());
        out
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        softmax_rows(input)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let y = self.output.take().expect("backward before forward");
        let (r, c) = (y.rows(), y.cols());
        let mut out = Tensor::zeros(vec![r, c]);
        for i in 0..r {
            // dx_j = y_j * (g_j - Σ_k g_k y_k)
            let dot: f32 = (0..c).map(|k| grad_out.at(i, k) * y.at(i, k)).sum();
            for j in 0..c {
                out.set(i, j, y.at(i, j) * (grad_out.at(i, j) - dot));
            }
        }
        out
    }

    fn name(&self) -> &'static str {
        "Softmax"
    }

    fn infer_work(&self, input: &[usize], output: &[usize]) -> WorkDelta {
        // Per element: max scan, subtract+exp, sum, divide.
        WorkDelta::flops(4 * elems(input))
            .with_bytes(stream_bytes(input, output))
            .with_items(batch_rows(input))
    }
}

/// Flattens `[batch, ...]` input to `[batch, features]`, remembering the
/// original shape for the backward pass.
#[derive(Debug, Default)]
pub struct Flatten {
    input_shape: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let flat = self.infer(input);
        self.input_shape = Some(input.shape().to_vec());
        flat
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        input
            .reshape(flat_shape(input.shape()))
            .expect("same element count")
    }

    fn infer_owned(&self, input: Tensor) -> Tensor {
        let shape = flat_shape(input.shape());
        Tensor::from_vec(shape, input.into_data()).expect("same element count")
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let shape = self.input_shape.take().expect("backward before forward");
        grad_out.reshape(shape).expect("same element count")
    }

    fn name(&self) -> &'static str {
        "Flatten"
    }

    fn infer_work(&self, input: &[usize], output: &[usize]) -> WorkDelta {
        // Pure reshape: data moves, nothing is computed.
        WorkDelta::bytes(stream_bytes(input, output)).with_items(batch_rows(input))
    }
}

/// Inverted dropout: `forward` zeroes each activation with probability `p`
/// and scales survivors by `1/(1-p)`; `infer` is the identity.
#[derive(Debug)]
pub struct Dropout {
    p: f32,
    rng: SeededRng,
    mask: Option<Vec<f32>>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= p < 1`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout probability must be in [0, 1)"
        );
        Dropout {
            p,
            rng: SeededRng::new(seed),
            mask: None,
        }
    }
}

impl Layer for Dropout {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        if self.p == 0.0 {
            // Nothing is dropped: an empty mask tells `backward` so.
            self.mask = Some(Vec::new());
            return input.clone();
        }
        let keep = 1.0 - self.p;
        let mask: Vec<f32> = (0..input.len())
            .map(|_| {
                if self.rng.chance(self.p as f64) {
                    0.0
                } else {
                    1.0 / keep
                }
            })
            .collect();
        let data = input
            .data()
            .iter()
            .zip(&mask)
            .map(|(&x, &m)| x * m)
            .collect();
        self.mask = Some(mask);
        Tensor::from_vec(input.shape().to_vec(), data).expect("same length")
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        input.clone()
    }

    fn infer_owned(&self, input: Tensor) -> Tensor {
        input
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mask = self.mask.take().expect("backward before forward");
        if mask.is_empty() {
            return grad_out.clone();
        }
        let data = grad_out
            .data()
            .iter()
            .zip(mask)
            .map(|(&g, m)| g * m)
            .collect();
        Tensor::from_vec(grad_out.shape().to_vec(), data).expect("same length")
    }

    fn name(&self) -> &'static str {
        "Dropout"
    }

    fn infer_work(&self, input: &[usize], output: &[usize]) -> WorkDelta {
        // Inference-mode dropout is the identity: a copy, no arithmetic.
        WorkDelta::bytes(stream_bytes(input, output)).with_items(batch_rows(input))
    }
}

/// Batch normalization over the feature dimension of `[batch, features]`
/// input, with learned scale/shift and running statistics for inference.
#[derive(Debug)]
pub struct BatchNorm1d {
    gamma: Param,
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    momentum: f32,
    eps: f32,
    cache: Option<BnCache>,
}

#[derive(Debug)]
struct BnCache {
    normalized: Tensor,
    std_inv: Vec<f32>,
}

impl BatchNorm1d {
    /// Creates a batch-norm layer over `features` features.
    pub fn new(features: usize) -> Self {
        BatchNorm1d {
            gamma: Param::new(Tensor::ones(vec![1, features])),
            beta: Param::new(Tensor::zeros(vec![1, features])),
            running_mean: vec![0.0; features],
            running_var: vec![1.0; features],
            momentum: 0.1,
            eps: 1e-5,
            cache: None,
        }
    }
}

impl Layer for BatchNorm1d {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let (n, d) = (input.rows(), input.cols());
        let mut out = Tensor::zeros(vec![n, d]);
        let mut mean = vec![0.0f32; d];
        let mut var = vec![0.0f32; d];
        for j in 0..d {
            for i in 0..n {
                mean[j] += input.at(i, j);
            }
            mean[j] /= n as f32;
        }
        for j in 0..d {
            for i in 0..n {
                let diff = input.at(i, j) - mean[j];
                var[j] += diff * diff;
            }
            var[j] /= n as f32;
        }
        let std_inv: Vec<f32> = var.iter().map(|&v| 1.0 / (v + self.eps).sqrt()).collect();
        let mut normalized = Tensor::zeros(vec![n, d]);
        for i in 0..n {
            for j in 0..d {
                let xn = (input.at(i, j) - mean[j]) * std_inv[j];
                normalized.set(i, j, xn);
                out.set(
                    i,
                    j,
                    self.gamma.value.at(0, j) * xn + self.beta.value.at(0, j),
                );
            }
        }
        for j in 0..d {
            self.running_mean[j] =
                (1.0 - self.momentum) * self.running_mean[j] + self.momentum * mean[j];
            self.running_var[j] =
                (1.0 - self.momentum) * self.running_var[j] + self.momentum * var[j];
        }
        self.cache = Some(BnCache {
            normalized,
            std_inv,
        });
        out
    }

    /// Normalizes with the running statistics `forward` has accumulated.
    fn infer(&self, input: &Tensor) -> Tensor {
        let (n, d) = (input.rows(), input.cols());
        let mut out = Tensor::zeros(vec![n, d]);
        for i in 0..n {
            for j in 0..d {
                let xn = (input.at(i, j) - self.running_mean[j])
                    / (self.running_var[j] + self.eps).sqrt();
                out.set(
                    i,
                    j,
                    self.gamma.value.at(0, j) * xn + self.beta.value.at(0, j),
                );
            }
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self.cache.take().expect("backward before forward");
        let (n, d) = (grad_out.rows(), grad_out.cols());
        let nf = n as f32;
        let mut grad_in = Tensor::zeros(vec![n, d]);
        for j in 0..d {
            let gamma = self.gamma.value.at(0, j);
            let mut sum_g = 0.0;
            let mut sum_gx = 0.0;
            for i in 0..n {
                let g = grad_out.at(i, j);
                sum_g += g;
                sum_gx += g * cache.normalized.at(i, j);
            }
            self.gamma.grad.data_mut()[j] += sum_gx;
            self.beta.grad.data_mut()[j] += sum_g;
            for i in 0..n {
                let g = grad_out.at(i, j);
                let xn = cache.normalized.at(i, j);
                let dx = gamma * cache.std_inv[j] / nf * (nf * g - sum_g - xn * sum_gx);
                grad_in.set(i, j, dx);
            }
        }
        grad_in
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.gamma, &self.beta]
    }

    fn name(&self) -> &'static str {
        "BatchNorm1d"
    }

    fn infer_work(&self, input: &[usize], output: &[usize]) -> WorkDelta {
        // Per element: subtract mean, sqrt(var+eps), divide, scale, shift.
        WorkDelta::flops(5 * elems(input))
            .with_bytes(stream_bytes(input, output))
            .with_items(batch_rows(input))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Finite-difference gradient check for a dense layer.
    #[test]
    fn dense_gradient_check() {
        let mut layer = Dense::new(3, 2, 7);
        let x = Tensor::from_vec(vec![2, 3], vec![0.5, -0.2, 0.8, 1.0, 0.3, -0.7]).unwrap();
        // Loss = sum(output); dL/dy = ones.
        let y = layer.forward(&x);
        let grad_out = Tensor::ones(y.shape().to_vec());
        let grad_in = layer.backward(&grad_out);

        // Numerical dL/dx.
        let eps = 1e-3;
        for idx in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let mut l2 = Dense::new(3, 2, 7);
            let fp = l2.forward(&xp).sum();
            let fm = l2.forward(&xm).sum();
            let num = (fp - fm) / (2.0 * eps);
            let ana = grad_in.data()[idx];
            assert!(
                (num - ana).abs() < 1e-2,
                "idx {idx}: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn dense_weight_gradient_check() {
        let x = Tensor::from_vec(vec![2, 3], vec![0.5, -0.2, 0.8, 1.0, 0.3, -0.7]).unwrap();
        let mut layer = Dense::new(3, 2, 9);
        let y = layer.forward(&x);
        layer.backward(&Tensor::ones(y.shape().to_vec()));
        let analytic = layer.params()[0].grad.clone();

        let eps = 1e-3;
        let n_w = analytic.len();
        for idx in 0..n_w {
            let mut lp = Dense::new(3, 2, 9);
            lp.params_mut()[0].value.data_mut()[idx] += eps;
            let fp = lp.forward(&x).sum();
            let mut lm = Dense::new(3, 2, 9);
            lm.params_mut()[0].value.data_mut()[idx] -= eps;
            let fm = lm.forward(&x).sum();
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - analytic.data()[idx]).abs() < 1e-2,
                "w[{idx}]: numeric {num} vs analytic {}",
                analytic.data()[idx]
            );
        }
    }

    #[test]
    fn relu_masks_negative() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(vec![1, 4], vec![-1., 2., -3., 4.]).unwrap();
        let y = r.forward(&x);
        assert_eq!(y.data(), &[0., 2., 0., 4.]);
        let g = r.backward(&Tensor::ones(vec![1, 4]));
        assert_eq!(g.data(), &[0., 1., 0., 1.]);
    }

    #[test]
    fn sigmoid_range_and_gradient() {
        let mut s = Sigmoid::new();
        let x = Tensor::from_vec(vec![1, 3], vec![-10., 0., 10.]).unwrap();
        let y = s.forward(&x);
        assert!(y.at(0, 0) < 0.001 && (y.at(0, 1) - 0.5).abs() < 1e-6 && y.at(0, 2) > 0.999);
        let g = s.backward(&Tensor::ones(vec![1, 3]));
        // Max derivative at 0 is 0.25.
        assert!((g.at(0, 1) - 0.25).abs() < 1e-6);
    }

    #[test]
    fn tanh_gradient_check() {
        let mut t = Tanh::default();
        let x = Tensor::from_vec(vec![1, 2], vec![0.3, -0.9]).unwrap();
        t.forward(&x);
        let g = t.backward(&Tensor::ones(vec![1, 2]));
        for idx in 0..2 {
            let eps = 1e-3;
            let num = ((x.data()[idx] + eps).tanh() - (x.data()[idx] - eps).tanh()) / (2.0 * eps);
            assert!((g.data()[idx] - num).abs() < 1e-4);
        }
    }

    #[test]
    fn softmax_layer_backward_matches_jacobian() {
        let mut s = Softmax::default();
        let x = Tensor::from_vec(vec![1, 3], vec![0.2, -0.1, 0.5]).unwrap();
        s.forward(&x);
        let grad_out = Tensor::from_vec(vec![1, 3], vec![1.0, 0.0, 0.0]).unwrap();
        let g = s.backward(&grad_out);
        // Numerical check on first logit component.
        let eps = 1e-3;
        for idx in 0..3 {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let fp = softmax_rows(&xp).at(0, 0);
            let fm = softmax_rows(&xm).at(0, 0);
            let num = (fp - fm) / (2.0 * eps);
            assert!((g.data()[idx] - num).abs() < 1e-3, "idx {idx}");
        }
    }

    #[test]
    fn flatten_roundtrip() {
        let mut f = Flatten::new();
        let x = Tensor::zeros(vec![2, 3, 4, 4]);
        let y = f.forward(&x);
        assert_eq!(y.shape(), &[2, 48]);
        let g = f.backward(&Tensor::ones(vec![2, 48]));
        assert_eq!(g.shape(), &[2, 3, 4, 4]);
    }

    #[test]
    fn infer_owned_is_infer_without_the_copy() {
        let data = (0..12).map(|i| i as f32 / 3.0 - 2.0).collect();
        let x = Tensor::from_vec(vec![2, 3, 1, 2], data).unwrap();
        let layers: [Box<dyn Layer>; 5] = [
            Box::new(Relu::new()),
            Box::new(Sigmoid::new()),
            Box::new(Tanh::default()),
            Box::new(Flatten::new()),
            Box::new(Dropout::new(0.5, 1)),
        ];
        for layer in layers {
            let (lent, moved) = (layer.infer(&x), layer.infer_owned(x.clone()));
            assert_eq!(moved.shape(), lent.shape(), "{}", layer.name());
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&moved), bits(&lent), "{}", layer.name());
        }
    }

    #[test]
    fn dropout_inference_is_identity() {
        let d = Dropout::new(0.5, 1);
        let x = Tensor::ones(vec![4, 4]);
        assert_eq!(d.infer(&x), x);
    }

    #[test]
    fn dropout_train_preserves_expectation() {
        let mut d = Dropout::new(0.5, 2);
        let x = Tensor::ones(vec![100, 100]);
        let y = d.forward(&x);
        // E[y] = 1; tolerate sampling noise.
        assert!((y.mean() - 1.0).abs() < 0.05, "mean {}", y.mean());
        // Some elements dropped, survivors scaled to 2.
        assert!(y.data().contains(&0.0));
        assert!(y.data().iter().any(|&v| (v - 2.0).abs() < 1e-6));
    }

    #[test]
    fn dropout_backward_uses_same_mask() {
        let mut d = Dropout::new(0.5, 3);
        let x = Tensor::ones(vec![10, 10]);
        let y = d.forward(&x);
        let g = d.backward(&Tensor::ones(vec![10, 10]));
        assert_eq!(y.data(), g.data(), "identical mask and scale");
    }

    #[test]
    fn batchnorm_normalizes_in_train() {
        let mut bn = BatchNorm1d::new(2);
        let x = Tensor::from_vec(vec![4, 2], vec![1., 10., 2., 20., 3., 30., 4., 40.]).unwrap();
        let y = bn.forward(&x);
        // Each column ~ zero mean, unit variance.
        for j in 0..2 {
            let col: Vec<f32> = (0..4).map(|i| y.at(i, j)).collect();
            let mean: f32 = col.iter().sum::<f32>() / 4.0;
            let var: f32 = col.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5);
            assert!((var - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn batchnorm_inference_uses_running_stats() {
        let mut bn = BatchNorm1d::new(1);
        let x = Tensor::from_vec(vec![4, 1], vec![1., 2., 3., 4.]).unwrap();
        for _ in 0..50 {
            bn.forward(&x);
        }
        let y = bn.infer(&x);
        // Running stats converge to batch stats, so output ≈ normalized input.
        let mean: f32 = y.data().iter().sum::<f32>() / 4.0;
        assert!(mean.abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn batchnorm_gradient_shapes() {
        let mut bn = BatchNorm1d::new(3);
        let x = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        bn.forward(&x);
        let g = bn.backward(&Tensor::ones(vec![2, 3]));
        assert_eq!(g.shape(), &[2, 3]);
        assert_eq!(bn.params()[0].grad.shape(), &[1, 3]);
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn relu_backward_requires_forward() {
        let mut r = Relu::new();
        let _ = r.backward(&Tensor::ones(vec![1, 1]));
    }

    /// `p == 0` caches no mask worth the name, but a second `backward` is
    /// refused like everyone else's.
    #[test]
    #[should_panic(expected = "backward before forward")]
    fn dropout_backward_takes_what_forward_left_even_at_p_zero() {
        let mut d = Dropout::new(0.0, 1);
        let g = Tensor::ones(vec![1, 2]);
        d.forward(&g);
        assert_eq!(d.backward(&g), g);
        let _ = d.backward(&g);
    }
}
