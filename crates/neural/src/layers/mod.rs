//! Neural network layers with explicit forward/backward passes.

mod conv;
mod dense;

pub use conv::{AvgPool2d, Conv2d, ConvError, GlobalAvgPool, MaxPool2d};
pub use dense::{BatchNorm1d, Dense, Dropout, Flatten, Relu, Sigmoid, Softmax, Tanh};

use sctelemetry::WorkDelta;

use crate::tensor::Tensor;

/// A trainable parameter: a value tensor and its accumulated gradient.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Current parameter values.
    pub value: Tensor,
    /// Gradient of the loss with respect to `value`, filled by `backward`.
    pub grad: Tensor,
}

impl Param {
    /// Wraps an initial value with a zeroed gradient of the same shape.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape().to_vec());
        Param { value, grad }
    }

    /// Resets the gradient to zero.
    pub fn zero_grad(&mut self) {
        for g in self.grad.data_mut() {
            *g = 0.0;
        }
    }
}

/// A differentiable layer with two passes and no mode flag.
///
/// [`Layer::forward`] is the **training pass**: it takes `&mut self`,
/// applies training-only behaviour (dropout masks, batch statistics and
/// their running averages) and caches whatever activations `backward`
/// needs; `backward` must then be called with the gradient of the loss with
/// respect to that output. Trainable layers expose their parameters through
/// [`Layer::params_mut`], which optimizers consume.
///
/// [`Layer::infer`] is the **inference pass**, the only one a deployed
/// model runs: it takes `&self`, reads parameters and running statistics,
/// and writes nothing — no cache, no RNG draw, no statistics update. That
/// is what lets `scpar` run batch chunks through one shared network
/// concurrently (the trait is `Sync` for exactly that reason), and why an
/// inference call between `forward` and `backward` cannot disturb the
/// gradients.
///
/// The trait is object-safe; networks are `Vec<Box<dyn Layer>>`.
pub trait Layer: std::fmt::Debug + Send + Sync {
    /// Training pass: computes the layer output for `input` and caches what
    /// [`Layer::backward`] needs.
    fn forward(&mut self, input: &Tensor) -> Tensor;

    /// Inference pass: computes the layer output for `input` without
    /// mutation. Row-independent layers must produce bit-identical outputs
    /// for any row subset, which is what makes chunked batch inference
    /// byte-stable across thread counts.
    fn infer(&self, input: &Tensor) -> Tensor;

    /// [`Layer::infer`] for a caller that is done with `input`: the same
    /// bits, and a layer that can write its output where its input was (the
    /// elementwise activations, `Flatten`, `Dropout`) allocates none.
    fn infer_owned(&self, input: Tensor) -> Tensor {
        self.infer(&input)
    }

    /// Propagates `grad_out` (dL/d-output) backwards, accumulating parameter
    /// gradients and returning dL/d-input.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before `forward`.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Mutable access to trainable parameters (empty for stateless layers).
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Shared access to trainable parameters (empty for stateless layers).
    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    /// A short human-readable layer name for summaries.
    fn name(&self) -> &'static str;

    /// Exact work model of one inference pass mapping a tensor of shape
    /// `input` to one of shape `output` (the profiling cost attributed to
    /// kernel `neural/layer/<name>` by [`crate::net::Sequential`]). Shapes,
    /// not tensors: by the time the output exists the input may have been
    /// moved into it ([`Layer::infer_owned`]).
    ///
    /// **Contract: the delta must be strictly linear in the batch row
    /// count, with no per-call constant term.** Chunked parallel inference
    /// ([`crate::net::Sequential::predict_ctx`]) runs `infer` once per
    /// worker's row chunk, so only row-linear models make the summed
    /// work independent of how the batch was split — which is what keeps
    /// `ProfileReport`s byte-identical across `SCPAR_THREADS`.
    ///
    /// The default charges two FLOPs per trainable parameter per row (one
    /// multiply-add each) plus one FLOP per output element, and counts the
    /// input/output streams as bytes moved. Layers with cheaper or more
    /// expensive structure override it with their exact formula.
    fn infer_work(&self, input: &[usize], output: &[usize]) -> WorkDelta {
        let rows = batch_rows(input);
        let params: u64 = self.params().iter().map(|p| p.value.len() as u64).sum();
        WorkDelta::flops(rows * 2 * params + elems(output))
            .with_bytes(stream_bytes(input, output))
            .with_items(rows)
    }
}

/// Elements of a tensor of `shape`.
pub(crate) fn elems(shape: &[usize]) -> u64 {
    shape.iter().product::<usize>() as u64
}

/// The batch dimension of `shape` (what work models are linear in).
pub(crate) fn batch_rows(shape: &[usize]) -> u64 {
    shape.first().copied().unwrap_or(0) as u64
}

/// Bytes moved by a layer that streams its input once and writes its
/// output once (`f32` elements). Row-linear by construction.
pub(crate) fn stream_bytes(input: &[usize], output: &[usize]) -> u64 {
    4 * (elems(input) + elems(output))
}

/// Row-wise numerically stable softmax (helper shared by the loss and the
/// early-exit confidence policies), vectorized via
/// [`scsimd::softmax_rows_f32`] on the process-wide ISA. Bit-identical on
/// every backend: the normalizing sum is element-ordered everywhere.
///
/// # Panics
///
/// Panics if `logits` is not 2-D.
pub fn softmax_rows(logits: &Tensor) -> Tensor {
    let c = logits.cols(); // asserts 2-D
    let mut out = logits.clone();
    scsimd::softmax_rows_f32(out.data_mut(), c, scsimd::Isa::active());
    out
}

/// Shannon entropy (nats) of each row of a probability tensor.
///
/// # Panics
///
/// Panics if `probs` is not 2-D.
pub fn entropy_rows(probs: &Tensor) -> Vec<f32> {
    let (r, c) = (probs.rows(), probs.cols());
    (0..r)
        .map(|i| {
            let mut h = 0.0;
            for j in 0..c {
                let p = probs.at(i, j);
                if p > 1e-12 {
                    h -= p * p.ln();
                }
            }
            h
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., -1., 0., 1.]).unwrap();
        let s = softmax_rows(&t);
        for i in 0..2 {
            let sum: f32 = (0..3).map(|j| s.at(i, j)).sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_handles_large_logits() {
        let t = Tensor::from_vec(vec![1, 2], vec![1000.0, 0.0]).unwrap();
        let s = softmax_rows(&t);
        assert!((s.at(0, 0) - 1.0).abs() < 1e-6);
        assert!(s.data().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn entropy_extremes() {
        let certain = Tensor::from_vec(vec![1, 4], vec![1.0, 0.0, 0.0, 0.0]).unwrap();
        assert!(entropy_rows(&certain)[0] < 1e-6);
        let uniform = Tensor::from_vec(vec![1, 4], vec![0.25; 4]).unwrap();
        assert!((entropy_rows(&uniform)[0] - 4.0f32.ln()).abs() < 1e-6);
    }

    #[test]
    fn param_zero_grad() {
        let mut p = Param::new(Tensor::ones(vec![2, 2]));
        p.grad = Tensor::ones(vec![2, 2]);
        p.zero_grad();
        assert_eq!(p.grad.sum(), 0.0);
    }
}
