//! The fully connected layer, its activations and the flatten step.
//!
//! Which failures are which: an input of the wrong rank or width is
//! *input-reachable* — a [`PlanError`] from `plan_step`, the `Display`
//! text of the panic `infer` raises, and a panic in `forward`. The
//! `expect`s in this file are internal invariants: `backward` before
//! `forward` (the caller's ordering) and sizes this file computed itself.

use simclock::SeededRng;

use sctelemetry::WorkDelta;

use crate::init;
use crate::layers::{
    batch_rows, elems, expect_rank, expect_width, stream_bytes, Io, Layer, Param, PlanError, Step,
};
use crate::tensor::{add_bias_rows, Tensor};

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
/// let x = Tensor::full(vec![4, 3], 1.0);
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

    fn plan_step(&self, input: &[usize], out: &mut Vec<usize>) -> Result<Step, PlanError> {
        expect_rank("Dense", input, 2)?;
        expect_width("Dense", input, self.in_features())?;
        out.extend_from_slice(&[input[0], self.out_features()]);
        Ok(Step::Apart { scratch: 0 })
    }

    /// `x W` from `+0.0` (the scsimd panel adds onto what `out` holds),
    /// then the bias.
    fn infer_into(&self, io: Io<'_>, _scratch: &mut [f32]) {
        let (input, out) = io.apart();
        let (k, n) = (self.in_features(), self.out_features());
        out.fill(0.0);
        let weight = self.weight.value.data();
        scsimd::matmul_panel_f32(input.data(), weight, k, n, out, scsimd::Isa::active());
        add_bias_rows(out, self.bias.value.data());
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

/// The plan of an elementwise activation: any shape, in place.
fn elementwise(input: &[usize], out: &mut Vec<usize>) -> Result<Step, PlanError> {
    out.extend_from_slice(input);
    Ok(Step::InPlace)
}

/// An elementwise activation's inference: `op` over the output buffer
/// holding the input.
fn apply_in_place(io: Io<'_>, op: fn(&mut [f32], scsimd::Isa)) {
    op(io.in_place().1, scsimd::Isa::active());
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

    fn plan_step(&self, input: &[usize], out: &mut Vec<usize>) -> Result<Step, PlanError> {
        elementwise(input, out)
    }

    fn infer_into(&self, io: Io<'_>, _scratch: &mut [f32]) {
        apply_in_place(io, scsimd::relu_f32);
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

    fn plan_step(&self, input: &[usize], out: &mut Vec<usize>) -> Result<Step, PlanError> {
        elementwise(input, out)
    }

    fn infer_into(&self, io: Io<'_>, _scratch: &mut [f32]) {
        apply_in_place(io, scsimd::sigmoid_f32);
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

    /// `[batch, ...]` → `[batch, features]` of the same elements.
    fn plan_step(&self, input: &[usize], out: &mut Vec<usize>) -> Result<Step, PlanError> {
        let Some((&rows, features)) = input.split_first() else {
            return expect_rank("Flatten", input, 1).map(|()| Step::Relabel);
        };
        out.extend_from_slice(&[rows, features.iter().product()]);
        Ok(Step::Relabel)
    }

    /// The same elements: a copy when lent its input, nothing in place.
    fn infer_into(&self, io: Io<'_>, _scratch: &mut [f32]) {
        io.in_place();
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
        let grad_out = Tensor::full(y.shape().to_vec(), 1.0);
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
        layer.backward(&Tensor::full(y.shape().to_vec(), 1.0));
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
        let g = r.backward(&Tensor::full(vec![1, 4], 1.0));
        assert_eq!(g.data(), &[0., 1., 0., 1.]);
    }

    #[test]
    fn sigmoid_range_and_gradient() {
        let mut s = Sigmoid::new();
        let x = Tensor::from_vec(vec![1, 3], vec![-10., 0., 10.]).unwrap();
        let y = s.forward(&x);
        assert!(y.at(0, 0) < 0.001 && (y.at(0, 1) - 0.5).abs() < 1e-6 && y.at(0, 2) > 0.999);
        let g = s.backward(&Tensor::full(vec![1, 3], 1.0));
        // Max derivative at 0 is 0.25.
        assert!((g.at(0, 1) - 0.25).abs() < 1e-6);
    }

    #[test]
    fn flatten_roundtrip() {
        let mut f = Flatten::new();
        let x = Tensor::zeros(vec![2, 3, 4, 4]);
        let y = f.forward(&x);
        assert_eq!(y.shape(), &[2, 48]);
        let g = f.backward(&Tensor::full(vec![2, 48], 1.0));
        assert_eq!(g.shape(), &[2, 3, 4, 4]);
    }

    #[test]
    fn in_place_steps_give_the_bits_they_give_apart() {
        let data = (0..12).map(|i| i as f32 / 3.0 - 2.0).collect();
        let x = Tensor::from_vec(vec![2, 3, 1, 2], data).unwrap();
        let layers: [Box<dyn Layer>; 3] = [
            Box::new(Relu::new()),
            Box::new(Sigmoid::new()),
            Box::new(Flatten::new()),
        ];
        for layer in layers {
            let apart = layer.infer(&x);
            let mut shape = Vec::new();
            let step = layer.plan_step(x.shape(), &mut shape).unwrap();
            assert_ne!(step, Step::Apart { scratch: 0 }, "{}", layer.name());
            let mut data = x.data().to_vec();
            let io = Io::InPlace {
                shape: x.shape(),
                data: &mut data,
            };
            layer.infer_into(io, &mut []);
            assert_eq!(shape, apart.shape(), "{}", layer.name());
            let bits = |d: &[f32]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&data), bits(apart.data()), "{}", layer.name());
        }
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn relu_backward_requires_forward() {
        let mut r = Relu::new();
        let _ = r.backward(&Tensor::full(vec![1, 1], 1.0));
    }
}
