//! Recurrent layers for temporal analysis (paper §III-B).
//!
//! The paper's temporal methodology is a collection of RNN modules, in
//! particular LSTM networks whose "capability of discovering long-range
//! correlations is particularly useful for time series". [`Lstm`] implements
//! a full LSTM layer with backpropagation through time; stacking several and
//! finishing with [`LastStep`] + dense layers yields the Fig. 7 classifier
//! head.
//!
//! Which failures are which: an input of the wrong rank or feature width,
//! or [`LastStep`]'s with no timesteps, is *input-reachable* — a
//! [`crate::layers::PlanError`] from `plan_step`, and
//! a panic in `infer` and `forward`. The `expect`s in this file are
//! internal invariants: `backward` before `forward` and sizes this file
//! computed itself.

use sctelemetry::WorkDelta;
use simclock::SeededRng;

use crate::init;
use crate::layers::{
    batch_rows, elems, expect_rank, expect_width, stream_bytes, Io, Layer, Param, PlanError, Step,
    View,
};
use crate::net::Sequential;
use crate::tensor::Tensor;

/// A single-layer LSTM over `[batch, time, features]` input, producing the
/// full hidden sequence `[batch, time, hidden]`.
///
/// Gate order inside the packed weight matrices is `i, f, g, o`. The forget
/// gate bias is initialized to 1, the standard trick for gradient flow early
/// in training.
///
/// # Examples
///
/// ```
/// use scneural::rnn::Lstm;
/// use scneural::layers::Layer;
/// use scneural::tensor::Tensor;
///
/// let lstm = Lstm::new(4, 8, 7);
/// let x = Tensor::zeros(vec![2, 5, 4]); // batch 2, 5 steps, 4 features
/// let h = lstm.infer(&x);
/// assert_eq!(h.shape(), &[2, 5, 8]);
/// ```
#[derive(Debug)]
pub struct Lstm {
    wx: Param, // [input, 4*hidden]
    wh: Param, // [hidden, 4*hidden]
    b: Param,  // [1, 4*hidden]
    input_size: usize,
    hidden: usize,
    cache: Option<LstmCache>,
}

#[derive(Debug)]
struct LstmCache {
    // Per-timestep saved values, each [n, *].
    xs: Vec<Tensor>,
    hs: Vec<Tensor>, // h_0 .. h_T (T+1 entries, h_0 = zeros)
    cs: Vec<Tensor>, // c_0 .. c_T
    gates: Vec<(Tensor, Tensor, Tensor, Tensor)>, // (i, f, g, o) post-activation
    n: usize,
    t: usize,
}

impl Lstm {
    /// Creates an LSTM mapping `input_size` features to `hidden` units.
    ///
    /// # Panics
    ///
    /// Panics if either size is zero.
    pub fn new(input_size: usize, hidden: usize, seed: u64) -> Self {
        assert!(input_size > 0 && hidden > 0, "sizes must be positive");
        let mut rng = SeededRng::new(seed);
        let wx = init::xavier_uniform(vec![input_size, 4 * hidden], input_size, hidden, &mut rng);
        let wh = init::xavier_uniform(vec![hidden, 4 * hidden], hidden, hidden, &mut rng);
        let mut b = Tensor::zeros(vec![1, 4 * hidden]);
        // Forget-gate bias = 1.
        for j in hidden..2 * hidden {
            b.data_mut()[j] = 1.0;
        }
        Lstm {
            wx: Param::new(wx),
            wh: Param::new(wh),
            b: Param::new(b),
            input_size,
            hidden,
            cache: None,
        }
    }

    fn slice_step(&self, input: View<'_>, n: usize, t_len: usize, t: usize) -> Tensor {
        let d = self.input_size;
        let mut data = Vec::with_capacity(n * d);
        for b in 0..n {
            let start = (b * t_len + t) * d;
            data.extend_from_slice(&input.data()[start..start + d]);
        }
        Tensor::from_vec(vec![n, d], data).expect("size computed above")
    }

    /// The pure forward recurrence shared by `forward` (which stores the
    /// BPTT cache) and `infer_into` (which discards it).
    fn forward_impl(&self, input: View<'_>) -> (Tensor, LstmCache) {
        let shape = input.shape();
        assert_eq!(
            shape.len(),
            3,
            "Lstm expects [batch, time, features], got {shape:?}"
        );
        assert_eq!(shape[2], self.input_size, "feature size mismatch");
        let (n, t_len) = (shape[0], shape[1]);
        let h = self.hidden;

        let mut hs = vec![Tensor::zeros(vec![n, h])];
        let mut cs = vec![Tensor::zeros(vec![n, h])];
        let mut xs = Vec::with_capacity(t_len);
        let mut gates = Vec::with_capacity(t_len);
        let mut out = vec![0.0f32; n * t_len * h];

        for t in 0..t_len {
            let x_t = self.slice_step(input, n, t_len, t);
            let h_prev = hs.last().expect("seeded with h0").clone();
            let c_prev = cs.last().expect("seeded with c0").clone();
            // z = x Wx + h Wh + b : [n, 4h]
            let mut z = x_t
                .matmul(&self.wx.value)
                .expect("input width checked")
                .add(&h_prev.matmul(&self.wh.value).expect("hidden width fixed"))
                .expect("same shape")
                .add_row_broadcast(&self.b.value);
            // Activate the gate blocks in place with vectorized scsimd
            // kernels: per row, columns [0, 2h) and [3h, 4h) are sigmoid
            // gates (input, forget, output) and [2h, 3h) is the tanh
            // candidate. Bit-identical to element-wise application.
            {
                let isa = scsimd::Isa::active();
                let zd = z.data_mut();
                for b in 0..n {
                    let row = &mut zd[b * 4 * h..(b + 1) * 4 * h];
                    scsimd::sigmoid_f32(&mut row[..2 * h], isa);
                    scsimd::tanh_f32(&mut row[2 * h..3 * h], isa);
                    scsimd::sigmoid_f32(&mut row[3 * h..], isa);
                }
            }
            let mut i_g = Tensor::zeros(vec![n, h]);
            let mut f_g = Tensor::zeros(vec![n, h]);
            let mut g_g = Tensor::zeros(vec![n, h]);
            let mut o_g = Tensor::zeros(vec![n, h]);
            let mut c_t = Tensor::zeros(vec![n, h]);
            let mut h_t = Tensor::zeros(vec![n, h]);
            for b in 0..n {
                for j in 0..h {
                    let i_v = z.at(b, j);
                    let f_v = z.at(b, h + j);
                    let g_v = z.at(b, 2 * h + j);
                    let o_v = z.at(b, 3 * h + j);
                    let c_v = f_v * c_prev.at(b, j) + i_v * g_v;
                    let h_v = o_v * scsimd::scalar::tanh(c_v);
                    i_g.set(b, j, i_v);
                    f_g.set(b, j, f_v);
                    g_g.set(b, j, g_v);
                    o_g.set(b, j, o_v);
                    c_t.set(b, j, c_v);
                    h_t.set(b, j, h_v);
                    out[(b * t_len + t) * h + j] = h_v;
                }
            }
            xs.push(x_t);
            gates.push((i_g, f_g, g_g, o_g));
            hs.push(h_t);
            cs.push(c_t);
        }
        let cache = LstmCache {
            xs,
            hs,
            cs,
            gates,
            n,
            t: t_len,
        };
        let out = Tensor::from_vec(vec![n, t_len, h], out).expect("size computed above");
        (out, cache)
    }
}

impl Layer for Lstm {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let (out, cache) = self.forward_impl(input.view());
        self.cache = Some(cache);
        out
    }

    fn plan_step(&self, input: &[usize], out: &mut Vec<usize>) -> Result<Step, PlanError> {
        expect_rank("Lstm", input, 3)?;
        expect_width("Lstm", input, self.input_size)?;
        out.extend_from_slice(&[input[0], input[1], self.hidden]);
        Ok(Step::Apart { scratch: 0 })
    }

    /// The recurrence `forward` runs, its cache dropped.
    fn infer_into(&self, io: Io<'_>, _scratch: &mut [f32]) {
        let (input, out) = io.apart();
        out.copy_from_slice(self.forward_impl(input).0.data());
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self.cache.take().expect("backward before forward");
        let (n, t_len, h) = (cache.n, cache.t, self.hidden);
        assert_eq!(grad_out.shape(), &[n, t_len, h], "gradient shape mismatch");

        let mut dh_next = Tensor::zeros(vec![n, h]);
        let mut dc_next = Tensor::zeros(vec![n, h]);
        let mut grad_in = vec![0.0f32; n * t_len * self.input_size];

        for t in (0..t_len).rev() {
            let (i_g, f_g, g_g, o_g) = &cache.gates[t];
            let c_t = &cache.cs[t + 1];
            let c_prev = &cache.cs[t];
            let h_prev = &cache.hs[t];
            let x_t = &cache.xs[t];

            // dh = upstream grad at step t + carried dh_next.
            let mut dh = dh_next.clone();
            for b in 0..n {
                for j in 0..h {
                    let g = grad_out.data()[(b * t_len + t) * h + j];
                    dh.set(b, j, dh.at(b, j) + g);
                }
            }

            // Through h = o * tanh(c).
            let mut dz = Tensor::zeros(vec![n, 4 * h]); // pre-activation grads
            let mut dc = dc_next.clone();
            for b in 0..n {
                for j in 0..h {
                    let tanh_c = scsimd::scalar::tanh(c_t.at(b, j));
                    let dh_v = dh.at(b, j);
                    let o_v = o_g.at(b, j);
                    // dc += dh * o * (1 - tanh(c)^2)
                    dc.set(b, j, dc.at(b, j) + dh_v * o_v * (1.0 - tanh_c * tanh_c));
                    // do (pre-sigmoid)
                    dz.set(b, 3 * h + j, dh_v * tanh_c * o_v * (1.0 - o_v));
                }
            }
            for b in 0..n {
                for j in 0..h {
                    let dc_v = dc.at(b, j);
                    let i_v = i_g.at(b, j);
                    let f_v = f_g.at(b, j);
                    let g_v = g_g.at(b, j);
                    dz.set(b, j, dc_v * g_v * i_v * (1.0 - i_v)); // di
                    dz.set(b, h + j, dc_v * c_prev.at(b, j) * f_v * (1.0 - f_v)); // df
                    dz.set(b, 2 * h + j, dc_v * i_v * (1.0 - g_v * g_v)); // dg
                }
            }

            // Parameter gradients.
            self.wx
                .grad
                .add_assign(&x_t.transpose().matmul(&dz).expect("shapes fixed"));
            self.wh
                .grad
                .add_assign(&h_prev.transpose().matmul(&dz).expect("shapes fixed"));
            self.b.grad.add_assign(&dz.sum_rows());

            // Input and recurrent gradients.
            let dx = dz.matmul(&self.wx.value.transpose()).expect("shapes fixed");
            for b in 0..n {
                for d in 0..self.input_size {
                    grad_in[(b * t_len + t) * self.input_size + d] += dx.at(b, d);
                }
            }
            dh_next = dz.matmul(&self.wh.value.transpose()).expect("shapes fixed");
            // dc flows to previous step through the forget gate.
            dc_next = Tensor::zeros(vec![n, h]);
            for b in 0..n {
                for j in 0..h {
                    dc_next.set(b, j, dc.at(b, j) * f_g.at(b, j));
                }
            }
        }
        Tensor::from_vec(vec![n, t_len, self.input_size], grad_in).expect("size computed above")
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.wx, &mut self.wh, &mut self.b]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.wx, &self.wh, &self.b]
    }

    fn name(&self) -> &'static str {
        "Lstm"
    }

    fn infer_work(&self, input: &[usize], output: &[usize]) -> WorkDelta {
        // Per row per timestep: the four gate matmuls against wx and wh
        // (2·4h·(in+h) multiply-adds → 8h(in+h) flops), bias adds (4h),
        // gate activations (≈4 ops × 4h), and the cell/hidden updates
        // (c = f·c + i·g, h = o·tanh(c) ≈ 9 ops per hidden unit).
        let (rows, t) = (batch_rows(input), input.get(1).copied().unwrap_or(0) as u64);
        let (h, inp) = (self.hidden as u64, self.input_size as u64);
        let per_row_step = 8 * h * (inp + h) + 4 * h + 16 * h + 9 * h;
        WorkDelta::flops(rows * t * per_row_step)
            .with_bytes(stream_bytes(input, output))
            .with_items(rows)
    }
}

/// Extracts the last timestep: `[batch, time, features]` → `[batch, features]`.
#[derive(Debug, Default)]
pub struct LastStep {
    input_shape: Option<Vec<usize>>,
}

impl LastStep {
    /// Creates the layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for LastStep {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let out = self.infer(input);
        self.input_shape = Some(input.shape().to_vec());
        out
    }

    fn plan_step(&self, input: &[usize], out: &mut Vec<usize>) -> Result<Step, PlanError> {
        expect_rank("LastStep", input, 3)?;
        if input[1] == 0 {
            return Err(PlanError::Empty {
                layer: "LastStep",
                axis: 1,
                shape: input.to_vec(),
            });
        }
        out.extend_from_slice(&[input[0], input[2]]);
        Ok(Step::Apart { scratch: 0 })
    }

    fn infer_into(&self, io: Io<'_>, _scratch: &mut [f32]) {
        let (input, out) = io.apart();
        let &[_, t, d] = input.shape() else {
            unreachable!("planned by plan_step")
        };
        for (b, row) in out.chunks_exact_mut(d.max(1)).enumerate() {
            let start = (b * t + (t - 1)) * d;
            row.copy_from_slice(&input.data()[start..start + d]);
        }
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let shape = self.input_shape.take().expect("backward before forward");
        let (n, t, d) = (shape[0], shape[1], shape[2]);
        let mut grad_in = Tensor::zeros(shape);
        for b in 0..n {
            let start = (b * t + (t - 1)) * d;
            for j in 0..d {
                grad_in.data_mut()[start + j] = grad_out.at(b, j);
            }
        }
        grad_in
    }

    fn name(&self) -> &'static str {
        "LastStep"
    }

    fn infer_work(&self, input: &[usize], output: &[usize]) -> WorkDelta {
        // A slice copy of the final timestep: reads and writes only the
        // selected rows, no arithmetic.
        WorkDelta::bytes(8 * elems(output)).with_items(batch_rows(input))
    }
}

/// The shape `[n, t, …]` folds to: `[n·t, …]`.
fn folded(s: &[usize]) -> Vec<usize> {
    assert!(s.len() >= 2, "TimeDistributed expects [batch, time, ...]");
    let mut flat = vec![s[0] * s[1]];
    flat.extend_from_slice(&s[2..]);
    flat
}

/// `[n, t, …]` → `[n·t, …]`, plus the `(n, t)` to unfold with (the
/// training pass).
fn fold_steps(x: &Tensor) -> (Tensor, usize, usize) {
    let s = x.shape();
    let flat = x.reshape(folded(s)).expect("same element count");
    (flat, s[0], s[1])
}

/// `[n·t, …]` → `[n, t, …]`.
fn unfold_steps(y: Tensor, n: usize, t: usize) -> Tensor {
    let mut shape = vec![n, t];
    shape.extend_from_slice(&y.shape()[1..]);
    Tensor::from_vec(shape, y.into_data()).expect("same element count")
}

/// Applies a per-step layer to every step of a sequence batch:
/// `[n, t, …]` → `[n·t, …]` → inner → `[n, t, …]` — the per-frame CNN under
/// Fig. 7's per-clip LSTM.
///
/// The batch axis stays the sequence, so a row-independent inner layer
/// stays row-independent per sequence and
/// [`Sequential::predict_ctx`](crate::net::Sequential::predict_ctx) chunks
/// on whole sequences.
///
/// # Examples
///
/// ```
/// use scneural::layers::{Conv2d, Layer};
/// use scneural::rnn::TimeDistributed;
/// use scneural::tensor::Tensor;
///
/// let per_frame = TimeDistributed::new(Conv2d::new(1, 4, 3, 2, 1, 7));
/// let clips = Tensor::zeros(vec![2, 5, 1, 8, 8]); // 2 clips of 5 frames
/// assert_eq!(per_frame.infer(&clips).shape(), &[2, 5, 4, 4, 4]);
/// ```
#[derive(Debug)]
pub struct TimeDistributed<L> {
    inner: L,
}

impl<L: Layer> TimeDistributed<L> {
    /// Wraps `inner` so it runs once per time step.
    pub fn new(inner: L) -> Self {
        TimeDistributed { inner }
    }
}

impl<L: Layer> Layer for TimeDistributed<L> {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let (flat, n, t) = fold_steps(input);
        unfold_steps(self.inner.forward(&flat), n, t)
    }

    /// The inner layer's plan over `[n·t, …]`, unfolded.
    fn plan_step(&self, input: &[usize], out: &mut Vec<usize>) -> Result<Step, PlanError> {
        if input.len() < 2 {
            return Err(PlanError::Rank {
                layer: "TimeDistributed",
                expected: 2,
                shape: input.to_vec(),
            });
        }
        let mut inner = Vec::new();
        let step = self.inner.plan_step(&folded(input), &mut inner)?;
        out.extend_from_slice(&input[..2]);
        out.extend_from_slice(inner.get(1..).unwrap_or_default());
        Ok(step)
    }

    /// The inner layer over the same elements labelled `[n·t, …]`.
    fn infer_into(&self, io: Io<'_>, scratch: &mut [f32]) {
        match io {
            Io::Apart { input, out } => {
                let flat = folded(input.shape());
                let input = View::new(&flat, input.data());
                self.inner.infer_into(Io::Apart { input, out }, scratch);
            }
            Io::InPlace { shape, data } => {
                let flat = folded(shape);
                let io = Io::InPlace { shape: &flat, data };
                self.inner.infer_into(io, scratch);
            }
        }
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (flat, n, t) = fold_steps(grad_out);
        unfold_steps(self.inner.backward(&flat), n, t)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.inner.params_mut()
    }

    fn params(&self) -> Vec<&Param> {
        self.inner.params()
    }

    fn name(&self) -> &'static str {
        "TimeDistributed"
    }

    fn infer_work(&self, input: &[usize], output: &[usize]) -> WorkDelta {
        // The inner layer's exact model over all n·t steps (linear in n for
        // a fixed t); the items stay the sequences the batch is chunked on.
        self.inner
            .infer_work(&folded(input), &folded(output))
            .with_items(batch_rows(input))
    }
}

/// Builds the standard sequence classifier of Fig. 7's RNN half: stacked
/// LSTMs, last-step extraction, and a dense softmax head.
///
/// # Panics
///
/// Panics if `hidden_sizes` is empty.
pub fn sequence_classifier(
    input_size: usize,
    hidden_sizes: &[usize],
    classes: usize,
    seed: u64,
) -> Sequential {
    assert!(!hidden_sizes.is_empty(), "need at least one LSTM layer");
    let mut net = Sequential::new();
    let mut in_size = input_size;
    for (i, &h) in hidden_sizes.iter().enumerate() {
        net.push(Box::new(Lstm::new(in_size, h, seed.wrapping_add(i as u64))));
        in_size = h;
    }
    net.push(Box::new(LastStep::new()));
    net.push(Box::new(crate::layers::Dense::new(
        in_size,
        classes,
        seed.wrapping_add(1000),
    )));
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;

    #[test]
    fn lstm_output_shape() {
        let mut lstm = Lstm::new(3, 5, 1);
        let x = Tensor::zeros(vec![2, 7, 3]);
        assert_eq!(lstm.forward(&x).shape(), &[2, 7, 5]);
    }

    #[test]
    fn lstm_zero_input_nonzero_bias_flows() {
        // With forget bias 1 and zero input, hidden stays near zero but the
        // computation must be finite and deterministic.
        let mut lstm = Lstm::new(2, 4, 2);
        let x = Tensor::zeros(vec![1, 3, 2]);
        let h = lstm.forward(&x);
        assert!(h.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn lstm_gradient_check_input() {
        let mut lstm = Lstm::new(2, 3, 3);
        let x = Tensor::from_vec(vec![1, 3, 2], vec![0.5, -0.2, 0.1, 0.8, -0.4, 0.3]).unwrap();
        let y = lstm.forward(&x);
        let grad_in = lstm.backward(&Tensor::ones(y.shape().to_vec()));

        let eps = 1e-2;
        for idx in 0..6 {
            let mut l2 = Lstm::new(2, 3, 3);
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let fp = l2.forward(&xp).sum();
            let mut l3 = Lstm::new(2, 3, 3);
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let fm = l3.forward(&xm).sum();
            let num = (fp - fm) / (2.0 * eps);
            let ana = grad_in.data()[idx];
            assert!(
                (num - ana).abs() < 2e-2,
                "idx {idx}: numeric {num} analytic {ana}"
            );
        }
    }

    #[test]
    fn lstm_gradient_check_weights() {
        let x = Tensor::from_vec(vec![1, 2, 2], vec![0.4, -0.6, 0.2, 0.9]).unwrap();
        let mut lstm = Lstm::new(2, 2, 4);
        let y = lstm.forward(&x);
        lstm.backward(&Tensor::ones(y.shape().to_vec()));
        let analytic = lstm.params()[0].grad.clone();

        let eps = 1e-2;
        for idx in [0, 3, 7, 11, 15] {
            let mut lp = Lstm::new(2, 2, 4);
            lp.params_mut()[0].value.data_mut()[idx] += eps;
            let fp = lp.forward(&x).sum();
            let mut lm = Lstm::new(2, 2, 4);
            lm.params_mut()[0].value.data_mut()[idx] -= eps;
            let fm = lm.forward(&x).sum();
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - analytic.data()[idx]).abs() < 2e-2,
                "wx[{idx}]: numeric {num} analytic {}",
                analytic.data()[idx]
            );
        }
    }

    #[test]
    fn last_step_extracts_and_routes() {
        let mut ls = LastStep::new();
        let x = Tensor::from_vec(vec![1, 2, 2], vec![1., 2., 3., 4.]).unwrap();
        let y = ls.forward(&x);
        assert_eq!(y.data(), &[3., 4.]);
        let g = ls.backward(&Tensor::ones(vec![1, 2]));
        assert_eq!(g.data(), &[0., 0., 1., 1.]);
    }

    #[test]
    fn last_step_refuses_an_empty_time_axis_at_plan_time() {
        let ls = LastStep::new();
        let mut out = Vec::new();
        assert_eq!(
            ls.plan_step(&[2, 0, 3], &mut out),
            Err(PlanError::Empty {
                layer: "LastStep",
                axis: 1,
                shape: vec![2, 0, 3],
            })
        );
        let net = Sequential::new().with(LastStep::new());
        assert!(net.plan(&[2, 0, 3]).is_err(), "a stack refuses it too");
    }

    /// A deterministic `[n, t, c, 6, 6]` clip batch.
    fn clip_batch(n: usize, t: usize, c: usize) -> Tensor {
        let len = n * t * c * 36;
        let data = (0..len).map(|i| ((i * 37) % 101) as f32 / 50.0 - 1.0);
        Tensor::from_vec(vec![n, t, c, 6, 6], data.collect()).unwrap()
    }

    /// `TimeDistributed(layer)` on `x` must be `layer` on the `[n·t, …]`
    /// frames, reshaped — and the same rows for any subset of clips.
    fn check_time_distributed<L: Layer>(make: impl Fn() -> L, x: &Tensor) {
        let (frames, n, t) = fold_steps(x);
        let expected = unfold_steps(make().infer(&frames), n, t);
        let td = TimeDistributed::new(make());
        assert_eq!(td.infer(x), expected);
        assert_eq!(TimeDistributed::new(make()).forward(x), expected);

        let per_in = x.len() / n;
        let per_out = expected.len() / n;
        for subset in [vec![n - 1], vec![0, n - 1], vec![1, 0]] {
            let mut shape = x.shape().to_vec();
            shape[0] = subset.len();
            let rows = subset
                .iter()
                .flat_map(|&i| &x.data()[i * per_in..(i + 1) * per_in]);
            let sub = Tensor::from_vec(shape, rows.copied().collect()).unwrap();
            let want: Vec<f32> = subset
                .iter()
                .flat_map(|&i| &expected.data()[i * per_out..(i + 1) * per_out])
                .copied()
                .collect();
            assert_eq!(td.infer(&sub).data(), want, "clips {subset:?}");
        }
    }

    #[test]
    fn time_distributed_is_the_layer_on_every_step() {
        use crate::blocks::{ResidualBlock, Shortcut};
        use crate::layers::{Conv2d, GlobalAvgPool};
        let x = clip_batch(3, 4, 2);
        check_time_distributed(|| Conv2d::new(2, 3, 3, 2, 1, 8), &x);
        check_time_distributed(GlobalAvgPool::new, &x);
        check_time_distributed(|| ResidualBlock::new(2, 4, 2, Shortcut::Conv, 9), &x);
    }

    #[test]
    fn time_distributed_conv_gradient_check() {
        use crate::layers::Conv2d;
        let make = || TimeDistributed::new(Conv2d::new(1, 2, 3, 1, 1, 5));
        let x = clip_batch(2, 2, 1);
        let mut td = make();
        let y = td.forward(&x);
        let grad_in = td.backward(&Tensor::ones(y.shape().to_vec()));
        assert_eq!(grad_in.shape(), x.shape());
        let analytic = td.params()[0].grad.clone();

        let eps = 1e-2;
        for idx in [0, 40, 77, 143] {
            let (mut xp, mut xm) = (x.clone(), x.clone());
            xp.data_mut()[idx] += eps;
            xm.data_mut()[idx] -= eps;
            let num = (make().forward(&xp).sum() - make().forward(&xm).sum()) / (2.0 * eps);
            let ana = grad_in.data()[idx];
            assert!(
                (num - ana).abs() < 2e-2,
                "x[{idx}]: numeric {num} analytic {ana}"
            );
        }
        for idx in [0, 4, 8, 17] {
            let (mut lp, mut lm) = (make(), make());
            lp.params_mut()[0].value.data_mut()[idx] += eps;
            lm.params_mut()[0].value.data_mut()[idx] -= eps;
            let num = (lp.forward(&x).sum() - lm.forward(&x).sum()) / (2.0 * eps);
            // Sums over 2·2·36 outputs: compare relative to the magnitude.
            let ana = analytic.data()[idx];
            assert!(
                (num - ana).abs() < 2e-2 * ana.abs().max(1.0),
                "w[{idx}]: numeric {num} analytic {ana}"
            );
        }
    }

    #[test]
    fn learns_sequence_parity() {
        // Classify whether a ±1 sequence ends with the same sign it started
        // with — requires remembering the first element.
        let mut rng = simclock::SeededRng::new(5);
        let (n, t) = (40, 6);
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n {
            let mut seq = Vec::with_capacity(t);
            for _ in 0..t {
                seq.push(if rng.chance(0.5) { 1.0f32 } else { -1.0 });
            }
            labels.push(usize::from(seq[0] == seq[t - 1]));
            data.extend(seq);
        }
        let x = Tensor::from_vec(vec![n, t, 1], data).unwrap();
        let mut net = sequence_classifier(1, &[12], 2, 6);
        let mut opt = Adam::new(0.02);
        for _ in 0..250 {
            net.train_step(&x, &labels, &mut opt);
        }
        let acc = net.accuracy(&x, &labels);
        assert!(acc >= 0.9, "sequence accuracy {acc}");
    }

    #[test]
    fn stacked_lstm_shapes() {
        let net = sequence_classifier(3, &[8, 4], 5, 7);
        let x = Tensor::zeros(vec![2, 4, 3]);
        let out = net.predict(&x);
        assert_eq!(out.shape(), &[2, 5]);
    }
}
