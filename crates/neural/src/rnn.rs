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
use crate::tensor::{add_bias_rows, Tensor};

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

    /// The forward recurrence over `input` `[n, t, input_size]`, shared by
    /// `forward_impl` (training) and `infer_into`: writes the hidden
    /// sequence into `out` `[n, t, hidden]`, holding a step's input rows,
    /// its two gate products and the state in `scratch` (the size
    /// `plan_step` asks for). After each step, `each_step` sees the step's
    /// input rows `[n, input_size]`, its activated gates `[n, 4·hidden]`
    /// (`i, f, g, o` per row) and the new `h` and `c` `[n, hidden]`.
    fn recur(
        &self,
        input: View<'_>,
        out: &mut [f32],
        scratch: &mut [f32],
        mut each_step: impl FnMut(&[f32], &[f32], &[f32], &[f32]),
    ) {
        let &[n, t_len, d] = input.shape() else {
            panic!(
                "Lstm expects [batch, time, features], got {:?}",
                input.shape()
            )
        };
        assert_eq!(d, self.input_size, "feature size mismatch");
        let h = self.hidden;
        let (x_t, rest) = scratch.split_at_mut(n * d);
        let (z, rest) = rest.split_at_mut(n * 4 * h);
        let (zh, rest) = rest.split_at_mut(n * 4 * h);
        let (h_t, rest) = rest.split_at_mut(n * h);
        let c_t = &mut rest[..n * h];
        h_t.fill(0.0);
        c_t.fill(0.0);
        let isa = scsimd::Isa::active();
        let bias = self.b.value.data();
        for t in 0..t_len {
            for (b, row) in x_t.chunks_exact_mut(d).enumerate() {
                row.copy_from_slice(&input.data()[(b * t_len + t) * d..][..d]);
            }
            // z = x Wx + h Wh + b : [n, 4h]
            z.fill(0.0);
            zh.fill(0.0);
            scsimd::matmul_panel_f32(x_t, self.wx.value.data(), d, 4 * h, z, isa);
            scsimd::matmul_panel_f32(h_t, self.wh.value.data(), h, 4 * h, zh, isa);
            for (z, &zh) in z.iter_mut().zip(&*zh) {
                *z += zh;
            }
            add_bias_rows(z, bias);
            for (b, z) in z.chunks_exact_mut(4 * h).enumerate() {
                // Columns [0, 2h) and [3h, 4h) are sigmoid gates (input,
                // forget, output), [2h, 3h) the tanh candidate: vectorized
                // scsimd kernels, bit-identical to element-wise application.
                scsimd::sigmoid_f32(&mut z[..2 * h], isa);
                scsimd::tanh_f32(&mut z[2 * h..3 * h], isa);
                scsimd::sigmoid_f32(&mut z[3 * h..], isa);
                for j in 0..h {
                    let (i_v, f_v, g_v, o_v) = (z[j], z[h + j], z[2 * h + j], z[3 * h + j]);
                    let c_v = f_v * c_t[b * h + j] + i_v * g_v;
                    let h_v = o_v * scsimd::scalar::tanh(c_v);
                    c_t[b * h + j] = c_v;
                    h_t[b * h + j] = h_v;
                    out[(b * t_len + t) * h + j] = h_v;
                }
            }
            each_step(x_t, z, h_t, c_t);
        }
    }

    /// Scratch [`Lstm::recur`] needs for `n` sequences.
    fn scratch_len(&self, n: usize) -> usize {
        n * (self.input_size + 10 * self.hidden)
    }

    /// [`Lstm::recur`] keeping every step for BPTT.
    fn forward_impl(&self, input: View<'_>) -> (Tensor, LstmCache) {
        let shape = input.shape();
        assert_eq!(
            shape.len(),
            3,
            "Lstm expects [batch, time, features], got {shape:?}"
        );
        let (n, t_len) = (shape[0], shape[1]);
        let (d, h) = (self.input_size, self.hidden);

        let mut hs = vec![Tensor::zeros(vec![n, h])];
        let mut cs = vec![Tensor::zeros(vec![n, h])];
        let mut xs = Vec::with_capacity(t_len);
        let mut gates = Vec::with_capacity(t_len);
        let mut out = vec![0.0f32; n * t_len * h];
        let mut scratch = vec![0.0f32; self.scratch_len(n)];
        let rows = |shape: Vec<usize>, data: Vec<f32>| {
            Tensor::from_vec(shape, data).expect("size computed above")
        };
        self.recur(input, &mut out, &mut scratch, |x_t, z, h_t, c_t| {
            let gate = |k: usize| {
                let data = z.chunks_exact(4 * h).flat_map(|r| &r[k * h..][..h]);
                rows(vec![n, h], data.copied().collect())
            };
            xs.push(rows(vec![n, d], x_t.to_vec()));
            gates.push((gate(0), gate(1), gate(2), gate(3)));
            hs.push(rows(vec![n, h], h_t.to_vec()));
            cs.push(rows(vec![n, h], c_t.to_vec()));
        });
        let cache = LstmCache {
            xs,
            hs,
            cs,
            gates,
            n,
            t: t_len,
        };
        (rows(vec![n, t_len, h], out), cache)
    }
}

impl Layer for Lstm {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let (out, cache) = self.forward_impl(input.view());
        self.cache = Some(cache);
        out
    }

    /// Scratch: a step's input rows, its two gate products, and the hidden
    /// and cell state.
    fn plan_step(&self, input: &[usize], out: &mut Vec<usize>) -> Result<Step, PlanError> {
        expect_rank("Lstm", input, 3)?;
        expect_width("Lstm", input, self.input_size)?;
        out.extend_from_slice(&[input[0], input[1], self.hidden]);
        Ok(Step::Apart {
            scratch: self.scratch_len(input[0]),
        })
    }

    /// `Lstm::recur` in `scratch`, with no cache: the recurrence
    /// `forward` runs, so the same bits.
    fn infer_into(&self, io: Io<'_>, scratch: &mut [f32]) {
        let (input, out) = io.apart();
        self.recur(input, out, scratch, |_, _, _, _| {});
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
fn folded<'a>(s: &[usize], flat: &'a mut [usize; FOLDED_RANK]) -> &'a [usize] {
    assert!(
        (2..=FOLDED_RANK + 1).contains(&s.len()),
        "TimeDistributed expects [batch, time, ...] of at most {} axes",
        FOLDED_RANK + 1
    );
    flat[0] = s[0] * s[1];
    flat[1..s.len() - 1].copy_from_slice(&s[2..]);
    &flat[..s.len() - 1]
}

/// The most axes a folded [`TimeDistributed`] input has, held on the
/// stack: a clip batch `[n, t, c, h, w]` folds to 4.
const FOLDED_RANK: usize = 6;

/// `[n, t, …]` → `[n·t, …]`, plus the `(n, t)` to unfold with (the
/// training pass).
fn fold_steps(x: &Tensor) -> (Tensor, usize, usize) {
    let s = x.shape();
    let flat = x.reshape(folded(s, &mut [0; FOLDED_RANK]).to_vec());
    let flat = flat.expect("same element count");
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
        let ranks = 2..=FOLDED_RANK + 1;
        if !ranks.contains(&input.len()) {
            return Err(PlanError::Rank {
                layer: "TimeDistributed",
                expected: input.len().clamp(*ranks.start(), *ranks.end()),
                shape: input.to_vec(),
            });
        }
        // The inner plan over `[n·t, …]`, its batch axis relabelled `[n, t]`.
        let start = out.len();
        let step = self
            .inner
            .plan_step(folded(input, &mut [0; FOLDED_RANK]), out)?;
        out[start] = input[1];
        out.insert(start, input[0]);
        Ok(step)
    }

    /// The inner layer over the same elements labelled `[n·t, …]`.
    fn infer_into(&self, io: Io<'_>, scratch: &mut [f32]) {
        match io {
            Io::Apart { input, out } => {
                let mut flat = [0; FOLDED_RANK];
                let input = View::new(folded(input.shape(), &mut flat), input.data());
                self.inner.infer_into(Io::Apart { input, out }, scratch);
            }
            Io::InPlace { shape, data } => {
                let mut flat = [0; FOLDED_RANK];
                let io = Io::InPlace {
                    shape: folded(shape, &mut flat),
                    data,
                };
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
            .infer_work(
                folded(input, &mut [0; FOLDED_RANK]),
                folded(output, &mut [0; FOLDED_RANK]),
            )
            .with_items(batch_rows(input))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Dense;
    use crate::net::Sequential;
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
    fn time_distributed_refuses_a_rank_it_cannot_fold() {
        use crate::layers::Relu;
        let td = TimeDistributed::new(Relu::new());
        for (shape, expected) in [(vec![3], 2), (vec![1; FOLDED_RANK + 2], FOLDED_RANK + 1)] {
            let refused = td.plan_step(&shape, &mut Vec::new()).unwrap_err();
            let layer = "TimeDistributed";
            assert_eq!(
                refused,
                PlanError::Rank {
                    layer,
                    expected,
                    shape
                }
            );
        }
        let mut out = Vec::new();
        td.plan_step(&[1; FOLDED_RANK + 1], &mut out).unwrap();
        assert_eq!(out, [1; FOLDED_RANK + 1]);
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
        let mut net = Sequential::new()
            .with(Lstm::new(1, 12, 6))
            .with(LastStep::new())
            .with(Dense::new(12, 2, 1006));
        let mut opt = Adam::new(0.02);
        for _ in 0..250 {
            net.train_step(&x, &labels, &mut opt);
        }
        let acc = net.accuracy(&x, &labels);
        assert!(acc >= 0.9, "sequence accuracy {acc}");
    }

    #[test]
    fn stacked_lstm_shapes() {
        let net = Sequential::new()
            .with(Lstm::new(3, 8, 7))
            .with(Lstm::new(8, 4, 8))
            .with(LastStep::new())
            .with(Dense::new(4, 5, 1007));
        let x = Tensor::zeros(vec![2, 4, 3]);
        let out = net.predict(&x);
        assert_eq!(out.shape(), &[2, 5]);
    }
}
