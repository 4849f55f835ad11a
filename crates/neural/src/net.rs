//! Sequential networks, their inference plan, and the training loop.

use std::sync::Mutex;

use sctelemetry::TelemetryHandle;

use crate::exec::ExecCtx;
use crate::layers::{elems, Io, Layer, Param, PlanError, Step, View};
use crate::loss::{mean_squared_error, softmax_cross_entropy};
use crate::optim::Adam;
use crate::tensor::Tensor;

/// Prefix of per-layer work-accounting kernels: a layer named `n` is
/// attributed as kernel `neural/layer/<n>` (see
/// [`crate::layers::Layer::infer_work`]).
const KERNEL_LAYER_PREFIX: &str = "neural/layer/";

/// The batch size [`Sequential::predict_ctx`] must exceed before it fans
/// out, and the smallest row chunk it then hands a worker.
const BATCH_CHUNK_ROWS: usize = 32;

/// Where one activation of a planned stack is kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// The caller's input, lent.
    Input,
    /// The first ping-pong buffer.
    Ping,
    /// The second.
    Pong,
    /// The caller's output.
    Out,
}

impl Slot {
    /// Where an apart step keeps its input when its output is kept here.
    fn other(self) -> Slot {
        match self {
            Slot::Ping => Slot::Pong,
            _ => Slot::Ping,
        }
    }
}

/// A stack's walk over one input shape, from [`Sequential::plan`]: every
/// layer's output shape and [`Step`], where each activation is kept, and
/// how large the two ping-pong activation buffers and the largest layer
/// scratch must be.
///
/// Planning is shape arithmetic, so a caller plans on every call (a net
/// reached through `&mut` may have changed since the last); planning into
/// a [`Workspace`]'s reused plan allocates nothing once its lists have
/// grown.
#[derive(Debug, Default)]
pub struct Plan {
    /// Every activation's shape back to back, the input's first.
    dims: Vec<usize>,
    /// Where the input's shape ends in `dims`.
    input_end: usize,
    /// Per layer: its step, where its output's shape ends in `dims`, and
    /// where its output is kept.
    steps: Vec<(Step, usize, Slot)>,
    /// One layer's output shape while it is planned.
    next: Vec<usize>,
    /// Elements of the ping buffer, of the pong buffer and of the scratch.
    sizes: [usize; 3],
}

impl Plan {
    /// Where activation `k`'s shape ends in `dims`.
    fn end(&self, k: usize) -> usize {
        match k {
            0 => self.input_end,
            _ => self.steps[k - 1].1,
        }
    }

    /// Shape of activation `k`: the input for 0, layer `k − 1`'s output
    /// after it.
    fn shape(&self, k: usize) -> &[usize] {
        let start = if k == 0 { 0 } else { self.end(k - 1) };
        &self.dims[start..self.end(k)]
    }

    /// Where activation `k` is kept.
    fn slot(&self, k: usize) -> Slot {
        match k {
            0 => Slot::Input,
            _ => self.steps[k - 1].2,
        }
    }

    /// The output's shape: the input's for a stack without layers.
    pub fn output(&self) -> &[usize] {
        self.shape(self.steps.len())
    }
}

/// Reused buffers for [`Sequential::predict_into`]: a [`Plan`], the two
/// ping-pong activation buffers and one layer scratch, each grown to the
/// largest any call has planned and never shrunk. One workspace serves any
/// number of networks, one call at a time; the networks stay `&self` (and
/// `Sync`) because what a call writes lives here, with the caller.
#[derive(Debug, Default)]
pub struct Workspace {
    plan: Plan,
    ping: Vec<f32>,
    pong: Vec<f32>,
    scratch: Vec<f32>,
}

impl Workspace {
    /// Runs `net`, planned into this workspace, on `input` into `out`.
    fn run(&mut self, net: &Sequential, input: &[f32], out: &mut [f32]) {
        let [ping, pong, scratch] = self.plan.sizes;
        for (buffer, len) in [
            (&mut self.ping, ping),
            (&mut self.pong, pong),
            (&mut self.scratch, scratch),
        ] {
            if buffer.len() < len {
                buffer.resize(len, 0.0);
            }
        }
        let buffers = Buffers {
            ping: &mut self.ping,
            pong: &mut self.pong,
            scratch: &mut self.scratch,
        };
        net.run(&self.plan, input, out, buffers);
    }
}

/// A planned run's own buffers, at least as long as its plan's sizes.
struct Buffers<'a> {
    ping: &'a mut [f32],
    pong: &'a mut [f32],
    scratch: &'a mut [f32],
}

/// A feed-forward stack of layers executed in order.
///
/// `Sequential` is itself a [`Layer`], so stacks nest (residual blocks hold
/// sequentials for their branches; [`crate::early_exit::EarlyExitNet`] holds
/// sequentials for its backbone segments).
///
/// # Examples
///
/// ```
/// use scneural::layers::{Dense, Relu};
/// use scneural::net::Sequential;
/// use scneural::tensor::Tensor;
///
/// let net = Sequential::new()
///     .with(Dense::new(4, 16, 0))
///     .with(Relu::new())
///     .with(Dense::new(16, 3, 1));
/// let logits = net.predict(&Tensor::full(vec![2, 4], 1.0));
/// assert_eq!(logits.shape(), &[2, 3]);
/// ```
#[derive(Debug, Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    telemetry: TelemetryHandle,
}

impl Sequential {
    /// Creates an empty stack.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches telemetry: both passes attribute each layer's
    /// [`Layer::infer_work`] to kernel `neural/layer/<name>`.
    pub fn with_telemetry(mut self, telemetry: TelemetryHandle) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Appends a layer (builder style).
    pub fn with(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends a boxed layer.
    pub fn push(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Total number of trainable scalar parameters.
    pub fn param_count(&self) -> usize {
        self.layers
            .iter()
            .flat_map(|l| l.params())
            .map(|p| p.value.len())
            .sum()
    }

    /// Layer names in order, for summaries.
    pub fn layer_names(&self) -> Vec<&'static str> {
        self.layers.iter().map(|l| l.name()).collect()
    }

    /// Checks every layer's shape for an input of shape `input`, once, and
    /// plans the run: where each activation is kept (a step that runs in
    /// place or only relabels keeps its input where its output goes, so
    /// activations and `Flatten` copy nothing, and leading relabels leave
    /// the input where the caller has it), and how large the two ping-pong
    /// buffers and the scratch must be.
    ///
    /// # Errors
    ///
    /// The first layer's [`PlanError`] that refuses its input.
    pub fn plan(&self, input: &[usize]) -> Result<Plan, PlanError> {
        let mut plan = Plan::default();
        self.plan_into(input, &mut plan)?;
        Ok(plan)
    }

    /// [`Sequential::plan`] into `ws`, whose lists the next
    /// [`Sequential::predict_into`] on it reuses: whether the network takes
    /// `input`'s shape, asked without allocating on a warm workspace.
    ///
    /// # Errors
    ///
    /// The first layer's [`PlanError`] that refuses `input`.
    pub fn plan_in(&self, input: &[usize], ws: &mut Workspace) -> Result<(), PlanError> {
        self.plan_into(input, &mut ws.plan)
    }

    /// [`Sequential::plan`] into `plan`'s reused lists.
    fn plan_into(&self, input: &[usize], plan: &mut Plan) -> Result<(), PlanError> {
        let Plan {
            dims,
            input_end,
            steps,
            next,
            ..
        } = plan;
        dims.clear();
        steps.clear();
        dims.extend_from_slice(input);
        *input_end = dims.len();
        let mut start = 0;
        for layer in &self.layers {
            next.clear();
            let step = layer.plan_step(&dims[start..], next)?;
            start = dims.len();
            dims.extend_from_slice(next);
            steps.push((step, dims.len(), Slot::Out));
        }
        // Last to first: a step that does not run apart keeps its input
        // where its output is; an apart step's input is in the other
        // buffer, or in the caller's input behind leading relabels.
        let lead = steps.iter().take_while(|s| s.0 == Step::Relabel).count();
        let mut kept = Slot::Out;
        for k in (1..steps.len()).rev() {
            kept = match steps[k].0 {
                _ if k <= lead => Slot::Input,
                Step::Apart { .. } => kept.other(),
                Step::InPlace | Step::Relabel => kept,
            };
            steps[k - 1].2 = kept;
        }
        plan.sizes = [0; 3];
        for k in 1..plan.steps.len() {
            let len = elems(plan.shape(k)) as usize;
            match plan.slot(k) {
                Slot::Ping => plan.sizes[0] = plan.sizes[0].max(len),
                Slot::Pong => plan.sizes[1] = plan.sizes[1].max(len),
                Slot::Input | Slot::Out => {}
            }
        }
        plan.sizes[2] = plan.steps.iter().map(|s| s.0.scratch()).max().unwrap_or(0);
        Ok(())
    }

    /// Runs a planned stack: each layer reads where its input is kept and
    /// writes where its output is, in place when both are one buffer, and
    /// not at all when it only relabels there.
    fn run(&self, plan: &Plan, input: &[f32], out: &mut [f32], buffers: Buffers<'_>) {
        let Buffers {
            ping,
            pong,
            scratch,
        } = buffers;
        if self.layers.is_empty() {
            out.copy_from_slice(input);
        }
        for (k, layer) in self.layers.iter().enumerate() {
            let (from, to) = (plan.slot(k), plan.slot(k + 1));
            let (x, y) = (plan.shape(k), plan.shape(k + 1));
            let (x_len, y_len) = (elems(x) as usize, elems(y) as usize);
            let (step, _, _) = plan.steps[k];
            if from != to {
                let (source, target): (&[f32], &mut [f32]) = match (from, to) {
                    (Slot::Input, Slot::Ping) => (input, &mut *ping),
                    (Slot::Input, Slot::Pong) => (input, &mut *pong),
                    (Slot::Input, Slot::Out) => (input, &mut *out),
                    (Slot::Ping, Slot::Pong) => (&*ping, &mut *pong),
                    (Slot::Ping, Slot::Out) => (&*ping, &mut *out),
                    (Slot::Pong, Slot::Ping) => (&*pong, &mut *ping),
                    (Slot::Pong, Slot::Out) => (&*pong, &mut *out),
                    _ => unreachable!("a plan never writes back toward its input"),
                };
                let io = Io::Apart {
                    input: View::new(x, &source[..x_len]),
                    out: &mut target[..y_len],
                };
                layer.infer_into(io, scratch);
            } else if step == Step::InPlace {
                let data = match to {
                    Slot::Ping => &mut ping[..y_len],
                    Slot::Pong => &mut pong[..y_len],
                    Slot::Out => &mut *out,
                    Slot::Input => unreachable!("the input is lent, not written"),
                };
                layer.infer_into(Io::InPlace { shape: x, data }, scratch);
            }
            record(&self.telemetry, layer.as_ref(), x, y);
        }
    }

    /// Runs inference: every layer's `&self` pass, no training cache touched.
    ///
    /// # Panics
    ///
    /// Panics with the [`PlanError`]'s `Display` if a layer refuses
    /// `input`'s shape.
    pub fn predict(&self, input: &Tensor) -> Tensor {
        self.predict_ctx(input, &ExecCtx::serial())
    }

    /// Parallel batch inference under an [`ExecCtx`], fanned out on the
    /// `scpar` worker pool: [`Sequential::predict_into`] into a fresh
    /// output and workspace.
    ///
    /// # Panics
    ///
    /// Panics with the [`PlanError`]'s `Display` if a layer refuses
    /// `input`'s shape.
    pub fn predict_ctx(&self, input: &Tensor, ctx: &ExecCtx) -> Tensor {
        let mut out = Tensor::default();
        self.predict_into(input, ctx, &mut Workspace::default(), &mut out)
            .unwrap_or_else(|e| panic!("{e}"));
        out
    }

    /// The one inference entry: plans `input`'s shape into `ws`, sizes
    /// `out` to the planned output and runs every layer's
    /// [`Layer::infer_into`] on `ws`'s buffers. A warm `ws` and `out`
    /// allocate nothing on the calling thread.
    ///
    /// A `[batch, ...]` input of more than 32 rows, under
    /// a parallel context, is split into one row chunk per worker
    /// ([`scpar::ScparConfig::task_size`]); each chunk runs the same entry
    /// on a workspace of its own and writes its rows of `out`. Every layer
    /// in this crate computes rows independently in inference mode, so the
    /// result is bit-identical to the serial run for any thread count.
    /// Layer kernels vectorize through the process-wide
    /// [`scsimd::Isa::active`] backend, and the scsimd strict profile keeps
    /// outputs bit-identical on every ISA too.
    ///
    /// Per-layer work is recorded through the network's own attached
    /// telemetry handle ([`Sequential::with_telemetry`]), not the context's
    /// — a net carries its recorder the way it carries its weights.
    ///
    /// # Errors
    ///
    /// The first layer's [`PlanError`] that refuses `input`'s shape; `out`
    /// is then as it was.
    pub fn predict_into(
        &self,
        input: &Tensor,
        ctx: &ExecCtx,
        ws: &mut Workspace,
        out: &mut Tensor,
    ) -> Result<(), PlanError> {
        let rows = input.shape().first().copied().unwrap_or(0);
        let chunk_rows = ctx.par().task_size(rows, BATCH_CHUNK_ROWS);
        self.predict_chunked(input, ctx.par(), chunk_rows, ws, out)
    }

    /// [`Sequential::predict_into`] at an explicit, positive chunk height —
    /// the schedule only, so every `chunk_rows` gives the same bits.
    fn predict_chunked(
        &self,
        input: &Tensor,
        cfg: &scpar::ScparConfig,
        chunk_rows: usize,
        ws: &mut Workspace,
        out: &mut Tensor,
    ) -> Result<(), PlanError> {
        self.plan_into(input.shape(), &mut ws.plan)?;
        out.resize_to(ws.plan.output());
        let rows = input.shape().first().copied().unwrap_or(0);
        if !cfg.is_parallel() || input.is_empty() || out.is_empty() || rows <= chunk_rows {
            ws.run(self, input.data(), out.data_mut());
            return Ok(());
        }
        let (row_in, row_out) = (input.len() / rows, out.len() / rows);
        let parts: Vec<Mutex<&mut [f32]>> = out
            .data_mut()
            .chunks_mut(chunk_rows * row_out)
            .map(Mutex::new)
            .collect();
        scpar::par_map_chunks(cfg, &parts, 1, |ci, part| {
            let mut out = part[0].lock().expect("one task per chunk");
            let rows = out.len() / row_out;
            let mut shape = input.shape().to_vec();
            shape[0] = rows;
            let data = &input.data()[ci * chunk_rows * row_in..][..rows * row_in];
            let mut ws = Workspace::default();
            let planned = self.plan_into(&shape, &mut ws.plan);
            planned.expect("a batch's rows plan as the batch does");
            ws.run(self, data, &mut out);
        });
        Ok(())
    }

    /// Runs inference and returns the argmax class per row.
    fn predict_classes(&self, input: &Tensor) -> Vec<usize> {
        self.predict(input).argmax_rows()
    }

    /// One optimization step on a batch of class-labelled data, through
    /// softmax cross-entropy. Returns the batch loss.
    pub fn train_step(&mut self, input: &Tensor, classes: &[usize], optimizer: &mut Adam) -> f32 {
        let logits = self.forward(input);
        let (l, grad) = softmax_cross_entropy(&logits, classes);
        self.backward(&grad);
        optimizer.step(self.params_mut());
        l
    }

    /// One optimization step on a batch with dense regression targets,
    /// through mean squared error. Returns the batch loss.
    pub fn train_step_values(
        &mut self,
        input: &Tensor,
        targets: &Tensor,
        optimizer: &mut Adam,
    ) -> f32 {
        let out = self.forward(input);
        let (l, grad) = mean_squared_error(&out, targets);
        self.backward(&grad);
        optimizer.step(self.params_mut());
        l
    }

    /// Classification accuracy on a labelled set.
    ///
    /// # Panics
    ///
    /// Panics if `classes.len()` differs from the batch size.
    pub fn accuracy(&self, input: &Tensor, classes: &[usize]) -> f64 {
        let pred = self.predict_classes(input);
        assert_eq!(pred.len(), classes.len(), "one label per row");
        if classes.is_empty() {
            return 0.0;
        }
        let correct = pred.iter().zip(classes).filter(|(a, b)| a == b).count();
        correct as f64 / classes.len() as f64
    }

    /// Trains for `epochs` full-batch epochs, returning per-epoch losses.
    pub fn fit(
        &mut self,
        input: &Tensor,
        classes: &[usize],
        optimizer: &mut Adam,
        epochs: usize,
    ) -> Vec<f32> {
        (0..epochs)
            .map(|_| self.train_step(input, classes, optimizer))
            .collect()
    }
}

/// Attributes one layer's step, from a tensor of shape `x` to one of shape
/// `y`, to kernel `neural/layer/<name>`.
fn record(telemetry: &TelemetryHandle, layer: &dyn Layer, x: &[usize], y: &[usize]) {
    if telemetry.is_enabled() {
        telemetry.work(
            &format!("{}{}", KERNEL_LAYER_PREFIX, layer.name()),
            layer.infer_work(x, y),
        );
    }
}

impl Layer for Sequential {
    /// The first layer reads `input` itself, so only a stack without
    /// layers copies it.
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let mut held = None;
        for layer in &mut self.layers {
            let x = held.as_ref().unwrap_or(input);
            let y = layer.forward(x);
            record(&self.telemetry, layer.as_ref(), x.shape(), y.shape());
            held = Some(y);
        }
        held.unwrap_or_else(|| input.clone())
    }

    /// The stack's output, with its two buffers and its largest layer
    /// scratch as this layer's scratch.
    fn plan_step(&self, input: &[usize], out: &mut Vec<usize>) -> Result<Step, PlanError> {
        let plan = self.plan(input)?;
        out.extend_from_slice(plan.output());
        Ok(Step::Apart {
            scratch: plan.sizes.iter().sum(),
        })
    }

    /// The planned run, its buffers cut from `scratch`.
    fn infer_into(&self, io: Io<'_>, scratch: &mut [f32]) {
        let (input, out) = io.apart();
        let plan = self.plan(input.shape()).expect("planned by plan_step");
        let (ping, rest) = scratch.split_at_mut(plan.sizes[0]);
        let (pong, scratch) = rest.split_at_mut(plan.sizes[1]);
        let buffers = Buffers {
            ping,
            pong,
            scratch,
        };
        self.run(&plan, input.data(), out, buffers);
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    fn params(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    fn name(&self) -> &'static str {
        "Sequential"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu, Sigmoid};
    use crate::optim::Adam;
    use proptest::prelude::*;
    use simclock::SeededRng;

    fn xor_data() -> (Tensor, Vec<usize>) {
        (
            Tensor::from_vec(vec![4, 2], vec![0., 0., 0., 1., 1., 0., 1., 1.]).unwrap(),
            vec![0, 1, 1, 0],
        )
    }

    #[test]
    fn learns_xor() {
        let (x, y) = xor_data();
        let mut net = Sequential::new()
            .with(Dense::new(2, 16, 1))
            .with(Relu::new())
            .with(Dense::new(16, 2, 2));
        let mut opt = Adam::new(0.05);
        let losses = net.fit(&x, &y, &mut opt, 300);
        assert!(
            losses.last().unwrap() < &0.05,
            "final loss {}",
            losses.last().unwrap()
        );
        assert_eq!(net.accuracy(&x, &y), 1.0);
    }

    #[test]
    fn loss_decreases() {
        let (x, y) = xor_data();
        let mut net = Sequential::new()
            .with(Dense::new(2, 8, 3))
            .with(Relu::new())
            .with(Dense::new(8, 2, 4));
        let mut opt = Adam::new(0.05);
        let losses = net.fit(&x, &y, &mut opt, 200);
        assert!(losses.last().unwrap() < &losses[0]);
    }

    #[test]
    fn learns_gaussian_blobs() {
        // Two separated gaussian clusters: a sigmoid hidden layer should
        // reach high train accuracy.
        let mut rng = SeededRng::new(5);
        let n = 60;
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let cls = i % 2;
            let cx = if cls == 0 { -2.0 } else { 2.0 };
            data.push((rng.gaussian(cx, 0.5)) as f32);
            data.push((rng.gaussian(cx, 0.5)) as f32);
            labels.push(cls);
        }
        let x = Tensor::from_vec(vec![n, 2], data).unwrap();
        let mut net = Sequential::new()
            .with(Dense::new(2, 16, 6))
            .with(Sigmoid::new())
            .with(Dense::new(16, 2, 8));
        let mut opt = Adam::new(0.02);
        net.fit(&x, &labels, &mut opt, 150);
        assert!(net.accuracy(&x, &labels) > 0.95);
    }

    #[test]
    fn param_count_matches_architecture() {
        let net = Sequential::new()
            .with(Dense::new(3, 4, 0))
            .with(Dense::new(4, 2, 1));
        // (3*4 + 4) + (4*2 + 2) = 16 + 10
        assert_eq!(net.param_count(), 26);
    }

    #[test]
    fn layer_names_in_order() {
        let net = Sequential::new()
            .with(Dense::new(1, 1, 0))
            .with(Relu::new());
        assert_eq!(net.layer_names(), vec!["Dense", "Relu"]);
    }

    fn small_net() -> Sequential {
        Sequential::new()
            .with(Dense::new(3, 8, 11))
            .with(Relu::new())
            .with(Dense::new(8, 2, 13))
            .with(Sigmoid::new())
    }

    #[test]
    fn predict_between_forward_and_backward_leaves_gradients_alone() {
        let x =
            Tensor::from_vec(vec![4, 3], (0..12).map(|i| i as f32 / 7.0 - 0.8).collect()).unwrap();
        let grad = Tensor::full(vec![4, 2], 1.0);
        let grads = |interleave: bool| {
            let mut net = small_net();
            net.forward(&x);
            if interleave {
                net.predict(&x.scale(3.0));
            }
            net.backward(&grad);
            net.params()
                .iter()
                .map(|p| p.grad.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(grads(true), grads(false));
    }

    #[test]
    fn shared_net_predicts_from_two_threads() {
        let mut net = small_net();
        let x =
            Tensor::from_vec(vec![6, 3], (0..18).map(|i| (i % 5) as f32 - 2.0).collect()).unwrap();
        net.forward(&x); // fill the training caches the predictions must not touch
        let (net, serial) = (&net, net.predict(&x));
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        net.predict(&x)
                    })
                })
                .collect();
            for w in workers {
                assert_eq!(w.join().expect("predict does not panic"), serial);
            }
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Where the batch is cut is invisible in the logits: any positive
        /// chunk height on any pool gives `predict`'s bits.
        #[test]
        fn any_chunk_height_gives_the_serial_logits(
            rows in prop_oneof![Just(0usize), Just(1), Just(31), Just(32), Just(33), 0usize..100],
            pick in any::<usize>(),
            threads in 2usize..9,
            seed in any::<u64>(),
        ) {
            let chunk_rows = 1 + pick % (rows + 1);
            let mut rng = SeededRng::new(seed);
            let data = (0..rows * 3).map(|_| rng.next_f32() - 0.5).collect();
            let x = Tensor::from_vec(vec![rows, 3], data).unwrap();
            let net = small_net();
            let cfg = scpar::ScparConfig::with_threads(threads);
            let mut chunked = Tensor::default();
            let mut ws = Workspace::default();
            net.predict_chunked(&x, &cfg, chunk_rows, &mut ws, &mut chunked).unwrap();
            let serial = net.predict(&x);
            prop_assert_eq!(chunked.shape(), serial.shape());
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&chunked), bits(&serial), "chunk_rows {}", chunk_rows);
        }
    }

    /// Identity layer that notes which threads ran its inference pass.
    #[derive(Debug, Default)]
    struct ThreadProbe(std::sync::Arc<std::sync::Mutex<Vec<std::thread::ThreadId>>>);

    impl Layer for ThreadProbe {
        fn forward(&mut self, input: &Tensor) -> Tensor {
            input.clone()
        }
        fn plan_step(&self, input: &[usize], out: &mut Vec<usize>) -> Result<Step, PlanError> {
            out.extend_from_slice(input);
            Ok(Step::Apart { scratch: 0 })
        }
        fn infer_into(&self, io: Io<'_>, _scratch: &mut [f32]) {
            let mut seen = self.0.lock().expect("no probe call panics");
            seen.push(std::thread::current().id());
            io.in_place();
        }
        fn backward(&mut self, grad_out: &Tensor) -> Tensor {
            grad_out.clone()
        }
        fn name(&self) -> &'static str {
            "ThreadProbe"
        }
    }

    #[test]
    fn batches_within_one_chunk_stay_on_the_calling_thread() {
        let ctx = crate::exec::ExecCtx::serial().with_par(scpar::ScparConfig::with_threads(8));
        for rows in [0, 1, BATCH_CHUNK_ROWS, BATCH_CHUNK_ROWS + 1] {
            let probe = ThreadProbe::default();
            let seen = std::sync::Arc::clone(&probe.0);
            Sequential::new()
                .with(probe)
                .predict_ctx(&Tensor::full(vec![rows, 2], 1.0), &ctx);
            let seen = seen.lock().unwrap();
            let inline = seen.iter().all(|&id| id == std::thread::current().id());
            assert_eq!(
                inline,
                rows <= BATCH_CHUNK_ROWS,
                "{rows} rows ran on {seen:?}"
            );
        }
    }

    #[test]
    fn empty_network_is_identity() {
        let net = Sequential::new();
        let x = Tensor::full(vec![2, 2], 1.0);
        assert_eq!(net.predict(&x), x);
        assert!(net.layers.is_empty());
    }
}
