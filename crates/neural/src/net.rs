//! Sequential networks and the training loop.

use sctelemetry::TelemetryHandle;

use crate::layers::{softmax_rows, Layer, Param};
use crate::loss::{Loss, LossTarget};
use crate::optim::Optimizer;
use crate::tensor::Tensor;

/// Prefix of per-layer work-accounting kernels: a layer named `n` is
/// attributed as kernel `neural/layer/<n>` (see
/// [`crate::layers::Layer::infer_work`]).
pub const KERNEL_LAYER_PREFIX: &str = "neural/layer/";

/// The batch size [`Sequential::predict_ctx`] must exceed before it fans
/// out, and the smallest row chunk it then hands a worker.
pub const BATCH_CHUNK_ROWS: usize = 32;

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
/// let logits = net.predict(&Tensor::ones(vec![2, 4]));
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
    /// [`Layer::infer_work`] to kernel `neural/layer/<name>` (see
    /// [`KERNEL_LAYER_PREFIX`]).
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

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the stack has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
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

    /// Runs inference (no dropout, batch-norm on its running statistics).
    pub fn predict(&self, input: &Tensor) -> Tensor {
        self.infer(input)
    }

    /// Parallel batch inference under an [`ExecCtx`](crate::exec::ExecCtx),
    /// fanned out on the `scpar` worker pool.
    ///
    /// A `[batch, ...]` input of more than [`BATCH_CHUNK_ROWS`] rows is
    /// split into one row chunk per worker
    /// ([`scpar::ScparConfig::task_size`]); each chunk runs through the
    /// immutable [`Layer::infer`] path concurrently and the outputs are
    /// stitched back together in chunk order. Every layer in this crate
    /// computes rows independently in inference mode, so the result is
    /// bit-identical to `predict` for any thread count. Layer kernels
    /// vectorize through the process-wide [`scsimd::Isa::active`] backend,
    /// and the scsimd strict profile keeps outputs bit-identical on every
    /// ISA too.
    ///
    /// Per-layer work is recorded through the network's own attached
    /// telemetry handle ([`Sequential::with_telemetry`]), not the context's
    /// — a net carries its recorder the way it carries its weights.
    ///
    /// # Panics
    ///
    /// Panics if the input has no dimensions.
    pub fn predict_ctx(&self, input: &Tensor, ctx: &crate::exec::ExecCtx) -> Tensor {
        let shape = input.shape();
        assert!(!shape.is_empty(), "predict_ctx needs a batched input");
        let chunk_rows = ctx.par().task_size(shape[0], BATCH_CHUNK_ROWS);
        self.predict_chunked(input, ctx.par(), chunk_rows)
    }

    /// [`Sequential::predict_ctx`] at an explicit, positive chunk height —
    /// the schedule only, so every `chunk_rows` gives the same bits.
    fn predict_chunked(
        &self,
        input: &Tensor,
        cfg: &scpar::ScparConfig,
        chunk_rows: usize,
    ) -> Tensor {
        let shape = input.shape();
        let n = shape[0];
        if !cfg.is_parallel() || input.is_empty() || n <= chunk_rows {
            return self.infer(input);
        }
        let row_elems = input.len() / n;
        let rest: Vec<usize> = shape[1..].to_vec();
        let chunk_elems = chunk_rows * row_elems;
        let parts = scpar::par_map_chunks(cfg, input.data(), chunk_elems, |_ci, part| {
            let rows = part.len() / row_elems;
            let mut sub_shape = vec![rows];
            sub_shape.extend_from_slice(&rest);
            let sub = Tensor::from_vec(sub_shape, part.to_vec()).expect("chunk is whole rows");
            self.infer(&sub)
        });
        let out_rest: Vec<usize> = parts[0].shape()[1..].to_vec();
        let mut data = Vec::with_capacity(parts.iter().map(|p| p.len()).sum());
        for p in &parts {
            data.extend_from_slice(p.data());
        }
        let mut out_shape = vec![n];
        out_shape.extend_from_slice(&out_rest);
        Tensor::from_vec(out_shape, data).expect("chunks cover the batch")
    }

    /// Runs inference and converts logits to row-wise probabilities.
    pub fn predict_proba(&self, input: &Tensor) -> Tensor {
        softmax_rows(&self.predict(input))
    }

    /// Runs inference and returns the argmax class per row.
    pub fn predict_classes(&self, input: &Tensor) -> Vec<usize> {
        self.predict(input).argmax_rows()
    }

    /// One optimization step on a batch of class-labelled data. Returns the
    /// batch loss.
    pub fn train_step(
        &mut self,
        input: &Tensor,
        classes: &[usize],
        loss: &mut dyn Loss,
        optimizer: &mut dyn Optimizer,
    ) -> f32 {
        let logits = self.forward(input);
        let (l, grad) = loss.forward(&logits, &LossTarget::Classes(classes));
        self.backward(&grad);
        optimizer.step(self.params_mut());
        l
    }

    /// One optimization step on a batch with dense regression targets.
    pub fn train_step_values(
        &mut self,
        input: &Tensor,
        targets: &Tensor,
        loss: &mut dyn Loss,
        optimizer: &mut dyn Optimizer,
    ) -> f32 {
        let out = self.forward(input);
        let (l, grad) = loss.forward(&out, &LossTarget::Values(targets));
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
        loss: &mut dyn Loss,
        optimizer: &mut dyn Optimizer,
        epochs: usize,
    ) -> Vec<f32> {
        (0..epochs)
            .map(|_| self.train_step(input, classes, loss, optimizer))
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

    /// The first layer is lent `input`; every later activation is moved
    /// into the layer that consumes it ([`Layer::infer_owned`]), so a step
    /// that is being recorded notes its input's shape before the move.
    fn infer(&self, input: &Tensor) -> Tensor {
        let mut layers = self.layers.iter();
        let Some(first) = layers.next() else {
            return input.clone();
        };
        let mut x = first.infer(input);
        record(&self.telemetry, first.as_ref(), input.shape(), x.shape());
        for layer in layers {
            let moved = self.telemetry.is_enabled().then(|| x.shape().to_vec());
            x = layer.infer_owned(x);
            if let Some(moved) = moved {
                record(&self.telemetry, layer.as_ref(), &moved, x.shape());
            }
        }
        x
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
    use crate::layers::{BatchNorm1d, Dense, Dropout, Relu};
    use crate::loss::SoftmaxCrossEntropy;
    use crate::optim::{Adam, Sgd};
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
        let mut loss = SoftmaxCrossEntropy::new();
        let mut opt = Adam::new(0.05);
        let losses = net.fit(&x, &y, &mut loss, &mut opt, 300);
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
        let mut loss = SoftmaxCrossEntropy::new();
        let mut opt = Sgd::new(0.5);
        let losses = net.fit(&x, &y, &mut loss, &mut opt, 200);
        assert!(losses.last().unwrap() < &losses[0]);
    }

    #[test]
    fn learns_gaussian_blobs_with_regularizers() {
        // Two separated gaussian clusters; a net with dropout + batch-norm
        // should reach high train accuracy.
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
            .with(BatchNorm1d::new(16))
            .with(Relu::new())
            .with(Dropout::new(0.2, 7))
            .with(Dense::new(16, 2, 8));
        let mut loss = SoftmaxCrossEntropy::new();
        let mut opt = Adam::new(0.02);
        net.fit(&x, &labels, &mut loss, &mut opt, 150);
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
    fn predict_proba_rows_sum_to_one() {
        let net = Sequential::new().with(Dense::new(2, 3, 0));
        let p = net.predict_proba(&Tensor::ones(vec![5, 2]));
        for i in 0..5 {
            let s: f32 = (0..3).map(|j| p.at(i, j)).sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn layer_names_in_order() {
        let net = Sequential::new()
            .with(Dense::new(1, 1, 0))
            .with(Relu::new());
        assert_eq!(net.layer_names(), vec!["Dense", "Relu"]);
    }

    fn regularized_net() -> Sequential {
        Sequential::new()
            .with(Dense::new(3, 8, 11))
            .with(BatchNorm1d::new(8))
            .with(Relu::new())
            .with(Dropout::new(0.4, 12))
            .with(Dense::new(8, 2, 13))
    }

    #[test]
    fn predict_between_forward_and_backward_leaves_gradients_alone() {
        let x =
            Tensor::from_vec(vec![4, 3], (0..12).map(|i| i as f32 / 7.0 - 0.8).collect()).unwrap();
        let grad = Tensor::ones(vec![4, 2]);
        let grads = |interleave: bool| {
            let mut net = regularized_net();
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
        let mut net = regularized_net();
        let x =
            Tensor::from_vec(vec![6, 3], (0..18).map(|i| (i % 5) as f32 - 2.0).collect()).unwrap();
        net.forward(&x); // move the batch-norm running statistics off their initial values
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
            let net = regularized_net();
            let cfg = scpar::ScparConfig::with_threads(threads);
            let chunked = net.predict_chunked(&x, &cfg, chunk_rows);
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
        fn infer(&self, input: &Tensor) -> Tensor {
            let mut seen = self.0.lock().expect("no probe call panics");
            seen.push(std::thread::current().id());
            input.clone()
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
                .predict_ctx(&Tensor::ones(vec![rows, 2]), &ctx);
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
        let x = Tensor::ones(vec![2, 2]);
        assert_eq!(net.predict(&x), x);
        assert!(net.is_empty());
    }
}
