//! Neural network layers with explicit forward/backward passes.

mod conv;
mod dense;

pub use conv::{Conv2d, ConvError, GlobalAvgPool, MaxPool2d};
pub use dense::{Dense, Flatten, Relu, Sigmoid};

use std::fmt;

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

/// Why a layer refuses an input shape: returned by [`Layer::plan_step`]
/// and [`crate::net::Sequential::plan`], and the `Display` text of the
/// panic [`Layer::infer`] raises.
///
/// These are the *input-reachable* failures of inference: a shape that
/// comes from outside the program. Each layer file's header says which of
/// its remaining panics are the training pass's on the same shapes and
/// which guard internal invariants: sizes a layer or a plan computed
/// itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// A convolution or pooling layer refuses the input.
    Conv {
        /// The refusing layer's name.
        layer: &'static str,
        /// What is wrong.
        error: ConvError,
    },
    /// The input does not have the rank the layer reads.
    Rank {
        /// The refusing layer's name.
        layer: &'static str,
        /// The rank the layer reads (the least one, for layers that take
        /// any rank from it up; the most, for a shape past their limit).
        expected: usize,
        /// The shape that was given.
        shape: Vec<usize>,
    },
    /// The input's feature axis is not as wide as the layer's.
    Width {
        /// The refusing layer's name.
        layer: &'static str,
        /// The layer's input width.
        expected: usize,
        /// The input's.
        got: usize,
    },
    /// An axis the layer reads from has no entries.
    Empty {
        /// The refusing layer's name.
        layer: &'static str,
        /// The empty axis.
        axis: usize,
        /// The shape that was given.
        shape: Vec<usize>,
    },
    /// Two paths whose outputs the layer adds produce different shapes.
    Paths {
        /// The refusing layer's name.
        layer: &'static str,
        /// The main path's output shape.
        main: Vec<usize>,
        /// The other path's.
        shortcut: Vec<usize>,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Conv { layer, error } => write!(f, "{layer}: {error}"),
            PlanError::Rank {
                layer,
                expected,
                shape,
            } => write!(
                f,
                "{layer}: expected a rank-{expected} input, got {shape:?}"
            ),
            PlanError::Width {
                layer,
                expected,
                got,
            } => write!(f, "{layer}: input width {got}, the layer takes {expected}"),
            PlanError::Empty { layer, axis, shape } => {
                write!(f, "{layer}: axis {axis} of {shape:?} is empty")
            }
            PlanError::Paths {
                layer,
                main,
                shortcut,
            } => write!(
                f,
                "{layer}: main path gives {main:?}, shortcut gives {shortcut:?}"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// `Ok` if `shape` has exactly `rank` axes.
pub(crate) fn expect_rank(
    layer: &'static str,
    shape: &[usize],
    rank: usize,
) -> Result<(), PlanError> {
    if shape.len() == rank {
        return Ok(());
    }
    Err(PlanError::Rank {
        layer,
        expected: rank,
        shape: shape.to_vec(),
    })
}

/// `Ok` if the last axis of `shape` is `width` wide.
pub(crate) fn expect_width(
    layer: &'static str,
    shape: &[usize],
    width: usize,
) -> Result<(), PlanError> {
    let got = shape.last().copied().unwrap_or(0);
    if got == width {
        return Ok(());
    }
    Err(PlanError::Width {
        layer,
        expected: width,
        got,
    })
}

/// How a layer runs [`Layer::infer_into`] on a planned input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Reads the input and writes a separate output, with this many `f32`
    /// of scratch.
    Apart {
        /// Scratch elements the call needs.
        scratch: usize,
    },
    /// Overwrites the input with the output, element for element (the
    /// activations): a network runs it on the buffer its input is in.
    InPlace,
    /// The output is the input's data under another (or the same) shape
    /// (`Flatten`): a network only relabels the shape and does not call the
    /// layer.
    Relabel,
}

impl Step {
    /// Scratch elements [`Layer::infer_into`] needs.
    pub fn scratch(self) -> usize {
        match self {
            Step::Apart { scratch } => scratch,
            Step::InPlace | Step::Relabel => 0,
        }
    }
}

/// A borrowed tensor: a shape and the row-major data it labels.
#[derive(Debug, Clone, Copy)]
pub struct View<'a> {
    shape: &'a [usize],
    data: &'a [f32],
}

impl<'a> View<'a> {
    /// Labels `data` with `shape`; the element counts agree (an internal
    /// invariant: callers take both from a plan or a tensor).
    pub(crate) fn new(shape: &'a [usize], data: &'a [f32]) -> Self {
        debug_assert_eq!(shape.iter().product::<usize>(), data.len());
        View { shape, data }
    }

    /// The shape.
    pub fn shape(&self) -> &'a [usize] {
        self.shape
    }

    /// The data, row-major.
    pub fn data(&self) -> &'a [f32] {
        self.data
    }

    /// An owned copy, for the layers that compose other layers' `infer`.
    pub(crate) fn to_tensor(self) -> Tensor {
        Tensor::from_vec(self.shape.to_vec(), self.data.to_vec()).expect("a view's counts agree")
    }
}

/// What one [`Layer::infer_into`] call reads and writes.
#[derive(Debug)]
pub enum Io<'a> {
    /// Read `input`, write `out`, which holds exactly the planned output's
    /// elements (their values are left over from earlier calls).
    Apart {
        /// The input.
        input: View<'a>,
        /// The output's elements.
        out: &'a mut [f32],
    },
    /// `data` holds the input, of shape `shape`; the output replaces it.
    /// Only a step planned [`Step::InPlace`] or [`Step::Relabel`] is run
    /// so.
    InPlace {
        /// The input's shape.
        shape: &'a [usize],
        /// The input's elements, to be overwritten with the output's.
        data: &'a mut [f32],
    },
}

impl<'a> Io<'a> {
    /// The input's shape and a buffer that holds the input's elements, to
    /// be overwritten with the output's: `out`, after a copy, for
    /// [`Io::Apart`]; the buffer itself for [`Io::InPlace`].
    pub fn in_place(self) -> (&'a [usize], &'a mut [f32]) {
        match self {
            Io::Apart { input, out } => {
                out.copy_from_slice(input.data);
                (input.shape, out)
            }
            Io::InPlace { shape, data } => (shape, data),
        }
    }

    /// `(input, out)` of a step planned [`Step::Apart`].
    ///
    /// # Panics
    ///
    /// Panics on [`Io::InPlace`]: a network runs in place only the steps
    /// that plan so (an internal invariant).
    pub fn apart(self) -> (View<'a>, &'a mut [f32]) {
        match self {
            Io::Apart { input, out } => (input, out),
            Io::InPlace { .. } => panic!("a step planned apart was run in place"),
        }
    }
}

/// A differentiable layer with two passes and no mode flag.
///
/// [`Layer::forward`] is the **training pass**: it takes `&mut self` and
/// caches whatever activations `backward` needs; `backward` must then be
/// called with the gradient of the loss with respect to that output. Trainable layers expose their parameters through
/// [`Layer::params_mut`], which optimizers consume.
///
/// [`Layer::infer_into`] is the **inference pass**, the only one a deployed
/// model runs: it takes `&self`, reads the parameters and writes nothing
/// of its own, not even a cache. It writes into buffers the caller owns and sized from
/// [`Layer::plan_step`], which checks an input shape once; so a network
/// that serves holds no buffer, and one that is shared by `scpar` workers
/// (the trait is `Sync` for exactly that reason) gives each its own. An
/// inference call between `forward` and `backward` cannot disturb the
/// gradients. [`Layer::infer`] wraps the two for a caller without buffers.
///
/// The trait is object-safe; networks are `Vec<Box<dyn Layer>>`.
pub trait Layer: std::fmt::Debug + Send + Sync {
    /// Training pass: computes the layer output for `input` and caches what
    /// [`Layer::backward`] needs.
    fn forward(&mut self, input: &Tensor) -> Tensor;

    /// Checks an input of shape `input`, pushes the output's shape onto
    /// `out` (which comes empty) and says how [`Layer::infer_into`] runs:
    /// shape arithmetic only.
    ///
    /// # Errors
    ///
    /// A [`PlanError`] naming what is wrong with `input`.
    fn plan_step(&self, input: &[usize], out: &mut Vec<usize>) -> Result<Step, PlanError>;

    /// Inference pass on an input of a shape [`Layer::plan_step`] accepted,
    /// with at least its [`Step::scratch`] elements of `scratch`, whose
    /// values are left over from earlier calls. Row-independent layers must
    /// produce bit-identical outputs for any row subset, which is what
    /// makes chunked batch inference byte-stable across thread counts.
    fn infer_into(&self, io: Io<'_>, scratch: &mut [f32]);

    /// [`Layer::infer_into`] on its own: plans `input`, allocates the
    /// output and the scratch, and runs.
    ///
    /// # Panics
    ///
    /// Panics with the [`PlanError`]'s `Display` if the plan refuses
    /// `input`.
    fn infer(&self, input: &Tensor) -> Tensor {
        let mut shape = Vec::new();
        let step = self
            .plan_step(input.shape(), &mut shape)
            .unwrap_or_else(|e| panic!("{e}"));
        let mut out = Tensor::zeros(shape);
        let mut scratch = vec![0.0; step.scratch()];
        let io = Io::Apart {
            input: input.view(),
            out: out.data_mut(),
        };
        self.infer_into(io, &mut scratch);
        out
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
    /// not tensors: a network that runs a step in place no longer has the
    /// input once the output exists.
    ///
    /// **Contract: the delta must be strictly linear in the batch row
    /// count, with no per-call constant term.** Chunked parallel inference
    /// ([`crate::net::Sequential::predict_ctx`]) runs the stack once per
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

/// Shannon entropy (nats) of one row of probabilities, summed in column
/// order; probabilities at or below `1e-12` add nothing.
pub(crate) fn entropy(row: &[f32]) -> f32 {
    let mut h = 0.0;
    for &p in row {
        if p > 1e-12 {
            h -= p * p.ln();
        }
    }
    h
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
        assert!(entropy(&[1.0, 0.0, 0.0, 0.0]) < 1e-6);
        assert!((entropy(&[0.25; 4]) - 4.0f32.ln()).abs() < 1e-6);
    }

    #[test]
    fn param_zero_grad() {
        let mut p = Param::new(Tensor::full(vec![2, 2], 1.0));
        p.grad = Tensor::full(vec![2, 2], 1.0);
        p.zero_grad();
        assert_eq!(p.grad.sum(), 0.0);
    }
}
