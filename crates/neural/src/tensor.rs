//! A row-major, dynamically shaped `f32` tensor.

use std::fmt;

use crate::layers::View;

/// Work-accounting kernel name of [`Tensor::matmul_ctx`].
pub const KERNEL_MATMUL: &str = "neural/matmul";

/// Errors produced by tensor construction and shape operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Data length does not match the product of the requested shape.
    ShapeDataMismatch {
        /// Requested shape.
        shape: Vec<usize>,
        /// Actual number of elements supplied.
        len: usize,
    },
    /// Two tensors have incompatible shapes for the attempted operation.
    ShapeMismatch {
        /// Left-hand shape.
        left: Vec<usize>,
        /// Right-hand shape.
        right: Vec<usize>,
    },
    /// The requested reshape changes the element count.
    BadReshape {
        /// Current shape.
        from: Vec<usize>,
        /// Requested shape.
        to: Vec<usize>,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeDataMismatch { shape, len } => {
                write!(
                    f,
                    "shape {shape:?} requires {} elements, got {len}",
                    shape.iter().product::<usize>()
                )
            }
            TensorError::ShapeMismatch { left, right } => {
                write!(f, "incompatible shapes {left:?} and {right:?}")
            }
            TensorError::BadReshape { from, to } => {
                write!(f, "cannot reshape {from:?} into {to:?}")
            }
        }
    }
}

impl std::error::Error for TensorError {}

/// Index of the largest element of a non-empty row (the last of equal
/// ones, under `f32::total_cmp`).
pub(crate) fn argmax(row: &[f32]) -> usize {
    row.iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(j, _)| j)
        .expect("non-empty row")
}

/// Adds `bias` to every row of the row-major `rows`, one row of
/// `bias.len()` values at a time.
pub(crate) fn add_bias_rows(rows: &mut [f32], bias: &[f32]) {
    for row in rows.chunks_exact_mut(bias.len().max(1)) {
        for (v, &b) in row.iter_mut().zip(bias) {
            *v += b;
        }
    }
}

/// A dense, row-major `f32` tensor with a dynamic shape.
///
/// Shapes follow the usual deep-learning conventions: 2-D activations are
/// `[batch, features]` and 4-D image activations are
/// `[batch, channels, height, width]`.
///
/// # Examples
///
/// ```
/// use scneural::tensor::Tensor;
///
/// let a = Tensor::from_vec(vec![2, 2], vec![1., 2., 3., 4.])?;
/// let b = Tensor::from_vec(vec![2, 2], vec![1., 0., 0., 1.])?; // the identity
/// let c = a.matmul(&b)?;
/// assert_eq!(c.data(), a.data());
/// # Ok::<(), scneural::tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Default for Tensor {
    /// An empty batch, `[0]`: what a reused buffer starts as before
    /// [`Tensor::resize_to`] gives it a shape.
    fn default() -> Self {
        Tensor {
            shape: vec![0],
            data: Vec::new(),
        }
    }
}

impl Tensor {
    /// Output rows per accounting panel in [`Tensor::matmul_ctx`]: recorded
    /// work is a function of the input shape alone.
    const MATMUL_PANEL_ROWS: usize = 32;

    /// Creates a tensor from a shape and backing data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] if `data.len()` differs from
    /// the product of `shape`.
    pub fn from_vec(shape: Vec<usize>, data: Vec<f32>) -> Result<Self, TensorError> {
        let expected: usize = shape.iter().product();
        if expected != data.len() {
            return Err(TensorError::ShapeDataMismatch {
                shape,
                len: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// A tensor of zeros.
    pub fn zeros(shape: Vec<usize>) -> Self {
        let n = shape.iter().product();
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// A tensor of ones.
    pub fn ones(shape: Vec<usize>) -> Self {
        let n = shape.iter().product();
        Tensor {
            shape,
            data: vec![1.0; n],
        }
    }

    /// A tensor filled with `value`.
    pub fn full(shape: Vec<usize>, value: f32) -> Self {
        let n = shape.iter().product();
        Tensor {
            shape,
            data: vec![value; n],
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the backing data (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing data (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Gives the tensor `shape`, reusing its storage: a tensor that has held
    /// as many elements and as many axes allocates nothing. Elements it
    /// keeps keep their values and new ones are zero, so a caller that
    /// reuses a tensor as a buffer overwrites all of it.
    pub fn resize_to(&mut self, shape: &[usize]) {
        self.shape.clear();
        self.shape.extend_from_slice(shape);
        self.data.resize(shape.iter().product(), 0.0);
    }

    /// Becomes the rows of `src` at `rows`, in that order (axis 0 is the
    /// batch), reusing this tensor's storage.
    pub(crate) fn gather_rows(&mut self, src: &Tensor, rows: &[usize]) {
        let per = src.data.len() / src.shape[0].max(1);
        self.shape.clear();
        self.shape.extend_from_slice(&src.shape);
        self.shape[0] = rows.len();
        self.data.clear();
        for &r in rows {
            self.data.extend_from_slice(&src.data[r * per..][..per]);
        }
    }

    /// The tensor as a borrowed [`View`].
    pub(crate) fn view(&self) -> View<'_> {
        View::new(&self.shape, &self.data)
    }

    /// Consumes the tensor, returning its backing data.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Number of rows, treating the tensor as 2-D `[rows, cols]`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn rows(&self) -> usize {
        assert_eq!(
            self.shape.len(),
            2,
            "rows() requires a 2-D tensor, got {:?}",
            self.shape
        );
        self.shape[0]
    }

    /// Number of columns, treating the tensor as 2-D `[rows, cols]`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn cols(&self) -> usize {
        assert_eq!(
            self.shape.len(),
            2,
            "cols() requires a 2-D tensor, got {:?}",
            self.shape
        );
        self.shape[1]
    }

    /// Element at a 2-D position.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds or not 2-D.
    pub fn at(&self, r: usize, c: usize) -> f32 {
        let cols = self.cols();
        self.data[r * cols + c]
    }

    /// Sets the element at a 2-D position.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds or not 2-D.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        let cols = self.cols();
        self.data[r * cols + c] = v;
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::BadReshape`] if the element counts differ.
    pub fn reshape(&self, shape: Vec<usize>) -> Result<Tensor, TensorError> {
        let n: usize = shape.iter().product();
        if n != self.data.len() {
            return Err(TensorError::BadReshape {
                from: self.shape.clone(),
                to: shape,
            });
        }
        Ok(Tensor {
            shape,
            data: self.data.clone(),
        })
    }

    /// Matrix multiplication of two 2-D tensors: one
    /// [`scsimd::matmul_panel_f32`] call over all rows, on the process-wide
    /// [`scsimd::Isa::active`] backend.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless `self` is `[m, k]` and
    /// `other` is `[k, n]`.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        if self.shape.len() != 2 || other.shape.len() != 2 || self.shape[1] != other.shape[0] {
            return Err(TensorError::ShapeMismatch {
                left: self.shape.clone(),
                right: other.shape.clone(),
            });
        }
        let (m, k, n) = (self.shape[0], self.shape[1], other.shape[1]);
        let mut data = vec![0.0f32; m * n];
        scsimd::matmul_panel_f32(
            &self.data,
            &other.data,
            k,
            n,
            &mut data,
            scsimd::Isa::active(),
        );
        Ok(Tensor {
            shape: vec![m, n],
            data,
        })
    }

    /// [`Tensor::matmul`] under an [`ExecCtx`](crate::exec::ExecCtx), with
    /// its work attributed to [`KERNEL_MATMUL`] when the context's
    /// telemetry is enabled. The product is one task on the calling
    /// thread, so the context's worker count is not read: what fans out is
    /// a batch ([`crate::net::Sequential::predict_ctx`]), not a product.
    ///
    /// The scsimd strict profile pins each output element's IEEE-754
    /// operation sequence (ascending-`k` multiply-adds with zero-skip) on
    /// every backend, so the product is bit-identical on any ISA — except
    /// that a NaN output, NaN everywhere, may differ in sign and payload
    /// (see the scsimd crate docs).
    ///
    /// Work is accounted on *nominal* 32-row
    /// panels: one delta per panel of the input, nominal FLOPs
    /// (`2·rows·k·n` per panel) regardless of the zero-skip fast path, one
    /// `b`-row miss per panel plus a hit for each reuse.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] under the same conditions as
    /// [`Tensor::matmul`].
    pub fn matmul_ctx(
        &self,
        other: &Tensor,
        ctx: &crate::exec::ExecCtx,
    ) -> Result<Tensor, TensorError> {
        let out = self.matmul(other)?;
        if ctx.telemetry().is_enabled() {
            let (m, k, n) = (
                self.shape[0] as u64,
                self.shape[1] as u64,
                other.shape[1] as u64,
            );
            let panel = Self::MATMUL_PANEL_ROWS as u64;
            let mut row = 0u64;
            while row < m {
                let rows = (m - row).min(panel);
                ctx.telemetry()
                    .work(KERNEL_MATMUL, Self::panel_work(rows, k, n));
                row += rows;
            }
        }
        Ok(out)
    }

    /// Work of one `rows × k` panel times a `k × n` matrix: nominal
    /// multiply-add FLOPs, streamed bytes (panel in, `b` once, panel out),
    /// and the panel-reuse cache model.
    fn panel_work(rows: u64, k: u64, n: u64) -> sctelemetry::WorkDelta {
        sctelemetry::WorkDelta::flops(2 * rows * k * n)
            .with_bytes(4 * (rows * k + k * n + rows * n))
            .with_cache(rows.saturating_sub(1) * k, k)
            .with_items(rows)
    }

    /// Transpose of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn transpose(&self) -> Tensor {
        let (r, c) = (self.rows(), self.cols());
        let mut out = vec![0.0f32; r * c];
        for i in 0..r {
            for j in 0..c {
                out[j * r + i] = self.data[i * c + j];
            }
        }
        Tensor {
            shape: vec![c, r],
            data: out,
        }
    }

    /// Element-wise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_with(other, |a, b| a + b)
    }

    /// Element-wise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_with(other, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_with(other, |a, b| a * b)
    }

    fn zip_with(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor, TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.shape.clone(),
                right: other.shape.clone(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Tensor {
            shape: self.shape.clone(),
            data,
        })
    }

    /// Adds `other` into `self` in place.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Multiplies every element by `s`, returning a new tensor.
    pub fn scale(&self, s: f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| x * s).collect(),
        }
    }

    /// Applies `f` element-wise, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Index of the maximum element in each row of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or has zero columns.
    pub fn argmax_rows(&self) -> Vec<usize> {
        let (r, c) = (self.rows(), self.cols());
        assert!(c > 0, "argmax over zero columns");
        (0..r).map(|i| argmax(&self.data[i * c..][..c])).collect()
    }

    /// Concatenates 2-D tensors with identical row counts horizontally.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if row counts differ.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty.
    pub fn hstack(parts: &[Tensor]) -> Result<Tensor, TensorError> {
        assert!(!parts.is_empty(), "hstack of zero tensors");
        let rows = parts[0].rows();
        for p in parts {
            if p.rows() != rows {
                return Err(TensorError::ShapeMismatch {
                    left: parts[0].shape.clone(),
                    right: p.shape.clone(),
                });
            }
        }
        let total_cols: usize = parts.iter().map(|p| p.cols()).sum();
        let mut data = Vec::with_capacity(rows * total_cols);
        for r in 0..rows {
            for p in parts {
                let c = p.cols();
                data.extend_from_slice(&p.data[r * c..(r + 1) * c]);
            }
        }
        Ok(Tensor {
            shape: vec![rows, total_cols],
            data,
        })
    }

    /// Splits a 2-D tensor horizontally at column `at`, returning
    /// `(left, right)`.
    ///
    /// # Panics
    ///
    /// Panics if `at > cols` or the tensor is not 2-D.
    pub fn hsplit(&self, at: usize) -> (Tensor, Tensor) {
        let (r, c) = (self.rows(), self.cols());
        assert!(at <= c, "split column {at} beyond {c}");
        let mut left = Vec::with_capacity(r * at);
        let mut right = Vec::with_capacity(r * (c - at));
        for i in 0..r {
            left.extend_from_slice(&self.data[i * c..i * c + at]);
            right.extend_from_slice(&self.data[i * c + at..(i + 1) * c]);
        }
        (
            Tensor {
                shape: vec![r, at],
                data: left,
            },
            Tensor {
                shape: vec![r, c - at],
                data: right,
            },
        )
    }

    /// Sums over rows, producing a `[1, cols]` tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn sum_rows(&self) -> Tensor {
        let (r, c) = (self.rows(), self.cols());
        let mut out = vec![0.0f32; c];
        for i in 0..r {
            for j in 0..c {
                out[j] += self.data[i * c + j];
            }
        }
        Tensor {
            shape: vec![1, c],
            data: out,
        }
    }

    /// Squared Frobenius norm.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.data.len() <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t22() -> Tensor {
        Tensor::from_vec(vec![2, 2], vec![1., 2., 3., 4.]).unwrap()
    }

    #[test]
    fn from_vec_checks_len() {
        assert!(Tensor::from_vec(vec![2, 3], vec![0.0; 5]).is_err());
        assert!(Tensor::from_vec(vec![2, 3], vec![0.0; 6]).is_ok());
    }

    #[test]
    fn matmul_identity() {
        let a = t22();
        let i = Tensor::from_vec(vec![2, 2], vec![1., 0., 0., 1.]).unwrap();
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let b = Tensor::from_vec(vec![3, 2], vec![7., 8., 9., 10., 11., 12.]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_shape_error() {
        let a = t22();
        let b = Tensor::zeros(vec![3, 2]);
        assert!(matches!(
            a.matmul(&b),
            Err(TensorError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn transpose_involution() {
        let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), &[3, 2]);
        assert_eq!(a.transpose().at(0, 1), 4.0);
    }

    #[test]
    fn elementwise_ops() {
        let a = t22();
        let b = Tensor::ones(vec![2, 2]);
        assert_eq!(a.add(&b).unwrap().data(), &[2., 3., 4., 5.]);
        assert_eq!(a.sub(&b).unwrap().data(), &[0., 1., 2., 3.]);
        assert_eq!(a.mul(&a).unwrap().data(), &[1., 4., 9., 16.]);
        assert_eq!(a.scale(2.0).data(), &[2., 4., 6., 8.]);
    }

    #[test]
    fn reductions() {
        let a = t22();
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.sum_rows().data(), &[4., 6.]);
        assert_eq!(a.norm_sq(), 30.0);
    }

    #[test]
    fn argmax_rows_picks_max() {
        let a = Tensor::from_vec(vec![2, 3], vec![0.1, 0.9, 0.0, 5.0, -1.0, 2.0]).unwrap();
        assert_eq!(a.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let b = a.reshape(vec![3, 2]).unwrap();
        assert_eq!(b.data(), a.data());
        assert!(a.reshape(vec![4, 2]).is_err());
    }

    #[test]
    fn stack_and_split() {
        let a = t22();
        let h = Tensor::hstack(&[a.clone(), a.clone()]).unwrap();
        assert_eq!(h.shape(), &[2, 4]);
        assert_eq!(h.data(), &[1., 2., 1., 2., 3., 4., 3., 4.]);

        let (l, r) = h.hsplit(2);
        assert_eq!(l, a);
        assert_eq!(r, a);
    }

    #[test]
    fn broadcast_bias() {
        let mut a = t22();
        add_bias_rows(a.data_mut(), &[10., 20.]);
        assert_eq!(a.data(), &[11., 22., 13., 24.]);
    }

    #[test]
    fn display_nonempty() {
        assert!(!format!("{}", t22()).is_empty());
        assert!(!format!("{:?}", Tensor::zeros(vec![0])).is_empty());
    }

    #[test]
    fn error_display() {
        let e = TensorError::BadReshape {
            from: vec![2],
            to: vec![3],
        };
        assert!(e.to_string().contains("reshape"));
    }
}
