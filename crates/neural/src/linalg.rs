//! Small dense `f64` linear algebra for statistical modules (CCA, whitening).
//!
//! These routines are deliberately simple — the matrices involved are modality
//! feature covariances (tens of rows), where cubic algorithms are instant.

/// A small dense row-major `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// A zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The identity matrix.
    fn eye(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Matrix product, one scalar loop: each output element is an
    /// ascending-`k` sum of multiply-adds that skips the entries of `self`
    /// equal to `0.0` (either sign). The matrices are covariances of tens
    /// of rows, so neither SIMD nor threads would pay; CCA's bits rest on
    /// this operation order.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Mat) -> Mat {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        let (k, n) = (self.cols, other.cols);
        let mut out = Mat::zeros(self.rows, n);
        for i in 0..self.rows {
            let a_row = &self.data[i * k..(i + 1) * k];
            let o_row = &mut out.data[i * n..(i + 1) * n];
            for (p, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let b_row = &other.data[p * n..(p + 1) * n];
                for (o, &bv) in o_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> Mat {
        let mut out = Mat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Scales every element.
    pub fn scale(&self, s: f64) -> Mat {
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| x * s).collect(),
        }
    }

    /// Adds `eps` to the diagonal (ridge regularization).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn add_ridge(&self, eps: f64) -> Mat {
        assert_eq!(self.rows, self.cols, "ridge requires a square matrix");
        let mut out = self.clone();
        for i in 0..self.rows {
            out[(i, i)] += eps;
        }
        out
    }

    /// Maximum absolute off-diagonal element (used by the Jacobi sweep).
    fn max_off_diagonal(&self) -> (usize, usize, f64) {
        let mut best = (0, 1, 0.0);
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let v = self[(i, j)].abs();
                if v > best.2 {
                    best = (i, j, v);
                }
            }
        }
        best
    }
}

impl std::ops::Index<(usize, usize)> for Mat {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Mat {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

/// Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.
///
/// Returns `(eigenvalues, eigenvectors)` with eigenvalues sorted descending
/// and eigenvectors as the *columns* of the returned matrix.
///
/// # Panics
///
/// Panics if `a` is not square.
pub fn jacobi_eigen(a: &Mat) -> (Vec<f64>, Mat) {
    assert_eq!(
        a.rows, a.cols,
        "eigendecomposition requires a square matrix"
    );
    let n = a.rows;
    if n == 0 {
        return (Vec::new(), Mat::zeros(0, 0));
    }
    if n == 1 {
        return (vec![a[(0, 0)]], Mat::eye(1));
    }
    let mut m = a.clone();
    let mut v = Mat::eye(n);
    for _sweep in 0..100 {
        let (p, q, off) = m.max_off_diagonal();
        if off < 1e-12 {
            break;
        }
        // Jacobi rotation annihilating m[p][q].
        let theta = 0.5 * (m[(q, q)] - m[(p, p)]) / m[(p, q)];
        let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
        let c = 1.0 / (t * t + 1.0).sqrt();
        let s = t * c;
        for k in 0..n {
            let mkp = m[(k, p)];
            let mkq = m[(k, q)];
            m[(k, p)] = c * mkp - s * mkq;
            m[(k, q)] = s * mkp + c * mkq;
        }
        for k in 0..n {
            let mpk = m[(p, k)];
            let mqk = m[(q, k)];
            m[(p, k)] = c * mpk - s * mqk;
            m[(q, k)] = s * mpk + c * mqk;
        }
        for k in 0..n {
            let vkp = v[(k, p)];
            let vkq = v[(k, q)];
            v[(k, p)] = c * vkp - s * vkq;
            v[(k, q)] = s * vkp + c * vkq;
        }
    }
    // Extract eigenvalues and sort descending, permuting eigenvector columns.
    let mut pairs: Vec<(f64, usize)> = (0..n).map(|i| (m[(i, i)], i)).collect();
    pairs.sort_by(|a, b| b.0.total_cmp(&a.0));
    let values: Vec<f64> = pairs.iter().map(|&(val, _)| val).collect();
    let mut vectors = Mat::zeros(n, n);
    for (new_col, &(_, old_col)) in pairs.iter().enumerate() {
        for r in 0..n {
            vectors[(r, new_col)] = v[(r, old_col)];
        }
    }
    (values, vectors)
}

/// Inverse square root of a symmetric positive-definite matrix:
/// `A^(-1/2) = V diag(λ^-1/2) Vᵀ`. Eigenvalues below `floor` are clamped to
/// `floor` for numerical stability.
///
/// # Panics
///
/// Panics if `a` is not square.
pub fn inv_sqrt_sym(a: &Mat, floor: f64) -> Mat {
    let (values, vectors) = jacobi_eigen(a);
    let n = a.rows;
    let mut d = Mat::zeros(n, n);
    for i in 0..n {
        d[(i, i)] = 1.0 / values[i].max(floor).sqrt();
    }
    vectors.matmul(&d).matmul(&vectors.transpose())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    /// A `rows × cols` matrix from row-major `data`.
    fn mat(rows: usize, cols: usize, data: Vec<f64>) -> Mat {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        Mat { rows, cols, data }
    }

    #[test]
    fn matmul_identity() {
        let a = mat(2, 2, vec![1., 2., 3., 4.]);
        let i = Mat::eye(2);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn matmul_zero_skip_consistency() {
        // A product with explicit zeros must equal the dense accumulation
        // (adding av*b when av == 0 contributes nothing representable).
        let a = mat(2, 2, vec![0.0, 2.0, 1.0, 0.0]);
        let b = mat(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.matmul(&b).data, vec![6.0, 8.0, 1.0, 2.0]);
        // An empty inner dimension is the zero matrix.
        assert_eq!(Mat::zeros(3, 0).matmul(&Mat::zeros(0, 2)), Mat::zeros(3, 2));
    }

    #[test]
    fn jacobi_diagonal_matrix() {
        let mut a = Mat::zeros(3, 3);
        a[(0, 0)] = 3.0;
        a[(1, 1)] = 1.0;
        a[(2, 2)] = 2.0;
        let (vals, _) = jacobi_eigen(&a);
        assert!(approx(vals[0], 3.0, 1e-9));
        assert!(approx(vals[1], 2.0, 1e-9));
        assert!(approx(vals[2], 1.0, 1e-9));
    }

    #[test]
    fn jacobi_known_symmetric() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let a = mat(2, 2, vec![2., 1., 1., 2.]);
        let (vals, vecs) = jacobi_eigen(&a);
        assert!(approx(vals[0], 3.0, 1e-9));
        assert!(approx(vals[1], 1.0, 1e-9));
        // A v = λ v for the first eigenvector.
        let v0 = mat(2, 1, vec![vecs[(0, 0)], vecs[(1, 0)]]);
        let av = a.matmul(&v0);
        assert!(approx(av[(0, 0)], 3.0 * v0[(0, 0)], 1e-8));
        assert!(approx(av[(1, 0)], 3.0 * v0[(1, 0)], 1e-8));
    }

    #[test]
    fn jacobi_reconstruction() {
        // V diag(λ) Vᵀ must reconstruct A.
        let a = mat(3, 3, vec![4., 1., 0.5, 1., 3., 0.2, 0.5, 0.2, 2.]);
        let (vals, vecs) = jacobi_eigen(&a);
        let mut d = Mat::zeros(3, 3);
        for i in 0..3 {
            d[(i, i)] = vals[i];
        }
        let recon = vecs.matmul(&d).matmul(&vecs.transpose());
        for i in 0..3 {
            for j in 0..3 {
                assert!(approx(recon[(i, j)], a[(i, j)], 1e-8), "({i},{j})");
            }
        }
    }

    #[test]
    fn inv_sqrt_property() {
        // (A^-1/2) A (A^-1/2) = I
        let a = mat(2, 2, vec![4., 1., 1., 3.]);
        let s = inv_sqrt_sym(&a, 1e-12);
        let i = s.matmul(&a).matmul(&s);
        assert!(approx(i[(0, 0)], 1.0, 1e-8));
        assert!(approx(i[(1, 1)], 1.0, 1e-8));
        assert!(approx(i[(0, 1)], 0.0, 1e-8));
    }

    #[test]
    fn ridge_adds_diagonal() {
        let a = Mat::eye(2).add_ridge(0.5);
        assert!(approx(a[(0, 0)], 1.5, 1e-12));
        assert!(approx(a[(0, 1)], 0.0, 1e-12));
    }
}
