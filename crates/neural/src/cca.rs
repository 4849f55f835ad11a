//! Canonical correlation analysis (paper §III-C).
//!
//! The paper lists CCA as its second multi-modal analysis: how strongly two
//! views share a linear signal, read as the correlations of their maximally
//! correlated pairs of projections. Implemented classically via whitening +
//! eigendecomposition:
//! `T = Σxx^{-1/2} Σxy Σyy^{-1/2}`, whose singular values are the canonical
//! correlations. Since [`crate::linalg`] ships a symmetric eigensolver, the
//! singular values of `T` are obtained from the eigenvalues of `T Tᵀ`.

use crate::linalg::{inv_sqrt_sym, jacobi_eigen, Mat};
use crate::tensor::Tensor;

/// A fitted CCA model.
#[derive(Debug, Clone)]
pub struct Cca {
    correlations: Vec<f64>,
}

/// Errors from CCA fitting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CcaError {
    /// Fewer than two samples, or views with different sample counts.
    BadInput(String),
}

impl std::fmt::Display for CcaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CcaError::BadInput(msg) => write!(f, "invalid CCA input: {msg}"),
        }
    }
}

impl std::error::Error for CcaError {}

fn center(x: &Tensor) -> Mat {
    let (n, d) = (x.rows(), x.cols());
    let mut mean = vec![0.0f64; d];
    for i in 0..n {
        for j in 0..d {
            mean[j] += x.at(i, j) as f64;
        }
    }
    for m in &mut mean {
        *m /= n as f64;
    }
    let mut out = Mat::zeros(n, d);
    for i in 0..n {
        for j in 0..d {
            out[(i, j)] = x.at(i, j) as f64 - mean[j];
        }
    }
    out
}

impl Cca {
    /// Fits CCA on two views (`[n, dx]` and `[n, dy]`) with ridge
    /// regularization `reg` on the auto-covariances, keeping `components`
    /// canonical pairs.
    ///
    /// # Errors
    ///
    /// Returns [`CcaError::BadInput`] if the views disagree on `n`, have
    /// fewer than 2 samples, or `components` exceeds `min(dx, dy)`.
    pub fn fit(x: &Tensor, y: &Tensor, components: usize, reg: f64) -> Result<Cca, CcaError> {
        let n = x.rows();
        if y.rows() != n {
            return Err(CcaError::BadInput(format!(
                "views have {n} and {} samples",
                y.rows()
            )));
        }
        if n < 2 {
            return Err(CcaError::BadInput("need at least 2 samples".into()));
        }
        let (dx, dy) = (x.cols(), y.cols());
        if components == 0 || components > dx.min(dy) {
            return Err(CcaError::BadInput(format!(
                "components {components} out of range for dims {dx}x{dy}"
            )));
        }

        let (xc, yc) = (center(x), center(y));
        let scale = 1.0 / (n as f64 - 1.0);
        let sxx = xc.transpose().matmul(&xc).scale(scale).add_ridge(reg);
        let syy = yc.transpose().matmul(&yc).scale(scale).add_ridge(reg);
        let sxy = xc.transpose().matmul(&yc).scale(scale);

        let sxx_inv_sqrt = inv_sqrt_sym(&sxx, 1e-10);
        let syy_inv_sqrt = inv_sqrt_sym(&syy, 1e-10);
        let t = sxx_inv_sqrt.matmul(&sxy).matmul(&syy_inv_sqrt); // dx × dy

        // Singular values of T via the symmetric T Tᵀ (dx × dx).
        let ttt = t.matmul(&t.transpose());
        let (eigvals, _) = jacobi_eigen(&ttt);
        let correlations = eigvals
            .iter()
            .take(components)
            .map(|&l| l.max(0.0).sqrt().min(1.0))
            .collect();
        Ok(Cca { correlations })
    }

    /// The canonical correlations, strongest first, each in `[0, 1]`.
    pub fn correlations(&self) -> &[f64] {
        &self.correlations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simclock::SeededRng;

    /// Two views sharing a latent signal in their first coordinate.
    fn correlated_views(n: usize, seed: u64, noise: f64) -> (Tensor, Tensor) {
        let mut rng = SeededRng::new(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let z = rng.next_gaussian();
            xs.push((z + rng.gaussian(0.0, noise)) as f32);
            xs.push(rng.next_gaussian() as f32);
            xs.push(rng.next_gaussian() as f32);
            ys.push((-z + rng.gaussian(0.0, noise)) as f32);
            ys.push(rng.next_gaussian() as f32);
        }
        (
            Tensor::from_vec(vec![n, 3], xs).unwrap(),
            Tensor::from_vec(vec![n, 2], ys).unwrap(),
        )
    }

    #[test]
    fn recovers_shared_signal() {
        let (x, y) = correlated_views(400, 1, 0.1);
        let cca = Cca::fit(&x, &y, 2, 1e-6).unwrap();
        assert!(
            cca.correlations()[0] > 0.9,
            "top correlation {}",
            cca.correlations()[0]
        );
        assert!(
            cca.correlations()[1] < 0.4,
            "second correlation {}",
            cca.correlations()[1]
        );
    }

    #[test]
    fn correlations_in_unit_interval_and_sorted() {
        let (x, y) = correlated_views(200, 2, 0.5);
        let cca = Cca::fit(&x, &y, 2, 1e-4).unwrap();
        let c = cca.correlations();
        assert!(c.iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert!(c[0] >= c[1]);
    }

    #[test]
    fn independent_views_low_correlation() {
        let mut rng = SeededRng::new(4);
        let n = 300;
        let x = Tensor::from_vec(
            vec![n, 2],
            (0..n * 2).map(|_| rng.next_gaussian() as f32).collect(),
        )
        .unwrap();
        let y = Tensor::from_vec(
            vec![n, 2],
            (0..n * 2).map(|_| rng.next_gaussian() as f32).collect(),
        )
        .unwrap();
        let cca = Cca::fit(&x, &y, 1, 1e-4).unwrap();
        assert!(
            cca.correlations()[0] < 0.35,
            "got {}",
            cca.correlations()[0]
        );
    }

    #[test]
    fn rejects_mismatched_samples() {
        let x = Tensor::zeros(vec![5, 2]);
        let y = Tensor::zeros(vec![6, 2]);
        assert!(Cca::fit(&x, &y, 1, 1e-4).is_err());
    }

    #[test]
    fn rejects_too_many_components() {
        let x = Tensor::zeros(vec![5, 2]);
        let y = Tensor::zeros(vec![5, 3]);
        assert!(Cca::fit(&x, &y, 3, 1e-4).is_err());
    }
}
