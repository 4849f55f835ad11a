//! Canonical correlation analysis (paper §III-C).
//!
//! The paper lists CCA as its second multi-modal analysis: finding pairs of
//! linear projections of two views that are maximally correlated. Implemented
//! classically via whitening + eigendecomposition:
//! `T = Σxx^{-1/2} Σxy Σyy^{-1/2}`, whose singular values are the canonical
//! correlations. Since [`crate::linalg`] ships a symmetric eigensolver, the
//! singular values of `T` are obtained from the eigenvalues of `T Tᵀ`.

use crate::linalg::{inv_sqrt_sym, jacobi_eigen, Mat};
use crate::tensor::Tensor;

/// A fitted CCA model.
#[derive(Debug, Clone)]
pub struct Cca {
    correlations: Vec<f64>,
    wx: Mat,
    wy: Mat,
    mean_x: Vec<f64>,
    mean_y: Vec<f64>,
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

fn center(x: &Tensor) -> (Mat, Vec<f64>) {
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
    (out, mean)
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

        let (xc, mean_x) = center(x);
        let (yc, mean_y) = center(y);
        let scale = 1.0 / (n as f64 - 1.0);
        let sxx = xc.transpose().matmul(&xc).scale(scale).add_ridge(reg);
        let syy = yc.transpose().matmul(&yc).scale(scale).add_ridge(reg);
        let sxy = xc.transpose().matmul(&yc).scale(scale);

        let sxx_inv_sqrt = inv_sqrt_sym(&sxx, 1e-10);
        let syy_inv_sqrt = inv_sqrt_sym(&syy, 1e-10);
        let t = sxx_inv_sqrt.matmul(&sxy).matmul(&syy_inv_sqrt); // dx × dy

        // Singular values/vectors of T via the symmetric T Tᵀ (dx × dx).
        let ttt = t.matmul(&t.transpose());
        let (eigvals, u) = jacobi_eigen(&ttt);
        let correlations: Vec<f64> = eigvals
            .iter()
            .take(components)
            .map(|&l| l.max(0.0).sqrt().min(1.0))
            .collect();

        // Left canonical directions in whitened space are columns of U; map
        // back: Wx = Sxx^{-1/2} U_k. Right: Wy = Syy^{-1/2} Tᵀ U_k / σ.
        let mut u_k = Mat::zeros(dx, components);
        for c in 0..components {
            for r in 0..dx {
                u_k[(r, c)] = u[(r, c)];
            }
        }
        let wx = sxx_inv_sqrt.matmul(&u_k);
        let mut v_k = t.transpose().matmul(&u_k); // dy × k
        for c in 0..components {
            let sigma = correlations[c].max(1e-10);
            for r in 0..dy {
                v_k[(r, c)] /= sigma;
            }
        }
        let wy = syy_inv_sqrt.matmul(&v_k);

        Ok(Cca {
            correlations,
            wx,
            wy,
            mean_x,
            mean_y,
        })
    }

    /// The canonical correlations, strongest first, each in `[0, 1]`.
    pub fn correlations(&self) -> &[f64] {
        &self.correlations
    }

    /// Projects the X view onto the canonical directions: `[n, dx]` → `[n, k]`.
    pub fn transform_x(&self, x: &Tensor) -> Tensor {
        project(x, &self.mean_x, &self.wx)
    }

    /// Projects the Y view onto the canonical directions: `[n, dy]` → `[n, k]`.
    pub fn transform_y(&self, y: &Tensor) -> Tensor {
        project(y, &self.mean_y, &self.wy)
    }
}

fn project(x: &Tensor, mean: &[f64], w: &Mat) -> Tensor {
    let (n, d) = (x.rows(), x.cols());
    assert_eq!(d, w.rows(), "dimension mismatch with fitted model");
    let k = w.cols();
    let mut out = Tensor::zeros(vec![n, k]);
    for i in 0..n {
        for c in 0..k {
            let mut s = 0.0f64;
            for j in 0..d {
                s += (x.at(i, j) as f64 - mean[j]) * w[(j, c)];
            }
            out.set(i, c, s as f32);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use simclock::SeededRng;

    /// Pearson correlation between two equal-length slices.
    fn pearson(a: &[f32], b: &[f32]) -> f64 {
        assert_eq!(a.len(), b.len(), "series must align");
        let n = a.len() as f64;
        if n < 2.0 {
            return 0.0;
        }
        let ma = a.iter().map(|&v| v as f64).sum::<f64>() / n;
        let mb = b.iter().map(|&v| v as f64).sum::<f64>() / n;
        let mut cov = 0.0;
        let mut va = 0.0;
        let mut vb = 0.0;
        for (&x, &y) in a.iter().zip(b) {
            let dx = x as f64 - ma;
            let dy = y as f64 - mb;
            cov += dx * dy;
            va += dx * dx;
            vb += dy * dy;
        }
        if va == 0.0 || vb == 0.0 {
            0.0
        } else {
            cov / (va.sqrt() * vb.sqrt())
        }
    }

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
    fn projections_are_correlated() {
        let (x, y) = correlated_views(300, 3, 0.1);
        let cca = Cca::fit(&x, &y, 1, 1e-6).unwrap();
        let px = cca.transform_x(&x);
        let py = cca.transform_y(&y);
        let r = pearson(px.data(), py.data()).abs();
        assert!(r > 0.85, "projected correlation {r}");
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

    #[test]
    fn pearson_perfect() {
        assert!((pearson(&[1., 2., 3.], &[2., 4., 6.]) - 1.0).abs() < 1e-9);
        assert!((pearson(&[1., 2., 3.], &[-1., -2., -3.]) + 1.0).abs() < 1e-9);
        assert_eq!(pearson(&[1., 1., 1.], &[1., 2., 3.]), 0.0);
    }
}
