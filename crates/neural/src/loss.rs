//! Loss functions: each returns the mean loss over the batch and the
//! gradient with respect to the predictions (already divided by the batch
//! size). Classes go through [`softmax_cross_entropy`], dense targets
//! through [`mean_squared_error`].

use crate::layers::softmax_rows;
use crate::tensor::Tensor;

/// Softmax + cross-entropy over `[batch, k]` logits and one class per row,
/// fused for a numerically stable gradient (`softmax(x) - onehot(y)`).
///
/// # Panics
///
/// Panics if `classes` does not hold one class per row, or a class is out
/// of range for `k` logits.
///
/// # Examples
///
/// ```
/// use scneural::loss::softmax_cross_entropy;
/// use scneural::tensor::Tensor;
///
/// let logits = Tensor::from_vec(vec![1, 2], vec![10.0, -10.0]).unwrap();
/// let (l, _) = softmax_cross_entropy(&logits, &[0]);
/// assert!(l < 1e-3, "confident correct prediction has near-zero loss");
/// ```
pub fn softmax_cross_entropy(logits: &Tensor, classes: &[usize]) -> (f32, Tensor) {
    let (n, k) = (logits.rows(), logits.cols());
    assert_eq!(classes.len(), n, "one class per row");
    let probs = softmax_rows(logits);
    let mut loss = 0.0;
    let mut grad = probs.clone();
    for (i, &c) in classes.iter().enumerate() {
        assert!(c < k, "class {c} out of range for {k} logits");
        loss -= probs.at(i, c).max(1e-12).ln();
        grad.set(i, c, grad.at(i, c) - 1.0);
    }
    (loss / n as f32, grad.scale(1.0 / n as f32))
}

/// Mean squared error: `mean((pred - target)^2)`.
///
/// # Panics
///
/// Panics if `pred` and `target` differ in shape.
pub fn mean_squared_error(pred: &Tensor, target: &Tensor) -> (f32, Tensor) {
    let diff = pred.sub(target).expect("prediction/target shape mismatch");
    let n = pred.len() as f32;
    let loss = diff.norm_sq() / n;
    (loss, diff.scale(2.0 / n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_entropy_uniform_logits() {
        let logits = Tensor::zeros(vec![2, 4]);
        let (l, g) = softmax_cross_entropy(&logits, &[0, 3]);
        assert!((l - 4.0f32.ln()).abs() < 1e-5);
        // Gradient sums to zero per row.
        for i in 0..2 {
            let s: f32 = (0..4).map(|j| g.at(i, j)).sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn cross_entropy_gradient_check() {
        let logits = Tensor::from_vec(vec![2, 3], vec![0.5, -0.3, 0.1, 1.0, 0.2, -0.8]).unwrap();
        let classes = [2usize, 0];
        let (_, grad) = softmax_cross_entropy(&logits, &classes);
        let eps = 1e-3;
        for idx in 0..6 {
            let mut lp = logits.clone();
            lp.data_mut()[idx] += eps;
            let mut lm = logits.clone();
            lm.data_mut()[idx] -= eps;
            let (fp, _) = softmax_cross_entropy(&lp, &classes);
            let (fm, _) = softmax_cross_entropy(&lm, &classes);
            let num = (fp - fm) / (2.0 * eps);
            assert!((num - grad.data()[idx]).abs() < 1e-3, "idx {idx}");
        }
    }

    #[test]
    fn mse_known_value() {
        let pred = Tensor::from_vec(vec![1, 2], vec![1.0, 3.0]).unwrap();
        let target = Tensor::from_vec(vec![1, 2], vec![0.0, 1.0]).unwrap();
        let (l, g) = mean_squared_error(&pred, &target);
        assert!((l - 2.5).abs() < 1e-6); // (1 + 4) / 2
        assert_eq!(g.data(), &[1.0, 2.0]); // 2/n * diff
    }
}
