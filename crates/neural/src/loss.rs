//! Loss functions.

use crate::layers::softmax_rows;
use crate::tensor::Tensor;

/// A differentiable loss over `[batch, k]` predictions.
pub trait Loss: std::fmt::Debug {
    /// Mean loss over the batch and the gradient with respect to the
    /// predictions (already divided by the batch size).
    fn forward(&mut self, predictions: &Tensor, targets: &LossTarget<'_>) -> (f32, Tensor);
}

/// Targets accepted by [`Loss`] implementations.
#[derive(Debug)]
pub enum LossTarget<'a> {
    /// Class indices for classification losses.
    Classes(&'a [usize]),
    /// Dense regression targets with the same shape as the predictions.
    Values(&'a Tensor),
}

/// Softmax + cross-entropy, fused for a numerically stable gradient
/// (`softmax(x) - onehot(y)`).
///
/// # Examples
///
/// ```
/// use scneural::loss::{Loss, LossTarget, SoftmaxCrossEntropy};
/// use scneural::tensor::Tensor;
///
/// let mut loss = SoftmaxCrossEntropy::new();
/// let logits = Tensor::from_vec(vec![1, 2], vec![10.0, -10.0]).unwrap();
/// let (l, _) = loss.forward(&logits, &LossTarget::Classes(&[0]));
/// assert!(l < 1e-3, "confident correct prediction has near-zero loss");
/// ```
#[derive(Debug, Default)]
pub struct SoftmaxCrossEntropy(());

impl SoftmaxCrossEntropy {
    /// Creates the loss.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Loss for SoftmaxCrossEntropy {
    fn forward(&mut self, predictions: &Tensor, targets: &LossTarget<'_>) -> (f32, Tensor) {
        let LossTarget::Classes(classes) = targets else {
            panic!("SoftmaxCrossEntropy requires class targets");
        };
        let (n, k) = (predictions.rows(), predictions.cols());
        assert_eq!(classes.len(), n, "one class per row");
        let probs = softmax_rows(predictions);
        let mut loss = 0.0;
        let mut grad = probs.clone();
        for (i, &c) in classes.iter().enumerate() {
            assert!(c < k, "class {c} out of range for {k} logits");
            loss -= probs.at(i, c).max(1e-12).ln();
            grad.set(i, c, grad.at(i, c) - 1.0);
        }
        (loss / n as f32, grad.scale(1.0 / n as f32))
    }
}

/// Mean squared error: `mean((pred - target)^2)`.
#[derive(Debug, Default)]
pub struct MeanSquaredError(());

impl MeanSquaredError {
    /// Creates the loss.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Loss for MeanSquaredError {
    fn forward(&mut self, predictions: &Tensor, targets: &LossTarget<'_>) -> (f32, Tensor) {
        let LossTarget::Values(target) = targets else {
            panic!("MeanSquaredError requires value targets");
        };
        let diff = predictions
            .sub(target)
            .expect("prediction/target shape mismatch");
        let n = predictions.len() as f32;
        let loss = diff.norm_sq() / n;
        (loss, diff.scale(2.0 / n))
    }
}

/// Binary cross-entropy over sigmoid probabilities in `(0, 1)`.
#[derive(Debug, Default)]
pub struct BinaryCrossEntropy(());

impl Loss for BinaryCrossEntropy {
    fn forward(&mut self, predictions: &Tensor, targets: &LossTarget<'_>) -> (f32, Tensor) {
        let LossTarget::Values(target) = targets else {
            panic!("BinaryCrossEntropy requires value targets");
        };
        assert_eq!(predictions.shape(), target.shape(), "shape mismatch");
        let n = predictions.len() as f32;
        let mut loss = 0.0;
        let mut grad = Tensor::zeros(predictions.shape().to_vec());
        for (idx, (&p, &t)) in predictions.data().iter().zip(target.data()).enumerate() {
            let p = p.clamp(1e-6, 1.0 - 1e-6);
            loss -= t * p.ln() + (1.0 - t) * (1.0 - p).ln();
            grad.data_mut()[idx] = (p - t) / (p * (1.0 - p)) / n;
        }
        (loss / n, grad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_entropy_uniform_logits() {
        let mut loss = SoftmaxCrossEntropy::new();
        let logits = Tensor::zeros(vec![2, 4]);
        let (l, g) = loss.forward(&logits, &LossTarget::Classes(&[0, 3]));
        assert!((l - 4.0f32.ln()).abs() < 1e-5);
        // Gradient sums to zero per row.
        for i in 0..2 {
            let s: f32 = (0..4).map(|j| g.at(i, j)).sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn cross_entropy_gradient_check() {
        let mut loss = SoftmaxCrossEntropy::new();
        let logits = Tensor::from_vec(vec![2, 3], vec![0.5, -0.3, 0.1, 1.0, 0.2, -0.8]).unwrap();
        let classes = [2usize, 0];
        let (_, grad) = loss.forward(&logits, &LossTarget::Classes(&classes));
        let eps = 1e-3;
        for idx in 0..6 {
            let mut lp = logits.clone();
            lp.data_mut()[idx] += eps;
            let mut lm = logits.clone();
            lm.data_mut()[idx] -= eps;
            let (fp, _) = loss.forward(&lp, &LossTarget::Classes(&classes));
            let (fm, _) = loss.forward(&lm, &LossTarget::Classes(&classes));
            let num = (fp - fm) / (2.0 * eps);
            assert!((num - grad.data()[idx]).abs() < 1e-3, "idx {idx}");
        }
    }

    #[test]
    fn mse_known_value() {
        let mut loss = MeanSquaredError::new();
        let pred = Tensor::from_vec(vec![1, 2], vec![1.0, 3.0]).unwrap();
        let target = Tensor::from_vec(vec![1, 2], vec![0.0, 1.0]).unwrap();
        let (l, g) = loss.forward(&pred, &LossTarget::Values(&target));
        assert!((l - 2.5).abs() < 1e-6); // (1 + 4) / 2
        assert_eq!(g.data(), &[1.0, 2.0]); // 2/n * diff
    }

    #[test]
    fn bce_perfect_prediction_near_zero() {
        let mut loss = BinaryCrossEntropy::default();
        let pred = Tensor::from_vec(vec![1, 2], vec![0.9999, 0.0001]).unwrap();
        let target = Tensor::from_vec(vec![1, 2], vec![1.0, 0.0]).unwrap();
        let (l, _) = loss.forward(&pred, &LossTarget::Values(&target));
        assert!(l < 1e-3);
    }

    #[test]
    fn bce_gradient_direction() {
        let mut loss = BinaryCrossEntropy::default();
        let pred = Tensor::from_vec(vec![1, 1], vec![0.3]).unwrap();
        let target = Tensor::from_vec(vec![1, 1], vec![1.0]).unwrap();
        let (_, g) = loss.forward(&pred, &LossTarget::Values(&target));
        assert!(g.data()[0] < 0.0, "should push prediction up");
    }

    #[test]
    #[should_panic(expected = "class targets")]
    fn cross_entropy_rejects_value_targets() {
        let mut loss = SoftmaxCrossEntropy::new();
        let t = Tensor::zeros(vec![1, 2]);
        let _ = loss.forward(&t.clone(), &LossTarget::Values(&t));
    }
}
