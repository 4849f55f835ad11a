//! Classification metrics.

/// A confusion matrix over `k` classes.
///
/// # Examples
///
/// ```
/// use scneural::metrics::ConfusionMatrix;
///
/// // actual 0 predicted 0, actual 0 predicted 1, actual 1 predicted 1
/// let cm = ConfusionMatrix::from_labels(2, &[0, 0, 1], &[0, 1, 1]);
/// assert!((cm.accuracy() - 2.0 / 3.0).abs() < 1e-12);
/// assert_eq!(cm.recall(0), 0.5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    k: usize,
    counts: Vec<u64>, // counts[actual * k + predicted]
}

impl ConfusionMatrix {
    /// Creates a zeroed `k`×`k` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    fn new(k: usize) -> Self {
        assert!(k > 0, "need at least one class");
        ConfusionMatrix {
            k,
            counts: vec![0; k * k],
        }
    }

    /// Builds a matrix from parallel actual/predicted label slices.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths differ or a label is out of range.
    pub fn from_labels(k: usize, actual: &[usize], predicted: &[usize]) -> Self {
        assert_eq!(actual.len(), predicted.len(), "label slices must align");
        let mut cm = ConfusionMatrix::new(k);
        for (&a, &p) in actual.iter().zip(predicted) {
            cm.record(a, p);
        }
        cm
    }

    /// Records one observation.
    ///
    /// # Panics
    ///
    /// Panics if either label is `>= k`.
    fn record(&mut self, actual: usize, predicted: usize) {
        assert!(actual < self.k && predicted < self.k, "label out of range");
        self.counts[actual * self.k + predicted] += 1;
    }

    /// Count in cell `(actual, predicted)`.
    fn count(&self, actual: usize, predicted: usize) -> u64 {
        self.counts[actual * self.k + predicted]
    }

    /// Total observations.
    fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Overall accuracy (0 when empty).
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let correct: u64 = (0..self.k).map(|i| self.count(i, i)).sum();
        correct as f64 / total as f64
    }

    /// Precision for class `c`: TP / (TP + FP). Zero when the class is never
    /// predicted.
    pub fn precision(&self, c: usize) -> f64 {
        let tp = self.count(c, c);
        let predicted: u64 = (0..self.k).map(|a| self.count(a, c)).sum();
        if predicted == 0 {
            0.0
        } else {
            tp as f64 / predicted as f64
        }
    }

    /// Recall for class `c`: TP / (TP + FN). Zero when the class never occurs.
    pub fn recall(&self, c: usize) -> f64 {
        let tp = self.count(c, c);
        let actual: u64 = (0..self.k).map(|p| self.count(c, p)).sum();
        if actual == 0 {
            0.0
        } else {
            tp as f64 / actual as f64
        }
    }

    /// F1 score for class `c` (harmonic mean of precision and recall).
    pub fn f1(&self, c: usize) -> f64 {
        let p = self.precision(c);
        let r = self.recall(c);
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Unweighted mean F1 over all classes.
    pub fn macro_f1(&self) -> f64 {
        (0..self.k).map(|c| self.f1(c)).sum::<f64>() / self.k as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_predictions() {
        let cm = ConfusionMatrix::from_labels(3, &[0, 1, 2, 1], &[0, 1, 2, 1]);
        assert_eq!(cm.accuracy(), 1.0);
        assert_eq!(cm.macro_f1(), 1.0);
    }

    #[test]
    fn known_precision_recall() {
        // actual:    0 0 1 1 1
        // predicted: 0 1 1 1 0
        let cm = ConfusionMatrix::from_labels(2, &[0, 0, 1, 1, 1], &[0, 1, 1, 1, 0]);
        assert!((cm.precision(1) - 2.0 / 3.0).abs() < 1e-12);
        assert!((cm.recall(1) - 2.0 / 3.0).abs() < 1e-12);
        assert!((cm.precision(0) - 0.5).abs() < 1e-12);
        assert!((cm.accuracy() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn empty_matrix_is_zero() {
        let cm = ConfusionMatrix::new(4);
        assert_eq!(cm.accuracy(), 0.0);
        assert_eq!(cm.precision(0), 0.0);
        assert_eq!(cm.recall(0), 0.0);
        assert_eq!(cm.f1(0), 0.0);
    }

    #[test]
    fn f1_harmonic_mean() {
        let cm = ConfusionMatrix::from_labels(2, &[1, 1, 1, 0], &[1, 1, 0, 1]);
        let p = cm.precision(1);
        let r = cm.recall(1);
        assert!((cm.f1(1) - 2.0 * p * r / (p + r)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn record_rejects_bad_label() {
        let mut cm = ConfusionMatrix::new(2);
        cm.record(2, 0);
    }
}
