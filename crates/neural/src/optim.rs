//! The optimizer every training entry takes: Adam.

use crate::layers::Param;
use crate::tensor::Tensor;

/// Adam (Kingma & Ba 2015) with bias correction.
///
/// Its moments are keyed by position in the `params` vector, which is
/// stable because network architectures are fixed after construction.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: i32,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates Adam with the standard β₁=0.9, β₂=0.999.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Applies one update step to `params` and clears their gradients.
    pub fn step(&mut self, params: Vec<&mut Param>) {
        if self.m.len() < params.len() {
            for p in params.iter().skip(self.m.len()) {
                self.m.push(Tensor::zeros(p.value.shape().to_vec()));
                self.v.push(Tensor::zeros(p.value.shape().to_vec()));
            }
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t);
        let bc2 = 1.0 - self.beta2.powi(self.t);
        for (i, p) in params.into_iter().enumerate() {
            let m = self.m[i].data_mut();
            let v = self.v[i].data_mut();
            let g = p.grad.data().to_vec();
            for (idx, w) in p.value.data_mut().iter_mut().enumerate() {
                let gi = g[idx];
                m[idx] = self.beta1 * m[idx] + (1.0 - self.beta1) * gi;
                v[idx] = self.beta2 * v[idx] + (1.0 - self.beta2) * gi * gi;
                let m_hat = m[idx] / bc1;
                let v_hat = v[idx] / bc2;
                *w -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
            p.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_grad(p: &Param) -> Tensor {
        // L = sum(w^2); dL/dw = 2w
        p.value.scale(2.0)
    }

    fn run(mut opt: Adam, steps: usize) -> f32 {
        let mut p = Param::new(Tensor::from_vec(vec![1, 2], vec![3.0, -2.0]).unwrap());
        for _ in 0..steps {
            p.grad = quadratic_grad(&p);
            opt.step(vec![&mut p]);
        }
        p.value.norm_sq()
    }

    #[test]
    fn adam_converges_on_quadratic() {
        assert!(run(Adam::new(0.2), 300) < 1e-4);
    }

    #[test]
    fn step_clears_gradients() {
        let mut p = Param::new(Tensor::full(vec![2, 2], 1.0));
        p.grad = Tensor::full(vec![2, 2], 1.0);
        Adam::new(0.1).step(vec![&mut p]);
        assert_eq!(p.grad.sum(), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn adam_rejects_zero_lr() {
        let _ = Adam::new(0.0);
    }

    #[test]
    fn adam_handles_multiple_params() {
        let mut a = Param::new(Tensor::full(vec![2, 2], 1.0));
        let mut b = Param::new(Tensor::full(vec![3, 1], 1.0));
        let mut opt = Adam::new(0.1);
        for _ in 0..50 {
            a.grad = a.value.scale(2.0);
            b.grad = b.value.scale(2.0);
            opt.step(vec![&mut a, &mut b]);
        }
        assert!(a.value.norm_sq() < 0.1);
        assert!(b.value.norm_sq() < 0.1);
    }
}
