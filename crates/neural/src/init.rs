//! Weight initializers.

use simclock::SeededRng;

use crate::tensor::Tensor;

/// Xavier/Glorot uniform initialization: `U(-a, a)` with
/// `a = sqrt(6 / (fan_in + fan_out))`. Suits tanh/sigmoid layers.
pub fn xavier_uniform(
    shape: Vec<usize>,
    fan_in: usize,
    fan_out: usize,
    rng: &mut SeededRng,
) -> Tensor {
    let a = (6.0 / (fan_in + fan_out) as f64).sqrt();
    random_uniform(shape, -a, a, rng)
}

/// He/Kaiming uniform initialization: `U(-a, a)` with `a = sqrt(6 / fan_in)`.
/// Suits ReLU layers (used by all conv/residual blocks here).
pub fn he_uniform(shape: Vec<usize>, fan_in: usize, rng: &mut SeededRng) -> Tensor {
    let a = (6.0 / fan_in.max(1) as f64).sqrt();
    random_uniform(shape, -a, a, rng)
}

/// Uniform initialization over `[lo, hi)`.
fn random_uniform(shape: Vec<usize>, lo: f64, hi: f64, rng: &mut SeededRng) -> Tensor {
    let n: usize = shape.iter().product();
    let data = (0..n).map(|_| rng.range_f64(lo, hi) as f32).collect();
    Tensor::from_vec(shape, data).expect("length matches by construction")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xavier_bounds() {
        let mut rng = SeededRng::new(1);
        let t = xavier_uniform(vec![64, 64], 64, 64, &mut rng);
        let a = (6.0f64 / 128.0).sqrt() as f32;
        assert!(t.data().iter().all(|&x| x > -a && x < a));
    }

    #[test]
    fn he_bounds_wider_than_xavier() {
        let mut rng = SeededRng::new(2);
        let he = he_uniform(vec![1000], 64, &mut rng);
        let he_max = he.data().iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        let a = (6.0f64 / 64.0).sqrt() as f32;
        assert!(
            he_max < a && he_max > a * 0.8,
            "should nearly fill the range"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let mut a = SeededRng::new(4);
        let mut b = SeededRng::new(4);
        assert_eq!(
            he_uniform(vec![8, 8], 8, &mut a),
            he_uniform(vec![8, 8], 8, &mut b)
        );
    }
}
