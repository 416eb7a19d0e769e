//! Weight initialization schemes.
//!
//! All initializers draw from a caller-supplied [`Pcg64`] so that model
//! construction is deterministic given a seed — a precondition for Flor's
//! replay correctness checks.

use crate::rng::Pcg64;
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Tensor with i.i.d. uniform entries in `[lo, hi)`.
pub fn uniform(shape: impl Into<Shape>, lo: f32, hi: f32, rng: &mut Pcg64) -> Tensor {
    let shape = shape.into();
    let n = shape.numel();
    Tensor::new(shape, (0..n).map(|_| rng.uniform(lo, hi)).collect())
}

/// Tensor with i.i.d. normal entries of the given mean and standard deviation.
pub fn normal(shape: impl Into<Shape>, mean: f32, std: f32, rng: &mut Pcg64) -> Tensor {
    let shape = shape.into();
    let n = shape.numel();
    Tensor::new(shape, (0..n).map(|_| mean + std * rng.normal()).collect())
}

/// Kaiming/He normal initialization for ReLU networks:
/// `N(0, sqrt(2 / fan_in))`.
pub fn kaiming_normal(fan_in: usize, fan_out: usize, rng: &mut Pcg64) -> Tensor {
    let std = (2.0 / fan_in as f32).sqrt();
    normal([fan_in, fan_out], 0.0, std, rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = Pcg64::seeded(11);
        let mut b = Pcg64::seeded(11);
        assert_eq!(
            kaiming_normal(8, 4, &mut a).data(),
            kaiming_normal(8, 4, &mut b).data()
        );
    }

    #[test]
    fn kaiming_std_is_plausible() {
        let mut rng = Pcg64::seeded(13);
        let w = kaiming_normal(50, 2000, &mut rng);
        let mean = w.mean();
        let std = (w
            .data()
            .iter()
            .map(|&x| (x - mean) * (x - mean))
            .sum::<f32>()
            / w.numel() as f32)
            .sqrt();
        let expect = (2.0f32 / 50.0).sqrt();
        assert!(
            (std - expect).abs() / expect < 0.05,
            "std {std} vs {expect}"
        );
    }

    #[test]
    fn normal_mean_shift() {
        let mut rng = Pcg64::seeded(14);
        let w = normal([10_000], 3.0, 0.5, &mut rng);
        assert!((w.mean() - 3.0).abs() < 0.02);
    }
}
