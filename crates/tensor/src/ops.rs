//! Neural-network math on tensors: activations, softmax, losses.
//!
//! These free functions operate on [`Tensor`]s and are the kernels `flor-ml`
//! layers are built from. Each forward kernel has a matching backward kernel
//! so layers can implement exact gradients (verified by finite differences in
//! `flor-ml`'s property tests).

use crate::tensor::Tensor;

/// Rectified linear unit, elementwise.
pub fn relu(x: &Tensor) -> Tensor {
    x.map(|v| v.max(0.0))
}

/// Gradient of [`relu`]: passes `grad` where the forward input was positive.
pub fn relu_backward(x: &Tensor, grad: &Tensor) -> Tensor {
    x.zip(grad, |xi, gi| if xi > 0.0 { gi } else { 0.0 })
}

/// Logistic sigmoid, elementwise.
pub fn sigmoid(x: &Tensor) -> Tensor {
    x.map(|v| 1.0 / (1.0 + (-v).exp()))
}

/// Gradient of [`sigmoid`] given the forward *output* `y`.
pub fn sigmoid_backward(y: &Tensor, grad: &Tensor) -> Tensor {
    y.zip(grad, |yi, gi| yi * (1.0 - yi) * gi)
}

/// Hyperbolic tangent, elementwise.
pub fn tanh(x: &Tensor) -> Tensor {
    x.map(f32::tanh)
}

/// Gradient of [`tanh`] given the forward *output* `y`.
pub fn tanh_backward(y: &Tensor, grad: &Tensor) -> Tensor {
    y.zip(grad, |yi, gi| (1.0 - yi * yi) * gi)
}

/// Gaussian error linear unit (tanh approximation), elementwise.
pub fn gelu(x: &Tensor) -> Tensor {
    x.map(|v| {
        0.5 * v * (1.0 + ((2.0 / std::f32::consts::PI).sqrt() * (v + 0.044715 * v * v * v)).tanh())
    })
}

/// Row-wise softmax of a `[rows, cols]` matrix, numerically stabilized by
/// subtracting the row max.
///
/// # Panics
/// Panics unless `x` is rank-2.
pub(crate) fn softmax_rows(x: &Tensor) -> Tensor {
    assert_eq!(x.shape().rank(), 2, "softmax_rows requires a matrix");
    let (rows, cols) = (x.shape().dim(0), x.shape().dim(1));
    let mut out = x.clone();
    let data = out.data_mut();
    for r in 0..rows {
        let row = &mut data[r * cols..(r + 1) * cols];
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut z = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - m).exp();
            z += *v;
        }
        for v in row.iter_mut() {
            *v /= z;
        }
    }
    out
}

/// Mean cross-entropy loss of row-wise logits against integer class targets.
///
/// Returns `(loss, probs)` where `probs` is the softmax output, needed by
/// [`cross_entropy_backward`].
///
/// # Panics
/// Panics unless `logits` is rank-2 and `targets.len()` equals the row count.
pub fn cross_entropy(logits: &Tensor, targets: &[usize]) -> (f32, Tensor) {
    assert_eq!(x_rows(logits), targets.len(), "one target per logit row");
    let probs = softmax_rows(logits);
    let (rows, cols) = (probs.shape().dim(0), probs.shape().dim(1));
    let mut loss = 0.0f64;
    for (r, &t) in targets.iter().enumerate() {
        assert!(t < cols, "target class {t} out of range ({cols} classes)");
        let p = probs.data()[r * cols + t].max(1e-12);
        loss -= (p as f64).ln();
    }
    ((loss / rows as f64) as f32, probs)
}

/// Gradient of [`cross_entropy`] with respect to the logits:
/// `(probs - onehot(targets)) / rows`.
pub fn cross_entropy_backward(probs: &Tensor, targets: &[usize]) -> Tensor {
    let (rows, cols) = (probs.shape().dim(0), probs.shape().dim(1));
    let mut grad = probs.clone();
    let data = grad.data_mut();
    for (r, &t) in targets.iter().enumerate() {
        data[r * cols + t] -= 1.0;
    }
    let inv = 1.0 / rows as f32;
    for v in data.iter_mut() {
        *v *= inv;
    }
    grad
}

fn x_rows(x: &Tensor) -> usize {
    assert_eq!(x.shape().rank(), 2, "expected a matrix");
    x.shape().dim(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-5
    }

    #[test]
    fn relu_clamps_negatives() {
        let x = Tensor::from_slice(&[-1.0, 0.0, 2.0]);
        assert_eq!(relu(&x).data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn relu_backward_masks() {
        let x = Tensor::from_slice(&[-1.0, 0.5]);
        let g = Tensor::from_slice(&[10.0, 10.0]);
        assert_eq!(relu_backward(&x, &g).data(), &[0.0, 10.0]);
    }

    #[test]
    fn sigmoid_midpoint() {
        let y = sigmoid(&Tensor::from_slice(&[0.0]));
        assert!(close(y.data()[0], 0.5));
    }

    #[test]
    fn tanh_range() {
        let y = tanh(&Tensor::from_slice(&[-100.0, 0.0, 100.0]));
        assert!(close(y.data()[0], -1.0));
        assert!(close(y.data()[1], 0.0));
        assert!(close(y.data()[2], 1.0));
    }

    #[test]
    fn gelu_matches_known_values() {
        let y = gelu(&Tensor::from_slice(&[0.0, 1.0]));
        assert!(close(y.data()[0], 0.0));
        assert!((y.data()[1] - 0.8412).abs() < 1e-3);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Tensor::new([2, 3], vec![1., 2., 3., -1., 0., 1.]);
        let p = softmax_rows(&x);
        for r in 0..2 {
            let s: f32 = p.data()[r * 3..(r + 1) * 3].iter().sum();
            assert!(close(s, 1.0));
        }
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let x = Tensor::new([1, 2], vec![1000.0, 1001.0]);
        let p = softmax_rows(&x);
        assert!(p.data().iter().all(|v| v.is_finite()));
        assert!(p.data()[1] > p.data()[0]);
    }

    #[test]
    fn cross_entropy_perfect_prediction_near_zero() {
        let logits = Tensor::new([1, 3], vec![100.0, 0.0, 0.0]);
        let (loss, _) = cross_entropy(&logits, &[0]);
        assert!(loss < 1e-4, "loss {loss}");
    }

    #[test]
    fn cross_entropy_uniform_is_log_k() {
        let logits = Tensor::new([1, 4], vec![0.0; 4]);
        let (loss, _) = cross_entropy(&logits, &[2]);
        assert!(close(loss, 4.0f32.ln()));
    }

    #[test]
    fn cross_entropy_grad_sums_to_zero_per_row() {
        let logits = Tensor::new([2, 3], vec![0.5, -0.2, 0.1, 1.0, 2.0, 3.0]);
        let (_, probs) = cross_entropy(&logits, &[0, 2]);
        let grad = cross_entropy_backward(&probs, &[0, 2]);
        for r in 0..2 {
            let s: f32 = grad.data()[r * 3..(r + 1) * 3].iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn cross_entropy_grad_matches_finite_difference() {
        let logits = Tensor::new([1, 3], vec![0.3, -0.1, 0.4]);
        let targets = [1usize];
        let (_, probs) = cross_entropy(&logits, &targets);
        let grad = cross_entropy_backward(&probs, &targets);
        let eps = 1e-3;
        for i in 0..3 {
            let mut plus = logits.clone();
            plus.data_mut()[i] += eps;
            let mut minus = logits.clone();
            minus.data_mut()[i] -= eps;
            let (lp, _) = cross_entropy(&plus, &targets);
            let (lm, _) = cross_entropy(&minus, &targets);
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - grad.data()[i]).abs() < 1e-3,
                "dim {i}: fd {fd} vs analytic {}",
                grad.data()[i]
            );
        }
    }

    #[test]
    #[should_panic(expected = "one target per logit row")]
    fn cross_entropy_target_count_mismatch() {
        cross_entropy(&Tensor::zeros([2, 3]), &[0]);
    }
}
