//! Order statistics used by every metric: medians and percentiles over
//! latency samples, and the quartile spread the acceptance rule is stated in.

/// Returns the samples sorted ascending (NaN-free inputs only).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Linear-interpolated value at fractional rank `pos` (0-based) of a
/// sorted slice, clamped to its ends.
fn at_rank(sorted: &[f64], pos: f64) -> f64 {
    let last = sorted.len() - 1;
    let pos = pos.clamp(0.0, last as f64);
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(last);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The `p`-th percentile (`0.0..=100.0`) with linear interpolation between
/// closest ranks. Returns 0 for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let s = sorted(samples);
    at_rank(&s, p / 100.0 * (s.len() - 1) as f64)
}

/// The median (50th percentile).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// First, second and third quartile by the exclusive method — the values
/// Python's `statistics.quantiles(values, n=4)` returns, which is what the
/// acceptance rule for run-to-run spread is stated in. Needs two samples.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    assert!(samples.len() >= 2, "quartiles need at least two samples");
    let s = sorted(samples);
    let n = s.len() as f64;
    [1.0, 2.0, 3.0].map(|q| at_rank(&s, q * (n + 1.0) / 4.0 - 1.0))
}

/// Distance between the first and third quartile as a share of the median.
pub fn iqr_share(samples: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(samples);
    if q2 == 0.0 {
        return 0.0;
    }
    (q3 - q1) / q2.abs()
}

/// Samples strictly beyond the `p`-th percentile — printed beside a tail
/// percentile so a reader can see whether it rests on at least ten.
pub fn samples_beyond(samples: &[f64], p: f64) -> usize {
    let cut = percentile(samples, p);
    samples.iter().filter(|&&x| x > cut).count()
}
