//! Percentile and quartile helpers against hand-computed values and the
//! values Python's `statistics.quantiles(values, n=4)` gives.

use flor_benchmark::stats::{iqr_share, median, percentile, quartiles, samples_beyond};

fn close(a: f64, b: f64) {
    assert!((a - b).abs() < 1e-9, "{a} != {b}");
}

#[test]
fn median_and_percentiles_interpolate() {
    let v = [5.0, 1.0, 3.0, 2.0, 4.0];
    close(median(&v), 3.0);
    close(percentile(&v, 0.0), 1.0);
    close(percentile(&v, 100.0), 5.0);
    close(percentile(&v, 90.0), 4.6);
    close(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
    close(median(&[7.0]), 7.0);
    close(median(&[]), 0.0);
}

#[test]
fn quartiles_match_python_exclusive_method() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    let [q1, q2, q3] = quartiles(&ten);
    close(q1, 2.75);
    close(q2, 5.5);
    close(q3, 8.25);
    close(iqr_share(&ten), 1.0);
    // statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5], n=4) == [2.0, 4.0, 5.0]
    let [q1, q2, q3] = quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0, 5.0]);
    close(q1, 2.0);
    close(q2, 4.0);
    close(q3, 5.0);
    // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]: clamped ends.
    assert_eq!(quartiles(&[2.0, 3.0, 1.0]), [1.0, 2.0, 3.0]);
}

#[test]
fn a_hundred_samples_leave_ten_beyond_p90() {
    let v: Vec<f64> = (0..100).map(f64::from).collect();
    assert_eq!(samples_beyond(&v, 90.0), 10);
    assert_eq!(samples_beyond(&v[..50], 90.0), 5);
}
