//! Fixtures shared by the store modules' tests.

use std::path::PathBuf;

pub(crate) fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "flor-store-test-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Pseudo-random (xorshift) bytes: incompressible, so they exercise the
/// raw-stored zero-copy path.
pub(crate) fn incompressible(n: usize, seed: u32) -> Vec<u8> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x as u8
        })
        .collect()
}

/// A drifting f32 slab: version `v` perturbs a sliding 5% of the
/// elements of version `v - 1`, like one optimizer step.
pub(crate) fn drifting_payload(version: u64, floats: usize) -> Vec<u8> {
    let mut vals: Vec<f32> = (0..floats).map(|i| (i as f32 * 0.37).sin()).collect();
    for v in 1..=version {
        for (i, val) in vals.iter_mut().enumerate() {
            if (i as u64).wrapping_mul(31).wrapping_add(v) % 20 == 0 {
                *val += 0.001 * v as f32;
            }
        }
    }
    vals.iter().flat_map(|f| f.to_le_bytes()).collect()
}
