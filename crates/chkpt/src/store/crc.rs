//! CRC32 (IEEE, reflected) — the one checksum behind manifest lines,
//! segment footers, and every payload read.
//!
//! Every read verifies its payload's CRC, so the checksum runs at memory
//! speed where the CPU allows: on x86-64 with PCLMULQDQ and SSE4.1 the
//! bulk of the input is folded with carry-less multiplies (Gopal et al.,
//! "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ", Intel,
//! 2009) — four 128-bit lanes folded 64 bytes at a time, then one lane,
//! then a Barrett reduction to 32 bits. The tail under 16 bytes, every
//! input under 128 bytes, and every host without the instructions take
//! slicing-by-8 (eight table lookups per 8 input bytes). Both paths give
//! bit-identical results; which one a process uses is decided once, and a
//! host that lacks the instructions is counted once in
//! `store.crc_fallbacks`.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB88320;

/// Inputs shorter than this skip the carry-less fold: its fixed cost (two
/// reductions) outweighs the table loop on a few cache lines.
const FOLD_MIN_BYTES: usize = 128;

/// CRC32 (IEEE, reflected) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = !0u32;
    let mut rest = data;
    if data.len() >= FOLD_MIN_BYTES && fold_available() {
        let bulk = data.len() & !15;
        // SAFETY: `fold_available` confirmed PCLMULQDQ and SSE4.1 on this
        // CPU, and `bulk` is a multiple of 16 no smaller than 64.
        c = unsafe { fold::crc32_fold(c, &data[..bulk]) };
        rest = &data[bulk..];
    }
    !crc32_sliced(c, rest)
}

/// Whether this CPU can run [`fold::crc32_fold`], decided once per
/// process; a host without it is counted in `store.crc_fallbacks`.
fn fold_available() -> bool {
    static AVAILABLE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        let available = is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1");
        #[cfg(not(target_arch = "x86_64"))]
        let available = false;
        if !available {
            flor_obs::counter!("store.crc_fallbacks").inc();
        }
        available
    })
}

/// Slicing-by-8 over `data`, continuing from the running (pre-inverted)
/// state `c`.
fn crc32_sliced(mut c: u32, data: &[u8]) -> u32 {
    // Build the eight tables once.
    static TABLES: std::sync::OnceLock<[[u32; 256]; 8]> = std::sync::OnceLock::new();
    let t = TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        let mut t0 = [0u32; 256];
        for (i, slot) in t0.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
            *slot = c;
        }
        t[0] = t0;
        for k in 1..8usize {
            let prev_row = t[k - 1];
            for (slot, &prev) in t[k].iter_mut().zip(prev_row.iter()) {
                *slot = (prev >> 8) ^ t0[(prev & 0xff) as usize];
            }
        }
        t
    });
    let mut chunks = data.chunks_exact(8);
    for ch in &mut chunks {
        let lo = u32::from_le_bytes(ch[0..4].try_into().expect("4 bytes")) ^ c;
        let hi = u32::from_le_bytes(ch[4..8].try_into().expect("4 bytes"));
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c
}

#[cfg(target_arch = "x86_64")]
mod fold {
    use core::arch::x86_64::*;

    /// x^(4·128+64) mod P and x^(4·128) mod P (bit-reflected, shifted
    /// left one): fold four lanes across 64 bytes.
    const K1: i64 = 0x0154442bd4;
    const K2: i64 = 0x01c6e41596;
    /// x^(128+64) mod P and x^128 mod P: fold one lane across 16 bytes.
    const K3: i64 = 0x01751997d0;
    const K4: i64 = 0x00ccaa009e;
    /// x^64 mod P: fold 96 bits down to 64.
    const K5: i64 = 0x0163cd6124;
    /// The polynomial P(x) and the Barrett constant μ = x^64 / P(x),
    /// both bit-reflected.
    const P_X: i64 = 0x01db710641;
    const U_PRIME: i64 = 0x01f7011641;

    /// Folds `data` into the running (pre-inverted) CRC state `crc` and
    /// returns the new state, equal to what slicing-by-8 would return.
    ///
    /// # Safety
    ///
    /// The CPU must support PCLMULQDQ and SSE4.1, and `data.len()` must be
    /// a multiple of 16 and at least 64.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) unsafe fn crc32_fold(crc: u32, data: &[u8]) -> u32 {
        debug_assert!(data.len() >= 64 && data.len().is_multiple_of(16));
        let load = |chunk: &[u8]| {
            // SAFETY: `chunk` is exactly 16 readable bytes (every caller
            // passes a 16-byte piece of `data`); the load is unaligned.
            unsafe { _mm_loadu_si128(chunk.as_ptr().cast()) }
        };
        let mut blocks = data.chunks_exact(64);
        let first = blocks.next().expect("at least 64 bytes");
        let mut x1 = _mm_xor_si128(load(&first[0..16]), _mm_cvtsi32_si128(crc as i32));
        let mut x2 = load(&first[16..32]);
        let mut x3 = load(&first[32..48]);
        let mut x4 = load(&first[48..64]);

        // Four lanes, 64 bytes per step.
        let k1k2 = _mm_set_epi64x(K2, K1);
        let step = |x: __m128i, k: __m128i, next: __m128i| {
            let lo = _mm_clmulepi64_si128(x, k, 0x00);
            let hi = _mm_clmulepi64_si128(x, k, 0x11);
            _mm_xor_si128(_mm_xor_si128(hi, lo), next)
        };
        for block in &mut blocks {
            x1 = step(x1, k1k2, load(&block[0..16]));
            x2 = step(x2, k1k2, load(&block[16..32]));
            x3 = step(x3, k1k2, load(&block[32..48]));
            x4 = step(x4, k1k2, load(&block[48..64]));
        }

        // Four lanes into one, then the remaining 16-byte blocks.
        let k3k4 = _mm_set_epi64x(K4, K3);
        x1 = step(x1, k3k4, x2);
        x1 = step(x1, k3k4, x3);
        x1 = step(x1, k3k4, x4);
        for chunk in blocks.remainder().chunks_exact(16) {
            x1 = step(x1, k3k4, load(chunk));
        }

        // 128 bits down to 64.
        let mask32 = _mm_setr_epi32(-1, 0, -1, 0);
        let x2 = _mm_clmulepi64_si128(x1, k3k4, 0x10);
        x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2);
        let k5 = _mm_set_epi64x(0, K5);
        let x2 = _mm_srli_si128(x1, 4);
        x1 = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k5, 0x00);
        x1 = _mm_xor_si128(x1, x2);

        // Barrett reduction to 32 bits.
        let poly = _mm_set_epi64x(U_PRIME, P_X);
        let mut x2 = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), poly, 0x10);
        x2 = _mm_clmulepi64_si128(_mm_and_si128(x2, mask32), poly, 0x00);
        _mm_extract_epi32(_mm_xor_si128(x1, x2), 1) as u32
    }
}

#[cfg(not(target_arch = "x86_64"))]
mod fold {
    /// Never called: [`super::fold_available`] is false off x86-64.
    pub(super) unsafe fn crc32_fold(crc: u32, data: &[u8]) -> u32 {
        super::crc32_sliced(crc, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bitwise CRC32 — the differential oracle for [`crc32`].
    fn crc32_reference(data: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in data {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
        }
        !c
    }

    fn noise(n: usize, seed: u32) -> Vec<u8> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect()
    }

    #[test]
    fn crc32_known_value() {
        // IEEE CRC32 of "123456789" is 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_reference(b"123456789"), 0xCBF43926);
        assert_eq!(!crc32_sliced(!0, b"123456789"), 0xCBF43926);
    }

    #[test]
    fn crc32_sliced_matches_reference_across_lengths() {
        // Every length 0..=4096 at every alignment 0..16 of the input,
        // through the dispatched path and through slicing-by-8 alone.
        let data = noise(4096 + 16, 0xACE1);
        for align in 0..16 {
            for n in 0..=4096 {
                let input = &data[align..align + n];
                let want = crc32_reference(input);
                assert_eq!(crc32(input), want, "dispatched, len {n} align {align}");
                assert_eq!(
                    !crc32_sliced(!0, input),
                    want,
                    "sliced, len {n} align {align}"
                );
            }
        }
    }

    #[test]
    fn both_paths_match_the_reference_past_a_mebibyte() {
        let data = noise((1 << 20) + 7, 0x5EED);
        let want = crc32_reference(&data);
        assert_eq!(crc32(&data), want);
        assert_eq!(!crc32_sliced(!0, &data), want);
    }

    #[test]
    fn the_fold_runs_where_the_cpu_has_it() {
        // On a host with the instructions, the fold itself (not just the
        // dispatcher's table fallback) must equal the reference.
        if !fold_available() {
            return;
        }
        let data = noise(4096, 0xF01D);
        for n in (64..=4096).step_by(16) {
            // SAFETY: checked above; `n` is a multiple of 16, at least 64.
            let folded = unsafe { fold::crc32_fold(!0, &data[..n]) };
            assert_eq!(!folded, crc32_reference(&data[..n]), "len {n}");
        }
    }
}
