//! CRC32 (IEEE, reflected) — the one checksum behind manifest lines,
//! segment footers, and every payload read.

/// CRC32 (IEEE, reflected) — hand-rolled so corruption detection has no
/// external dependency. Slicing-by-8: eight table lookups per 8 input
/// bytes instead of one per byte — the put path CRCs every payload, so
/// this sits on the record hot path (~5× over the byte-at-a-time loop,
/// bit-identical results).
pub fn crc32(data: &[u8]) -> u32 {
    // Build the eight tables once.
    static TABLES: std::sync::OnceLock<[[u32; 256]; 8]> = std::sync::OnceLock::new();
    let t = TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        let mut t0 = [0u32; 256];
        for (i, slot) in t0.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB88320 ^ (c >> 1)
                } else {
                    c >> 1
                };
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
    let mut c = !0u32;
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
    !c
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Byte-at-a-time CRC32 — the differential oracle for [`crc32`].
    fn crc32_reference(data: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in data {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB88320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        !c
    }

    #[test]
    fn crc32_known_value() {
        // IEEE CRC32 of "123456789" is 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_reference(b"123456789"), 0xCBF43926);
    }

    #[test]
    fn crc32_sliced_matches_reference_across_lengths() {
        // Slicing-by-8 must be bit-identical to the byte-at-a-time loop
        // for every remainder length and content.
        let mut x = 0xACE1u32;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect();
        for n in (0..64).chain([255, 1000, 4095, 4096]) {
            assert_eq!(crc32(&data[..n]), crc32_reference(&data[..n]), "len {n}");
        }
    }
}
