//! Checksums and fingerprints shared by the grid manifest and the
//! checkpoint format.
//!
//! Hand-rolled on purpose: the workspace builds offline, and both
//! algorithms are short. CRC32 (IEEE 802.3, the zlib
//! polynomial) guards grid objects and snapshot sections against torn or
//! bit-rotted reads; FNV-1a/64 fingerprints small identity blobs (graph
//! metadata, config strings) and drives deterministic per-key sampling.
//!
//! These originated in `gsd-recover`; they moved here so the grid format
//! can depend on them without pulling in the checkpoint machinery, and
//! `gsd-recover` re-exports them unchanged.

/// The reflected IEEE polynomial (zlib, PNG, Ethernet).
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-16 lookup tables. `CRC32_TABLES[0]` is the classic
/// byte-at-a-time table; `CRC32_TABLES[k][b]` is the CRC contribution of
/// byte `b` followed by `k` zero bytes, so sixteen lookups fold a whole
/// 16-byte chunk into the running CRC at once. Built at compile time.
static CRC32_TABLES: [[u32; 256]; 16] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC32_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC32 (IEEE, reflected, polynomial `0xEDB88320`) of `data`.
/// Matches zlib's `crc32(0, data)`, so grids and snapshots remain
/// checkable by external tooling.
///
/// Slicing-by-16: the bulk of the input is consumed sixteen bytes per
/// step through [`CRC32_TABLES`], the tail byte by byte.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = !0u32;
    let mut chunks = data.chunks_exact(16);
    for c in &mut chunks {
        let head = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[15][(head & 0xFF) as usize]
            ^ t[14][((head >> 8) & 0xFF) as usize]
            ^ t[13][((head >> 16) & 0xFF) as usize]
            ^ t[12][(head >> 24) as usize]
            ^ t[11][c[4] as usize]
            ^ t[10][c[5] as usize]
            ^ t[9][c[6] as usize]
            ^ t[8][c[7] as usize]
            ^ t[7][c[8] as usize]
            ^ t[6][c[9] as usize]
            ^ t[5][c[10] as usize]
            ^ t[4][c[11] as usize]
            ^ t[3][c[12] as usize]
            ^ t[2][c[13] as usize]
            ^ t[1][c[14] as usize]
            ^ t[0][c[15] as usize];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

/// FNV-1a 64-bit hash of `data`.
pub fn fnv64(data: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in data {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Reference values from zlib's crc32().
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The original bit-at-a-time CRC32, kept as the oracle the
    /// table-driven version must agree with on every input.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in data {
            crc ^= byte as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC32_POLY & mask);
            }
        }
        !crc
    }

    /// Deterministic pseudo-random bytes (xorshift64*), so failures
    /// reproduce exactly.
    fn seeded_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_matches_bitwise_oracle_at_every_short_length_and_offset() {
        let buf = seeded_bytes(16 + 67, 0x6773_645f_6372_6333);
        for start in 0..16 {
            for len in 0..=67 {
                let slice = &buf[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bitwise(slice),
                    "start {start} len {len}"
                );
            }
        }
    }

    #[test]
    fn crc32_matches_bitwise_oracle_on_chunk_boundaries() {
        let buf = seeded_bytes(16 * 40 + 15, 7);
        for k in [1usize, 2, 3, 17, 40] {
            for len in [16 * k, 16 * k + 15] {
                let slice = &buf[..len];
                assert_eq!(crc32(slice), crc32_bitwise(slice), "len {len}");
            }
        }
    }

    #[test]
    fn crc32_matches_bitwise_oracle_on_one_mib() {
        let buf = seeded_bytes(1 << 20, 42);
        assert_eq!(crc32(&buf), crc32_bitwise(&buf));
    }

    #[test]
    fn fnv64_matches_known_vectors() {
        // Reference values from the FNV-1a specification.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn single_bit_flips_change_the_crc() {
        let base = b"grid block payload".to_vec();
        let reference = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), reference, "byte {byte} bit {bit}");
            }
        }
    }
}
