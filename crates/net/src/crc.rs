//! CRC-32 (IEEE 802.3) for frame payload integrity.
//!
//! The reflected polynomial `0xEDB88320`, init `0xFFFF_FFFF`, final
//! XOR `0xFFFF_FFFF` — the same parameters as zlib/PNG/Ethernet, so a
//! third-party client can use any stock `crc32` library against the
//! values in `docs/PROTOCOL.md`.
//!
//! Slicing-by-16: sixteen 256-entry tables, computed at compile time by
//! a `const fn`. Each 16-byte block folds the running CRC into its
//! first little-endian word and XORs sixteen table lookups, one per
//! byte; a tail of fewer than 16 bytes goes through table 0 one byte at
//! a time. One safe path on every platform: no intrinsics, no CPU
//! detection, and `u32::from_le_bytes` keeps it endian-independent.
//! The tests hold it to the bytewise loop (one table-0 lookup per
//! byte) as their oracle.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0][b]` is the classic bytewise table: the CRC register
/// after shifting byte `b` through it. `TABLES[k][b]` is the same byte
/// followed by `k` zero bytes, which is what a byte `k` positions
/// before the end of a 16-byte block contributes.
static TABLES: [[u32; 256]; 16] = tables();

const fn tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut b = 0;
    while b < 256 {
        let mut c = b as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][b] = c;
        b += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 of `data` (IEEE, reflected, `xorout = 0xFFFF_FFFF`).
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut blocks = data.chunks_exact(16);
    for block in &mut blocks {
        let b: &[u8; 16] = block.try_into().expect("16-byte block");
        let w = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = t[15][(w & 0xFF) as usize]
            ^ t[14][((w >> 8) & 0xFF) as usize]
            ^ t[13][((w >> 16) & 0xFF) as usize]
            ^ t[12][(w >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in blocks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use corrfuse_core::testkit::{run_cases, Gen};

    /// The bytewise loop: one table-0 lookup per byte. The oracle the
    /// sliced kernel must agree with on every input.
    fn reference(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    fn random_bytes(g: &mut Gen, len: usize) -> Vec<u8> {
        (0..len).map(|_| g.u64_below(256) as u8).collect()
    }

    #[test]
    fn matches_the_standard_check_value() {
        // The universal CRC-32 check vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // One-bit corruption is detected.
        assert_ne!(crc32(b"223456789"), 0xCBF4_3926);
    }

    #[test]
    fn matches_zlib_on_check_vectors() {
        // Values from zlib's `crc32`; the last three are longer than
        // one 16-byte block, so they go through the sliced path.
        let vectors: [(&[u8], u32); 4] = [
            (b"123456789", 0xCBF4_3926),
            (b"The quick brown fox jumps over the lazy dog", 0x414F_A339),
            (&[0x00; 32], 0x190A_55AD),
            (&[0xFF; 32], 0xFF6C_AB0B),
        ];
        for (data, want) in vectors {
            assert_eq!(crc32(data), want, "{} bytes", data.len());
            assert_eq!(reference(data), want, "{} bytes", data.len());
        }
    }

    #[test]
    fn sliced_equals_bytewise_at_every_length_and_offset() {
        // Every tail length 0..16 on both sides of one, two and more
        // block boundaries, starting at every alignment of the buffer.
        run_cases("crc32_every_length_and_offset", 8, |g| {
            let buf = random_bytes(g, 16 + 80);
            for start in 0..16 {
                for len in 0..=80 {
                    let data = &buf[start..start + len];
                    assert_eq!(crc32(data), reference(data), "start {start}, len {len}");
                }
            }
        });
    }

    #[test]
    fn sliced_equals_bytewise_on_large_buffers() {
        run_cases("crc32_large_buffers", 12, |g| {
            let len = g.usize_in(0, 256 * 1024 + 1);
            let data = random_bytes(g, len);
            assert_eq!(crc32(&data), reference(&data), "len {len}");
        });
    }
}
