//! CRC-32 (IEEE 802.3) for frame payload integrity.
//!
//! The reflected polynomial `0xEDB88320`, init `0xFFFF_FFFF`, final
//! XOR `0xFFFF_FFFF` — the same parameters as zlib/PNG/Ethernet, so a
//! third-party client can use any stock `crc32` library against the
//! values in `docs/PROTOCOL.md`.
//!
//! Two kernels compute the same register, and [`crc32`] picks one per
//! call:
//!
//! * **Carry-less multiply** (x86-64 only): Intel's PCLMULQDQ folding
//!   (Gopal et al., *Fast CRC Computation for Generic Polynomials Using
//!   PCLMULQDQ Instruction*, 2009). Four 128-bit lanes fold 64 bytes
//!   forward per step, then one lane folds 16 bytes at a time, and a
//!   Barrett reduction brings the last lane down to 32 bits; the final
//!   < 16 bytes go through the table loop. Chosen when the buffer holds
//!   at least 64 bytes and `is_x86_feature_detected!` reports
//!   `pclmulqdq` and `sse4.1`. Loads go through `u64::from_le_bytes`,
//!   so the kernel body is safe code; the one `unsafe` is the call into
//!   its `#[target_feature]` function, behind that runtime check.
//! * **Slicing-by-16**: sixteen 256-entry tables, computed at compile
//!   time by a `const fn`. Each 16-byte block folds the running CRC into
//!   its first little-endian word and XORs sixteen table lookups, one
//!   per byte; a tail of fewer than 16 bytes goes through table 0 one
//!   byte at a time. It stays for everything the folding kernel does not
//!   take: frames under 64 bytes (most requests and acks), the folding
//!   kernel's tail, CPUs and targets without the instruction — and as
//!   the tests' second implementation, so a folding bug cannot hide
//!   behind itself.
//!
//! The tests hold both kernels to the bytewise loop (one table-0 lookup
//! per byte) as their oracle, calling each directly.

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
    let c = clmul_update(!0, data).unwrap_or_else(|| table_update(!0, data));
    !c
}

/// Slicing-by-16: shift `data` through the CRC register `c`.
fn table_update(mut c: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
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
    c
}

/// The carry-less-multiply kernel's register after `data`, or `None`
/// when it does not apply: fewer than [`clmul::MIN_LEN`] bytes, or a CPU
/// without `pclmulqdq` and `sse4.1`.
#[cfg(target_arch = "x86_64")]
fn clmul_update(c: u32, data: &[u8]) -> Option<u32> {
    if data.len() < clmul::MIN_LEN
        || !std::is_x86_feature_detected!("pclmulqdq")
        || !std::is_x86_feature_detected!("sse4.1")
    {
        return None;
    }
    // SAFETY: `clmul::update` is compiled for `pclmulqdq` and `sse4.1`,
    // and `is_x86_feature_detected!` just confirmed this CPU has both.
    // Its body is safe code that takes any slice of at least `MIN_LEN`
    // bytes, which the length check above guarantees.
    Some(unsafe { clmul::update(c, data) })
}

#[cfg(not(target_arch = "x86_64"))]
fn clmul_update(_c: u32, _data: &[u8]) -> Option<u32> {
    None
}

#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// The shortest buffer the kernel takes: one 64-byte block to seed
    /// its four lanes.
    pub(super) const MIN_LEN: usize = 64;

    // Folding constants for the reflected polynomial: `x^n mod P(x)`,
    // bit-reflected and shifted left one (Gopal et al., §4). A lane's
    // low half is multiplied by the first of a pair and its high half
    // by the second, which moves it `n ∓ 32` bits further down the
    // message.
    /// `x^(4·128+32) mod P`: folds a lane over four lanes (low half).
    const K1: i64 = 0x1_5444_2BD4;
    /// `x^(4·128−32) mod P`: folds a lane over four lanes (high half).
    const K2: i64 = 0x1_C6E4_1596;
    /// `x^(128+32) mod P`: folds a lane onto the next (low half).
    const K3: i64 = 0x1_7519_97D0;
    /// `x^(128−32) mod P`: folds a lane onto the next (high half).
    const K4: i64 = 0x0_CCAA_009E;
    /// `x^64 mod P`: the 96 → 64-bit step.
    const K5: i64 = 0x1_63CD_6124;
    /// `P(x)`, reflected (33 bits): the Barrett modulus.
    const P: i64 = 0x1_DB71_0641;
    /// `⌊x^64 / P(x)⌋`, reflected (33 bits): the Barrett quotient.
    const MU: i64 = 0x1_F701_1641;

    /// Shift `data` (at least [`MIN_LEN`] bytes) through the CRC
    /// register `c`. A caller not compiled for these features must
    /// first check that the CPU has them (`is_x86_feature_detected!`):
    /// that call is the `unsafe` one.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn update(c: u32, data: &[u8]) -> u32 {
        let (first, rest) = data.split_at(MIN_LEN);
        let mut lanes = load4(first);
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(c as i32));

        let k1k2 = _mm_set_epi64x(K2, K1);
        let mut blocks = rest.chunks_exact(64);
        for block in &mut blocks {
            let next = load4(block);
            for (lane, next) in lanes.iter_mut().zip(next) {
                *lane = fold(*lane, next, k1k2);
            }
        }

        let k3k4 = _mm_set_epi64x(K4, K3);
        let [x0, x1, x2, x3] = lanes;
        let mut x = fold(fold(fold(x0, x1, k3k4), x2, k3k4), x3, k3k4);
        let mut singles = blocks.remainder().chunks_exact(16);
        for lane in &mut singles {
            x = fold(x, load(lane), k3k4);
        }
        super::table_update(reduce(x, k3k4), singles.remainder())
    }

    /// One 16-byte lane, little-endian.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn load(bytes: &[u8]) -> __m128i {
        let lo = u64::from_le_bytes(bytes[..8].try_into().expect("8-byte half"));
        let hi = u64::from_le_bytes(bytes[8..16].try_into().expect("8-byte half"));
        _mm_set_epi64x(hi as i64, lo as i64)
    }

    /// Four consecutive lanes from one 64-byte block.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn load4(block: &[u8]) -> [__m128i; 4] {
        [
            load(&block[..16]),
            load(&block[16..32]),
            load(&block[32..48]),
            load(&block[48..64]),
        ]
    }

    /// Carry `lane` forward by the distance `keys` encodes and add it
    /// into `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold(lane: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(lane, keys, 0x00);
        let hi = _mm_clmulepi64_si128(lane, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// Reduce the last 128-bit lane to the 32-bit CRC register: fold to
    /// 96 and then 64 bits, then one Barrett step.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn reduce(x: __m128i, k3k4: __m128i) -> u32 {
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        let pmu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pmu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pmu, 0x00);
        _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corrfuse_core::testkit::{run_cases, Gen};

    /// The bytewise loop: one table-0 lookup per byte. The oracle both
    /// kernels must agree with on every input.
    fn reference(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    /// The table kernel alone, finalised.
    fn table(data: &[u8]) -> u32 {
        !table_update(!0, data)
    }

    /// The folding kernel alone, finalised — `None` below its minimum
    /// length or on a CPU without it.
    fn folded(data: &[u8]) -> Option<u32> {
        clmul_update(!0, data).map(|c| !c)
    }

    /// Hold `crc32` and both kernels to the bytewise oracle on `data`.
    fn check(data: &[u8], what: &str) {
        let want = reference(data);
        assert_eq!(table(data), want, "table kernel, {what}");
        if let Some(got) = folded(data) {
            assert_eq!(got, want, "folding kernel, {what}");
        }
        assert_eq!(crc32(data), want, "crc32, {what}");
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
        // Values from zlib's `crc32`. All but the first span more than
        // one 16-byte block. The last five are long enough for the
        // folding kernel and reach its four-lane loop (129, 256 and
        // 1000 bytes), its one-lane loop (1000) and its byte tail (129
        // and 1000).
        let fox = b"The quick brown fox jumps over the lazy dog";
        let fox3 = [&fox[..], fox, fox].concat();
        let bytes: Vec<u8> = (0..=255).collect();
        let vectors: [(&[u8], u32); 9] = [
            (b"123456789", 0xCBF4_3926),
            (fox, 0x414F_A339),
            (&[0x00; 32], 0x190A_55AD),
            (&[0xFF; 32], 0xFF6C_AB0B),
            (&[0x00; 64], 0x758D_6336),
            (&[0xFF; 64], 0x0F61_87BA),
            (&bytes, 0x2905_8C73),
            (&fox3, 0xD996_91F3),
            (&[0xA5; 1000], 0x2156_B7DC),
        ];
        for (data, want) in vectors {
            assert_eq!(reference(data), want, "{} bytes", data.len());
            check(data, &format!("{} bytes", data.len()));
        }
    }

    #[test]
    fn kernels_equal_bytewise_at_every_length_and_offset() {
        // Every length up to five 64-byte blocks, so each path of the
        // folding kernel (four lanes, single lanes, byte tail) sees
        // every remainder, starting at every alignment of the buffer.
        run_cases("crc32_every_length_and_offset", 4, |g| {
            let buf = random_bytes(g, 16 + 320);
            for start in 0..16 {
                for len in 0..=320 {
                    check(
                        &buf[start..start + len],
                        &format!("start {start}, len {len}"),
                    );
                }
            }
        });
    }

    #[test]
    fn kernels_equal_bytewise_on_large_buffers() {
        run_cases("crc32_large_buffers", 12, |g| {
            let len = g.usize_in(0, 256 * 1024 + 1);
            check(&random_bytes(g, len), &format!("len {len}"));
        });
    }

    #[test]
    fn folding_kernel_runs_where_the_cpu_has_it() {
        // Guards the tests above against checking nothing: on a CPU with
        // the instructions, the folding kernel takes 64 bytes and up.
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("pclmulqdq") && std::is_x86_feature_detected!("sse4.1") {
            assert!(folded(&[0; 64]).is_some());
        }
        assert_eq!(folded(&[0; 63]), None);
    }
}
