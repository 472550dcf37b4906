//! CRC-32 (IEEE 802.3) checksumming for on-disk formats and served
//! answers.
//!
//! The checkpoint format (`stencil_core::checkpoint`) seals every
//! snapshot with a CRC so torn writes and bit rot are *detected* at
//! recovery time instead of silently resumed from, and the serve
//! daemon's answer digest is the CRC of the output grid. The reflected
//! polynomial `0xEDB88320` with `0xFFFFFFFF` init/xor-out is the
//! ubiquitous variant (zlib, PNG, Ethernet), so the known-answer vectors
//! below pin interoperability, not just self-consistency.
//!
//! A CRC-32 detects **every** single-bit flip and every error burst up
//! to 32 bits long; longer corruption escapes with probability 2⁻³².
//! That is integrity checking, not authentication — it guards against
//! crashes and disk errors, not adversaries.
//!
//! # Two implementations, one answer
//!
//! - **Slicing-by-8** (portable, and the reference): eight table
//!   lookups advance the register over eight input bytes. It runs on
//!   every target and host, and [`Crc32::update`] uses it for inputs
//!   under 64 bytes and for the last 0–15 bytes of longer ones. The
//!   tests check it against the bytewise definition, and everything else
//!   against it.
//! - **Carry-less-multiply folding** (x86-64 hosts with `PCLMULQDQ`,
//!   detected at run time): Gopal et al., "Fast CRC Computation for
//!   Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009. Four
//!   128-bit accumulators each fold 16 bytes of every 64-byte block, then
//!   fold into one accumulator, which folds the remaining 16-byte blocks,
//!   is reduced to 64 and then 32 bits, and ends in a Barrett reduction.
//!   Other hosts and targets run slicing-by-8 throughout.
//!
//! **Where the folding constants come from.** In the bit-reflected
//! domain a register bit `31 − i` is the coefficient of `xⁱ`. Moving a
//! 64-bit accumulator half `D` bits further down the message multiplies
//! it by `x^D mod P`; a reflected 64 × 64 carry-less product lands one
//! bit low, so each constant is `x^k mod P`, bit-reflected, shifted left
//! one bit (`fold_constant`). The 64-byte fold uses `k = 4·128 ± 32`,
//! the 16-byte fold `k = 128 ± 32`, and the 64 → 32-bit step `k = 64`.
//! Barrett's quotient is `μ = ⌊x⁶⁴ / P⌋` and the reduction multiplies by
//! `P` itself, both reflected over 33 bits. All are computed at compile
//! time from [`POLY`]; a test pins them to the values zlib and Linux
//! publish.

/// The reflected IEEE 802.3 polynomial.
pub const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 lookup tables, computed at compile time. `TABLES[0]` is
/// the classic byte-indexed table; `TABLES[k][b]` is the CRC register
/// after byte `b` followed by `k` zero bytes, so eight table lookups
/// advance the register over eight input bytes at once.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// `x^k mod P`, bit-reflected and shifted left one bit: the multiplier
/// that folds a reflected 64-bit accumulator half over `k − 32` bits
/// (see the module doc).
const fn fold_constant(k: u32) -> u64 {
    // reflected 1, multiplied by x k times (one CRC bit step each)
    let mut v: u32 = 0x8000_0000;
    let mut i = 0;
    while i < k {
        v = if v & 1 != 0 { (v >> 1) ^ POLY } else { v >> 1 };
        i += 1;
    }
    (v as u64) << 1
}

/// Barrett's `μ = ⌊x⁶⁴ / P⌋`, reflected over its 33 bits.
const fn barrett_mu() -> u64 {
    // long division of x^64 by P in the normal (unreflected) domain
    let p = (1u64 << 32) | POLY.reverse_bits() as u64;
    let mut rem: u128 = 1 << 64;
    let mut q = 0u64;
    let mut s = 32;
    loop {
        if (rem >> (s + 32)) & 1 != 0 {
            rem ^= (p as u128) << s;
            q |= 1 << s;
        }
        if s == 0 {
            break;
        }
        s -= 1;
    }
    q.reverse_bits() >> 31
}

/// Fold over 64 bytes: `(x^(4·128+32), x^(4·128−32))`.
const K1K2: (u64, u64) = (fold_constant(4 * 128 + 32), fold_constant(4 * 128 - 32));
/// Fold over 16 bytes: `(x^(128+32), x^(128−32))`.
const K3K4: (u64, u64) = (fold_constant(128 + 32), fold_constant(128 - 32));
/// The 64 → 32-bit fold: `x^64`.
const K5: u64 = fold_constant(64);
/// Barrett reduction: `(P, μ)`, both reflected over 33 bits.
const P_MU: (u64, u64) = (((POLY as u64) << 1) | 1, barrett_mu());

/// One byte into the CRC register (the bytewise step).
#[inline]
fn step(crc: u32, b: u8) -> u32 {
    (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize]
}

/// The register after `bytes`, slicing-by-8 (eight bytes per step, the
/// tail bytewise): the portable path and the reference.
fn slicing_by_8(mut crc: u32, bytes: &[u8]) -> u32 {
    let (words, tail) = bytes.as_chunks::<8>();
    for w in words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let t = |k: usize, b: u32| TABLES[k][(b & 0xFF) as usize];
        crc = t(7, lo) ^ t(6, lo >> 8) ^ t(5, lo >> 16) ^ t(4, lo >> 24);
        crc ^= t(3, w[4].into()) ^ t(2, w[5].into()) ^ t(1, w[6].into()) ^ t(0, w[7].into());
    }
    for &b in tail {
        crc = step(crc, b);
    }
    crc
}

/// Carry-less-multiply folding (x86-64 with `PCLMULQDQ`).
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    use super::{slicing_by_8, K1K2, K3K4, K5, P_MU};

    /// Whether this host can run [`update`].
    pub(super) fn detected() -> bool {
        std::is_x86_feature_detected!("pclmulqdq")
    }

    /// `(lo, hi)` as one 128-bit lane pair.
    #[target_feature(enable = "pclmulqdq")]
    #[inline]
    fn pair((lo, hi): (u64, u64)) -> __m128i {
        _mm_set_epi64x(hi as i64, lo as i64)
    }

    /// `x` folded forward by the distance `k` encodes:
    /// `x.lo · k.lo ⊕ x.hi · k.hi`.
    #[target_feature(enable = "pclmulqdq")]
    #[inline]
    fn fold(x: __m128i, k: __m128i) -> __m128i {
        _mm_xor_si128(_mm_clmulepi64_si128::<0x00>(x, k), _mm_clmulepi64_si128::<0x11>(x, k))
    }

    /// The register after `bytes` (at least 64): every whole 16-byte
    /// block by folding, the last 0–15 bytes by slicing-by-8.
    ///
    /// # Safety
    ///
    /// The host must support `PCLMULQDQ` ([`detected`]).
    #[target_feature(enable = "pclmulqdq")]
    pub(super) unsafe fn update(crc: u32, bytes: &[u8]) -> u32 {
        let (blocks, tail) = bytes.as_chunks::<16>();
        assert!(blocks.len() >= 4, "the folding path needs at least 64 bytes");
        // SAFETY: each block is 16 readable bytes; loadu has no alignment
        // requirement
        let load = |b: &[u8; 16]| unsafe { _mm_loadu_si128(b.as_ptr().cast()) };
        let (head, rest) = blocks.split_at(4);
        let mut x = [load(&head[0]), load(&head[1]), load(&head[2]), load(&head[3])];
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(crc as i32));
        let (quads, singles) = rest.as_chunks::<4>();
        let k1k2 = pair(K1K2);
        for q in quads {
            for (acc, b) in x.iter_mut().zip(q) {
                *acc = _mm_xor_si128(fold(*acc, k1k2), load(b));
            }
        }
        let k3k4 = pair(K3K4);
        let mut acc = x[0];
        for &next in &x[1..] {
            acc = _mm_xor_si128(fold(acc, k3k4), next);
        }
        for b in singles {
            acc = _mm_xor_si128(fold(acc, k3k4), load(b));
        }
        // 128 → 64 bits: the low half over 64 bits onto the high half
        let acc = _mm_xor_si128(_mm_srli_si128::<8>(acc), _mm_clmulepi64_si128::<0x10>(acc, k3k4));
        // 64 → 32 bits, appending the 32 zero bits the register implies
        let low32 = _mm_set_epi64x(0, 0xFFFF_FFFF);
        let k5 = _mm_set_epi64x(0, K5 as i64);
        let acc = _mm_xor_si128(
            _mm_srli_si128::<4>(acc),
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(acc, low32), k5),
        );
        // Barrett: q = ⌊acc·μ⌋ (low 32 bits), then acc ⊕ q·P
        let p_mu = pair(P_MU);
        let q = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(acc, low32), p_mu);
        let qp = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(q, low32), p_mu);
        let reduced = (_mm_cvtsi128_si64(_mm_xor_si128(acc, qp)) >> 32) as u32;
        slicing_by_8(reduced, tail)
    }
}

/// Streaming CRC-32 state, for checksumming data produced in pieces.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// A fresh checksum (equivalent to having processed zero bytes).
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Fold `bytes` into the running checksum: by carry-less-multiply
    /// folding for 64 bytes or more where the host supports it,
    /// slicing-by-8 otherwise (see the module doc).
    pub fn update(&mut self, bytes: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if bytes.len() >= 64 && clmul::detected() {
            // SAFETY: detected just above
            self.state = unsafe { clmul::update(self.state, bytes) };
            return;
        }
        self.state = slicing_by_8(self.state, bytes);
    }

    /// The checksum of everything updated so far.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop;

    #[test]
    fn known_answer_vectors() {
        // the standard check value every CRC-32 implementation quotes
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xFFu8; 32]), 0xFF6C_AB0B);
    }

    /// The bytewise CRC-32 register after `bytes`: the definition both
    /// fast paths must reproduce.
    fn bytewise_state(crc: u32, bytes: &[u8]) -> u32 {
        bytes.iter().fold(crc, |crc, &b| step(crc, b))
    }

    fn bytewise(bytes: &[u8]) -> u32 {
        bytewise_state(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
    }

    /// Every implementation this host can run, called directly (not
    /// through the dispatch in `update`): the portable path always, the
    /// folding path on inputs of 64 bytes or more where the host has
    /// `PCLMULQDQ`.
    fn each_path(crc: u32, bytes: &[u8]) -> Vec<(&'static str, u32)> {
        let mut out = vec![("slicing-by-8", slicing_by_8(crc, bytes))];
        #[cfg(target_arch = "x86_64")]
        if bytes.len() >= 64 && clmul::detected() {
            // SAFETY: detected just above
            out.push(("clmul", unsafe { clmul::update(crc, bytes) }));
        }
        out
    }

    /// Bytes `0..len` of a fixed pseudo-random stream.
    fn stream(len: usize) -> Vec<u8> {
        let mut rng = crate::rng::SplitMix64::new(0xC3C3);
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn long_known_answer_vectors_hold_on_every_path() {
        // values from the bytewise reference (zlib agrees); they pin the folding
        // path's blocks (64 and 16 bytes), its tail and its reduction
        let ramp: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let cases: [(&str, Vec<u8>, u32); 6] = [
            ("64 zeros", vec![0; 64], 0x758D_6336),
            ("64 x 0xFF", vec![0xFF; 64], 0x0F61_87BA),
            ("ramp 64", ramp[..64].to_vec(), 0x100E_CE8C),
            ("ramp 80", ramp[..80].to_vec(), 0xCA26_C3E1),
            ("ramp 1000", ramp.clone(), 0x74E3_FB41),
            ("stream 1111", stream(1111), 0x07C5_BB6A),
        ];
        for (name, bytes, want) in &cases {
            assert_eq!(bytewise(bytes), *want, "{name}: bytewise reference");
            assert_eq!(crc32(bytes), *want, "{name}: crc32");
            for (path, got) in each_path(0xFFFF_FFFF, bytes) {
                assert_eq!(got ^ 0xFFFF_FFFF, *want, "{name}: {path}");
            }
        }
    }

    #[test]
    fn folding_constants_are_the_published_ones() {
        // zlib's crc32_simd.c and Linux's crc32-pclmul_asm.S
        assert_eq!(K1K2, (0x1_5444_2BD4, 0x1_C6E4_1596));
        assert_eq!(K3K4, (0x1_7519_97D0, 0x0_CCAA_009E));
        assert_eq!(K5, 0x1_63CD_6124);
        assert_eq!(P_MU, (0x1_DB71_0641, 0x1_F701_1641));
    }

    #[test]
    fn slicing_by_8_matches_the_bytewise_reference() {
        // random lengths (every tail length mod 8) fed through random
        // `update` splits, so words straddle the calls
        let gen = (
            prop::vec_of(prop::u64_range(0, 255), 0, 200),
            prop::vec_of(prop::usize_range(0, 200), 0, 6),
        );
        prop::check("crc32_slicing_by_8_is_bytewise", &gen, |(bytes, cuts)| {
            let bytes: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
            let mut cuts: Vec<usize> = cuts.iter().map(|&c| c.min(bytes.len())).collect();
            cuts.sort_unstable();
            let mut c = Crc32::new();
            let mut at = 0;
            for cut in cuts.into_iter().chain([bytes.len()]) {
                c.update(&bytes[at..cut]);
                at = cut;
            }
            let want = bytewise(&bytes);
            if c.finish() != want || crc32(&bytes) != want {
                return Err(format!(
                    "{:08x} / {:08x} vs bytewise {want:08x}",
                    c.finish(),
                    crc32(&bytes)
                ));
            }
            Ok(())
        });
    }

    #[test]
    fn every_length_and_offset_matches_the_bytewise_reference_on_every_path() {
        // every residue mod 64 and mod 16 up to 1,100 bytes, at every
        // start offset mod 16, from a non-trivial register
        let data = stream(1100 + 16);
        for len in 0..=1100 {
            let offset = len % 16;
            let bytes = &data[offset..offset + len];
            let want = bytewise_state(0x1234_5678, bytes);
            for (path, got) in each_path(0x1234_5678, bytes) {
                assert_eq!(got, want, "{path}: len {len} offset {offset}");
            }
            assert_eq!(crc32(bytes), bytewise(bytes), "crc32: len {len} offset {offset}");
        }
    }

    #[test]
    fn folding_matches_the_reference_under_random_splits_and_offsets() {
        // long inputs, so most pieces take the folding path; random
        // `update` splits and an unaligned start
        let gen = (
            prop::usize_range(0, 1100),
            prop::usize_range(0, 15),
            prop::vec_of(prop::usize_range(0, 1100), 0, 5),
        );
        let data = stream(1100 + 16);
        prop::check("crc32_folding_is_bytewise", &gen, |(len, offset, cuts)| {
            let bytes = &data[offset..offset + len];
            let mut cuts: Vec<usize> = cuts.iter().map(|&c| c.min(len)).collect();
            cuts.sort_unstable();
            let mut c = Crc32::new();
            let mut at = 0;
            for cut in cuts.into_iter().chain([len]) {
                c.update(&bytes[at..cut]);
                at = cut;
            }
            let want = bytewise(bytes);
            if c.finish() != want {
                return Err(format!("{:08x} vs bytewise {want:08x}", c.finish()));
            }
            Ok(())
        });
    }

    #[test]
    fn streaming_matches_one_shot_at_any_split() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let want = crc32(&data);
        for split in [0, 1, 7, 500, 999, 1000] {
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), want, "split at {split}");
        }
    }

    #[test]
    fn detects_any_single_bit_flip() {
        // guaranteed property of any CRC: a single flipped bit always
        // changes the checksum. Exercise it over generated buffers with
        // a generated flip position.
        let gen = prop::flat_map(prop::vec_of(prop::u64_range(0, u64::MAX), 1, 64), |v| {
            prop::usize_range(0, v.len() * 64 - 1)
        });
        prop::check("crc32_detects_single_bit_flip", &gen, |(words, bit)| {
            let mut bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            let clean = crc32(&bytes);
            bytes[bit / 8] ^= 1 << (bit % 8);
            if crc32(&bytes) == clean {
                return Err(format!("bit flip at {bit} went undetected"));
            }
            Ok(())
        });
    }

    #[test]
    fn detects_truncation_and_extension() {
        // not a mathematical guarantee (CRCs do not encode length), but
        // deterministic under the pinned property seed — a regression
        // here means the implementation changed, not bad luck.
        let gen = prop::vec_of(prop::u64_range(0, u64::MAX), 2, 32);
        prop::check("crc32_detects_truncation", &gen, |words| {
            let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            let clean = crc32(&bytes);
            if crc32(&bytes[..bytes.len() - 1]) == clean {
                return Err("1-byte truncation went undetected".into());
            }
            let mut longer = bytes.clone();
            longer.push(0);
            if crc32(&longer) == clean {
                return Err("1-byte zero extension went undetected".into());
            }
            Ok(())
        });
    }
}
