//! Optional `std::arch` kernels for x86_64 (AVX2).
//!
//! The original MorphStore uses AVX-512 intrinsics through the TVL.  Here a
//! small set of AVX2 kernels covers the inner loops of a compressed scan:
//! the bit-unpack under every bit-packed cursor ([`try_unpack`]), the
//! comparison scan with its lookup-table position compaction
//! ([`try_filter_positions`]), summation and element-wise arithmetic.  They
//! are selected at run time via [`avx2_available`] and always have portable
//! fallbacks (in [`crate::kernels`], and the scalar bit walker of
//! `morph_compression::bitpack`); on non-x86_64 targets every `try_*`
//! reports that it did nothing and [`avx2_available`] returns `false`.
//!
//! This module is the only place in the workspace with `unsafe` code.

#![allow(unsafe_code)]

use crate::VecCmp;

/// Returns `true` if the current CPU supports AVX2 (always `false` on
/// non-x86_64 targets).
#[inline]
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Widest bit width the AVX2 unpack handles: a value starts at most 7 bits
/// into the 8-byte word read at its first byte, so `7 + 57 = 64` bits still
/// fit one word.
pub const MAX_UNPACK_WIDTH: u8 = 57;

/// Number of whole 8-value groups [`try_unpack`] decodes from the front of a
/// `payload_len`-byte stream of `count` values of `width` bits: the longest
/// prefix of groups within `count` whose every 8-byte read — the word at
/// the byte holding a value's first bit — ends inside the payload.  0 for a
/// width outside `1..=`[`MAX_UNPACK_WIDTH`].
///
/// Every whole group ends on a byte boundary (`8 * width` bits), so the
/// caller resumes a scalar walk at byte `groups * width`.
pub fn unpack_groups(payload_len: usize, width: u8, count: usize) -> usize {
    if !(1..=MAX_UNPACK_WIDTH).contains(&width) {
        return 0;
    }
    // Value `v` is readable iff the word at byte `v * width / 8` fits:
    // `v * width / 8 + 8 <= payload_len`.
    let Some(last_word) = payload_len.checked_sub(8) else {
        return 0;
    };
    let readable = (last_word * 8 + 7) / width as usize + 1;
    readable.min(count) / 8
}

/// Unpack the first [`unpack_groups`]`(bytes.len(), width, count)` groups
/// of 8 `width`-bit values from the little-endian bit stream `bytes` (the
/// layout of `morph_compression::bitpack`), appending them to `out`.
///
/// Returns the number of values appended: a multiple of 8, and 0 without
/// AVX2 (non-x86_64 target or AVX2 not available), in which case the
/// caller decodes everything with its portable walker.
#[inline]
pub fn try_unpack(bytes: &[u8], width: u8, count: usize, out: &mut Vec<u64>) -> usize {
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_available() {
            // SAFETY: AVX2 support was verified at run time immediately above.
            return unsafe { unpack_avx2(bytes, width, count, out) };
        }
    }
    let _ = (bytes, width, count, out);
    0
}

/// Scan `data` with `predicate(value, constant)` and append the *positions*
/// (offset by `base_pos`) of matching elements to `out`.
///
/// Positions are compacted without a per-lane branch: each 4-lane compare
/// mask selects a row of a 16-entry permutation table, the permuted
/// positions are stored at the output's end, and the end advances by the
/// mask's population count.
///
/// Returns `true` if the AVX2 path was taken, `false` if the caller must use
/// the portable fallback (non-x86_64 target or AVX2 not available).
#[inline]
pub fn try_filter_positions(
    op: VecCmp,
    data: &[u64],
    constant: u64,
    base_pos: u64,
    out: &mut Vec<u64>,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_available() {
            // SAFETY: AVX2 support was verified at run time immediately above.
            unsafe { filter_positions_avx2(op, data, constant, base_pos, out) };
            return true;
        }
    }
    let _ = (op, data, constant, base_pos, out);
    false
}

/// Sum `data` with wrapping arithmetic using AVX2 if available.
///
/// Returns `Some(sum)` if the AVX2 path was taken and `None` otherwise.
#[inline]
pub fn try_sum(data: &[u64]) -> Option<u64> {
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_available() {
            // SAFETY: AVX2 support was verified at run time immediately above.
            return Some(unsafe { sum_avx2(data) });
        }
    }
    let _ = data;
    None
}

/// Apply `op` element-wise to `lhs` and `rhs` with AVX2 if available,
/// appending results to `out`.
///
/// All three operations use **wrapping** (mod 2^64) arithmetic, matching
/// the scalar and emulated backends in release *and* debug builds —
/// `_mm256_add/sub_epi64` wrap inherently, and the multiplication is
/// composed from `_mm256_mul_epu32` partial products, which computes the
/// low 64 bits of the full product exactly.
///
/// Returns `true` if the AVX2 path was taken, `false` if the caller must
/// use the portable fallback.
#[inline]
pub fn try_binary_op(
    op: crate::kernels::BinaryOp,
    lhs: &[u64],
    rhs: &[u64],
    out: &mut Vec<u64>,
) -> bool {
    debug_assert_eq!(lhs.len(), rhs.len());
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_available() {
            // SAFETY: AVX2 support was verified at run time immediately above.
            unsafe { binary_op_avx2(op, lhs, rhs, out) };
            return true;
        }
    }
    let _ = (op, lhs, rhs, out);
    false
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::*;
    use std::arch::x86_64::*;

    /// Bias added to flip unsigned 64-bit comparisons into signed ones
    /// (`_mm256_cmpgt_epi64` is a signed comparison).
    const SIGN_BIAS: i64 = i64::MIN;

    /// Row `mask` of the compaction table: the 32-bit lane indices that
    /// move the 64-bit lanes whose bit is set in the 4-bit `mask` to the
    /// front, in lane order (the unused tail of a row is don't-care).
    const fn compaction_row(mask: usize) -> [i32; 8] {
        let mut row = [0i32; 8];
        let (mut lane, mut kept) = (0usize, 0usize);
        while lane < 4 {
            if mask >> lane & 1 == 1 {
                row[2 * kept] = 2 * lane as i32;
                row[2 * kept + 1] = 2 * lane as i32 + 1;
                kept += 1;
            }
            lane += 1;
        }
        row
    }

    const COMPACTION: [[i32; 8]; 16] = {
        let mut table = [[0i32; 8]; 16];
        let mut mask = 0usize;
        while mask < 16 {
            table[mask] = compaction_row(mask);
            mask += 1;
        }
        table
    };

    /// Unpack the first [`unpack_groups`] groups of 8 values: per 4 lanes,
    /// gather the 8-byte word at each value's first byte (`bit >> 3`),
    /// shift it right by the bit offset within that byte (`bit & 7`) and
    /// mask it to `width` bits.  Returns the number of values appended.
    #[target_feature(enable = "avx2")]
    pub(super) fn unpack_avx2(bytes: &[u8], width: u8, count: usize, out: &mut Vec<u64>) -> usize {
        let values = unpack_groups(bytes.len(), width, count) * 8;
        if values == 0 {
            return 0;
        }
        out.reserve(values);
        let start = out.len();
        // SAFETY: `reserve` made room for `values` more elements past `start`.
        let dst = unsafe { out.as_mut_ptr().add(start) };
        let src = bytes.as_ptr() as *const i64;
        let w = width as i64;
        // `width <= MAX_UNPACK_WIDTH`, or `unpack_groups` would be 0.
        let mask = _mm256_set1_epi64x(((1u64 << width) - 1) as i64);
        let byte_bits = _mm256_set1_epi64x(7);
        let step = _mm256_set1_epi64x(4 * w);
        let mut bits = _mm256_setr_epi64x(0, w, 2 * w, 3 * w);
        let mut i = 0usize;
        while i < values {
            let offsets = _mm256_srli_epi64(bits, 3);
            let shifts = _mm256_and_si256(bits, byte_bits);
            // SAFETY: lanes hold values `i..i + 4`, all below `values`, so
            // `unpack_groups` guarantees each 8-byte word at `offsets`
            // ends inside `bytes`.
            let words = unsafe { _mm256_i64gather_epi64::<1>(src, offsets) };
            let unpacked = _mm256_and_si256(_mm256_srlv_epi64(words, shifts), mask);
            // SAFETY: `i + 4 <= values` (a multiple of 4), inside the
            // reserved spare capacity.
            unsafe { _mm256_storeu_si256(dst.add(i) as *mut __m256i, unpacked) };
            bits = _mm256_add_epi64(bits, step);
            i += 4;
        }
        // SAFETY: the loop initialised exactly `values` elements past `start`.
        unsafe { out.set_len(start + values) };
        values
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn filter_positions_avx2(
        op: VecCmp,
        data: &[u64],
        constant: u64,
        base_pos: u64,
        out: &mut Vec<u64>,
    ) {
        // One loop per predicate, so the compare is not re-dispatched per
        // vector.
        match op {
            VecCmp::Eq => filter_with::<EQ>(op, data, constant, base_pos, out),
            VecCmp::Ne => filter_with::<NE>(op, data, constant, base_pos, out),
            VecCmp::Lt => filter_with::<LT>(op, data, constant, base_pos, out),
            VecCmp::Le => filter_with::<LE>(op, data, constant, base_pos, out),
            VecCmp::Gt => filter_with::<GT>(op, data, constant, base_pos, out),
            VecCmp::Ge => filter_with::<GE>(op, data, constant, base_pos, out),
        }
    }

    /// `VecCmp` as a const parameter of [`filter_with`].
    const EQ: u8 = 0;
    const NE: u8 = 1;
    const LT: u8 = 2;
    const LE: u8 = 3;
    const GT: u8 = 4;
    const GE: u8 = 5;

    /// The 4-bit mask of the lanes of `v` satisfying predicate `OP` against
    /// the constant (`plain`, and `biased` = constant ^ [`SIGN_BIAS`]).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn match_mask<const OP: u8>(v: __m256i, plain: __m256i, biased: __m256i) -> usize {
        let biased_v = _mm256_xor_si256(v, _mm256_set1_epi64x(SIGN_BIAS));
        let matches = match OP {
            EQ | NE => _mm256_cmpeq_epi64(v, plain),
            GT | LE => _mm256_cmpgt_epi64(biased_v, biased),
            _ => _mm256_cmpgt_epi64(biased, biased_v),
        };
        let mask = _mm256_movemask_pd(_mm256_castsi256_pd(matches)) as usize;
        // NE, LE and GE are the complements of EQ, GT and LT.
        match OP {
            NE | LE | GE => mask ^ 0b1111,
            _ => mask,
        }
    }

    /// The filter loop for predicate `OP`; `op` is the same predicate, for
    /// the scalar tail.
    #[target_feature(enable = "avx2")]
    fn filter_with<const OP: u8>(
        op: VecCmp,
        data: &[u64],
        constant: u64,
        base_pos: u64,
        out: &mut Vec<u64>,
    ) {
        let n = data.len();
        out.reserve(n);
        let start = out.len();
        // Every store below writes 4 lanes from `hits <= i`, with
        // `i + 4 <= n`, and every tail write one lane at `hits <= i < n`:
        // all inside the `n` reserved elements past `start`.
        // SAFETY: `reserve` made room for `n` more elements past `start`.
        let dst = unsafe { out.as_mut_ptr().add(start) };
        let mut hits = 0usize;
        let plain = _mm256_set1_epi64x(constant as i64);
        let biased = _mm256_set1_epi64x((constant as i64) ^ SIGN_BIAS);
        let mut positions = _mm256_add_epi64(
            _mm256_set1_epi64x(base_pos as i64),
            _mm256_setr_epi64x(0, 1, 2, 3),
        );
        let four = _mm256_set1_epi64x(4);
        let mut i = 0usize;
        while i + 4 <= n {
            // SAFETY: `i + 4 <= n` guarantees the 32-byte read stays in bounds.
            let v = unsafe { _mm256_loadu_si256(data.as_ptr().add(i) as *const __m256i) };
            let mask = match_mask::<OP>(v, plain, biased);
            // SAFETY: `COMPACTION[mask]` is 8 i32 = 32 bytes, exactly one
            // vector (`mask < 16`: movemask_pd sets only the low 4 bits).
            let row = unsafe { _mm256_loadu_si256(COMPACTION[mask].as_ptr() as *const __m256i) };
            let kept = _mm256_permutevar8x32_epi32(positions, row);
            // SAFETY: `hits <= i` and `i + 4 <= n` (see above).
            unsafe { _mm256_storeu_si256(dst.add(hits) as *mut __m256i, kept) };
            hits += mask.count_ones() as usize;
            positions = _mm256_add_epi64(positions, four);
            i += 4;
        }
        for (j, &value) in data.iter().enumerate().skip(i) {
            // SAFETY: `hits <= j < n` (see above).
            unsafe { dst.add(hits).write(base_pos + j as u64) };
            hits += op.eval(value, constant) as usize;
        }
        // SAFETY: the first `hits` elements past `start` were written above.
        unsafe { out.set_len(start + hits) };
    }

    /// Wrapping 64-bit multiply from 32-bit partial products:
    /// `lo(a*b) = a_lo*b_lo + ((a_lo*b_hi + a_hi*b_lo) << 32)` (mod 2^64).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn mul_epi64_wrapping(a: __m256i, b: __m256i) -> __m256i {
        let a_hi = _mm256_srli_epi64(a, 32);
        let b_hi = _mm256_srli_epi64(b, 32);
        let lo_lo = _mm256_mul_epu32(a, b);
        let lo_hi = _mm256_mul_epu32(a, b_hi);
        let hi_lo = _mm256_mul_epu32(a_hi, b);
        let cross = _mm256_add_epi64(lo_hi, hi_lo);
        _mm256_add_epi64(lo_lo, _mm256_slli_epi64(cross, 32))
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn binary_op_avx2(
        op: crate::kernels::BinaryOp,
        lhs: &[u64],
        rhs: &[u64],
        out: &mut Vec<u64>,
    ) {
        use crate::kernels::BinaryOp;
        let n = lhs.len();
        out.reserve(n);
        let mut scratch = [0u64; 4];
        let mut i = 0usize;
        while i + 4 <= n {
            // SAFETY: `i + 4 <= n` guarantees the 32-byte reads stay in bounds.
            let a = unsafe { _mm256_loadu_si256(lhs.as_ptr().add(i) as *const __m256i) };
            // SAFETY: `lhs.len() == rhs.len()` (asserted by the caller), so
            // the same bound covers the second read.
            let b = unsafe { _mm256_loadu_si256(rhs.as_ptr().add(i) as *const __m256i) };
            let r = match op {
                BinaryOp::Add => _mm256_add_epi64(a, b),
                BinaryOp::Sub => _mm256_sub_epi64(a, b),
                BinaryOp::Mul => mul_epi64_wrapping(a, b),
            };
            // SAFETY: `scratch` is 4 u64 = 32 bytes, exactly one vector.
            unsafe { _mm256_storeu_si256(scratch.as_mut_ptr() as *mut __m256i, r) };
            out.extend_from_slice(&scratch);
            i += 4;
        }
        for j in i..n {
            let value = match op {
                BinaryOp::Add => lhs[j].wrapping_add(rhs[j]),
                BinaryOp::Sub => lhs[j].wrapping_sub(rhs[j]),
                BinaryOp::Mul => lhs[j].wrapping_mul(rhs[j]),
            };
            out.push(value);
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn sum_avx2(data: &[u64]) -> u64 {
        let n = data.len();
        let mut acc = _mm256_setzero_si256();
        let mut i = 0usize;
        while i + 4 <= n {
            // SAFETY: `i + 4 <= n` guarantees the 32-byte read stays in bounds.
            let v = unsafe { _mm256_loadu_si256(data.as_ptr().add(i) as *const __m256i) };
            acc = _mm256_add_epi64(acc, v);
            i += 4;
        }
        let mut lanes = [0u64; 4];
        // SAFETY: `lanes` is 4 u64 = 32 bytes, exactly one vector.
        unsafe { _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc) };
        let mut total = lanes.iter().fold(0u64, |a, &b| a.wrapping_add(b));
        for &value in &data[i..] {
            total = total.wrapping_add(value);
        }
        total
    }
}

#[cfg(target_arch = "x86_64")]
use avx2::{binary_op_avx2, filter_positions_avx2, sum_avx2, unpack_avx2};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_does_not_panic() {
        // Just exercise the detection path; the result is hardware-dependent.
        let _ = avx2_available();
    }

    /// `unpack_groups` by brute force: walk the values in order until one's
    /// 8-byte read would end past the payload, then round down to a group.
    fn groups_by_walking(payload_len: usize, width: u8, count: usize) -> usize {
        let fits = |v: usize| v * width as usize / 8 + 8 <= payload_len;
        (0..count).take_while(|&v| fits(v)).count() / 8
    }

    #[test]
    fn unpack_groups_is_exact_at_the_payload_boundary() {
        let counts = (0..=200).chain([511, 512, 513, 2047, 2048, 2049]);
        for count in counts {
            for width in 1..=MAX_UNPACK_WIDTH {
                let packed = (count * width as usize).div_ceil(8);
                for payload_len in packed..=packed + 8 {
                    assert_eq!(
                        unpack_groups(payload_len, width, count),
                        groups_by_walking(payload_len, width, count),
                        "count {count}, width {width}, payload {payload_len}"
                    );
                }
            }
            for width in [0, MAX_UNPACK_WIDTH + 1, 64] {
                assert_eq!(unpack_groups(1 << 20, width, count), 0, "width {width}");
            }
        }
    }

    #[test]
    fn unpack_appends_whole_groups_of_the_stream() {
        // Width 13, values `v * 5 % 8192`, packed by hand.
        let values: Vec<u64> = (0..100u64).map(|v| v * 5 % 8192).collect();
        let mut bytes = vec![0u8; (values.len() * 13).div_ceil(8)];
        for (v, &value) in values.iter().enumerate() {
            for bit in 0..13 {
                let at = v * 13 + bit;
                bytes[at / 8] |= ((value >> bit & 1) as u8) << (at % 8);
            }
        }
        let mut out = vec![42];
        let done = try_unpack(&bytes, 13, values.len(), &mut out);
        if avx2_available() {
            assert_eq!(done, unpack_groups(bytes.len(), 13, values.len()) * 8);
            assert!(done >= 88, "all but the last groups: {done}");
        } else {
            assert_eq!(done, 0);
        }
        assert_eq!(out[0], 42);
        assert_eq!(&out[1..], &values[..done]);
    }

    #[test]
    fn filter_positions_matches_portable_reference() {
        let data: Vec<u64> = (0..1003).map(|i| (i * 7919) % 1000).collect();
        for op in [
            VecCmp::Eq,
            VecCmp::Ne,
            VecCmp::Lt,
            VecCmp::Le,
            VecCmp::Gt,
            VecCmp::Ge,
        ] {
            let mut fast = Vec::new();
            let taken = try_filter_positions(op, &data, 500, 10, &mut fast);
            let reference: Vec<u64> = data
                .iter()
                .enumerate()
                .filter(|(_, &v)| op.eval(v, 500))
                .map(|(i, _)| 10 + i as u64)
                .collect();
            if taken {
                assert_eq!(fast, reference, "mismatch for {op:?}");
            }
        }
    }

    #[test]
    fn filter_positions_handles_large_values() {
        // Values above i64::MAX exercise the sign-bias trick for unsigned
        // comparisons.
        let data = vec![u64::MAX, 1, u64::MAX - 1, 2, 3, u64::MAX, 0, 5, 9];
        let mut fast = Vec::new();
        let taken = try_filter_positions(VecCmp::Gt, &data, u64::MAX - 1, 0, &mut fast);
        if taken {
            assert_eq!(fast, vec![0, 5]);
        }
    }

    #[test]
    fn sum_matches_portable_reference() {
        let data: Vec<u64> = (0..997).collect();
        if let Some(total) = try_sum(&data) {
            assert_eq!(total, 996 * 997 / 2);
        }
        let data = vec![u64::MAX, 2, u64::MAX, 5];
        if let Some(total) = try_sum(&data) {
            let expected = data.iter().fold(0u64, |a, &b| a.wrapping_add(b));
            assert_eq!(total, expected);
        }
    }
}
