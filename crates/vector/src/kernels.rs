//! The generic vectorised kernels the engine's operators run: `select`
//! filters with [`filter_positions`], `agg` reduces with [`sum`] and [`max`],
//! and `calc` combines with [`binary_op`].  [`min`] completes the reductions;
//! no operator calls it yet.
//!
//! Every kernel is generic over a [`VectorExtension`] backend, so each call
//! site chooses between scalar and vectorised processing by a type parameter
//! — exactly the way the paper's operators are specialised through the TVL.
//! The kernels process the bulk of a slice in full registers and fall back to
//! a scalar tail loop for the remaining `len % LANES` elements.

use crate::{x86, VecCmp, VectorExtension};

/// Wrapping sum of all elements of `data`.
pub fn sum<V: VectorExtension>(data: &[u64]) -> u64 {
    let lanes = V::LANES;
    if lanes >= 4 {
        if let Some(total) = x86::try_sum(data) {
            return total;
        }
    }
    let chunks = data.len() / lanes;
    let mut acc = V::set1(0);
    for c in 0..chunks {
        let reg = V::load(&data[c * lanes..]);
        acc = V::add(acc, reg);
    }
    let mut total = V::hadd(acc);
    for &value in &data[chunks * lanes..] {
        total = total.wrapping_add(value);
    }
    total
}

/// Maximum of all elements of `data`; `0` for an empty slice.
pub fn max<V: VectorExtension>(data: &[u64]) -> u64 {
    let lanes = V::LANES;
    let chunks = data.len() / lanes;
    let mut acc = V::set1(0);
    for c in 0..chunks {
        let reg = V::load(&data[c * lanes..]);
        acc = V::max(acc, reg);
    }
    let mut result = V::hmax(acc);
    for &value in &data[chunks * lanes..] {
        result = result.max(value);
    }
    result
}

/// Scan `data` with `op(value, constant)` and append the positions of the
/// matching elements (offset by `base_pos`) to `out`.
///
/// This is the vector-register-layer core of the `select` operator.
pub fn filter_positions<V: VectorExtension>(
    op: VecCmp,
    data: &[u64],
    constant: u64,
    base_pos: u64,
    out: &mut Vec<u64>,
) {
    let lanes = V::LANES;
    if lanes >= 4 && x86::try_filter_positions(op, data, constant, base_pos, out) {
        return;
    }
    let chunks = data.len() / lanes;
    let constant_reg = V::set1(constant);
    // Worst case: every element matches.
    out.reserve(data.len());
    let mut scratch = vec![0u64; lanes];
    for c in 0..chunks {
        let offset = c * lanes;
        let reg = V::load(&data[offset..]);
        let mask = V::cmp(op, reg, constant_reg);
        if mask == 0 {
            continue;
        }
        let positions = V::set_sequence(base_pos + offset as u64, 1);
        let written = V::compress_store(&mut scratch, mask, positions);
        out.extend_from_slice(&scratch[..written]);
    }
    for (offset, &value) in data[chunks * lanes..].iter().enumerate() {
        if op.eval(value, constant) {
            out.push(base_pos + (chunks * lanes + offset) as u64);
        }
    }
}

/// Element-wise binary operation applied to two equally long slices.
///
/// All operations are **wrapping** (mod 2^64) by contract: the `calc`
/// operator must produce identical results in debug and release builds and
/// across the scalar, emulated and native (`std::arch`) backends, so no
/// path may debug-panic on u64 overflow where another silently wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
}

/// Apply `op` element-wise to `lhs` and `rhs`, appending results to `out`
/// (wrapping arithmetic on every backend; see [`BinaryOp`]).
///
/// Used by the engine's `calc` operator (e.g. `extendedprice * discount` in
/// SSB query flight 1).
pub fn binary_op<V: VectorExtension>(op: BinaryOp, lhs: &[u64], rhs: &[u64], out: &mut Vec<u64>) {
    assert_eq!(
        lhs.len(),
        rhs.len(),
        "binary_op requires equally long inputs"
    );
    let lanes = V::LANES;
    if lanes >= 4 && x86::try_binary_op(op, lhs, rhs, out) {
        return;
    }
    let chunks = lhs.len() / lanes;
    out.reserve(lhs.len());
    let mut scratch = vec![0u64; lanes];
    for c in 0..chunks {
        let offset = c * lanes;
        let a = V::load(&lhs[offset..]);
        let b = V::load(&rhs[offset..]);
        let r = match op {
            BinaryOp::Add => V::add(a, b),
            BinaryOp::Sub => V::sub(a, b),
            BinaryOp::Mul => V::mul(a, b),
        };
        V::store(&mut scratch, r);
        out.extend_from_slice(&scratch);
    }
    for i in chunks * lanes..lhs.len() {
        let value = match op {
            BinaryOp::Add => lhs[i].wrapping_add(rhs[i]),
            BinaryOp::Sub => lhs[i].wrapping_sub(rhs[i]),
            BinaryOp::Mul => lhs[i].wrapping_mul(rhs[i]),
        };
        out.push(value);
    }
}

/// Minimum of all elements of `data`; `u64::MAX` for an empty slice.
pub fn min<V: VectorExtension>(data: &[u64]) -> u64 {
    let lanes = V::LANES;
    let chunks = data.len() / lanes;
    let mut result = u64::MAX;
    if chunks > 0 {
        let mut acc = V::set1(u64::MAX);
        for c in 0..chunks {
            let reg = V::load(&data[c * lanes..]);
            acc = V::min(acc, reg);
        }
        // hmin is not part of the trait; extract the lanes of the accumulator.
        for i in 0..lanes {
            result = result.min(V::extract(acc, i));
        }
    }
    for &value in &data[chunks * lanes..] {
        result = result.min(value);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emu::{V128, V256, V512};
    use crate::scalar::Scalar;

    fn test_data(n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| (i * 2654435761) % 10_000).collect()
    }

    #[test]
    fn sum_consistent_across_backends() {
        for n in [0, 1, 7, 8, 9, 63, 64, 65, 1000] {
            let data = test_data(n);
            let expected: u64 = data.iter().sum();
            assert_eq!(sum::<Scalar>(&data), expected, "scalar n={n}");
            assert_eq!(sum::<V128>(&data), expected, "v128 n={n}");
            assert_eq!(sum::<V256>(&data), expected, "v256 n={n}");
            assert_eq!(sum::<V512>(&data), expected, "v512 n={n}");
        }
    }

    #[test]
    fn sum_wraps_like_scalar() {
        let data = vec![u64::MAX, u64::MAX, 5, u64::MAX, 17, 3, 2, 1, 9];
        let expected = data.iter().fold(0u64, |a, &b| a.wrapping_add(b));
        assert_eq!(sum::<V512>(&data), expected);
        assert_eq!(sum::<Scalar>(&data), expected);
    }

    #[test]
    fn max_and_min_consistent() {
        for n in [1, 5, 8, 100, 1001] {
            let data = test_data(n);
            let expected_max = *data.iter().max().unwrap();
            let expected_min = *data.iter().min().unwrap();
            assert_eq!(max::<V512>(&data), expected_max);
            assert_eq!(max::<Scalar>(&data), expected_max);
            assert_eq!(min::<V512>(&data), expected_min);
            assert_eq!(min::<Scalar>(&data), expected_min);
        }
        assert_eq!(max::<V256>(&[]), 0);
        assert_eq!(min::<V256>(&[]), u64::MAX);
    }

    #[test]
    fn filter_positions_matches_reference_for_all_ops_and_backends() {
        let data = test_data(517);
        let constant = 5000;
        for op in [
            VecCmp::Eq,
            VecCmp::Ne,
            VecCmp::Lt,
            VecCmp::Le,
            VecCmp::Gt,
            VecCmp::Ge,
        ] {
            let reference: Vec<u64> = data
                .iter()
                .enumerate()
                .filter(|(_, &v)| op.eval(v, constant))
                .map(|(i, _)| 100 + i as u64)
                .collect();
            let mut scalar_out = Vec::new();
            filter_positions::<Scalar>(op, &data, constant, 100, &mut scalar_out);
            assert_eq!(scalar_out, reference, "scalar {op:?}");
            let mut wide_out = Vec::new();
            filter_positions::<V512>(op, &data, constant, 100, &mut wide_out);
            assert_eq!(wide_out, reference, "v512 {op:?}");
        }
    }

    #[test]
    fn binary_ops_match_scalar_semantics() {
        let lhs = test_data(133);
        let rhs: Vec<u64> = lhs
            .iter()
            .map(|v| v.wrapping_mul(3).wrapping_add(7))
            .collect();
        for op in [BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mul] {
            let mut out = Vec::new();
            binary_op::<V512>(op, &lhs, &rhs, &mut out);
            for i in 0..lhs.len() {
                let expected = match op {
                    BinaryOp::Add => lhs[i].wrapping_add(rhs[i]),
                    BinaryOp::Sub => lhs[i].wrapping_sub(rhs[i]),
                    BinaryOp::Mul => lhs[i].wrapping_mul(rhs[i]),
                };
                assert_eq!(out[i], expected);
            }
        }
    }

    #[test]
    #[should_panic(expected = "equally long")]
    fn binary_op_rejects_length_mismatch() {
        let mut out = Vec::new();
        binary_op::<Scalar>(BinaryOp::Add, &[1, 2, 3], &[1, 2], &mut out);
    }
}
