//! The generic vectorised kernels the engine's operators run: `select`
//! filters with [`filter_positions`], `agg` reduces with [`sum`] and [`max`],
//! and `calc` combines with [`binary_op`].
//!
//! Every kernel is generic over a [`VectorExtension`] backend, so each call
//! site chooses between scalar and vectorised processing by a type parameter
//! — exactly the way the paper's operators are specialised through the TVL.
//! The kernels process the bulk of a slice in full registers and fall back to
//! a scalar tail loop for the remaining `len % LANES` elements.
//!
//! Every kernel that turns a predicate into a position list — the select
//! filters, the range select and the semi-join probe
//! ([`crate::keys::KeySet::probe_positions`]) — compacts through one
//! branch-free primitive, [`compact_positions`]; on AVX2 the comparison
//! filter of the wide backends compacts in registers instead
//! ([`crate::x86::try_filter_positions`]).

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

/// Append `base_pos + i` to `out` for every `i` with `keep(data[i])`, in
/// ascending order — the position compaction under every filter kernel.
///
/// The loop has no data-dependent branch: every candidate position is
/// written to the next free output element and the output length advances
/// by the predicate's bit, so selectivity costs no mispredictions.  The
/// output grows by one block of candidates at a time, so the slots written
/// ahead stay cache-resident however long `data` is.
#[inline(always)]
pub fn compact_positions(
    data: &[u64],
    base_pos: u64,
    out: &mut Vec<u64>,
    keep: impl Fn(u64) -> bool,
) {
    const BLOCK: usize = 256;
    let mut position = base_pos;
    for block in data.chunks(BLOCK) {
        let start = out.len();
        out.resize(start + block.len(), 0);
        let candidates = &mut out[start..];
        let mut kept = 0usize;
        for &value in block {
            candidates[kept] = position;
            position += 1;
            kept += keep(value) as usize;
        }
        out.truncate(start + kept);
    }
}

/// Scan `data` with `op(value, constant)` and append the positions of the
/// matching elements (offset by `base_pos`) to `out`.
///
/// This is the vector-register-layer core of the `select` operator.  The
/// wide backends take the AVX2 kernel where the CPU has it; every other
/// case is one [`compact_positions`] pass, monomorphised per predicate.
pub fn filter_positions<V: VectorExtension>(
    op: VecCmp,
    data: &[u64],
    constant: u64,
    base_pos: u64,
    out: &mut Vec<u64>,
) {
    if V::LANES >= 4 && x86::try_filter_positions(op, data, constant, base_pos, out) {
        return;
    }
    match op {
        VecCmp::Eq => compact_positions(data, base_pos, out, |v| v == constant),
        VecCmp::Ne => compact_positions(data, base_pos, out, |v| v != constant),
        VecCmp::Lt => compact_positions(data, base_pos, out, |v| v < constant),
        VecCmp::Le => compact_positions(data, base_pos, out, |v| v <= constant),
        VecCmp::Gt => compact_positions(data, base_pos, out, |v| v > constant),
        VecCmp::Ge => compact_positions(data, base_pos, out, |v| v >= constant),
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

#[cfg(test)]
pub(crate) mod tests {
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
    fn max_consistent() {
        for n in [1, 5, 8, 100, 1001] {
            let data = test_data(n);
            let expected_max = *data.iter().max().unwrap();
            assert_eq!(max::<V512>(&data), expected_max);
            assert_eq!(max::<Scalar>(&data), expected_max);
        }
        assert_eq!(max::<V256>(&[]), 0);
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

    /// Selectivities (in %) and chunk lengths every position kernel is
    /// checked at.
    pub(crate) const SELECTIVITIES: [u64; 5] = [0, 10, 50, 90, 100];
    pub(crate) const CHUNK_LENS: [usize; 11] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 2048];

    /// Whether position `i` of a test chunk should be a hit at
    /// `selectivity` %: a scrambled, exactly proportional hit pattern.
    pub(crate) fn is_hit(i: usize, selectivity: u64) -> bool {
        (i as u64).wrapping_mul(37).wrapping_add(11) % 100 < selectivity
    }

    /// Naive reference: `prefix`, then `base + i` for every `keep(data[i])`.
    pub(crate) fn naive(
        prefix: &[u64],
        data: &[u64],
        base: u64,
        keep: impl Fn(u64) -> bool,
    ) -> Vec<u64> {
        let hits = (0..data.len() as u64).filter(|&i| keep(data[i as usize]));
        prefix
            .iter()
            .copied()
            .chain(hits.map(|i| base + i))
            .collect()
    }

    #[test]
    fn compact_positions_appends_the_naive_positions() {
        for len in CHUNK_LENS {
            for selectivity in SELECTIVITIES {
                let data: Vec<u64> = (0..len).map(|i| is_hit(i, selectivity) as u64).collect();
                let mut out = vec![3, 1, 4];
                compact_positions(&data, 1000, &mut out, |v| v == 1);
                let expected = naive(&[3, 1, 4], &data, 1000, |v| v == 1);
                assert_eq!(out, expected, "len {len}, {selectivity} %");
                let hits = (0..len).filter(|&i| is_hit(i, selectivity)).count();
                assert_eq!(out.len() - 3, hits, "len {len}, {selectivity} %");
            }
        }
    }

    const PIVOT: u64 = 50;

    /// A chunk of `len` values hitting `op` against [`PIVOT`] exactly at
    /// the positions [`is_hit`] picks, cycling through the hitting and the
    /// missing values of {0, 49, 50, 51, u64::MAX}.
    fn chunk_for(op: VecCmp, len: usize, selectivity: u64) -> Vec<u64> {
        let pool = [0, PIVOT - 1, PIVOT, PIVOT + 1, u64::MAX];
        let hits: Vec<u64> = pool.into_iter().filter(|&v| op.eval(v, PIVOT)).collect();
        let misses: Vec<u64> = pool.into_iter().filter(|&v| !op.eval(v, PIVOT)).collect();
        (0..len)
            .map(|i| {
                let side = if is_hit(i, selectivity) {
                    &hits
                } else {
                    &misses
                };
                side[i % side.len()]
            })
            .collect()
    }

    fn filter_matches_naive<V: VectorExtension>() {
        for op in [
            VecCmp::Eq,
            VecCmp::Ne,
            VecCmp::Lt,
            VecCmp::Le,
            VecCmp::Gt,
            VecCmp::Ge,
        ] {
            for len in CHUNK_LENS {
                for selectivity in SELECTIVITIES {
                    let data = chunk_for(op, len, selectivity);
                    let mut out = vec![9, 9];
                    filter_positions::<V>(op, &data, PIVOT, 77, &mut out);
                    let expected = naive(&[9, 9], &data, 77, |v| op.eval(v, PIVOT));
                    let label = format!("{} lanes, {op:?}, len {len}, {selectivity} %", V::LANES);
                    assert_eq!(out, expected, "{label}");
                    let hits = (0..len).filter(|&i| is_hit(i, selectivity)).count();
                    assert_eq!(out.len() - 2, hits, "{label}");
                }
            }
        }
    }

    #[test]
    fn filter_positions_appends_the_naive_positions_on_every_backend() {
        filter_matches_naive::<Scalar>();
        filter_matches_naive::<V128>();
        filter_matches_naive::<V256>();
        filter_matches_naive::<V512>();
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
