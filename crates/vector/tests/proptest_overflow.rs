//! Overflow-edge property tests for the kernels the engine runs.
//!
//! The [`morph_vector::kernels::BinaryOp`] contract is wrapping (mod 2^64)
//! arithmetic on *every* backend — scalar, the emulated wide registers and
//! the native AVX2 path — in debug and release builds alike.  A backend
//! that used plain `+`/`*` would debug-panic (or, worse, diverge) exactly
//! on the overflow edges, so the generator here deliberately concentrates
//! values around `u64::MAX`, `2^63` and other carry boundaries.
//!
//! The comparisons are unsigned on every backend; the AVX2 filter gets
//! there by biasing both sides into a signed compare, which only values at
//! or above `2^63` can tell apart from a plain signed compare.

use morph_vector::emu::{V128, V256, V512};
use morph_vector::kernels::{self, BinaryOp};
use morph_vector::scalar::Scalar;
use morph_vector::{VecCmp, VectorExtension};
use proptest::prelude::*;

/// A value clustered on the overflow edges: all-ones, the sign boundary,
/// single-bit values and small offsets from each.
fn edge_value() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(1u64),
        Just(u64::MAX),
        Just(u64::MAX - 1),
        Just(1u64 << 63),
        Just((1u64 << 63) - 1),
        Just(1u64 << 32),
        Just((1u64 << 32) - 1),
        any::<u64>(),
        (0u64..16).prop_map(|d| u64::MAX - d),
        (0u64..16).prop_map(|d| (1u64 << 63).wrapping_add(d)),
    ]
}

fn edge_values(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(edge_value(), len)
}

const CMP_OPS: [VecCmp; 6] = [
    VecCmp::Eq,
    VecCmp::Ne,
    VecCmp::Lt,
    VecCmp::Le,
    VecCmp::Gt,
    VecCmp::Ge,
];

fn filter_with<V: VectorExtension>(
    op: VecCmp,
    values: &[u64],
    constant: u64,
    base_pos: u64,
) -> Vec<u64> {
    let mut out = Vec::new();
    kernels::filter_positions::<V>(op, values, constant, base_pos, &mut out);
    out
}

fn reference(op: BinaryOp, lhs: &[u64], rhs: &[u64]) -> Vec<u64> {
    lhs.iter()
        .zip(rhs.iter())
        .map(|(&a, &b)| match op {
            BinaryOp::Add => a.wrapping_add(b),
            BinaryOp::Sub => a.wrapping_sub(b),
            BinaryOp::Mul => a.wrapping_mul(b),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn binary_ops_wrap_identically_on_every_backend(
        pairs in edge_values(0..300).prop_map(|mut v| {
            // Split one generated vector into two equal halves so the
            // operands share the edge-value distribution.
            let half = v.len() / 2;
            let mut rhs = v.split_off(half);
            rhs.truncate(v.len());
            (v, rhs)
        })
    ) {
        let (lhs, rhs) = pairs;
        for op in [BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mul] {
            let expected = reference(op, &lhs, &rhs);
            let mut scalar = Vec::new();
            kernels::binary_op::<Scalar>(op, &lhs, &rhs, &mut scalar);
            prop_assert_eq!(&scalar, &expected, "scalar {:?}", op);
            let mut v128 = Vec::new();
            kernels::binary_op::<V128>(op, &lhs, &rhs, &mut v128);
            prop_assert_eq!(&v128, &expected, "v128 {:?}", op);
            // V256/V512 take the AVX2 path when the host supports it, the
            // emulated lane loops otherwise — either way the results must
            // be the wrapping reference.
            let mut v256 = Vec::new();
            kernels::binary_op::<V256>(op, &lhs, &rhs, &mut v256);
            prop_assert_eq!(&v256, &expected, "v256 {:?}", op);
            let mut v512 = Vec::new();
            kernels::binary_op::<V512>(op, &lhs, &rhs, &mut v512);
            prop_assert_eq!(&v512, &expected, "v512 {:?}", op);
        }
    }

    #[test]
    fn sums_wrap_identically_on_every_backend(values in edge_values(0..300)) {
        let expected = values.iter().fold(0u64, |a, &b| a.wrapping_add(b));
        prop_assert_eq!(kernels::sum::<Scalar>(&values), expected);
        prop_assert_eq!(kernels::sum::<V128>(&values), expected);
        prop_assert_eq!(kernels::sum::<V256>(&values), expected);
        prop_assert_eq!(kernels::sum::<V512>(&values), expected);
    }

    #[test]
    fn comparisons_and_reductions_agree_on_every_backend(
        values in edge_values(0..300),
        constant in edge_value(),
        // At most 300 positions follow `base_pos`, so none overflows.
        base_pos in edge_value().prop_map(|v| v.min(u64::MAX - 300)),
    ) {
        for op in CMP_OPS {
            let expected: Vec<u64> = values
                .iter()
                .enumerate()
                .filter(|(_, &v)| op.eval(v, constant))
                .map(|(i, _)| base_pos + i as u64)
                .collect();
            // V256/V512 take the AVX2 filter when the host supports it.
            let scalar = filter_with::<Scalar>(op, &values, constant, base_pos);
            prop_assert_eq!(&scalar, &expected, "scalar {:?}", op);
            let v128 = filter_with::<V128>(op, &values, constant, base_pos);
            prop_assert_eq!(&v128, &expected, "v128 {:?}", op);
            let v256 = filter_with::<V256>(op, &values, constant, base_pos);
            prop_assert_eq!(&v256, &expected, "v256 {:?}", op);
            let v512 = filter_with::<V512>(op, &values, constant, base_pos);
            prop_assert_eq!(&v512, &expected, "v512 {:?}", op);
        }
        // `sum` on this distribution is `sums_wrap_identically_on_every_backend`.
        let max = values.iter().copied().max().unwrap_or(0);
        prop_assert_eq!(kernels::max::<Scalar>(&values), max);
        prop_assert_eq!(kernels::max::<V128>(&values), max);
        prop_assert_eq!(kernels::max::<V256>(&values), max);
        prop_assert_eq!(kernels::max::<V512>(&values), max);
    }
}

/// The AVX2 kernel (when the host has it) must agree with the wrapping
/// reference on a deterministic sweep of the worst edges — kept as a plain
/// test so a failure pinpoints the native path.
#[test]
fn native_path_agrees_on_deterministic_edges() {
    let edges = [
        0u64,
        1,
        2,
        u64::MAX,
        u64::MAX - 1,
        1 << 63,
        (1 << 63) - 1,
        (1 << 63) + 1,
        1 << 32,
        (1 << 32) - 1,
        (1 << 32) + 1,
        0x9E37_79B9_7F4A_7C15,
    ];
    let mut lhs = Vec::new();
    let mut rhs = Vec::new();
    for &a in &edges {
        for &b in &edges {
            lhs.push(a);
            rhs.push(b);
        }
    }
    for op in [BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mul] {
        let expected = reference(op, &lhs, &rhs);
        let mut native_or_emulated = Vec::new();
        kernels::binary_op::<V256>(op, &lhs, &rhs, &mut native_or_emulated);
        assert_eq!(native_or_emulated, expected, "{op:?}");
        let mut taken = Vec::new();
        if morph_vector::x86::try_binary_op(op, &lhs, &rhs, &mut taken) {
            assert_eq!(taken, expected, "avx2 {op:?}");
        }
    }
}
