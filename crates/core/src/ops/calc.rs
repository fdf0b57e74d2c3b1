//! The calc operator: element-wise arithmetic between two equally long
//! columns.
//!
//! SSB query flight 1 computes `SUM(lo_extendedprice * lo_discount)` and
//! flight 4 computes `lo_revenue - lo_supplycost`; both are element-wise
//! binary operations on projected intermediates, performed by this operator
//! before the final aggregation.

use morph_compression::Format;
use morph_storage::Column;
use morph_vector::emu::V512;
use morph_vector::kernels::{self, BinaryOp};
use morph_vector::scalar::Scalar;
use morph_vector::ProcessingStyle;

use crate::exec::ExecSettings;
use crate::ops::partitioned::{calc_binary_part, effective_output_format};

/// The chunk step of calc: append `a[i] op b[i]` for two equally long
/// uncompressed chunks, per processing style.
#[inline]
pub(crate) fn binary_chunk(
    style: ProcessingStyle,
    op: BinaryOp,
    a: &[u64],
    b: &[u64],
    out: &mut Vec<u64>,
) {
    match style {
        ProcessingStyle::Scalar => kernels::binary_op::<Scalar>(op, a, b, out),
        ProcessingStyle::Vectorized => kernels::binary_op::<V512>(op, a, b, out),
    }
}

/// Element-wise `lhs op rhs`, materialised in `out_format`: the chunk-range
/// kernel [`calc_binary_part`] over the whole column.
///
/// # Panics
/// Panics if the inputs do not have the same logical length.
pub fn calc_binary(
    op: BinaryOp,
    lhs: &Column,
    rhs: &Column,
    out_format: &Format,
    settings: &ExecSettings,
) -> Column {
    calc_binary_part(
        op,
        lhs,
        rhs,
        0..lhs.chunk_count(),
        &effective_output_format(out_format, settings),
        settings.style,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize, step: u64) -> Vec<u64> {
        (0..n as u64).map(|i| (i * step) % 5000 + 1).collect()
    }

    #[test]
    fn calc_matches_reference_for_all_ops() {
        let a_values = sample(4000, 13);
        let b_values = sample(4000, 29);
        let a = Column::compress(&a_values, &Format::DynBp);
        let b = Column::compress(&b_values, &Format::StaticBp(13));
        for op in [BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mul] {
            let out = calc_binary(op, &a, &b, &Format::DynBp, &ExecSettings::default());
            let expected: Vec<u64> = a_values
                .iter()
                .zip(b_values.iter())
                .map(|(&x, &y)| match op {
                    BinaryOp::Add => x.wrapping_add(y),
                    BinaryOp::Sub => x.wrapping_sub(y),
                    BinaryOp::Mul => x.wrapping_mul(y),
                })
                .collect();
            assert_eq!(out.decompress(), expected, "{op:?}");
        }
    }

    #[test]
    fn calc_output_format_and_styles() {
        let a = Column::from_slice(&sample(2000, 3));
        let b = Column::from_slice(&sample(2000, 7));
        for style in [ProcessingStyle::Scalar, ProcessingStyle::Vectorized] {
            let settings = ExecSettings {
                style,
                ..ExecSettings::default()
            };
            let out = calc_binary(BinaryOp::Mul, &a, &b, &Format::DeltaDynBp, &settings);
            assert_eq!(out.format(), &Format::DeltaDynBp);
            assert_eq!(out.logical_len(), 2000);
        }
        let plain = calc_binary(
            BinaryOp::Add,
            &a,
            &b,
            &Format::DynBp,
            &ExecSettings::scalar_uncompressed(),
        );
        assert_eq!(plain.format(), &Format::Uncompressed);
    }

    #[test]
    fn calc_on_empty_columns() {
        let empty = Column::from_slice(&[]);
        let out = calc_binary(
            BinaryOp::Add,
            &empty,
            &empty,
            &Format::DynBp,
            &ExecSettings::default(),
        );
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "equally long")]
    fn calc_rejects_length_mismatch() {
        let a = Column::from_slice(&[1, 2, 3]);
        let b = Column::from_slice(&[1, 2]);
        calc_binary(
            BinaryOp::Add,
            &a,
            &b,
            &Format::DynBp,
            &ExecSettings::default(),
        );
    }
}
