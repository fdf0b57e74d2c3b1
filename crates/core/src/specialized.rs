//! Specialized operators: query operators that process compressed data
//! *directly*, without decompressing it (Figure 2(c) of the paper).
//!
//! These kernels exploit format-specific structure to shortcut the operator
//! execution, exactly as described for RLE by Abadi et al. and summarised in
//! Section 2.2 of the paper:
//!
//! * a selection on RLE data compares each *run value* once and, on a match,
//!   emits a whole run of consecutive positions,
//! * a summation on RLE data adds up `value * run_length` products,
//! * a summation on FOR + BP data adds, per block, `block_size * reference`
//!   plus the sum of the packed offsets (the offsets are decoded, but the
//!   reference shortcut halves the arithmetic on narrow-range data).
//!
//! Only a few (operator, format) combinations are specialized — supporting
//! all combinations would require `n^(i+o)` variants per operator (Section
//! 3.2), which is exactly why the paper proposes to employ specialized
//! operators only selectively and to fall back to on-the-fly
//! de/re-compression otherwise.

use morph_compression::{rle, Format};
use morph_storage::{Column, ColumnBuilder};

use crate::ops::select::Predicate;

/// Select on an RLE-compressed column: the predicate is evaluated once per
/// run; matching runs contribute `run_length` consecutive positions.
///
/// Matching runs are emitted straight into the builder's cache-resident
/// buffer ([`ColumnBuilder::push_run`]) — no scratch `Vec` is materialised
/// per run, so an arbitrarily long run costs no allocation beyond the
/// builder's fixed 16 KiB buffer.
///
/// The uncompressed remainder of the column (if any) is processed
/// element-wise.
///
/// # Panics
/// Panics if `input` is not RLE-compressed.
pub fn select_on_rle(input: &Column, pred: &Predicate, out_format: &Format) -> Column {
    assert_eq!(
        input.format(),
        &Format::Rle,
        "select_on_rle requires an RLE-compressed input"
    );
    let mut builder = ColumnBuilder::new(*out_format);
    let mut position = 0u64;
    rle::for_each_run(
        input.main_part_bytes(),
        input.main_part_len(),
        &mut |value, run_len| {
            if pred.matches(value) {
                builder.push_run(position, run_len);
            }
            position += run_len;
        },
    );
    for (offset, value) in input.remainder_values().into_iter().enumerate() {
        if pred.matches(value) {
            builder.push(position + offset as u64);
        }
    }
    builder.finish()
}

/// Sum of an RLE-compressed column computed directly on the runs.
///
/// # Panics
/// Panics if `input` is not RLE-compressed.
pub fn sum_on_rle(input: &Column) -> u64 {
    assert_eq!(
        input.format(),
        &Format::Rle,
        "sum_on_rle requires an RLE-compressed input"
    );
    let mut total = 0u64;
    rle::for_each_run(
        input.main_part_bytes(),
        input.main_part_len(),
        &mut |value, run_len| {
            total = total.wrapping_add(value.wrapping_mul(run_len));
        },
    );
    for value in input.remainder_values() {
        total = total.wrapping_add(value);
    }
    total
}

/// Sum of a static-BP-compressed column computed block-wise directly on the
/// packed bit stream — the values are never materialised in uncompressed
/// form (compressed internal processing with direct data access,
/// Figure 2(c)).
///
/// The uncompressed remainder of the column (if any) is summed element-wise.
///
/// Registered behind [`crate::IntegrationDegree::Specialized`] in
/// [`crate::agg_sum`]; inputs in any other format keep the existing
/// fallback behaviour.
///
/// # Panics
/// Panics if `input` is not static-BP-compressed.
pub fn agg_sum_on_static_bp(input: &Column) -> u64 {
    let width = match input.format() {
        Format::StaticBp(width) => *width,
        other => panic!("agg_sum_on_static_bp requires a static-BP-compressed input, got {other}"),
    };
    let mut total = morph_compression::bitpack::sum_packed(
        input.main_part_bytes(),
        width,
        input.main_part_len(),
    );
    for value in input.remainder_values() {
        total = total.wrapping_add(value);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{agg_sum, select, CmpOp, ExecSettings};
    use morph_storage::datagen;

    fn runny_values(n: usize) -> Vec<u64> {
        datagen::with_runs(n, 8, 200, 77)
    }

    #[test]
    fn select_on_rle_matches_general_select() {
        let values = runny_values(20_000);
        let rle = Column::compress(&values, &Format::Rle);
        let plain = Column::from_slice(&values);
        for op in [CmpOp::Eq, CmpOp::Lt, CmpOp::Ge, CmpOp::Ne] {
            let pred = Predicate::Cmp(op, 3);
            let specialized = select_on_rle(&rle, &pred, &Format::DeltaDynBp);
            let general = select(&plain, &pred, &Format::DeltaDynBp, &ExecSettings::default());
            assert_eq!(specialized.decompress(), general.decompress(), "{op:?}");
        }
    }

    #[test]
    fn select_on_rle_handles_remainder() {
        // RLE has block size 1, so there is never a remainder when the column
        // is built by compression; build one artificially via a builder to be
        // sure the remainder path still works through the public API.
        let values = vec![5u64, 5, 5, 9, 9, 1];
        let rle = Column::compress(&values, &Format::Rle);
        let out = select_on_rle(&rle, &Predicate::Cmp(CmpOp::Eq, 9), &Format::Uncompressed);
        assert_eq!(out.decompress(), vec![3, 4]);
    }

    #[test]
    fn sum_on_rle_matches_general_sum() {
        let values = runny_values(50_000);
        let rle = Column::compress(&values, &Format::Rle);
        let expected: u64 = values.iter().sum();
        assert_eq!(sum_on_rle(&rle), expected);
        assert_eq!(agg_sum(&rle, &ExecSettings::default()), expected);
    }

    #[test]
    fn select_on_rle_with_one_giant_run() {
        // A single run far larger than the builder's 16 KiB buffer: the
        // direct-emit path must chunk it through the builder correctly.
        let mut values = vec![42u64; 100_000];
        values.extend_from_slice(&[1, 1, 1]);
        let rle = Column::compress(&values, &Format::Rle);
        let out = select_on_rle(&rle, &Predicate::Cmp(CmpOp::Eq, 42), &Format::DeltaDynBp);
        assert_eq!(out.logical_len(), 100_000);
        assert_eq!(out.decompress(), (0..100_000u64).collect::<Vec<_>>());
    }

    #[test]
    fn agg_sum_on_static_bp_matches_general_sum() {
        let values = runny_values(50_000);
        let expected: u64 = values.iter().sum();
        for width in [8u8, 13, 32] {
            let packed = Column::compress(&values, &Format::StaticBp(width));
            assert!(packed.remainder_len() > 0, "test should cover a remainder");
            assert_eq!(agg_sum_on_static_bp(&packed), expected, "width {width}");
        }
        // Wrapping semantics match the general operator.
        let big = Column::compress(&[u64::MAX, 7, u64::MAX], &Format::StaticBp(64));
        assert_eq!(
            agg_sum_on_static_bp(&big),
            agg_sum(&big, &ExecSettings::default())
        );
    }

    #[test]
    #[should_panic(expected = "requires a static-BP-compressed input")]
    fn agg_sum_on_static_bp_rejects_other_formats() {
        let column = Column::from_slice(&[1, 2, 3]);
        agg_sum_on_static_bp(&column);
    }

    #[test]
    #[should_panic(expected = "requires an RLE-compressed input")]
    fn select_on_rle_rejects_other_formats() {
        let column = Column::from_slice(&[1, 2, 3]);
        select_on_rle(
            &column,
            &Predicate::Cmp(CmpOp::Eq, 1),
            &Format::Uncompressed,
        );
    }

    #[test]
    #[should_panic(expected = "requires an RLE-compressed input")]
    fn sum_on_rle_rejects_other_formats() {
        let column = Column::from_slice(&[1, 2, 3]);
        sum_on_rle(&column);
    }
}
