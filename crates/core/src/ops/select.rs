//! The select operator: evaluate a predicate on a column and produce the
//! sorted list of matching positions.
//!
//! This is the operator the paper uses for its single-operator
//! micro-benchmark (Section 5.1, Figure 5): its input is a data column in an
//! arbitrary format and its output — a sorted column of positions, itself an
//! intermediate — can be materialised in any format as well, giving the 25
//! input×output format combinations of Figure 5.

use morph_compression::Format;
use morph_storage::Column;
use morph_vector::emu::V512;
use morph_vector::kernels;
use morph_vector::scalar::Scalar;
use morph_vector::ProcessingStyle;

use crate::exec::{ExecSettings, IntegrationDegree};
use crate::ops::partitioned::{effective_output_format, select_between_part, select_part};
use crate::specialized;
use crate::CmpOp;

/// The vector-register-layer core of the select operator: filter one
/// uncompressed chunk, appending matching positions (offset by `base`).
#[inline]
pub(crate) fn filter_chunk(
    style: ProcessingStyle,
    op: CmpOp,
    chunk: &[u64],
    constant: u64,
    base: u64,
    out: &mut Vec<u64>,
) {
    match style {
        ProcessingStyle::Scalar => {
            kernels::filter_positions::<Scalar>(op, chunk, constant, base, out)
        }
        ProcessingStyle::Vectorized => {
            kernels::filter_positions::<V512>(op, chunk, constant, base, out)
        }
    }
}

/// The chunk step of the range select: append the positions (offset by
/// `base`) of the values of `chunk` lying in `[low, high]`, compacted
/// branch-free.  SQL semantics: an inverted range (`low > high`) contains
/// no value, so it selects nothing.
#[inline]
pub(crate) fn between_chunk(chunk: &[u64], low: u64, high: u64, base: u64, out: &mut Vec<u64>) {
    kernels::compact_positions(chunk, base, out, |value| (value >= low) & (value <= high));
}

/// Select the positions of `input` whose value satisfies `op` against
/// `constant`; the output column is materialised in `out_format`.
///
/// The execution follows the chosen [`IntegrationDegree`]:
/// * purely uncompressed and on-the-fly de/re-compression — the chunk-range
///   kernel [`select_part`] over the whole column: input chunks are
///   decompressed into the cache, filtered, and the resulting positions
///   recompressed (uncompressed regardless of `out_format` under the purely
///   uncompressed degree, see [`effective_output_format`]),
/// * specialized — if the input is RLE-compressed, the run-based kernel of
///   [`specialized::select_on_rle`] processes the compressed data directly;
///   otherwise the operator falls back to on-the-fly de/re-compression
///   (Section 3.3: the degree choice depends on the availability of the
///   respective variant),
/// * on-the-fly morphing — the input is morphed to RLE first so the
///   specialized kernel can be used irrespective of the input format.
pub fn select(
    op: CmpOp,
    input: &Column,
    constant: u64,
    out_format: &Format,
    settings: &ExecSettings,
) -> Column {
    match settings.degree {
        IntegrationDegree::Specialized if input.format() == &Format::Rle => {
            specialized::select_on_rle(op, input, constant, out_format)
        }
        IntegrationDegree::OnTheFlyMorphing => {
            let morphed = input.to_format(&Format::Rle);
            specialized::select_on_rle(op, &morphed, constant, out_format)
        }
        _ => select_part(
            op,
            input,
            constant,
            0..input.chunk_count(),
            &effective_output_format(out_format, settings),
            settings.style,
        ),
    }
}

/// Select the positions of `input` whose value lies in `[low, high]`
/// (inclusive range predicate, used by the SSB queries for date and discount
/// ranges); an inverted range selects nothing.
pub fn select_between(
    input: &Column,
    low: u64,
    high: u64,
    out_format: &Format,
    settings: &ExecSettings,
) -> Column {
    select_between_part(
        input,
        low,
        high,
        0..input.chunk_count(),
        &effective_output_format(out_format, settings),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_positions(values: &[u64], op: CmpOp, constant: u64) -> Vec<u64> {
        values
            .iter()
            .enumerate()
            .filter(|(_, &v)| op.eval(v, constant))
            .map(|(i, _)| i as u64)
            .collect()
    }

    fn sample(n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| (i * 2654435761) % 1000).collect()
    }

    #[test]
    fn select_matches_reference_for_all_degrees_and_formats() {
        let values = sample(5000);
        let expected = reference_positions(&values, CmpOp::Lt, 100);
        for format in Format::all_formats(999) {
            let input = Column::compress(&values, &format);
            for degree in IntegrationDegree::all() {
                for style in [ProcessingStyle::Scalar, ProcessingStyle::Vectorized] {
                    let settings = ExecSettings {
                        style,
                        degree,
                        ..ExecSettings::default()
                    };
                    let out = select(CmpOp::Lt, &input, 100, &Format::DeltaDynBp, &settings);
                    assert_eq!(
                        out.decompress(),
                        expected,
                        "format {format}, degree {degree:?}, style {style:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn select_output_format_is_respected() {
        let values = sample(10_000);
        let input = Column::compress(&values, &Format::DynBp);
        let settings = ExecSettings::default();
        for out_format in Format::all_formats(10_000) {
            let out = select(CmpOp::Ge, &input, 500, &out_format, &settings);
            assert_eq!(out.format(), &out_format);
            assert_eq!(
                out.decompress(),
                reference_positions(&values, CmpOp::Ge, 500)
            );
        }
    }

    #[test]
    fn purely_uncompressed_ignores_output_format() {
        let values = sample(1000);
        let input = Column::from_slice(&values);
        let settings = ExecSettings::scalar_uncompressed();
        let out = select(CmpOp::Eq, &input, values[17], &Format::Rle, &settings);
        assert_eq!(out.format(), &Format::Uncompressed);
    }

    #[test]
    fn select_on_empty_column() {
        let input = Column::from_slice(&[]);
        let out = select(
            CmpOp::Eq,
            &input,
            5,
            &Format::DynBp,
            &ExecSettings::default(),
        );
        assert!(out.is_empty());
    }

    #[test]
    fn select_all_and_none() {
        let values = vec![7u64; 3000];
        let input = Column::compress(&values, &Format::Rle);
        let settings = ExecSettings::default();
        let all = select(CmpOp::Eq, &input, 7, &Format::DeltaDynBp, &settings);
        assert_eq!(all.logical_len(), 3000);
        assert_eq!(all.decompress(), (0..3000u64).collect::<Vec<_>>());
        let none = select(CmpOp::Gt, &input, 7, &Format::DeltaDynBp, &settings);
        assert!(none.is_empty());
    }

    #[test]
    fn all_comparison_operators() {
        let values = sample(2000);
        let input = Column::compress(&values, &Format::StaticBp(10));
        let settings = ExecSettings::default();
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            let out = select(op, &input, 500, &Format::DynBp, &settings);
            assert_eq!(
                out.decompress(),
                reference_positions(&values, op, 500),
                "{op:?}"
            );
        }
    }

    #[test]
    fn select_between_matches_reference() {
        let values = sample(4000);
        let expected: Vec<u64> = values
            .iter()
            .enumerate()
            .filter(|(_, &v)| (100..=300).contains(&v))
            .map(|(i, _)| i as u64)
            .collect();
        for format in [Format::Uncompressed, Format::DynBp, Format::Rle] {
            let input = Column::compress(&values, &format);
            let out = select_between(
                &input,
                100,
                300,
                &Format::DeltaDynBp,
                &ExecSettings::default(),
            );
            assert_eq!(out.decompress(), expected, "format {format}");
        }
        let uncompressed_out = select_between(
            &Column::from_slice(&values),
            100,
            300,
            &Format::DynBp,
            &ExecSettings::scalar_uncompressed(),
        );
        assert_eq!(uncompressed_out.decompress(), expected);
        assert_eq!(uncompressed_out.format(), &Format::Uncompressed);
    }

    #[test]
    fn inverted_range_selects_nothing_on_every_path() {
        use crate::exec::{ExecutionContext, FormatConfig};
        use crate::plan::PlanBuilder;
        use crate::ParallelExecutor;
        use std::collections::HashMap;

        let values = sample(20_000);
        let source: HashMap<String, Column> =
            [("x".to_string(), Column::compress(&values, &Format::DynBp))].into();
        // SUM over the (empty) position list of `x BETWEEN 7 AND 3`.
        let mut b = PlanBuilder::new("inv");
        let x = b.scan("x");
        let pos = b.select_between("pos", x, 7, 3);
        let at = b.project("at", x, pos);
        let total = b.agg_sum("total", at);
        let plan = b.finish_scalar(total);
        let formats = FormatConfig::with_default(Format::DeltaDynBp);
        let serial = ExecSettings::vectorized_compressed();
        let morsels = ExecSettings {
            morsel_threshold: Some(1024),
            ..serial.clone()
        };
        let mut outcomes = Vec::new();
        for (settings, threads) in [
            (serial.clone(), 1),
            (morsels.clone(), 2),
            (serial.with_fusion(), 1),
            (morsels.with_fusion(), 2),
        ] {
            let mut ctx = ExecutionContext::new(settings, formats.clone());
            ctx.enable_capture();
            let output = ParallelExecutor::new(threads).execute(&plan, &source, &mut ctx);
            assert_eq!(output.values, vec![0]);
            outcomes.push((ctx.captured_columns().clone(), ctx.records().to_vec()));
        }
        let positions = &outcomes[0].0["inv/pos"];
        assert!(positions.is_empty());
        assert_eq!(positions.format(), &Format::DeltaDynBp);
        for other in &outcomes[1..] {
            assert_eq!(other, &outcomes[0], "byte-identical on every path");
        }
    }

    #[test]
    fn between_chunk_appends_the_naive_positions() {
        let lens = (0..=9).chain([2048]);
        for len in lens {
            for selectivity in [0u64, 10, 50, 90, 100] {
                // In-range hits at both bounds and inside; misses just
                // outside the bounds and at the extremes.
                let chunk: Vec<u64> = (0..len as u64)
                    .map(|i| match (i * 37 + 11) % 100 < selectivity {
                        true => [100, 150, 200][i as usize % 3],
                        false => [0, 99, 201, u64::MAX][i as usize % 4],
                    })
                    .collect();
                for (low, high) in [(100, 200), (200, 100)] {
                    let mut out = vec![8, 8, 8];
                    between_chunk(&chunk, low, high, 40, &mut out);
                    let hits =
                        (0..len as u64).filter(|&i| (low..=high).contains(&chunk[i as usize]));
                    let expected: Vec<u64> =
                        [8, 8, 8].into_iter().chain(hits.map(|i| 40 + i)).collect();
                    assert_eq!(out, expected, "len {len}, {selectivity} %, [{low}, {high}]");
                    if low > high {
                        assert_eq!(out.len(), 3, "an inverted range selects nothing");
                    }
                }
            }
        }
    }

    #[test]
    fn select_output_is_sorted_for_delta_friendliness() {
        // The paper notes the select output is always sorted, which is why
        // DELTA + SIMD-BP is the best output format (Section 5.1).
        let values = sample(8000);
        let input = Column::compress(&values, &Format::DynBp);
        let out = select(
            CmpOp::Lt,
            &input,
            900,
            &Format::DeltaDynBp,
            &ExecSettings::default(),
        );
        let positions = out.decompress();
        assert!(positions.windows(2).all(|w| w[0] < w[1]));
    }
}
