//! Aggregation operators: whole-column and grouped summation, and the
//! whole-column maximum (used internally for width discovery).
//!
//! Summation is the aggregation the SSB queries need (`SUM(lo_revenue)`,
//! `SUM(lo_extendedprice * lo_discount)`, …).  For RLE-compressed inputs a
//! specialized kernel sums `value * run_length` products directly on the
//! compressed data, as sketched by Abadi et al. and cited in Section 2.2 of
//! the paper.

use morph_compression::Format;
use morph_storage::{Column, ColumnBuilder};
use morph_vector::emu::V512;
use morph_vector::kernels;
use morph_vector::scalar::Scalar;
use morph_vector::ProcessingStyle;

use crate::exec::{ExecSettings, IntegrationDegree};
use crate::ops::partitioned::{agg_sum_part, effective_output_format};
use crate::ops::zip_chunks;
use crate::specialized;

/// Wrapping sum of one uncompressed chunk, per processing style.
#[inline]
pub(crate) fn sum_chunk(style: ProcessingStyle, chunk: &[u64]) -> u64 {
    match style {
        ProcessingStyle::Scalar => kernels::sum::<Scalar>(chunk),
        ProcessingStyle::Vectorized => kernels::sum::<V512>(chunk),
    }
}

/// Sum of all values of `input` (wrapping 64-bit arithmetic).
///
/// With the specialized degree, an RLE input is summed directly on the runs
/// and a static-BP input directly on the packed bit stream
/// ([`specialized::agg_sum_on_static_bp`]); any other format falls back to
/// on-the-fly decompression — the chunk-range kernel [`agg_sum_part`] over
/// the whole column.  With the morphing degree the input is morphed to RLE
/// first so the run-based kernel applies irrespective of the format.
pub fn agg_sum(input: &Column, settings: &ExecSettings) -> u64 {
    match settings.degree {
        IntegrationDegree::Specialized if input.format() == &Format::Rle => {
            specialized::sum_on_rle(input)
        }
        IntegrationDegree::Specialized if matches!(input.format(), Format::StaticBp(_)) => {
            specialized::agg_sum_on_static_bp(input)
        }
        IntegrationDegree::OnTheFlyMorphing => {
            let morphed = input.to_format(&Format::Rle);
            specialized::sum_on_rle(&morphed)
        }
        _ => agg_sum_part(input, 0..input.chunk_count(), settings.style),
    }
}

/// Maximum of all values of `input` (0 for an empty column).
pub fn agg_max(input: &Column, settings: &ExecSettings) -> u64 {
    let mut result = 0u64;
    input.for_each_chunk(&mut |chunk| {
        crate::govern::checkpoint_chunk();
        let chunk_max = match settings.style {
            ProcessingStyle::Scalar => kernels::max::<Scalar>(chunk),
            ProcessingStyle::Vectorized => kernels::max::<V512>(chunk),
        };
        result = result.max(chunk_max);
    });
    result
}

/// Grouped summation: `sums[g] = Σ values[i] where group_ids[i] == g`.
///
/// `group_ids` must contain dense group identifiers in `0..group_count` (as
/// produced by [`crate::group_by`]).  The output column has `group_count`
/// elements and is materialised in `out_format`; the paper keeps final query
/// results uncompressed, but grouped sums can also be intermediates (e.g.
/// before a final projection), so the format is configurable.
pub fn agg_sum_grouped(
    group_ids: &Column,
    values: &Column,
    group_count: usize,
    out_format: &Format,
    settings: &ExecSettings,
) -> Column {
    let mut sums = vec![0u64; group_count];
    zip_chunks(
        group_ids,
        values,
        0..group_ids.chunk_count(),
        &mut |ids, vals| {
            for (&g, &v) in ids.iter().zip(vals.iter()) {
                sums[g as usize] = sums[g as usize].wrapping_add(v);
            }
        },
    );
    let mut builder = ColumnBuilder::new(effective_output_format(out_format, settings));
    builder.push_slice(&sums);
    builder.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| (i * 7919) % 10_000).collect()
    }

    #[test]
    fn sum_matches_reference_for_all_formats_and_degrees() {
        let values = sample(6000);
        let expected: u64 = values.iter().sum();
        for format in Format::all_formats(9999) {
            let input = Column::compress(&values, &format);
            for degree in IntegrationDegree::all() {
                for style in [ProcessingStyle::Scalar, ProcessingStyle::Vectorized] {
                    let settings = ExecSettings {
                        style,
                        degree,
                        ..ExecSettings::default()
                    };
                    assert_eq!(
                        agg_sum(&input, &settings),
                        expected,
                        "format {format}, degree {degree:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn sum_wraps_on_overflow() {
        let values = vec![u64::MAX, 5, u64::MAX, 3];
        let expected = values.iter().fold(0u64, |a, &b| a.wrapping_add(b));
        let input = Column::from_slice(&values);
        assert_eq!(agg_sum(&input, &ExecSettings::default()), expected);
    }

    #[test]
    fn sum_of_empty_column_is_zero() {
        let input = Column::from_slice(&[]);
        assert_eq!(agg_sum(&input, &ExecSettings::default()), 0);
        assert_eq!(agg_max(&input, &ExecSettings::default()), 0);
    }

    #[test]
    fn max_matches_reference() {
        let values = sample(3000);
        let expected = *values.iter().max().unwrap();
        for format in [
            Format::Uncompressed,
            Format::DynBp,
            Format::Rle,
            Format::ForDynBp,
        ] {
            let input = Column::compress(&values, &format);
            assert_eq!(agg_max(&input, &ExecSettings::default()), expected);
            assert_eq!(
                agg_max(&input, &ExecSettings::scalar_uncompressed()),
                expected
            );
        }
    }

    #[test]
    fn grouped_sum_matches_reference() {
        let group_count = 7;
        let values = sample(5000);
        let ids: Vec<u64> = (0..5000u64).map(|i| i % group_count).collect();
        let mut expected = vec![0u64; group_count as usize];
        for (g, v) in ids.iter().zip(values.iter()) {
            expected[*g as usize] += v;
        }
        for format in [Format::Uncompressed, Format::StaticBp(3), Format::DynBp] {
            let group_ids = Column::compress(&ids, &format);
            let data = Column::compress(&values, &Format::DynBp);
            let sums = agg_sum_grouped(
                &group_ids,
                &data,
                group_count as usize,
                &Format::Uncompressed,
                &ExecSettings::default(),
            );
            assert_eq!(sums.decompress(), expected, "format {format}");
        }
    }

    #[test]
    fn grouped_sum_output_format() {
        let ids = Column::from_slice(&[0, 1, 0, 1, 2]);
        let vals = Column::from_slice(&[10, 20, 30, 40, 50]);
        let sums = agg_sum_grouped(&ids, &vals, 3, &Format::DynBp, &ExecSettings::default());
        assert_eq!(sums.format(), &Format::DynBp);
        assert_eq!(sums.decompress(), vec![40, 60, 50]);
        let plain = agg_sum_grouped(
            &ids,
            &vals,
            3,
            &Format::DynBp,
            &ExecSettings::scalar_uncompressed(),
        );
        assert_eq!(plain.format(), &Format::Uncompressed);
    }

    #[test]
    fn grouped_sum_with_empty_groups() {
        let ids = Column::from_slice(&[0, 3]);
        let vals = Column::from_slice(&[5, 9]);
        let sums = agg_sum_grouped(
            &ids,
            &vals,
            5,
            &Format::Uncompressed,
            &ExecSettings::default(),
        );
        assert_eq!(sums.decompress(), vec![5, 0, 0, 9, 0]);
    }
}
