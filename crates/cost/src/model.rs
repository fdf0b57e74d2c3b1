//! The gray-box cost model: estimate the compressed size of a column in each
//! format from its data characteristics, without compressing it.
//!
//! The estimates mirror the layouts of `morph-compression`:
//!
//! * **static BP** — the column-wide maximum bit width applies to every
//!   element,
//! * **dynamic BP** — the expected per-block width is the expected maximum of
//!   512 independent draws from the bit-width histogram (this is what makes
//!   the model robust against rare outliers: with 0.01 % outliers most
//!   blocks keep the small width, cf. column C2 of Table 1),
//! * **DELTA + BP** — the per-block width is driven by the average bit width
//!   of the consecutive differences (plus headroom for the in-block maximum),
//! * **FOR + BP** — the per-block width is bounded by the bit width of
//!   `max - min`,
//! * **RLE** — 16 bytes per run.
//!
//! The three dynamic-BP formats share one size expression — whole blocks of
//! the codec's per-block header plus 512 packed values, and an uncompressed
//! remainder — and differ only in their width estimate.

use morph_compression::dyn_bp::Cascade;
use morph_compression::{compressed_size_bytes, Format, DYN_BP_BLOCK, STATIC_BP_BLOCK};
use morph_storage::{Column, ColumnStats};

/// Estimate the physical size in bytes of a column with characteristics
/// `stats` when stored in `format`.
pub fn estimate_compressed_bytes(format: &Format, stats: &ColumnStats) -> f64 {
    let len = stats.len as f64;
    if stats.len == 0 {
        return 0.0;
    }
    match format {
        Format::Uncompressed => len * 8.0,
        Format::StaticBp(width) => {
            let width = (*width).max(stats.max_bit_width()) as f64;
            let main = (stats.len - stats.len % STATIC_BP_BLOCK) as f64;
            let remainder = len - main;
            main * width / 8.0 + remainder * 8.0
        }
        Format::DynBp => dyn_bp_bytes(
            Cascade::Plain,
            stats,
            expected_block_max_width(stats, DYN_BP_BLOCK),
        ),
        // Sorted data: deltas are small, the block maximum sits a little
        // above the average delta width.  Unsorted data: any decrease
        // produces a wrapping (near-full-width) difference, so whole blocks
        // end up at 64 bits.
        Format::DeltaDynBp => dyn_bp_bytes(
            Cascade::Delta,
            stats,
            if stats.sorted {
                (stats.avg_delta_bit_width + 3.0).min(64.0)
            } else {
                64.0
            },
        ),
        // The per-block offset width is bounded both by the global range
        // (narrow-range columns like C3) and by the expected in-block maximum
        // (outlier columns like C2, where most blocks never see the outliers
        // that blow up the global range).
        Format::ForDynBp => dyn_bp_bytes(
            Cascade::For,
            stats,
            (stats.range_bit_width as f64).min(expected_block_max_width(stats, DYN_BP_BLOCK)),
        ),
        Format::Rle => stats.runs as f64 * 16.0,
    }
}

/// Size of a dynamic-BP family column whose blocks pack `width` bits per
/// value: whole blocks behind the codec's per-block header, plus the
/// uncompressed remainder.
fn dyn_bp_bytes(cascade: Cascade, stats: &ColumnStats, width: f64) -> f64 {
    let blocks = (stats.len / DYN_BP_BLOCK) as f64;
    let remainder = (stats.len % DYN_BP_BLOCK) as f64;
    let header = cascade.header_bytes() as f64;
    blocks * (header + DYN_BP_BLOCK as f64 * width / 8.0) + remainder * 8.0
}

/// Expected maximum bit width within a block of `block_size` values drawn
/// from the column's bit-width histogram (the classic order-statistics
/// estimate used by the gray-box model of [19]).
fn expected_block_max_width(stats: &ColumnStats, block_size: usize) -> f64 {
    let len = stats.len as f64;
    let mut cumulative = 0usize;
    let mut expectation = 0.0;
    let mut prev_prob_le = 0.0;
    for (i, &count) in stats.bit_width_histogram.iter().enumerate() {
        cumulative += count;
        let prob_le = (cumulative as f64 / len).powi(block_size as i32);
        expectation += (i + 1) as f64 * (prob_le - prev_prob_le);
        prev_prob_le = prob_le;
    }
    expectation.max(1.0)
}

/// Exact physical size in bytes of `column` re-encoded in `format`
/// (decompresses and recompresses; used by the exhaustive best/worst search).
pub fn exact_compressed_bytes(format: &Format, column: &Column) -> usize {
    compressed_size_bytes(format, &column.decompress())
}

#[cfg(test)]
mod tests {
    use super::*;
    use morph_storage::datagen::SyntheticColumn;

    const N: usize = 64 * 1024;

    fn estimate_vs_exact(values: &[u64], format: &Format) -> (f64, f64) {
        let stats = ColumnStats::from_values(values);
        let estimate = estimate_compressed_bytes(format, &stats);
        let exact = compressed_size_bytes(format, values) as f64;
        (estimate, exact)
    }

    #[test]
    fn estimates_are_close_to_exact_sizes_for_table1_columns() {
        for column in SyntheticColumn::all() {
            let values = column.generate(N, 11);
            let stats = ColumnStats::from_values(&values);
            for format in Format::all_formats(stats.max) {
                let (estimate, exact) = estimate_vs_exact(&values, &format);
                let ratio = estimate / exact;
                assert!(
                    (0.5..=2.0).contains(&ratio),
                    "{} on {}: estimate {estimate}, exact {exact}",
                    format,
                    column.label()
                );
            }
        }
    }

    #[test]
    fn cost_model_ranks_the_right_format_first_per_table1_column() {
        // Section 5.1: C1 -> static BP, C2 -> SIMD-BP, C3 -> FOR + SIMD-BP,
        // C4 -> DELTA + SIMD-BP.  The model must reproduce that ranking.
        let expectations = [
            (SyntheticColumn::C1, Format::StaticBp(6)),
            (SyntheticColumn::C2, Format::DynBp),
            (SyntheticColumn::C3, Format::ForDynBp),
            (SyntheticColumn::C4, Format::DeltaDynBp),
        ];
        for (column, expected) in expectations {
            let values = column.generate(N, 13);
            let stats = ColumnStats::from_values(&values);
            let best = Format::paper_formats(stats.max)
                .into_iter()
                .min_by(|a, b| {
                    estimate_compressed_bytes(a, &stats)
                        .total_cmp(&estimate_compressed_bytes(b, &stats))
                })
                .unwrap();
            assert_eq!(best, expected, "column {}", column.label());
        }
    }

    #[test]
    fn uncompressed_estimate_is_exact() {
        let values: Vec<u64> = (0..1000).collect();
        let (estimate, exact) = estimate_vs_exact(&values, &Format::Uncompressed);
        assert_eq!(estimate, exact);
    }

    #[test]
    fn rle_estimate_counts_runs() {
        let values = [vec![5u64; 1000], vec![7u64; 500], vec![5u64; 1]].concat();
        let stats = ColumnStats::from_values(&values);
        assert_eq!(estimate_compressed_bytes(&Format::Rle, &stats), 3.0 * 16.0);
    }

    #[test]
    fn empty_column_estimates_are_zero() {
        let stats = ColumnStats::from_values(&[]);
        for format in Format::all_formats(0) {
            assert_eq!(estimate_compressed_bytes(&format, &stats), 0.0);
        }
    }

    #[test]
    fn exact_compressed_bytes_matches_column_size() {
        let values: Vec<u64> = (0..5000u64).map(|i| i % 90).collect();
        let column = Column::from_slice(&values);
        for format in Format::all_formats(89) {
            let recompressed = Column::compress(&values, &format);
            assert_eq!(
                exact_compressed_bytes(&format, &column),
                recompressed.size_used_bytes()
            );
        }
    }

    #[test]
    fn expected_block_max_width_handles_outliers() {
        // 0.01 % outliers at 63 bits must barely move the expected block
        // width away from 6 bits.
        let mut values: Vec<u64> = (0..N as u64).map(|i| i % 64).collect();
        values[5] = (1 << 63) - 1;
        let stats = ColumnStats::from_values(&values);
        let width = expected_block_max_width(&stats, 512);
        assert!(width < 10.0, "width {width}");
        // …while static BP must pay the full 63 bits.
        assert!(
            estimate_compressed_bytes(&Format::DynBp, &stats)
                < estimate_compressed_bytes(&Format::StaticBp(63), &stats) / 4.0
        );
    }
}
