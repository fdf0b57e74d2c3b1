//! The chunk-range kernels: every streaming operator as a function of a
//! contiguous range of its input's seekable chunks.
//!
//! The paper's block-at-a-time processing (DP3) makes a compressed column a
//! sequence of independently decodable chunks, recorded in the column's
//! seekable chunk directory ([`Column::chunk_count`],
//! [`Column::for_each_chunk_in`]).  Each `*_part` kernel in this module
//! streams one chunk range through its operator's chunk step (see
//! [`crate::ops`]) into a private [`ColumnBuilder`].  There is no second
//! copy of any operator loop:
//!
//! * the whole-column operator ([`crate::select`], [`crate::project`],
//!   [`crate::calc_binary`], [`crate::agg_sum`], [`crate::semi_join`],
//!   [`crate::intersect_sorted`], …) *is* its kernel over
//!   `0..chunk_count()`, writing in [`effective_output_format`],
//! * a *morsel* is the same kernel over a sub-range: every kernel emits
//!   exactly the values the whole-range run emits for that logical span
//!   (select positions are computed from the chunk's global logical start,
//!   so no rebasing pass is needed), and [`concat_partials`] splices the
//!   partials back — in range order — into a column **byte-identical** to
//!   the one-part run:
//!   [`morph_storage::ColumnBuilder::append_column`] re-creates the single
//!   builder's byte stream (splicing without re-encoding where the format's
//!   blocks are position-independent), and partial sums of the wrapping
//!   [`agg_sum`](crate::agg_sum) reduce associatively.
//!
//! The scheduler ([`crate::parallel`]) runs these kernels as the parts of a
//! fanned-out unit and splices their outputs with [`concat_partials`]; a
//! unit that runs as one part calls the whole-column operator instead.  The
//! functions are public so tests can exercise the partition → process →
//! merge pipeline directly.

use std::ops::Range;

use morph_compression::{ChunkCursor, Format};
use morph_storage::{Column, ColumnBuilder};
use morph_vector::kernels::BinaryOp;
use morph_vector::keys::KeySet;
use morph_vector::ProcessingStyle;

use crate::exec::{ExecSettings, IntegrationDegree};
use crate::ops::agg::sum_chunk;
use crate::ops::calc::binary_chunk;
use crate::ops::project::Gather;
use crate::ops::select::{between_chunk, filter_chunk};
use crate::ops::{zip_chunks, PullSide};
use crate::CmpOp;

/// Partition a column's seekable chunks into at most `parts` contiguous
/// ranges of roughly equal logical span (delegates to
/// [`Column::partition_chunks`]).
pub fn partition(input: &Column, parts: usize) -> Vec<Range<usize>> {
    input.partition_chunks(parts)
}

/// The format an operator output (whole column, partial or merged) is
/// materialised in: the requested output format, except under the purely
/// uncompressed degree, where operators ignore the output format (the
/// baseline involves no compressed data at all).  The single place that
/// degree is consulted for outputs.
pub fn effective_output_format(out_format: &Format, settings: &ExecSettings) -> Format {
    if settings.degree == IntegrationDegree::PurelyUncompressed {
        Format::Uncompressed
    } else {
        *out_format
    }
}

/// Stream the chunk range `chunks` of `input` through `step` — one
/// operator's chunk step, called with each piece's global logical start,
/// its values and a cleared scratch buffer — and recompress what the step
/// emits into `format`: the on-the-fly de/re-compression wrapper of
/// Figure 4, written once for every unary operator.
fn map_chunks(
    input: &Column,
    chunks: Range<usize>,
    format: &Format,
    mut step: impl FnMut(u64, &[u64], &mut Vec<u64>),
) -> Column {
    let mut builder = ColumnBuilder::new(*format);
    let mut scratch: Vec<u64> = Vec::new();
    input.for_each_chunk_in(chunks, &mut |start, chunk| {
        crate::govern::checkpoint_chunk();
        scratch.clear();
        step(start, chunk, &mut scratch);
        builder.push_slice(&scratch);
    });
    builder.finish()
}

/// Partial select: the positions of the chunk range `chunks` of `input`
/// whose value satisfies `op` against `constant`, materialised in `format`.
///
/// Positions are global (offset by each chunk's logical start), so
/// concatenating the partials of a contiguous partition in range order
/// yields exactly the [`crate::select`] output.
pub fn select_part(
    op: CmpOp,
    input: &Column,
    constant: u64,
    chunks: Range<usize>,
    format: &Format,
    style: ProcessingStyle,
) -> Column {
    map_chunks(input, chunks, format, |start, chunk, out| {
        filter_chunk(style, op, chunk, constant, start, out)
    })
}

/// Partial range select: the positions of the chunk range `chunks` of
/// `input` whose value lies in `[low, high]` (the chunk-range kernel of
/// [`crate::select_between`]).
pub fn select_between_part(
    input: &Column,
    low: u64,
    high: u64,
    chunks: Range<usize>,
    format: &Format,
) -> Column {
    map_chunks(input, chunks, format, |start, chunk, out| {
        between_chunk(chunk, low, high, start, out)
    })
}

/// Partial project: gather `data[position]` for the chunk range `chunks` of
/// the position list, in any data format.  The part reads `data` through
/// its own reader (`ops::project::Gather`) — forward through the column's
/// chunk cursor where its position chunks ascend — so parts share no state
/// and nothing is morphed before fanning out.
pub fn project_part(
    data: &Column,
    positions: &Column,
    chunks: Range<usize>,
    format: &Format,
) -> Column {
    let mut gather = Gather::new(data);
    map_chunks(positions, chunks, format, |_, chunk, out| {
        gather.gather_chunk(chunk, out)
    })
}

/// The key set of the build side of a semi-join, built once — by the serial
/// operator or the fanning-out coordinator — and shared by all probe-side
/// parts.  `probe_len` (the probe column's logical length) is one of the
/// inputs of the set's dense/sparse choice ([`morph_vector::keys`]).
///
/// The table is charged to the current query's memory budget as a transient.
pub fn build_semi_join_set(build: &Column, probe_len: usize) -> KeySet {
    let set = KeySet::build(|sink| scan_build_side(build, sink), probe_len);
    crate::govern::charge_transient(set.heap_bytes());
    set
}

/// One pass over a join's build column, chunk by chunk — the re-scannable
/// source the key tables of [`morph_vector::keys`] are built from.
pub(crate) fn scan_build_side(build: &Column, sink: &mut dyn FnMut(&[u64])) {
    build.for_each_chunk(&mut |chunk| {
        crate::govern::checkpoint_chunk();
        sink(chunk);
    });
}

/// Partial semi-join: the global positions of the chunk range `chunks` of
/// `probe` whose value occurs in the shared build `set` (the chunk-range
/// kernel of [`crate::semi_join`]'s probe side).
///
/// An empty set matches nothing, so the probe range is not even decoded.
pub fn semi_join_part(
    probe: &Column,
    set: &KeySet,
    chunks: Range<usize>,
    format: &Format,
) -> Column {
    if set.is_empty() {
        return ColumnBuilder::new(*format).finish();
    }
    map_chunks(probe, chunks, format, |start, chunk, out| {
        set.probe_positions(chunk, start, out)
    })
}

/// Partial whole-column sum over the chunk range `chunks` (wrapping 64-bit
/// arithmetic, like [`crate::agg_sum`]).  Partials reduce with
/// [`u64::wrapping_add`].
pub fn agg_sum_part(input: &Column, chunks: Range<usize>, style: ProcessingStyle) -> u64 {
    let mut total = 0u64;
    input.for_each_chunk_in(chunks, &mut |_, chunk| {
        crate::govern::checkpoint_chunk();
        total = total.wrapping_add(sum_chunk(style, chunk));
    });
    total
}

/// Partial element-wise calculation: `lhs[i] op rhs[i]` for the logical
/// span of the chunk range `chunks` of `lhs` (the chunk-range kernel of
/// [`crate::calc_binary`]), paired through `ops::zip_chunks`.
///
/// # Panics
/// Panics if the inputs do not have the same logical length.
pub fn calc_binary_part(
    op: BinaryOp,
    lhs: &Column,
    rhs: &Column,
    chunks: Range<usize>,
    format: &Format,
    style: ProcessingStyle,
) -> Column {
    let mut builder = ColumnBuilder::new(*format);
    let mut scratch: Vec<u64> = Vec::new();
    zip_chunks(lhs, rhs, chunks, &mut |a, b| {
        scratch.clear();
        binary_chunk(style, op, a, b, &mut scratch);
        builder.push_slice(&scratch);
    });
    builder.finish()
}

/// Partial sorted intersection: the values of the chunk range `chunks` of
/// `a` that also occur in the sorted column `b` (the chunk-range kernel of
/// [`crate::intersect_sorted`]).
///
/// Both sides stay compressed: each part opens its own [`ChunkCursor`] over
/// `b`, seeks it to the chunk containing the part's first value (binary
/// search over `b`'s chunk directory, probing one decoded chunk per step)
/// and merge-walks from there through a carry buffer bounded by one chunk —
/// so a part costs its share of `a` plus the matching span of `b`, with
/// O(chunk) transient memory.  Both position lists are strictly increasing,
/// so concatenating the partials of a contiguous partition in range order
/// yields exactly the whole-range intersection.
pub fn intersect_sorted_part(
    a: &Column,
    b: &Column,
    chunks: Range<usize>,
    format: &Format,
) -> Column {
    let mut builder = ColumnBuilder::new(*format);
    let mut pulled: Option<PullSide<'_>> = None;
    a.for_each_chunk_in(chunks, &mut |_, chunk| {
        crate::govern::checkpoint_chunk();
        let Some(&first) = chunk.first() else {
            return;
        };
        // One cursor per part, constructed lazily and positioned once by
        // value-seek; the same cursor then serves the whole merge-walk.
        let pulled = pulled.get_or_insert_with(|| {
            let mut cursor = b.cursor();
            seek_cursor_to_value(b, &mut cursor, first);
            PullSide::new(cursor)
        });
        for &value in chunk {
            match pulled.merge_step(value, |_| {}) {
                crate::ops::MergeStep::Matched => builder.push(value),
                crate::ops::MergeStep::Absent => {}
                crate::ops::MergeStep::Exhausted => return,
            }
        }
    });
    if let Some(pulled) = &pulled {
        pulled.finish();
    }
    builder.finish()
}

/// Position `cursor` at the start of the chunk of the sorted column `b` in
/// which a merge for `value` should begin: the last chunk whose first
/// element is `<= value` (chunk 0 when `value` precedes everything).
/// Binary search over the chunk directory, decoding one chunk head per
/// probe through the same seekable cursor that afterwards serves the walk.
fn seek_cursor_to_value(b: &Column, cursor: &mut morph_storage::ColumnCursor<'_>, value: u64) {
    let n = b.chunk_count();
    let (mut lo, mut hi) = (0usize, n);
    while lo < hi {
        let mid = (lo + hi) / 2;
        cursor.seek(mid);
        match cursor.next_chunk().and_then(|piece| piece.first().copied()) {
            Some(first) if first <= value => lo = mid + 1,
            _ => hi = mid,
        }
    }
    cursor.seek(lo.saturating_sub(1));
}

/// Splice the partial columns of a contiguous chunk partition — in range
/// order — into one column in `format`.
///
/// The result is byte-identical to a single [`ColumnBuilder`] fed the
/// concatenated value sequence, i.e. to the one-part run
/// ([`ColumnBuilder::append_column`] splices position-independent formats
/// without re-encoding and re-pushes the rest through the streaming
/// compressor).
pub fn concat_partials<'a>(
    format: &Format,
    partials: impl IntoIterator<Item = &'a Column>,
) -> Column {
    let mut builder = ColumnBuilder::new(*format);
    for partial in partials {
        builder.append_column(partial);
    }
    builder.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| (i * 2654435761) % 1000).collect()
    }

    /// Part counts every kernel table runs: `1` is the whole-column operator
    /// (serial *is* the one-part case), the rest exercise the splice.
    const PARTS: [usize; 4] = [1, 2, 3, 7];

    /// Run `kernel` over every [`PARTS`]-way partition of `input` and assert
    /// the range-order splice is byte-identical to `expected`, the reference
    /// result compressed from scratch.
    fn assert_splices_to(
        input: &Column,
        expected: &[u64],
        out_format: &Format,
        what: &str,
        kernel: impl Fn(Range<usize>) -> Column,
    ) {
        let expected = Column::compress(expected, out_format);
        for parts in PARTS {
            let partials: Vec<Column> = partition(input, parts).into_iter().map(&kernel).collect();
            assert_eq!(
                concat_partials(out_format, &partials),
                expected,
                "{what}, {parts} parts"
            );
        }
    }

    fn positions_where(values: &[u64], keep: impl Fn(u64) -> bool) -> Vec<u64> {
        (0..values.len() as u64)
            .filter(|&i| keep(values[i as usize]))
            .collect()
    }

    #[test]
    fn select_parts_splice_byte_identically_for_all_formats() {
        let values = sample(20_000);
        let expected = positions_where(&values, |v| v < 300);
        for in_format in Format::all_formats(999) {
            let input = Column::compress(&values, &in_format);
            for out_format in [Format::DeltaDynBp, Format::DynBp, Format::Rle] {
                let what = format!("{in_format} -> {out_format}");
                assert_splices_to(&input, &expected, &out_format, &what, |r| {
                    let style = ProcessingStyle::Vectorized;
                    select_part(CmpOp::Lt, &input, 300, r, &out_format, style)
                });
            }
        }
    }

    #[test]
    fn select_between_parts_splice_byte_identically_for_all_formats() {
        let values = sample(12_000);
        let expected = positions_where(&values, |v| (100..=400).contains(&v));
        let out = Format::DeltaDynBp;
        for in_format in Format::all_formats(999) {
            let input = Column::compress(&values, &in_format);
            assert_splices_to(&input, &expected, &out, &in_format.to_string(), |r| {
                select_between_part(&input, 100, 400, r, &out)
            });
            // An inverted range selects nothing, on every partition.
            assert_splices_to(&input, &[], &out, "inverted range", |r| {
                select_between_part(&input, 400, 100, r, &out)
            });
        }
    }

    #[test]
    fn project_parts_splice_byte_identically_for_all_formats() {
        let data_values = sample(8000);
        let positions: Vec<u64> = (0..8000u64).filter(|p| p % 3 == 0).collect();
        let expected: Vec<u64> = positions.iter().map(|&p| data_values[p as usize]).collect();
        let data = Column::compress(&data_values, &Format::StaticBp(10));
        for pos_format in Format::all_formats(7999) {
            let pos = Column::compress(&positions, &pos_format);
            assert_splices_to(
                &pos,
                &expected,
                &Format::DynBp,
                &pos_format.to_string(),
                |r| project_part(&data, &pos, r, &Format::DynBp),
            );
        }
    }

    /// Position lists for the project reader table over a column of `len`
    /// values whose remainder starts at `main_len`.
    fn position_patterns(len: u64, main_len: u64) -> Vec<(&'static str, Vec<u64>)> {
        let ascending: Vec<u64> = (0..len).step_by(3).collect();
        let mut zigzag = ascending.clone();
        zigzag.extend(ascending.iter().rev());
        zigzag.extend(&ascending);
        let mut behind: Vec<u64> = (len / 2..len).step_by(5).collect();
        behind.extend((0..len).step_by(7));
        vec![
            ("dense ascending", (0..len).filter(|p| p % 4 != 1).collect()),
            ("sparse ascending", (0..len).step_by(2053).collect()),
            (
                "duplicates",
                (0..len).step_by(41).flat_map(|p| [p; 4]).collect(),
            ),
            ("all in the remainder", (main_len..len).collect()),
            ("ascending, descending, ascending", zigzag),
            ("restart behind the window", behind),
            ("empty", Vec::new()),
        ]
    }

    #[test]
    fn project_parts_read_every_data_format_and_position_pattern() {
        // 9_100 values with runs: every blocked format carries a remainder
        // and RLE directory chunks span several cursor pieces.
        let data_values: Vec<u64> = (0..9_100u64).map(|i| (i / 900) * 7 + i % 2).collect();
        for data_format in Format::all_formats(100) {
            let data = Column::compress(&data_values, &data_format);
            let reference = data.decompress();
            let (len, main_len) = (data.logical_len() as u64, data.main_part_len() as u64);
            for (what, positions) in position_patterns(len, main_len) {
                let expected: Vec<u64> = positions.iter().map(|&p| reference[p as usize]).collect();
                let pos = Column::from_slice(&positions);
                let what = format!("data {data_format}, {what}");
                assert_splices_to(&pos, &expected, &Format::DeltaDynBp, &what, |r| {
                    project_part(&data, &pos, r, &Format::DeltaDynBp)
                });
            }
        }
    }

    #[test]
    fn fused_select_project_sum_reads_every_data_format() {
        use crate::exec::{ExecutionContext, FormatConfig};
        use crate::parallel::ParallelExecutor;
        use crate::plan::PlanBuilder;
        use std::collections::HashMap;

        let mut b = PlanBuilder::new("fsp");
        let x = b.scan("x");
        let y = b.scan("y");
        let pos = b.select("pos", x, CmpOp::Lt, 40);
        let at = b.project("at", y, pos);
        let total = b.agg_sum("total", at);
        let plan = b.finish_scalar(total);

        let x_values = sample(12_000);
        let y_values: Vec<u64> = (0..12_000u64).map(|i| (i / 300) * 1000 + i % 5).collect();
        let expected = x_values
            .iter()
            .zip(&y_values)
            .filter(|(&x, _)| x < 40)
            .fold(0u64, |acc, (_, &y)| acc.wrapping_add(y));
        for y_format in Format::all_formats(40_000) {
            let columns = HashMap::from([
                ("x".to_string(), Column::from_slice(&x_values)),
                ("y".to_string(), Column::compress(&y_values, &y_format)),
            ]);
            for settings in [
                ExecSettings::vectorized_compressed().with_fusion(),
                ExecSettings::vectorized_compressed(),
            ] {
                let fused = settings.fusion;
                let formats = FormatConfig::with_default(Format::DynBp);
                let mut ctx = ExecutionContext::new(settings.clone(), formats.clone());
                let output = plan.execute(&columns, &mut ctx);
                assert_eq!(output.values, vec![expected], "{y_format}, fused {fused}");
                assert_eq!(ctx.fused_region_count(), usize::from(fused));
                // The same plan fanned out as morsel parts on two workers.
                let settings = settings.with_morsel_threshold(1024);
                let mut ctx = ExecutionContext::new(settings, formats);
                let output = ParallelExecutor::new(2).execute(&plan, &columns, &mut ctx);
                assert_eq!(
                    output.values,
                    vec![expected],
                    "{y_format}, fused {fused}, morsels"
                );
            }
        }
    }

    #[test]
    fn semi_join_parts_splice_byte_identically_for_all_formats() {
        let probe_values: Vec<u64> = (0..15_000u64).map(|i| i % 997).collect();
        let dense_build: Vec<u64> = (0..200u64).map(|i| i * 5).collect();
        // One far outlier stretches the key range past any dense table.
        let mut sparse_build = dense_build.clone();
        sparse_build.push(1 << 50);
        let expected = positions_where(&probe_values, |v| v % 5 == 0);
        assert_eq!(expected.len(), 15_000 / 997 * 200 + 9);
        for (build_values, dense) in [(&dense_build, true), (&sparse_build, false)] {
            let build = Column::compress(build_values, &Format::DynBp);
            for probe_format in Format::all_formats(996) {
                let probe = Column::compress(&probe_values, &probe_format);
                let set = build_semi_join_set(&build, probe.logical_len());
                assert_eq!(set.is_dense(), dense);
                let what = format!("{probe_format}, dense {dense}");
                assert_splices_to(&probe, &expected, &Format::DeltaDynBp, &what, |r| {
                    semi_join_part(&probe, &set, r, &Format::DeltaDynBp)
                });
            }
        }
    }

    #[test]
    fn calc_parts_splice_byte_identically_for_all_formats() {
        let lhs_values = sample(18_000);
        let rhs_values: Vec<u64> = (0..18_000u64).map(|i| (i * 31) % 4000 + 1).collect();
        // The right operand deliberately carries a different chunk grid.
        let rhs = Column::compress(&rhs_values, &Format::DeltaDynBp);
        for lhs_format in Format::all_formats(999) {
            let lhs = Column::compress(&lhs_values, &lhs_format);
            for out_format in [Format::DynBp, Format::Rle, Format::DeltaDynBp] {
                for op in [BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mul] {
                    let expected: Vec<u64> = lhs_values
                        .iter()
                        .zip(&rhs_values)
                        .map(|(&x, &y)| match op {
                            BinaryOp::Add => x.wrapping_add(y),
                            BinaryOp::Sub => x.wrapping_sub(y),
                            BinaryOp::Mul => x.wrapping_mul(y),
                        })
                        .collect();
                    let what = format!("{lhs_format} {op:?} -> {out_format}");
                    assert_splices_to(&lhs, &expected, &out_format, &what, |r| {
                        let style = ProcessingStyle::Vectorized;
                        calc_binary_part(op, &lhs, &rhs, r, &out_format, style)
                    });
                }
            }
        }
    }

    #[test]
    fn intersect_parts_splice_byte_identically() {
        let a_values: Vec<u64> = (0..40_000u64).filter(|i| i % 3 == 0).collect();
        let b_values: Vec<u64> = (0..40_000u64).filter(|i| i % 5 == 0).collect();
        let expected: Vec<u64> = (0..40_000u64).filter(|i| i % 15 == 0).collect();
        for (a_format, b_format) in [
            (Format::DeltaDynBp, Format::DeltaDynBp),
            (Format::DynBp, Format::Uncompressed),
            (Format::Uncompressed, Format::DynBp),
        ] {
            let a = Column::compress(&a_values, &a_format);
            let b = Column::compress(&b_values, &b_format);
            for out_format in [Format::DeltaDynBp, Format::Uncompressed, Format::Rle] {
                let what = format!("{a_format}/{b_format} -> {out_format}");
                assert_splices_to(&a, &expected, &out_format, &what, |r| {
                    intersect_sorted_part(&a, &b, r, &out_format)
                });
            }
        }
        // Asymmetric sizes: the partitioned side may be the shorter one.
        let small: Vec<u64> = (0..500u64).map(|i| i * 16).collect();
        let expected: Vec<u64> = small.iter().copied().filter(|v| v % 3 == 0).collect();
        let a = Column::compress(&small, &Format::DeltaDynBp);
        let b = Column::compress(&a_values, &Format::DeltaDynBp);
        assert_splices_to(&a, &expected, &Format::DeltaDynBp, "short a", |r| {
            intersect_sorted_part(&a, &b, r, &Format::DeltaDynBp)
        });
    }

    #[test]
    fn sum_parts_reduce_to_the_wrapping_sum_for_all_formats() {
        let mut values = sample(9000);
        values[17] = u64::MAX;
        values[8000] = u64::MAX - 3;
        let expected = values.iter().fold(0u64, |acc, &v| acc.wrapping_add(v));
        for format in Format::all_formats(u64::MAX) {
            let input = Column::compress(&values, &format);
            for style in [ProcessingStyle::Scalar, ProcessingStyle::Vectorized] {
                for parts in PARTS {
                    let total = partition(&input, parts)
                        .into_iter()
                        .map(|r| agg_sum_part(&input, r, style))
                        .fold(0u64, u64::wrapping_add);
                    assert_eq!(total, expected, "{format}, {style:?}, {parts} parts");
                }
            }
        }
    }

    #[test]
    fn effective_format_mirrors_the_purely_uncompressed_degree() {
        let compressed = ExecSettings::vectorized_compressed();
        let plain = ExecSettings::scalar_uncompressed();
        assert_eq!(
            effective_output_format(&Format::Rle, &compressed),
            Format::Rle
        );
        assert_eq!(
            effective_output_format(&Format::Rle, &plain),
            Format::Uncompressed
        );
    }

    #[test]
    fn empty_and_single_chunk_partitions() {
        let empty = Column::from_slice(&[]);
        assert!(partition(&empty, 4).is_empty());
        let tiny = Column::from_slice(&[1, 2, 3]);
        let ranges = partition(&tiny, 4);
        assert_eq!(ranges, vec![0..1]);
    }
}
