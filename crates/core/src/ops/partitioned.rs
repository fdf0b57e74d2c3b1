//! Chunk-partitioned variants of the hot operator kernels — the operator
//! side of intra-operator (morsel) parallelism.
//!
//! The paper's block-at-a-time processing (DP3) makes a compressed column a
//! sequence of independently decodable chunks, recorded in the column's
//! seekable chunk directory ([`Column::chunk_count`],
//! [`Column::for_each_chunk_in`]).  A *morsel* is a contiguous range of
//! those chunks; each per-part kernel in this module processes one range
//! into a private partial result, and [`concat_partials`] splices the
//! partials back — in range order — into a column that is **byte-identical**
//! to the single-threaded operator:
//!
//! * every per-part kernel emits exactly the values the serial kernel would
//!   emit for that logical range (select positions are computed from the
//!   chunk's global logical start, so no rebasing pass is needed at merge
//!   time),
//! * the semi-join goes one step further: the serial [`crate::semi_join`]
//!   *is* [`semi_join_part`] over the whole chunk range, probing the same
//!   shared [`KeySet`] ([`build_semi_join_set`]) chunk by chunk through its
//!   bulk kernel, so serial and partitioned execution cannot drift apart,
//! * [`morph_storage::ColumnBuilder::append_column`] re-creates the serial
//!   builder's byte stream (splicing without re-encoding where the format's
//!   blocks are position-independent), and
//! * partial sums of the wrapping [`agg_sum`](crate::agg_sum) reduce
//!   associatively.
//!
//! The [`crate::parallel::ParallelExecutor`] drives these kernels from its
//! worker pool; the functions are public so tests (and other schedulers)
//! can exercise the partition → process → merge pipeline directly.

use std::ops::Range;

use morph_compression::{ChunkCursor, Format};
use morph_storage::{Column, ColumnBuilder};
use morph_vector::emu::V512;
use morph_vector::kernels::{self, BinaryOp};
use morph_vector::keys::KeySet;
use morph_vector::scalar::Scalar;
use morph_vector::ProcessingStyle;

use crate::exec::{ExecSettings, IntegrationDegree};
use crate::ops::agg::sum_chunk;
use crate::ops::select::filter_chunk;
use crate::ops::PullSide;
use crate::CmpOp;

/// Partition a column's seekable chunks into at most `parts` contiguous
/// ranges of roughly equal logical span (delegates to
/// [`Column::partition_chunks`]).
pub fn partition(input: &Column, parts: usize) -> Vec<Range<usize>> {
    input.partition_chunks(parts)
}

/// The format a partial result (and the merged column) is materialised in:
/// the requested output format, except under the purely uncompressed degree,
/// where operators ignore the output format (the baseline involves no
/// compressed data at all).
pub fn effective_output_format(out_format: &Format, settings: &ExecSettings) -> Format {
    if settings.degree == IntegrationDegree::PurelyUncompressed {
        Format::Uncompressed
    } else {
        *out_format
    }
}

/// Partial select: the positions of the chunk range `chunks` of `input`
/// whose value satisfies `op` against `constant`, materialised in `format`.
///
/// Positions are global (offset by each chunk's logical start), so
/// concatenating the partials of a contiguous partition in range order
/// yields exactly the serial [`crate::select`] output.
pub fn select_part(
    op: CmpOp,
    input: &Column,
    constant: u64,
    chunks: Range<usize>,
    format: &Format,
    style: ProcessingStyle,
) -> Column {
    let mut builder = ColumnBuilder::new(*format);
    let mut scratch: Vec<u64> = Vec::new();
    input.for_each_chunk_in(chunks, &mut |start, chunk| {
        crate::govern::checkpoint_chunk();
        scratch.clear();
        filter_chunk(style, op, chunk, constant, start, &mut scratch);
        builder.push_slice(&scratch);
    });
    builder.finish()
}

/// Partial range select: the positions of the chunk range `chunks` of
/// `input` whose value lies in `[low, high]` (the partitioned
/// [`crate::select_between`]).
pub fn select_between_part(
    input: &Column,
    low: u64,
    high: u64,
    chunks: Range<usize>,
    format: &Format,
) -> Column {
    let mut builder = ColumnBuilder::new(*format);
    let mut scratch: Vec<u64> = Vec::new();
    input.for_each_chunk_in(chunks, &mut |start, chunk| {
        crate::govern::checkpoint_chunk();
        scratch.clear();
        for (i, &value) in chunk.iter().enumerate() {
            if value >= low && value <= high {
                scratch.push(start + i as u64);
            }
        }
        builder.push_slice(&scratch);
    });
    builder.finish()
}

/// Partial project: gather `data[position]` for the chunk range `chunks` of
/// the position list.  `data` must support random access — the caller morphs
/// it **once** before fanning out (mirroring the serial
/// [`crate::project`]), so workers never repeat the morph.
pub fn project_part(
    data: &Column,
    positions: &Column,
    chunks: Range<usize>,
    format: &Format,
) -> Column {
    assert!(
        data.supports_random_access(),
        "project_part requires a random-access data column; morph before fanning out"
    );
    let mut builder = ColumnBuilder::new(*format);
    let mut scratch: Vec<u64> = Vec::new();
    positions.for_each_chunk_in(chunks, &mut |_, chunk| {
        crate::govern::checkpoint_chunk();
        scratch.clear();
        for &position in chunk {
            let value = data
                .get(position as usize)
                .unwrap_or_else(|| panic!("project: position {position} out of bounds"));
            scratch.push(value);
        }
        builder.push_slice(&scratch);
    });
    builder.finish()
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
/// `probe` whose value occurs in the shared build `set` (the partitioned
/// probe side of [`crate::semi_join`], which itself is this kernel over the
/// whole chunk range).
///
/// An empty set matches nothing, so the probe range is not even decoded.
pub fn semi_join_part(
    probe: &Column,
    set: &KeySet,
    chunks: Range<usize>,
    format: &Format,
) -> Column {
    let mut builder = ColumnBuilder::new(*format);
    if !set.is_empty() {
        let mut scratch: Vec<u64> = Vec::new();
        probe.for_each_chunk_in(chunks, &mut |start, chunk| {
            crate::govern::checkpoint_chunk();
            scratch.clear();
            set.probe_positions(chunk, start, &mut scratch);
            builder.push_slice(&scratch);
        });
    }
    builder.finish()
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
/// span of the chunk range `chunks` of `lhs` (the partitioned
/// [`crate::calc_binary`]).
///
/// `lhs` is streamed by its own chunk directory; the *aligned logical
/// range* of `rhs` is pulled through [`Column::cursor_at`] into a carry
/// buffer bounded by one chunk — the partitioned analogue of the serial
/// operator's streaming pairwise reader (`zip_chunks`), so a part's
/// transient memory is O(chunk) irrespective of its span.
pub fn calc_binary_part(
    op: BinaryOp,
    lhs: &Column,
    rhs: &Column,
    chunks: Range<usize>,
    format: &Format,
    style: ProcessingStyle,
) -> Column {
    assert!(
        lhs.logical_len() == rhs.logical_len(),
        "position-wise operators require equally long inputs: \
         lhs holds {} elements ({}), rhs holds {} elements ({})",
        lhs.logical_len(),
        lhs.format(),
        rhs.logical_len(),
        rhs.format(),
    );
    let start = lhs.chunk_logical_start(chunks.start);
    let end = lhs.chunk_logical_start(chunks.end);
    let mut pulled = PullSide::new(rhs.cursor_at(start..end));
    let mut builder = ColumnBuilder::new(*format);
    let mut scratch: Vec<u64> = Vec::new();
    lhs.for_each_chunk_in(chunks, &mut |_, chunk| {
        crate::govern::checkpoint_chunk();
        let mut done = 0usize;
        while done < chunk.len() {
            let available = pulled.peek();
            // A drained pull side here means the rhs decoded fewer values
            // than the aligned span — fail loudly with a structured
            // payload, never spin.
            if available.is_empty() {
                std::panic::panic_any(morph_compression::DecodeError::CorruptHeader {
                    format: "pairwise",
                    detail: format!(
                        "rhs ({}) ended early inside logical range {start}..{end}",
                        rhs.format(),
                    ),
                });
            }
            let n = (chunk.len() - done).min(available.len());
            scratch.clear();
            match style {
                ProcessingStyle::Scalar => kernels::binary_op::<Scalar>(
                    op,
                    &chunk[done..done + n],
                    &available[..n],
                    &mut scratch,
                ),
                ProcessingStyle::Vectorized => kernels::binary_op::<V512>(
                    op,
                    &chunk[done..done + n],
                    &available[..n],
                    &mut scratch,
                ),
            }
            builder.push_slice(&scratch);
            pulled.advance(n);
            done += n;
        }
    });
    pulled.finish();
    builder.finish()
}

/// Partial sorted intersection: the values of the chunk range `chunks` of
/// `a` that also occur in the sorted column `b` (the partitioned
/// [`crate::intersect_sorted`]).
///
/// Both sides stay compressed: each part opens its own [`ChunkCursor`] over
/// `b`, seeks it to the chunk containing the part's first value (binary
/// search over `b`'s chunk directory, probing one decoded chunk per step)
/// and merge-walks from there through a carry buffer bounded by one chunk —
/// so a part costs its share of `a` plus the matching span of `b`, with
/// O(chunk) transient memory.  Both position lists are strictly increasing,
/// so concatenating the partials of a contiguous partition in range order
/// yields exactly the serial intersection.
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
        // One cursor per part, constructed lazily (DICT decodes its
        // embedded dictionary at construction) and positioned once by
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
/// concatenated value sequence, i.e. to the serial operator
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
    use crate::ops::select::{select, select_between};
    use crate::{agg_sum, project, semi_join};

    fn sample(n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| (i * 2654435761) % 1000).collect()
    }

    #[test]
    fn partitioned_select_is_byte_identical_to_serial_for_all_formats() {
        let values = sample(20_000);
        let settings = ExecSettings::vectorized_compressed();
        for in_format in Format::all_formats(999) {
            let input = Column::compress(&values, &in_format);
            for out_format in [Format::DeltaDynBp, Format::DynBp, Format::Rle, Format::Dict] {
                let serial = select(CmpOp::Lt, &input, 300, &out_format, &settings);
                for parts in [1, 2, 3, 7] {
                    let ranges = partition(&input, parts);
                    let partials: Vec<Column> = ranges
                        .iter()
                        .map(|r| {
                            select_part(
                                CmpOp::Lt,
                                &input,
                                300,
                                r.clone(),
                                &out_format,
                                settings.style,
                            )
                        })
                        .collect();
                    let merged = concat_partials(&out_format, &partials);
                    assert_eq!(merged, serial, "{in_format} -> {out_format}, {parts} parts");
                }
            }
        }
    }

    #[test]
    fn partitioned_select_between_matches_serial() {
        let values = sample(12_000);
        let input = Column::compress(&values, &Format::DynBp);
        let settings = ExecSettings::vectorized_compressed();
        let serial = select_between(&input, 100, 400, &Format::DeltaDynBp, &settings);
        let partials: Vec<Column> = partition(&input, 4)
            .iter()
            .map(|r| select_between_part(&input, 100, 400, r.clone(), &Format::DeltaDynBp))
            .collect();
        assert_eq!(concat_partials(&Format::DeltaDynBp, &partials), serial);
    }

    #[test]
    fn partitioned_project_matches_serial() {
        let data_values = sample(8000);
        let positions: Vec<u64> = (0..8000u64).filter(|p| p % 3 == 0).collect();
        let data = Column::compress(&data_values, &Format::StaticBp(10));
        let pos = Column::compress(&positions, &Format::DeltaDynBp);
        let settings = ExecSettings::vectorized_compressed();
        let serial = project(&data, &pos, &Format::DynBp, &settings);
        let partials: Vec<Column> = partition(&pos, 3)
            .iter()
            .map(|r| project_part(&data, &pos, r.clone(), &Format::DynBp))
            .collect();
        assert_eq!(concat_partials(&Format::DynBp, &partials), serial);
    }

    #[test]
    fn partitioned_semi_join_is_byte_identical_to_serial_for_all_formats() {
        let probe_values: Vec<u64> = (0..15_000u64).map(|i| i % 997).collect();
        let dense_build: Vec<u64> = (0..200u64).map(|i| i * 5).collect();
        // One far outlier stretches the key range past any dense table.
        let mut sparse_build = dense_build.clone();
        sparse_build.push(1 << 50);
        let settings = ExecSettings::vectorized_compressed();
        for (build_values, dense) in [(&dense_build, true), (&sparse_build, false)] {
            let build = Column::compress(build_values, &Format::DynBp);
            for probe_format in Format::all_formats(996) {
                let probe = Column::compress(&probe_values, &probe_format);
                let serial = semi_join(&probe, &build, &Format::DeltaDynBp, &settings);
                assert_eq!(serial.logical_len(), 15_000 / 997 * 200 + 9);
                let set = build_semi_join_set(&build, probe.logical_len());
                assert_eq!(set.is_dense(), dense);
                for parts in [1, 2, 5] {
                    let partials: Vec<Column> = partition(&probe, parts)
                        .iter()
                        .map(|r| semi_join_part(&probe, &set, r.clone(), &Format::DeltaDynBp))
                        .collect();
                    assert_eq!(
                        concat_partials(&Format::DeltaDynBp, &partials),
                        serial,
                        "{probe_format}, {parts} parts, dense {dense}"
                    );
                }
            }
        }
    }

    #[test]
    fn partitioned_calc_is_byte_identical_to_serial_for_all_formats() {
        let lhs_values = sample(18_000);
        let rhs_values: Vec<u64> = (0..18_000u64).map(|i| (i * 31) % 4000 + 1).collect();
        let settings = ExecSettings::vectorized_compressed();
        for lhs_format in Format::all_formats(999) {
            let lhs = Column::compress(&lhs_values, &lhs_format);
            // The right operand deliberately carries a different chunk grid.
            let rhs = Column::compress(&rhs_values, &Format::DeltaDynBp);
            for out_format in [Format::DynBp, Format::Rle, Format::DeltaDynBp] {
                for op in [BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mul] {
                    let serial = crate::calc_binary(op, &lhs, &rhs, &out_format, &settings);
                    for parts in [1, 2, 5] {
                        let partials: Vec<Column> = partition(&lhs, parts)
                            .iter()
                            .map(|r| {
                                calc_binary_part(
                                    op,
                                    &lhs,
                                    &rhs,
                                    r.clone(),
                                    &out_format,
                                    settings.style,
                                )
                            })
                            .collect();
                        let merged = concat_partials(&out_format, &partials);
                        assert_eq!(
                            merged, serial,
                            "{lhs_format} {op:?} -> {out_format}, {parts} parts"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn partitioned_intersect_is_byte_identical_to_serial() {
        let a_values: Vec<u64> = (0..40_000u64).filter(|i| i % 3 == 0).collect();
        let b_values: Vec<u64> = (0..40_000u64).filter(|i| i % 5 == 0).collect();
        let settings = ExecSettings::vectorized_compressed();
        for (a_format, b_format) in [
            (Format::DeltaDynBp, Format::DeltaDynBp),
            (Format::DynBp, Format::Uncompressed),
            (Format::Uncompressed, Format::DynBp),
        ] {
            let a = Column::compress(&a_values, &a_format);
            let b = Column::compress(&b_values, &b_format);
            for out_format in [Format::DeltaDynBp, Format::Uncompressed, Format::Rle] {
                let serial = crate::intersect_sorted(&a, &b, &out_format, &settings);
                for parts in [1, 2, 4, 9] {
                    let partials: Vec<Column> = partition(&a, parts)
                        .iter()
                        .map(|r| intersect_sorted_part(&a, &b, r.clone(), &out_format))
                        .collect();
                    let merged = concat_partials(&out_format, &partials);
                    assert_eq!(
                        merged, serial,
                        "{a_format}/{b_format} -> {out_format}, {parts} parts"
                    );
                }
            }
        }
        // Asymmetric sizes: the partitioned side may be the shorter one.
        let small: Vec<u64> = (0..500u64).map(|i| i * 16).collect();
        let a = Column::compress(&small, &Format::DeltaDynBp);
        let b = Column::compress(&a_values, &Format::DeltaDynBp);
        let serial = crate::intersect_sorted(&a, &b, &Format::DeltaDynBp, &settings);
        let partials: Vec<Column> = partition(&a, 3)
            .iter()
            .map(|r| intersect_sorted_part(&a, &b, r.clone(), &Format::DeltaDynBp))
            .collect();
        assert_eq!(concat_partials(&Format::DeltaDynBp, &partials), serial);
    }

    #[test]
    fn partitioned_sum_matches_serial_including_wrapping() {
        let mut values = sample(9000);
        values[17] = u64::MAX;
        values[8000] = u64::MAX - 3;
        for format in [Format::Uncompressed, Format::DynBp, Format::Rle] {
            let input = Column::compress(&values, &format);
            let serial = agg_sum(&input, &ExecSettings::vectorized_compressed());
            let total = partition(&input, 4)
                .into_iter()
                .map(|r| agg_sum_part(&input, r, ProcessingStyle::Vectorized))
                .fold(0u64, u64::wrapping_add);
            assert_eq!(total, serial, "format {format}");
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
