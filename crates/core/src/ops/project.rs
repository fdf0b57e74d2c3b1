//! The project operator: gather the values of a data column at a list of
//! positions.
//!
//! Project "requires random read access to compressed data, because \[it\] is
//! used to transfer the result of a selection on one column to another
//! column" (Section 4.2), and MorphStore restricts random access to
//! uncompressed data and static bit packing.  The position lists a plan
//! feeds into project are, however, mostly *sorted* — select, semi-join and
//! intersect emit ascending positions — and a sorted gather composes with
//! the data column's own sequential decoder instead of needing random
//! access.  So the restriction applies here only to non-ascending position
//! chunks (join outputs into dimension columns).  Each operator part reads
//! its data column through one reader, `Gather`:
//!
//! * **(a)** random-access formats are read per value with [`Column::get`],
//! * **(b)** any other format is read *forward* through the column's chunk
//!   cursor while a chunk of positions is non-decreasing — skipping whole
//!   directory chunks by seeking, never re-encoding,
//! * **(c)** a non-ascending chunk over any other format falls back to a
//!   static-BP copy of the data column (on-the-fly morphing), built at most
//!   once per reader and charged to the query's memory budget.

use morph_compression::{ChunkCursor, DecodeError, Format};
use morph_storage::{Column, ColumnCursor};

use crate::exec::ExecSettings;
use crate::ops::agg::agg_max;
use crate::ops::partitioned::{effective_output_format, project_part};

/// The reader one project part gathers its data column through — built
/// once per serial operator, morsel part or fused project stage, and fed
/// that part's position chunks in order.  The project chunk step is
/// [`Gather::gather_chunk`].
pub(crate) struct Gather<'d> {
    data: &'d Column,
    /// Case (b): the forward cursor, opened by the first ascending chunk.
    forward: Option<Forward<'d>>,
    /// Case (c): the random-access copy, built by the first non-ascending
    /// chunk.
    morphed: Option<Column>,
}

impl<'d> Gather<'d> {
    /// A reader over `data`; nothing is decoded or copied until the first
    /// chunk needs it.
    pub(crate) fn new(data: &'d Column) -> Gather<'d> {
        Gather {
            data,
            forward: None,
            morphed: None,
        }
    }

    /// The chunk step of project: append `data[position]` for every
    /// position of one chunk of the position list.
    ///
    /// # Panics
    /// Panics if a position is out of bounds for `data`; unwinds with a
    /// [`DecodeError`] payload if the data column fails to decode.
    pub(crate) fn gather_chunk(&mut self, positions: &[u64], out: &mut Vec<u64>) {
        out.reserve(positions.len());
        let data = self.data;
        if data.supports_random_access() {
            gather_random(data, positions, out);
        } else if positions.is_sorted() {
            // Ascending: the last position is the largest, and the first
            // out-of-bounds one is found by binary search.
            let in_bounds = positions.partition_point(|&p| (p as usize) < data.logical_len());
            if let Some(&position) = positions.get(in_bounds) {
                out_of_bounds(position);
            }
            self.forward
                .get_or_insert_with(|| Forward::new(data))
                .gather(data, positions, out);
        } else {
            let morphed = self.morphed.get_or_insert_with(|| random_access_copy(data));
            gather_random(morphed, positions, out);
        }
    }
}

/// Cases (a) and (c): one [`Column::get`] per position.
fn gather_random(data: &Column, positions: &[u64], out: &mut Vec<u64>) {
    for &position in positions {
        let value = data
            .get(position as usize)
            .unwrap_or_else(|| out_of_bounds(position));
        out.push(value);
    }
}

fn out_of_bounds(position: u64) -> ! {
    panic!("project: position {position} out of bounds")
}

/// Case (c): a static-BP copy of `data`, charged to the current query's
/// memory budget — it is O(column), unlike everything else a gather holds.
fn random_access_copy(data: &Column) -> Column {
    let max = agg_max(data, &ExecSettings::default());
    let morphed = data.to_format(&Format::static_bp_for_max(max));
    crate::govern::charge_transient(morphed.size_used_bytes());
    morphed
}

/// Case (b): a forward walk over the data column's chunk cursor, serving
/// ascending positions from the piece the cursor returned last.
struct Forward<'d> {
    cursor: ColumnCursor<'d>,
    /// Logical window `[lo, hi)` of the cursor's last returned piece.
    lo: usize,
    hi: usize,
    /// The directory chunk (column chunk index) containing `lo`.
    chunk: usize,
}

impl<'d> Forward<'d> {
    fn new(data: &'d Column) -> Forward<'d> {
        Forward {
            cursor: data.cursor(),
            lo: 0,
            hi: 0,
            chunk: 0,
        }
    }

    /// Gather the non-decreasing, in-bounds `positions`: move the window
    /// onto the first unserved position, then serve every position the
    /// window holds.
    fn gather(&mut self, data: &Column, positions: &[u64], out: &mut Vec<u64>) {
        let mut rest = positions;
        while let Some(&first) = rest.first() {
            let first = first as usize;
            if first < self.lo || first >= self.hi {
                self.advance_to(data, first);
            }
            let (lo, hi) = (self.lo, self.hi);
            let piece = self.cursor.last_chunk();
            let served = rest.partition_point(|&p| (p as usize) < hi);
            out.extend(rest[..served].iter().map(|&p| piece[p as usize - lo]));
            rest = &rest[served..];
        }
    }

    /// Move the window onto `position` (`< data.logical_len()`).
    ///
    /// Within or just past the current directory chunk the cursor is
    /// pulled forward; a target behind the window, or whole chunks ahead,
    /// is reached by seeking to the chunk containing it.  A directory chunk
    /// may span several cursor pieces (RLE), so after a seek the loop pulls
    /// — never re-seeks — until the window reaches the target.
    fn advance_to(&mut self, data: &Column, position: usize) {
        let pull_limit = data.chunk_logical_start((self.chunk + 2).min(data.chunk_count()));
        if position < self.lo || position >= pull_limit {
            self.chunk = chunk_containing(data, position);
            self.cursor.seek(self.chunk);
            self.lo = data.chunk_logical_start(self.chunk);
            self.hi = self.lo;
        }
        while position >= self.hi {
            let Some(piece) = self.cursor.next_chunk() else {
                // The cursor covers the whole column and `position` is in
                // bounds: running dry first means the data decoded short.
                std::panic::panic_any(DecodeError::Truncated {
                    format: "project",
                    offset: self.hi,
                    needed: position + 1,
                    available: self.hi,
                });
            };
            self.lo = self.hi;
            self.hi += piece.len();
        }
        while self.chunk + 1 < data.chunk_count()
            && data.chunk_logical_start(self.chunk + 1) <= self.lo
        {
            self.chunk += 1;
        }
    }
}

/// The last chunk of `data` whose logical start is `<= position` (binary
/// search over the chunk directory).
fn chunk_containing(data: &Column, position: usize) -> usize {
    let (mut lo, mut hi) = (0usize, data.chunk_count());
    while lo < hi {
        let mid = (lo + hi) / 2;
        if data.chunk_logical_start(mid) <= position {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo.saturating_sub(1)
}

/// Gather `data[position]` for every position in `positions` (in order),
/// materialising the output in `out_format`.
///
/// Under every integration degree this is the chunk-range kernel
/// [`project_part`] over the whole position list, reading `data` through
/// one `Gather` — on static BP that is one packed-word read per position.
///
/// # Panics
/// Panics if a position is out of bounds for `data`.
pub fn project(
    data: &Column,
    positions: &Column,
    out_format: &Format,
    settings: &ExecSettings,
) -> Column {
    project_part(
        data,
        positions,
        0..positions.chunk_count(),
        &effective_output_format(out_format, settings),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::IntegrationDegree;
    use std::time::Duration;

    fn sample(n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| (i * 37) % 2048).collect()
    }

    #[test]
    fn project_matches_reference_for_all_formats() {
        let data_values = sample(6000);
        let position_values: Vec<u64> = (0..6000u64).filter(|p| p % 3 == 0).collect();
        let expected: Vec<u64> = position_values
            .iter()
            .map(|&p| data_values[p as usize])
            .collect();
        for data_format in Format::all_formats(2047) {
            let data = Column::compress(&data_values, &data_format);
            for pos_format in [
                Format::Uncompressed,
                Format::DeltaDynBp,
                Format::StaticBp(13),
            ] {
                let positions = Column::compress(&position_values, &pos_format);
                let out = project(&data, &positions, &Format::DynBp, &ExecSettings::default());
                assert_eq!(
                    out.decompress(),
                    expected,
                    "data {data_format}, positions {pos_format}"
                );
            }
        }
    }

    #[test]
    fn project_output_format_is_respected() {
        let data = Column::compress(&sample(1000), &Format::StaticBp(11));
        let positions = Column::from_slice(&[0, 10, 999, 500, 500]);
        for out_format in Format::all_formats(2047) {
            let out = project(&data, &positions, &out_format, &ExecSettings::default());
            assert_eq!(out.format(), &out_format);
            assert_eq!(out.logical_len(), 5);
        }
    }

    #[test]
    fn project_preserves_position_order_and_duplicates() {
        let data = Column::from_slice(&[10, 20, 30, 40]);
        let positions = Column::from_slice(&[3, 0, 3, 1, 1]);
        let out = project(
            &data,
            &positions,
            &Format::Uncompressed,
            &ExecSettings::default(),
        );
        assert_eq!(out.decompress(), vec![40, 10, 40, 20, 20]);
    }

    #[test]
    fn purely_uncompressed_output() {
        let data = Column::from_slice(&sample(100));
        let positions = Column::from_slice(&[5, 6, 7]);
        let out = project(
            &data,
            &positions,
            &Format::Rle,
            &ExecSettings::scalar_uncompressed(),
        );
        assert_eq!(out.format(), &Format::Uncompressed);
    }

    #[test]
    fn empty_positions_give_empty_output() {
        let data = Column::compress(&sample(100), &Format::DynBp);
        let positions = Column::from_slice(&[]);
        let out = project(&data, &positions, &Format::DynBp, &ExecSettings::default());
        assert!(out.is_empty());
    }

    #[test]
    fn specialized_static_bp_project_equals_the_default_degree() {
        let data = Column::compress(&sample(6000), &Format::StaticBp(11));
        assert!(data.remainder_len() > 0, "test should cover the remainder");
        let position_values: Vec<u64> = (0..6000u64).filter(|p| p % 7 == 0).collect();
        let positions = Column::compress(&position_values, &Format::DeltaDynBp);
        let specialized = ExecSettings {
            degree: IntegrationDegree::Specialized,
            ..ExecSettings::default()
        };
        for out_format in [Format::DynBp, Format::Uncompressed] {
            assert_eq!(
                project(&data, &positions, &out_format, &specialized),
                project(&data, &positions, &out_format, &ExecSettings::default()),
                "out {out_format}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_position_panics() {
        let data = Column::from_slice(&[1, 2, 3]);
        let positions = Column::from_slice(&[7]);
        project(
            &data,
            &positions,
            &Format::Uncompressed,
            &ExecSettings::default(),
        );
    }

    #[test]
    fn out_of_bounds_positions_panic_on_every_path() {
        let data_values = sample(3000);
        for format in Format::all_formats(2047) {
            let data = Column::compress(&data_values, &format);
            for chunk in [vec![5u64, 2999, 3000], vec![3000, 5]] {
                let payload = std::panic::catch_unwind(|| {
                    Gather::new(&data).gather_chunk(&chunk, &mut Vec::new())
                })
                .expect_err("an out-of-bounds position must panic");
                let message = payload.downcast_ref::<String>().expect("a message payload");
                assert!(
                    message.contains("3000 out of bounds"),
                    "{format}: {message}"
                );
            }
        }
    }

    #[test]
    fn positions_in_the_remainder_are_projected_correctly() {
        // Data column where most positions land in the uncompressed remainder
        // of a 512-block format.
        let data_values = sample(600);
        let data = Column::compress(&data_values, &Format::DynBp);
        assert_eq!(data.main_part_len(), 512);
        let positions = Column::from_slice(&[511, 512, 599]);
        let out = project(
            &data,
            &positions,
            &Format::Uncompressed,
            &ExecSettings::default(),
        );
        assert_eq!(
            out.decompress(),
            vec![data_values[511], data_values[512], data_values[599]]
        );
    }

    /// Values with runs, so RLE columns are exercised with
    /// several pieces per directory chunk as well as short runs.
    fn runny(n: usize) -> Vec<u64> {
        (0..n as u64)
            .map(|i| (i / 700) * 31 % 1000 + i % 3 / 2)
            .collect()
    }

    /// The position patterns of the reader table over a column of `len`
    /// values whose remainder starts at `main_len`, each a sequence of
    /// chunks fed to one [`Gather`] in order.
    fn patterns(len: u64, main_len: u64) -> Vec<(&'static str, Vec<Vec<u64>>)> {
        let dense: Vec<u64> = (0..len).filter(|p| p % 5 != 0).collect();
        let sparse: Vec<u64> = (0..len).step_by(2500).collect();
        let dupes: Vec<u64> = (0..len).step_by(97).flat_map(|p| [p, p, p]).collect();
        let tail = main_len..len;
        let ascending: Vec<u64> = (0..len).step_by(3).collect();
        let descending: Vec<u64> = ascending.iter().rev().copied().collect();
        vec![
            ("dense ascending", vec![dense]),
            ("sparse ascending, stride 2500", vec![sparse]),
            ("duplicates", vec![dupes]),
            ("all in the remainder", vec![tail.collect()]),
            (
                "ascending, descending, ascending",
                vec![ascending.clone(), descending, ascending],
            ),
            (
                "chunk behind the previous window",
                vec![
                    (len / 2..len).step_by(11).collect(),
                    (0..len).step_by(13).collect(),
                    (len / 3..len / 3 + 40).collect(),
                ],
            ),
            ("empty", vec![Vec::new(), Vec::new()]),
        ]
    }

    #[test]
    fn gather_reader_table_matches_decompress_for_all_formats() {
        // 10_300 values: every blocked format carries a remainder.
        let values = runny(10_300);
        for format in Format::all_formats(1000) {
            let data = Column::compress(&values, &format);
            let reference = data.decompress();
            let (len, main_len) = (data.logical_len() as u64, data.main_part_len() as u64);
            for (what, chunks) in patterns(len, main_len) {
                let mut gather = Gather::new(&data);
                for chunk in &chunks {
                    let mut out = Vec::new();
                    gather.gather_chunk(chunk, &mut out);
                    let expected: Vec<u64> = chunk.iter().map(|&p| reference[p as usize]).collect();
                    assert_eq!(out, expected, "{format}, {what}");
                }
            }
        }
    }

    #[test]
    fn only_non_ascending_chunks_build_the_random_access_copy() {
        let values = runny(6000);
        for format in Format::all_formats(1000) {
            let data = Column::compress(&values, &format);
            let mut gather = Gather::new(&data);
            gather.gather_chunk(&[1, 1, 4000, 5999], &mut Vec::new());
            assert!(gather.morphed.is_none(), "{format}");
            gather.gather_chunk(&[5999, 1], &mut Vec::new());
            let needs_copy = !format.supports_random_access();
            assert_eq!(gather.morphed.is_some(), needs_copy, "{format}");
            assert_eq!(gather.forward.is_some(), needs_copy, "{format}");
        }
    }

    #[test]
    fn sparse_positions_over_long_rle_runs_finish() {
        // Runs far longer than a cursor piece: one directory chunk spans
        // many pieces, the trap of a reader that re-seeks to "the chunk
        // containing p" and treats that one piece as the whole chunk.
        // The gather runs on its own thread, so a reader that loops fails
        // this test after the timeout instead of hanging the suite.
        let values: Vec<u64> = (0..400_000u64).map(|i| i / 50_000).collect();
        let data = Column::compress(&values, &Format::Rle);
        assert!(data.chunk_count() < 20, "runs longer than the chunk target");
        let positions: Vec<u64> = (0..400_000u64).step_by(7919).collect();
        let expected: Vec<u64> = positions.iter().map(|&p| values[p as usize]).collect();
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let positions = Column::from_slice(&positions);
            let settings = ExecSettings::default();
            let out = project(&data, &positions, &Format::Uncompressed, &settings);
            let _ = done.send(out.decompress());
        });
        let out = finished
            .recv_timeout(Duration::from_secs(60))
            .expect("the gather finishes in bounded time");
        assert_eq!(out, expected);
    }

    #[test]
    fn a_cursor_running_dry_unwinds_with_a_decode_error() {
        let values = sample(5000);
        let data = Column::compress(&values, &Format::DeltaDynBp);
        // A cursor that ends early, standing in for a main part that
        // decodes fewer values than the column's logical length.
        for target in [1500u64, 4990] {
            let payload = std::panic::catch_unwind(|| {
                let mut gather = Gather::new(&data);
                gather.forward = Some(Forward {
                    cursor: data.cursor_at(0..1024),
                    lo: 0,
                    hi: 0,
                    chunk: 0,
                });
                gather.gather_chunk(&[3, target], &mut Vec::new());
            })
            .expect_err("a short cursor must not serve the position");
            assert!(
                matches!(
                    payload.downcast_ref::<DecodeError>(),
                    Some(DecodeError::Truncated {
                        format: "project",
                        ..
                    })
                ),
                "target {target}"
            );
        }
    }
}
