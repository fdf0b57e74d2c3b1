//! The physical query operators of the engine.
//!
//! The operator set is the one needed to execute the Star Schema Benchmark
//! (Section 4.2 of the paper); all operators are "strongly inspired by those
//! of MonetDB" and work on headless columns (mere sequences of unsigned
//! integers).  Every operator sits on the single read path of Figure 4
//! (DESIGN.md, "Read path") — bytes → format cursor → `ColumnCursor` →
//! chunk step → `ColumnBuilder` — under one invariant: **one decoder per
//! format, one chunk step per operator, serial = one part.**
//!
//! * the **chunk step** is the operator core: one function per operator
//!   (`select::select_chunk` for every [`select::Predicate`],
//!   `calc::binary_chunk`, `agg::sum_chunk`, the `PullSide::merge_step` of
//!   the sorted merges) turning one uncompressed, cache-resident chunk into
//!   output values through a kernel from [`morph_vector::kernels`]
//!   monomorphised for scalar or vectorized processing; project's step,
//!   `project::Gather::gather_chunk`, is a stateful per-part reader of its
//!   data column,
//! * the **chunk-range kernel** ([`partitioned`]) is the on-the-fly
//!   de/re-compression wrapper around it: it streams a range of the input's
//!   seekable chunks ([`morph_storage::Column::for_each_chunk_in`], driven
//!   by the column's cursor) through the step and recompresses the output in
//!   a [`morph_storage::ColumnBuilder`],
//! * the **public operator function** is, under the two general integration
//!   degrees, that kernel over the whole chunk range writing in
//!   [`partitioned::effective_output_format`]; a morsel is the same kernel
//!   over a sub-range and a fused region ([`crate::fusion`]) chains the same
//!   steps per driver chunk.  The specialized and morphing degrees branch
//!   off to [`crate::specialized`] before the read path.

pub mod agg;
pub mod calc;
pub mod group;
pub mod join;
pub mod merge;
pub mod morph_op;
pub mod partitioned;
pub mod project;
pub mod select;

use std::ops::Range;

use morph_compression::ChunkCursor;
use morph_storage::Column;

/// Peak-size accounting for the *transient* carry buffers of the pairwise
/// operators — the buffers that pair two compressed inputs position-wise
/// and are never materialised as plan intermediates.
///
/// Every carry buffer is bounded by one decoded chunk
/// ([`morph_compression::CACHE_BUFFER_ELEMENTS`] values); this module
/// records the high-water mark so the CI tests — per operator
/// (`crates/core/tests/pairwise_transient.rs`) and over all 13 SSB plans
/// (`crates/ssb/tests/ssb_transient.rs`) — can assert the O(chunk) bound
/// instead of trusting it.
pub mod transient {
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Upper bound, in bytes, of one pairwise carry buffer: one decoded
    /// chunk of `u64` values.
    pub const CARRY_BOUND_BYTES: usize = morph_compression::CACHE_BUFFER_ELEMENTS * 8;

    static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

    /// Record a carry buffer's capacity; keeps the maximum ever seen since
    /// the last [`reset`].
    ///
    /// The buffer is also charged to the **current query's**
    /// [`QueryGovernor`](crate::govern::QueryGovernor), when one is
    /// registered: memory verdicts are per query, so a concurrent tenant's
    /// spike cannot trip another query's budget.  The process-global peak
    /// below remains for the CI bound tests.
    pub(crate) fn record(bytes: usize) {
        PEAK_BYTES.fetch_max(bytes, Ordering::Relaxed);
        crate::govern::charge_transient(bytes);
    }

    /// The largest pairwise carry buffer (in bytes) observed since the last
    /// [`reset`], across all threads.
    pub fn peak_bytes() -> usize {
        PEAK_BYTES.load(Ordering::Relaxed)
    }

    /// Reset the high-water mark to zero.
    pub fn reset() {
        PEAK_BYTES.store(0, Ordering::Relaxed);
    }
}

/// The outcome of one [`PullSide::merge_step`] of a sorted merge-walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MergeStep {
    /// The probed value occurs in the pulled stream (and was consumed).
    Matched,
    /// The pulled stream's next value exceeds the probed value.
    Absent,
    /// The pulled stream ended before reaching the probed value.
    Exhausted,
}

/// A pull side of a pairwise pairing: a chunk cursor whose current chunk is
/// the carry, served in aligned pieces at the pace of the other (pushed)
/// input.  No bytes are copied — `peek` re-borrows the cursor's resident
/// decode buffer via [`ChunkCursor::last_chunk`] — and the carry is bounded
/// by one decoded chunk by construction.
pub(crate) struct PullSide<'a> {
    cursor: morph_storage::ColumnCursor<'a>,
    /// Unserved prefix start within the current chunk.
    off: usize,
    /// Length of the current chunk (0 before the first decode).
    len: usize,
    /// Largest chunk seen, for the [`transient`] high-water mark.
    max_len: usize,
}

impl<'a> PullSide<'a> {
    pub(crate) fn new(cursor: morph_storage::ColumnCursor<'a>) -> PullSide<'a> {
        PullSide {
            cursor,
            off: 0,
            len: 0,
            max_len: 0,
        }
    }

    /// Ensure the current chunk holds at least one unserved value; returns
    /// `false` when the stream has ended.
    fn refill(&mut self) -> bool {
        if self.off < self.len {
            return true;
        }
        match self.cursor.next_chunk() {
            Some(piece) => {
                crate::govern::checkpoint_chunk();
                self.off = 0;
                self.len = piece.len();
                self.max_len = self.max_len.max(self.len);
                true
            }
            None => false,
        }
    }

    /// The unserved values of the current chunk (refilling first); empty
    /// exactly when the stream has ended.
    pub(crate) fn peek(&mut self) -> &[u64] {
        if self.refill() {
            &self.cursor.last_chunk()[self.off..]
        } else {
            &[]
        }
    }

    /// Mark the first `n` unserved values as served.
    pub(crate) fn advance(&mut self, n: usize) {
        debug_assert!(self.off + n <= self.len);
        self.off += n;
    }

    /// One step of a sorted merge-walk against an ascending probe stream:
    /// skip every pulled value smaller than `value` (handing each to
    /// `emit_smaller` — a no-op closure for intersections), consume `value`
    /// itself if present, and report what happened.  The chunk step of the
    /// sorted intersection and union.
    pub(crate) fn merge_step(
        &mut self,
        value: u64,
        mut emit_smaller: impl FnMut(u64),
    ) -> MergeStep {
        loop {
            let available = self.peek();
            if available.is_empty() {
                return MergeStep::Exhausted;
            }
            let carried = available.len();
            let smaller = available.partition_point(|&other| other < value);
            for &other in &available[..smaller] {
                emit_smaller(other);
            }
            let matched = available.get(smaller) == Some(&value);
            self.advance(smaller + usize::from(matched));
            if matched {
                return MergeStep::Matched;
            }
            if smaller < carried {
                return MergeStep::Absent;
            }
            // Chunk drained below `value`: pull the next one.
        }
    }

    /// Record the carry's high-water mark with [`transient`].  Called once
    /// per operator, after the pairing loop.
    pub(crate) fn finish(&self) {
        transient::record(self.max_len * 8);
    }
}

/// Iterate the chunk range `chunks` of `a` and the aligned logical range of
/// the equally long column `b` position-wise, invoking `f` with pairs of
/// equally long uncompressed chunks.
///
/// Both inputs stay compressed end to end: `a` is streamed by its own chunk
/// directory and `b` is *pulled* through [`Column::cursor_at`] into a carry
/// bounded by one chunk, so no transient full-column buffer exists on
/// either side and a part's transient memory is O(chunk) irrespective of
/// its span.
///
/// # Panics
/// Panics if the inputs differ in logical length; the message names both
/// columns' lengths and formats so a plan-level failure is diagnosable.
pub(crate) fn zip_chunks(
    a: &Column,
    b: &Column,
    chunks: Range<usize>,
    f: &mut dyn FnMut(&[u64], &[u64]),
) {
    assert!(
        a.logical_len() == b.logical_len(),
        "position-wise operators require equally long inputs: \
         lhs holds {} elements ({}), rhs holds {} elements ({})",
        a.logical_len(),
        a.format(),
        b.logical_len(),
        b.format(),
    );
    let start = a.chunk_logical_start(chunks.start);
    let end = a.chunk_logical_start(chunks.end);
    let mut pulled = PullSide::new(b.cursor_at(start..end));
    a.for_each_chunk_in(chunks, &mut |_, chunk| {
        crate::govern::checkpoint_chunk();
        let mut done = 0usize;
        while done < chunk.len() {
            let available = pulled.peek();
            // A drained pull side here means the rhs decoded fewer values
            // than the aligned span (corrupt directory / truncated main
            // part) — fail loudly with a structured payload, never spin.
            if available.is_empty() {
                std::panic::panic_any(morph_compression::DecodeError::CorruptHeader {
                    format: "pairwise",
                    detail: format!(
                        "rhs ({}) ended early inside logical range {start}..{end}",
                        b.format(),
                    ),
                });
            }
            let n = (chunk.len() - done).min(available.len());
            f(&chunk[done..done + n], &available[..n]);
            pulled.advance(n);
            done += n;
        }
    });
    pulled.finish();
}

#[cfg(test)]
mod tests {
    use super::*;
    use morph_compression::Format;

    #[test]
    fn zip_chunks_pairs_values_in_order() {
        let a_values: Vec<u64> = (0..5000).collect();
        let b_values: Vec<u64> = (0..5000).map(|i| i * 2).collect();
        let a = Column::compress(&a_values, &Format::DynBp);
        let b = Column::compress(&b_values, &Format::DeltaDynBp);
        let mut pairs = Vec::new();
        zip_chunks(&a, &b, 0..a.chunk_count(), &mut |ca, cb| {
            assert_eq!(ca.len(), cb.len());
            pairs.extend(ca.iter().zip(cb.iter()).map(|(&x, &y)| (x, y)));
        });
        assert_eq!(pairs.len(), 5000);
        assert!(pairs.iter().all(|&(x, y)| y == x * 2));
    }

    #[test]
    #[should_panic(expected = "equally long")]
    fn zip_chunks_rejects_length_mismatch() {
        let a = Column::from_slice(&[1, 2, 3]);
        let b = Column::from_slice(&[1, 2]);
        zip_chunks(&a, &b, 0..1, &mut |_, _| {});
    }
}
