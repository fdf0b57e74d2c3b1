//! The column data structure.

use std::sync::{Arc, OnceLock};

use morph_compression::{
    chunk_directory, compress_main_part, cursor_for, get_element, morph, uncompressed, ByteSink,
    ChunkCursor, ChunkEntry, DecodeError, Format,
};

use crate::builder::ColumnBuilder;
use crate::stats::ColumnStats;

/// An immutable column of unsigned 64-bit integers, stored in one contiguous
/// byte buffer as a compressed main part followed by an uncompressed
/// remainder (Figure 3 of the paper).
///
/// For a column of `n` data elements and a format with block size `bs`, the
/// main part holds the first `n - n % bs` elements encoded in the column's
/// format and the remainder holds the last `n % bs` elements as plain 64-bit
/// integers.  The metadata (logical length, main-part length and byte sizes)
/// is kept alongside the buffer, mirroring the separate metadata structure of
/// the paper.
#[derive(Debug, Clone)]
pub struct Column {
    format: Format,
    /// Logical number of data elements.
    len: usize,
    /// Number of data elements in the compressed main part.
    main_len: usize,
    /// Byte length of the compressed main part within `data`.
    main_bytes: usize,
    /// Main part bytes followed by the uncompressed remainder.
    data: Vec<u8>,
    /// Seekable chunk directory of the main part, recorded at compression
    /// time: per decodable chunk, the byte offset and logical start
    /// ([`morph_compression::chunk_directory`]).  Deterministically derived
    /// from `(format, data, main_len)`, so equal columns carry equal
    /// directories and `PartialEq` stays byte-identity.
    chunks: Vec<ChunkEntry>,
    /// Compute-once memo of [`Column::stats`] (cloned along with the
    /// column, so a captured copy keeps the already-computed statistics).
    /// `Arc`-boxed: the statistics struct is large (a 64-entry histogram)
    /// and must not inflate every `Column` move.
    stats: OnceLock<Arc<ColumnStats>>,
    /// Compute-once memo of [`Column::fingerprint`].
    content_hash: OnceLock<u64>,
}

/// What a footprint record needs of a column: its format, logical length
/// and physical size.  [`Column::size`] reports it for an encoded column; a
/// sizing [`ColumnBuilder`] reports it without encoding one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnSize {
    /// The column's compression format.
    pub format: Format,
    /// Logical number of data elements.
    pub len: usize,
    /// Physical size in bytes ([`Column::size_used_bytes`]).
    pub bytes: usize,
}

/// Byte identity of the stored representation: format, logical layout and
/// the data buffer.  The compute-once memo fields are deliberately excluded
/// — a column that has computed its statistics is still *equal* to a fresh
/// copy that has not.
impl PartialEq for Column {
    fn eq(&self, other: &Self) -> bool {
        self.format == other.format
            && self.len == other.len
            && self.main_len == other.main_len
            && self.main_bytes == other.main_bytes
            && self.data == other.data
    }
}

impl Eq for Column {}

// Columns are shared across the worker threads of the parallel plan executor
// (as `&Column` borrows of the source and as `Arc<Column>` in caches); the
// type must stay `Send + Sync`, i.e. hold only plain owned data.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Column>();
};

impl Column {
    /// Create an uncompressed column from a slice of values.
    pub fn from_slice(values: &[u64]) -> Column {
        Column::compress(values, &Format::Uncompressed)
    }

    /// Create an uncompressed column from a vector of values.
    pub fn from_vec(values: Vec<u64>) -> Column {
        Column::from_slice(&values)
    }

    /// Compress `values` into a column with the given `format`.
    pub fn compress(values: &[u64], format: &Format) -> Column {
        let (main, main_len) = compress_main_part(format, values);
        let mut data = main;
        let main_bytes = data.len();
        data.put_words(&values[main_len..]);
        Column::from_parts(*format, values.len(), main_len, main_bytes, data)
    }

    /// Assemble a column from raw parts, recording the chunk directory of
    /// the main part.  Used by [`ColumnBuilder`] and the morph fast path;
    /// not part of the public construction API.
    pub(crate) fn from_parts(
        format: Format,
        len: usize,
        main_len: usize,
        main_bytes: usize,
        data: Vec<u8>,
    ) -> Column {
        debug_assert!(main_len <= len);
        debug_assert_eq!(data.len(), main_bytes + (len - main_len) * 8);
        let chunks = chunk_directory(&format, &data[..main_bytes], main_len);
        Column {
            format,
            len,
            main_len,
            main_bytes,
            data,
            chunks,
            stats: OnceLock::new(),
            content_hash: OnceLock::new(),
        }
    }

    /// The column's compression format.
    pub fn format(&self) -> &Format {
        &self.format
    }

    /// Logical number of data elements.
    pub fn logical_len(&self) -> usize {
        self.len
    }

    /// Whether the column holds no data elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of data elements stored in the compressed main part.
    pub fn main_part_len(&self) -> usize {
        self.main_len
    }

    /// Number of data elements stored in the uncompressed remainder.
    pub fn remainder_len(&self) -> usize {
        self.len - self.main_len
    }

    /// Bytes of the compressed main part.
    pub fn main_part_bytes(&self) -> &[u8] {
        &self.data[..self.main_bytes]
    }

    /// The uncompressed remainder, decoded.
    pub fn remainder_values(&self) -> Vec<u64> {
        self.data[self.main_bytes..]
            .chunks_exact(8)
            .map(|word| uncompressed::get(word, 0))
            .collect()
    }

    /// Total number of bytes used by the column's data (compressed main part
    /// plus uncompressed remainder).  This is the "memory footprint" metric
    /// used throughout the paper's evaluation.
    pub fn size_used_bytes(&self) -> usize {
        self.data.len()
    }

    /// The column's format, logical length and physical size.
    pub fn size(&self) -> ColumnSize {
        ColumnSize {
            format: self.format,
            len: self.len,
            bytes: self.size_used_bytes(),
        }
    }

    /// Decompress the whole column into a vector.
    pub fn decompress(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.len);
        self.for_each_chunk(&mut |chunk| out.extend_from_slice(chunk));
        out
    }

    /// Visit the column's values as a sequence of cache-resident uncompressed
    /// chunks ([`Column::cursor`] driven to completion): the main part is
    /// decompressed block by block, then the remainder is passed as one
    /// final chunk.
    ///
    /// This is the input-side buffer layer of Figure 4 — no operator ever
    /// needs the whole column in uncompressed form (DP3).
    pub fn for_each_chunk(&self, consumer: &mut dyn FnMut(&[u64])) {
        let mut cursor = self.cursor();
        while let Some(chunk) = cursor.next_chunk() {
            consumer(chunk);
        }
    }

    /// Number of seekable chunks of the column: the chunk-directory entries
    /// of the compressed main part plus one final chunk for the uncompressed
    /// remainder (if any).
    ///
    /// `for_each_chunk_in(0..chunk_count())` visits exactly the values of
    /// [`Column::decompress`], and any contiguous partition of the chunk
    /// range can be decoded independently — the raw material of
    /// intra-operator parallelism.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len() + usize::from(self.remainder_len() > 0)
    }

    /// Logical index of the first data element of chunk `chunk`; the total
    /// length for `chunk == chunk_count()` (end sentinel).
    pub fn chunk_logical_start(&self, chunk: usize) -> usize {
        assert!(chunk <= self.chunk_count(), "chunk {chunk} out of bounds");
        match self.chunks.get(chunk) {
            Some(entry) => entry.logical_start,
            None if chunk == self.chunks.len() && self.remainder_len() > 0 => self.main_len,
            None => self.len,
        }
    }

    /// Check the chunk directory for self-consistency: the first entry
    /// starts at byte 0 / element 0, byte offsets and logical starts are
    /// strictly increasing, every entry lies inside the main part, and the
    /// chunk spans sum to the main-part length (which, with the remainder,
    /// covers the full logical length).
    ///
    /// A directory violating any of these would make seekable decoding
    /// ([`Column::for_each_chunk_in`]) skip or double-decode values —
    /// exactly the corruption the byte-identity determinism suites would
    /// only catch downstream.  Executors run this after every node under
    /// `debug_assertions`; it is cheap (one linear walk over the
    /// directory, no data access).
    pub fn check_chunk_directory(&self) -> Result<(), String> {
        if self.chunks.is_empty() {
            if self.main_len != 0 {
                return Err(format!(
                    "main part holds {} elements but the chunk directory is empty",
                    self.main_len
                ));
            }
            return Ok(());
        }
        let first = &self.chunks[0];
        if first.byte_offset != 0 || first.logical_start != 0 {
            return Err(format!(
                "first chunk starts at byte {} / element {} instead of 0 / 0",
                first.byte_offset, first.logical_start
            ));
        }
        for (i, pair) in self.chunks.windows(2).enumerate() {
            if pair[1].byte_offset <= pair[0].byte_offset
                || pair[1].logical_start <= pair[0].logical_start
            {
                return Err(format!(
                    "chunk {} (byte {}, element {}) does not strictly follow \
                     chunk {} (byte {}, element {})",
                    i + 1,
                    pair[1].byte_offset,
                    pair[1].logical_start,
                    i,
                    pair[0].byte_offset,
                    pair[0].logical_start
                ));
            }
        }
        let last = &self.chunks[self.chunks.len() - 1];
        if last.byte_offset >= self.main_bytes || last.logical_start >= self.main_len {
            return Err(format!(
                "last chunk (byte {}, element {}) lies outside the main part \
                 ({} bytes, {} elements) — chunk spans cannot sum to the \
                 logical length",
                last.byte_offset, last.logical_start, self.main_bytes, self.main_len
            ));
        }
        Ok(())
    }

    /// Visit the values of the seekable chunks `chunks` as cache-resident
    /// uncompressed pieces, without decoding anything before the range.
    ///
    /// `consumer` receives, per piece, the global logical index of its first
    /// element and the decoded values — so a worker processing an interior
    /// chunk range can compute positions without knowing about the rest of
    /// the column.  The union of any contiguous partition of
    /// `0..chunk_count()` is exactly [`Column::decompress`], in order.
    pub fn for_each_chunk_in(
        &self,
        chunks: std::ops::Range<usize>,
        consumer: &mut dyn FnMut(u64, &[u64]),
    ) {
        assert!(
            chunks.end <= self.chunk_count(),
            "chunk range {chunks:?} exceeds {} chunks",
            self.chunk_count()
        );
        if chunks.is_empty() {
            return;
        }
        let start = self.chunk_logical_start(chunks.start);
        let mut cursor = self.cursor_at(start..self.chunk_logical_start(chunks.end));
        let mut pos = start as u64;
        while let Some(piece) = cursor.next_chunk() {
            consumer(pos, piece);
            pos += piece.len() as u64;
        }
    }

    /// Partition `0..chunk_count()` into at most `parts` contiguous,
    /// non-empty chunk ranges of roughly equal *logical* span (chunks vary
    /// in logical size for RLE, so the split is balanced by element count,
    /// not chunk count).
    ///
    /// Fewer ranges are returned when the column has fewer chunks than
    /// requested parts; an empty column yields no ranges.
    pub fn partition_chunks(&self, parts: usize) -> Vec<std::ops::Range<usize>> {
        let n = self.chunk_count();
        let parts = parts.max(1).min(n);
        if n == 0 {
            return Vec::new();
        }
        let mut bounds = vec![0usize];
        let mut lo = 0usize;
        for i in 1..parts {
            let target = self.len * i / parts;
            let mut hi = n;
            // First chunk whose logical start reaches the target split point.
            while lo < hi {
                let mid = (lo + hi) / 2;
                if self.chunk_logical_start(mid) < target {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            bounds.push(lo);
        }
        bounds.push(n);
        bounds
            .windows(2)
            .map(|w| w[0]..w[1])
            .filter(|r| !r.is_empty())
            .collect()
    }

    /// Random read access to the value at logical position `idx`.
    ///
    /// Returns `None` if `idx` is out of bounds *or* the format does not
    /// support random access (Section 4.2: only uncompressed data and static
    /// BP do); the caller is expected to morph the column first in that case.
    pub fn get(&self, idx: usize) -> Option<u64> {
        if idx >= self.len {
            return None;
        }
        if idx >= self.main_len {
            let remainder = &self.data[self.main_bytes..];
            return Some(uncompressed::get(remainder, idx - self.main_len));
        }
        get_element(&self.format, self.main_part_bytes(), self.main_len, idx)
    }

    /// Whether [`Column::get`] is supported for every position of this column.
    pub fn supports_random_access(&self) -> bool {
        self.format.supports_random_access()
    }

    /// Re-encode the column in `target` format ("morphing" at column
    /// granularity).
    ///
    /// When the main part lengths of the source and target representation
    /// coincide, the direct morph of the compression crate is used; otherwise
    /// the column is streamed chunk-wise through a [`ColumnBuilder`], so the
    /// uncompressed data never exceeds a cache-resident chunk either way.
    pub fn to_format(&self, target: &Format) -> Column {
        if &self.format == target {
            return self.clone();
        }
        let target_main_len = self.len - self.len % target.block_size();
        if target_main_len == self.main_len {
            let main = morph(&self.format, target, self.main_part_bytes(), self.main_len);
            let mut data = main;
            let main_bytes = data.len();
            data.extend_from_slice(&self.data[self.main_bytes..]);
            return Column::from_parts(*target, self.len, self.main_len, main_bytes, data);
        }
        let mut builder = ColumnBuilder::new(*target);
        self.for_each_chunk(&mut |chunk| builder.push_slice(chunk));
        builder.finish()
    }

    /// Convenience: decompress and collect into a `Vec<u64>` only if needed,
    /// otherwise borrow nothing — used by tests and examples for assertions.
    pub fn to_vec(&self) -> Vec<u64> {
        self.decompress()
    }

    /// The column's data characteristics, computed once and memoised.
    ///
    /// Repeated cost-strategy calls on the same column (the
    /// format-selection search touches every edge several times) hit the
    /// memo instead of rescanning the data; the memo travels with
    /// clones of the column.  The first call streams the column chunk by
    /// chunk — it is never decompressed as a whole (DP3).
    pub fn stats(&self) -> &ColumnStats {
        self.stats
            .get_or_init(|| Arc::new(ColumnStats::from_chunks(|sink| self.for_each_chunk(sink))))
    }

    /// A 64-bit content fingerprint of the stored representation (format,
    /// logical length and data bytes), computed once and memoised.
    ///
    /// Equal columns (see [`PartialEq`]) have equal fingerprints.  The
    /// plan-level cache folds base-column fingerprints into its subplan
    /// keys, so two databases whose columns differ in content or format
    /// never share cache entries.
    pub fn fingerprint(&self) -> u64 {
        *self.content_hash.get_or_init(|| {
            const PRIME: u64 = 0x100000001B3;
            let mut state: u64 = 0xCBF29CE484222325;
            let mut mix = |word: u64| state = (state ^ word).wrapping_mul(PRIME);
            // The format's canonical spelling distinguishes e.g. the static
            // BP widths; the layout fields guard against framing aliases.
            for byte in self.format.to_string().bytes() {
                mix(byte as u64);
            }
            mix(self.len as u64);
            mix(self.main_len as u64);
            // Word-at-a-time over the data buffer: the buffer is the full
            // physical representation (main part + remainder).
            let mut words = self.data.chunks_exact(8);
            for word in &mut words {
                mix(uncompressed::get(word, 0));
            }
            for &byte in words.remainder() {
                mix(byte as u64);
            }
            state
        })
    }

    /// A pull-based cursor over the column's whole logical content — the one
    /// main-part + remainder walker every other visitor drives.
    ///
    /// The *caller* controls the pace, so two compressed columns can be
    /// paired position-wise on one thread with at most one chunk-sized
    /// carry buffer per input (DESIGN.md, "Read path").
    pub fn cursor(&self) -> ColumnCursor<'_> {
        self.cursor_at(0..self.len)
    }

    /// A pull-based cursor over the logical index range `range`, seeking
    /// through the chunk directory (no prefix replay) and trimming the
    /// first and last covering chunk.
    ///
    /// # Panics
    /// Panics if `range.end` exceeds the column's logical length.
    pub fn cursor_at(&self, range: std::ops::Range<usize>) -> ColumnCursor<'_> {
        assert!(
            range.end <= self.len,
            "logical range {range:?} exceeds {} elements",
            self.len
        );
        let start = range.start.min(range.end);
        let mut main = cursor_for(
            &self.format,
            self.main_part_bytes(),
            self.main_len,
            &self.chunks,
        );
        let mut main_pos = self.main_len;
        if start < self.main_len {
            // Last main chunk whose logical start is <= start.
            let first = self.chunks.partition_point(|e| e.logical_start <= start) - 1;
            main.seek(first);
            main_pos = self.chunks[first].logical_start;
        }
        let remainder = if range.end > self.main_len && self.remainder_len() > 0 {
            self.remainder_values()
        } else {
            Vec::new()
        };
        ColumnCursor {
            column: self,
            main,
            remainder,
            start,
            pos: start,
            end: range.end,
            main_pos,
            last: LastChunk::None,
        }
    }
}

/// A pull-based cursor over a [`Column`]'s logical content (or a sub-range
/// of it): the compressed main part is decoded chunk by chunk through the
/// format's [`ChunkCursor`], then the uncompressed remainder is served as
/// one final chunk.  Created by [`Column::cursor`] / [`Column::cursor_at`].
///
/// The cursor implements [`ChunkCursor`] itself, with *column* chunk
/// indices for [`seek`](ChunkCursor::seek) (`0..Column::chunk_count()`,
/// where the last index may be the remainder chunk).  Seeking clamps to the
/// cursor's construction range: the position never moves before
/// `range.start` or past `range.end`.
pub struct ColumnCursor<'a> {
    column: &'a Column,
    main: Box<dyn ChunkCursor + Send + 'a>,
    /// Decoded uncompressed remainder (at most one block of values); empty
    /// when the cursor's range ends inside the main part.
    remainder: Vec<u64>,
    /// Logical start of the cursor's range (seek clamps to it).
    start: usize,
    /// Logical index of the next element to emit.
    pos: usize,
    /// Logical end (exclusive) of the cursor's range.
    end: usize,
    /// Logical index of the next element the main-part cursor will decode
    /// (lags behind `pos` until the first covering chunk is trimmed).
    main_pos: usize,
    /// Provenance and trim window of the chunk `next_chunk` returned last,
    /// backing [`ChunkCursor::last_chunk`].
    last: LastChunk,
}

/// See [`ColumnCursor::last`].
#[derive(Debug, Clone, Copy)]
enum LastChunk {
    /// Nothing returned yet (or a seek invalidated it).
    None,
    /// A window of the main-part cursor's decode buffer.
    Main(usize, usize),
    /// A window of the decoded remainder.
    Remainder(usize, usize),
}

impl std::fmt::Debug for ColumnCursor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColumnCursor")
            .field("format", self.column.format())
            .field("start", &self.start)
            .field("pos", &self.pos)
            .field("end", &self.end)
            .finish()
    }
}

impl ChunkCursor for ColumnCursor<'_> {
    fn try_next_chunk(&mut self) -> Result<Option<&[u64]>, DecodeError> {
        while self.pos < self.end && self.pos < self.column.main_len {
            // Decode the next piece, releasing its borrow immediately (the
            // geometry is all the skip decision needs); the piece stays
            // resident in the format cursor's decode buffer and is
            // re-borrowed via `last_chunk` once it is known to overlap.
            // A drained format cursor here means the main part decoded
            // fewer values than its logical length — corrupt data.
            let Some(len) = self.main.try_next_chunk()?.map(<[u64]>::len) else {
                return Err(DecodeError::Truncated {
                    format: "chunk-cursor",
                    offset: self.main_pos,
                    needed: self.end,
                    available: self.main_pos,
                });
            };
            let chunk_start = self.main_pos;
            self.main_pos += len;
            // Trim to [pos, end): the first covering piece may begin before
            // the seek target, the last may extend past the end.
            let lo = self.pos.max(chunk_start);
            let hi = self.end.min(self.main_pos);
            if lo < hi {
                self.pos = hi;
                self.last = LastChunk::Main(lo - chunk_start, hi - chunk_start);
                return Ok(Some(
                    &self.main.last_chunk()[lo - chunk_start..hi - chunk_start],
                ));
            }
        }
        if self.pos >= self.end {
            return Ok(None);
        }
        let lo = self.pos - self.column.main_len;
        let hi = self.end - self.column.main_len;
        self.pos = self.end;
        self.last = LastChunk::Remainder(lo, hi);
        Ok(Some(&self.remainder[lo..hi]))
    }

    fn last_chunk(&self) -> &[u64] {
        match self.last {
            LastChunk::None => &[],
            LastChunk::Main(lo, hi) => &self.main.last_chunk()[lo..hi],
            LastChunk::Remainder(lo, hi) => &self.remainder[lo..hi],
        }
    }

    fn seek(&mut self, chunk_idx: usize) {
        // Per the trait contract, an index at or past the chunk count
        // positions the cursor at the end of the stream.
        let target = self
            .column
            .chunk_logical_start(chunk_idx.min(self.column.chunk_count()));
        self.last = LastChunk::None;
        self.pos = target.clamp(self.start, self.end);
        if self.pos < self.column.main_len {
            let main_chunk = chunk_idx.min(self.column.chunks.len().saturating_sub(1));
            self.main.seek(main_chunk);
            self.main_pos = self.column.chunks[main_chunk].logical_start;
        } else {
            self.main_pos = self.column.main_len;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| (i * 13) % 977).collect()
    }

    #[test]
    fn figure3_layout_main_part_and_remainder() {
        // 450 elements with a 512-element block format: everything lands in
        // the remainder (cf. Figure 3, format C requiring multiples of 100).
        let values = sample(450);
        let column = Column::compress(&values, &Format::DynBp);
        assert_eq!(column.logical_len(), 450);
        assert_eq!(column.main_part_len(), 0);
        assert_eq!(column.remainder_len(), 450);
        assert_eq!(column.size_used_bytes(), 450 * 8);
        // With static BP (block 64): 448 elements compressed, 2 uncompressed.
        let column = Column::compress(&values, &Format::StaticBp(10));
        assert_eq!(column.main_part_len(), 448);
        assert_eq!(column.remainder_len(), 2);
        assert_eq!(column.size_used_bytes(), 448 * 10 / 8 + 2 * 8);
        assert_eq!(column.decompress(), values);
    }

    #[test]
    fn roundtrip_all_formats() {
        let values = sample(3000);
        let max = *values.iter().max().unwrap();
        for format in Format::all_formats(max) {
            let column = Column::compress(&values, &format);
            assert_eq!(column.logical_len(), values.len());
            assert_eq!(column.decompress(), values, "format {format}");
        }
    }

    #[test]
    fn compressed_columns_are_smaller() {
        let values: Vec<u64> = (0..100_000u64).map(|i| i % 64).collect();
        let uncompressed = Column::from_slice(&values);
        let compressed = Column::compress(&values, &Format::StaticBp(6));
        assert_eq!(uncompressed.size_used_bytes(), 800_000);
        assert!(compressed.size_used_bytes() < uncompressed.size_used_bytes() / 10);
    }

    #[test]
    fn random_access() {
        let values = sample(1000);
        let column = Column::compress(&values, &Format::StaticBp(10));
        assert!(column.supports_random_access());
        for idx in [0, 1, 63, 64, 500, 960, 999] {
            assert_eq!(column.get(idx), Some(values[idx]));
        }
        assert_eq!(column.get(1000), None);
        let rle = Column::compress(&values, &Format::Rle);
        assert!(!rle.supports_random_access());
        assert_eq!(rle.get(3), None);
        // Positions in the remainder are accessible for every format.
        let dyn_bp = Column::compress(&values, &Format::DynBp);
        assert_eq!(dyn_bp.main_part_len(), 512);
        assert_eq!(dyn_bp.get(700), Some(values[700]));
    }

    #[test]
    fn to_format_preserves_content() {
        let values = sample(2500);
        let max = *values.iter().max().unwrap();
        let formats = Format::all_formats(max);
        for src in &formats {
            let column = Column::compress(&values, src);
            for dst in &formats {
                let morphed = column.to_format(dst);
                assert_eq!(morphed.format(), dst);
                assert_eq!(morphed.decompress(), values, "{src} -> {dst}");
            }
        }
    }

    #[test]
    fn to_format_same_format_is_identity() {
        let values = sample(1024);
        let column = Column::compress(&values, &Format::DynBp);
        let same = column.to_format(&Format::DynBp);
        assert_eq!(same, column);
    }

    #[test]
    fn chunks_cover_all_values_in_order() {
        let values = sample(5000);
        let column = Column::compress(&values, &Format::DeltaDynBp);
        let mut collected = Vec::new();
        column.for_each_chunk(&mut |chunk| collected.extend_from_slice(chunk));
        assert_eq!(collected, values);
    }

    #[test]
    fn empty_column() {
        let column = Column::from_slice(&[]);
        assert!(column.is_empty());
        assert_eq!(column.size_used_bytes(), 0);
        assert_eq!(column.decompress(), Vec::<u64>::new());
        assert_eq!(column.get(0), None);
        assert_eq!(column.chunk_count(), 0);
        assert!(column.partition_chunks(4).is_empty());
        let morphed = column.to_format(&Format::Rle);
        assert!(morphed.is_empty());
    }

    #[test]
    fn chunk_ranges_concatenate_to_decompress_for_all_formats() {
        // 5003 elements: every 512-block format gets a remainder chunk.
        let values = sample(5003);
        let max = *values.iter().max().unwrap();
        for format in Format::all_formats(max) {
            let column = Column::compress(&values, &format);
            let n = column.chunk_count();
            assert_eq!(column.chunk_logical_start(0), 0, "format {format}");
            assert_eq!(column.chunk_logical_start(n), values.len());
            // Whole range == for_each_chunk == decompress, with correct
            // logical starts per piece.
            let mut collected = Vec::new();
            column.for_each_chunk_in(0..n, &mut |start, chunk| {
                assert_eq!(start as usize, collected.len(), "format {format}");
                collected.extend_from_slice(chunk);
            });
            assert_eq!(collected, values, "format {format}");
            // Every contiguous two-way split concatenates to the same.
            for split in [1, n / 2, n - 1] {
                let mut parts = Vec::new();
                column.for_each_chunk_in(0..split, &mut |_, c| parts.extend_from_slice(c));
                column.for_each_chunk_in(split..n, &mut |_, c| parts.extend_from_slice(c));
                assert_eq!(parts, values, "format {format}, split {split}");
            }
        }
    }

    #[test]
    fn interior_chunk_ranges_decode_without_the_prefix() {
        let values = sample(10_000);
        let column = Column::compress(&values, &Format::DeltaDynBp);
        let n = column.chunk_count();
        assert!(n > 4);
        let start = column.chunk_logical_start(2);
        let end = column.chunk_logical_start(4);
        let mut collected = Vec::new();
        column.for_each_chunk_in(2..4, &mut |pos, chunk| {
            assert!(pos as usize >= start);
            collected.extend_from_slice(chunk);
        });
        assert_eq!(collected, values[start..end], "interior range");
    }

    #[test]
    fn partition_chunks_covers_everything_in_order() {
        let values = sample(9000);
        for format in [Format::DynBp, Format::Rle, Format::Uncompressed] {
            let column = Column::compress(&values, &format);
            for parts in [1, 2, 3, 8, 100] {
                let ranges = column.partition_chunks(parts);
                assert!(ranges.len() <= parts, "format {format}");
                assert!(!ranges.is_empty());
                assert_eq!(ranges[0].start, 0);
                assert_eq!(ranges.last().unwrap().end, column.chunk_count());
                for pair in ranges.windows(2) {
                    assert_eq!(pair[0].end, pair[1].start, "contiguous");
                }
                let mut collected = Vec::new();
                for range in &ranges {
                    column.for_each_chunk_in(range.clone(), &mut |_, c| {
                        collected.extend_from_slice(c)
                    });
                }
                assert_eq!(collected, values, "format {format}, {parts} parts");
            }
        }
    }

    #[test]
    fn fingerprint_is_memoised_and_content_sensitive() {
        let values = sample(3000);
        let column = Column::compress(&values, &Format::DynBp);
        assert_eq!(column.fingerprint(), column.fingerprint());
        assert_eq!(column.clone().fingerprint(), column.fingerprint());
        // Same content, same format, fresh instance: equal fingerprints.
        let again = Column::compress(&values, &Format::DynBp);
        assert_eq!(again.fingerprint(), column.fingerprint());
        // Different format or different content: different fingerprints.
        let other_format = Column::compress(&values, &Format::DeltaDynBp);
        assert_ne!(other_format.fingerprint(), column.fingerprint());
        let mut changed = values.clone();
        changed[17] += 1;
        let other_content = Column::compress(&changed, &Format::DynBp);
        assert_ne!(other_content.fingerprint(), column.fingerprint());
    }

    #[test]
    fn logical_ranges_decode_exactly_for_all_formats() {
        let values = sample(5003);
        let max = *values.iter().max().unwrap();
        for format in Format::all_formats(max) {
            let column = Column::compress(&values, &format);
            for range in [0..0, 0..1, 0..5003, 17..17, 13..1400, 511..513, 4000..5003] {
                let mut collected = Vec::new();
                let mut cursor = column.cursor_at(range.clone());
                while let Some(piece) = cursor.next_chunk() {
                    collected.extend_from_slice(piece);
                }
                assert_eq!(
                    collected,
                    values[range.clone()],
                    "format {format}, {range:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn logical_range_out_of_bounds_panics() {
        let column = Column::from_slice(&[1, 2, 3]);
        column.cursor_at(0..4);
    }

    #[test]
    fn truncated_main_part_unwinds_with_a_decode_error() {
        // Cut into the last block's payload: every block header is still
        // readable (the directory builds), the final decode must not be.
        let values = sample(2048);
        let intact = Column::compress(&values, &Format::DynBp);
        let cut = intact.main_part_bytes().len() - 10;
        let truncated = intact.main_part_bytes()[..cut].to_vec();
        let column = Column::from_parts(Format::DynBp, 2048, 2048, cut, truncated);
        let mut cursor = column.cursor_at(1536..2048);
        assert!(matches!(
            cursor.try_next_chunk(),
            Err(DecodeError::Truncated { .. })
        ));
        // The infallible walk unwinds with the same structured payload —
        // what `run_governed` maps to `ExecError::Decode`.
        let payload = std::panic::catch_unwind(|| column.decompress())
            .expect_err("truncated main part must not decode");
        assert!(matches!(
            payload.downcast_ref::<DecodeError>(),
            Some(DecodeError::Truncated { .. })
        ));
    }

    #[test]
    fn rle_directory_groups_runs_and_long_runs_stream_bounded() {
        // Long runs: the directory must still seek to run boundaries and the
        // decoded pieces stay cache-resident.
        let mut values = vec![7u64; 10_000];
        values.extend((0..5000u64).map(|i| i % 3));
        let column = Column::compress(&values, &Format::Rle);
        assert!(column.chunk_count() >= 2);
        let mut max_piece = 0usize;
        let mut collected = Vec::new();
        column.for_each_chunk_in(0..column.chunk_count(), &mut |_, chunk| {
            max_piece = max_piece.max(chunk.len());
            collected.extend_from_slice(chunk);
        });
        assert_eq!(collected, values);
        assert!(max_piece <= 2048);
    }
}
