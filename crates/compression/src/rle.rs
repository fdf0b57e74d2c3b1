//! Run-length encoding: uninterrupted runs of the same value are stored as
//! (value, run length) pairs.
//!
//! RLE is one of the logical-level techniques of Section 2.1 and the basis of
//! several *specialized* operators described in Section 2.2 (Abadi et al.):
//! a selection only needs to compare run values, and a summation is the sum
//! of `value * run_length` products.  The engine's specialized operator
//! implementations rely on [`for_each_run`] to visit runs without
//! decompressing them.
//!
//! Layout: a sequence of `[value: u64 LE][run length: u64 LE]` pairs.
//! The format can represent any number of data elements (block size 1), so
//! columns using it never have an uncompressed remainder.

use crate::{ByteSink, ChunkCursor, ChunkEntry, Compressor, DecodeError};

/// Maximum number of elements materialised at once when decompressing runs
/// block-wise (long runs are split so the uncompressed chunks stay
/// cache-resident).
const RLE_CHUNK: usize = crate::CACHE_BUFFER_ELEMENTS;

/// Streaming RLE compressor.  A run may span multiple `append` calls; the
/// pending run is flushed by [`Compressor::finish`].
#[derive(Debug, Clone)]
pub struct RleCompressor {
    pending: Option<(u64, u64)>,
}

impl RleCompressor {
    /// Create an RLE compressor with no pending run.
    pub fn new() -> Self {
        RleCompressor { pending: None }
    }

    fn emit(pair: (u64, u64), out: &mut dyn ByteSink) {
        out.put_words(&[pair.0, pair.1]);
    }
}

impl Default for RleCompressor {
    fn default() -> Self {
        Self::new()
    }
}

impl Compressor for RleCompressor {
    fn append(&mut self, values: &[u64], out: &mut dyn ByteSink) {
        for &value in values {
            match self.pending {
                Some((run_value, run_len)) if run_value == value => {
                    self.pending = Some((run_value, run_len + 1));
                }
                Some(pair) => {
                    Self::emit(pair, out);
                    self.pending = Some((value, 1));
                }
                None => {
                    self.pending = Some((value, 1));
                }
            }
        }
    }

    fn finish(&mut self, out: &mut dyn ByteSink) {
        if let Some(pair) = self.pending.take() {
            Self::emit(pair, out);
        }
    }
}

/// Visit every `(value, run_length)` pair of an RLE-encoded main part without
/// decompressing it.  `count` is the number of *logical* data elements.
///
/// # Panics
/// Panics if the buffer is truncated or a run header is corrupt; use
/// [`try_for_each_run`] for untrusted bytes.
pub fn for_each_run(bytes: &[u8], count: usize, consumer: &mut dyn FnMut(u64, u64)) {
    try_for_each_run(bytes, count, consumer).unwrap_or_else(|err| std::panic::panic_any(err));
}

/// Validate and read the `(value, run_length)` pair starting at `offset`.
/// A zero or over-long run length is rejected — beyond being unencodable,
/// a zero-length run would make every count-driven walk loop forever.
/// Shared by the run walk and the cursor.
fn checked_run(bytes: &[u8], offset: usize, remaining: u64) -> Result<(u64, u64), DecodeError> {
    crate::ensure_bytes("RLE", bytes, offset, 16)?;
    let value = crate::read_u64_le(bytes, offset);
    let run_len = crate::read_u64_le(bytes, offset + 8);
    if run_len == 0 || run_len > remaining {
        return Err(DecodeError::CorruptHeader {
            format: "RLE",
            detail: format!(
                "run of length {run_len} at offset {offset} with {remaining} elements remaining"
            ),
        });
    }
    Ok((value, run_len))
}

/// Fallible variant of [`for_each_run`]: truncated buffers and impossible
/// run lengths (zero, or longer than the remaining element count) yield a
/// [`DecodeError`] instead of a panic or an endless loop.
pub fn try_for_each_run(
    bytes: &[u8],
    count: usize,
    consumer: &mut dyn FnMut(u64, u64),
) -> Result<(), DecodeError> {
    let mut remaining = count as u64;
    let mut offset = 0usize;
    while remaining > 0 {
        let (value, run_len) = checked_run(bytes, offset, remaining)?;
        offset += 16;
        consumer(value, run_len);
        remaining -= run_len;
    }
    Ok(())
}

/// [`ChunkCursor`] over an RLE main part — the format's only run-expanding
/// decoder.  Chunks hold at most `RLE_CHUNK` values (long runs are split);
/// every run header is validated before it is expanded.  Run offsets are
/// data-dependent, so seeks go through the chunk directory, whose entries
/// sit on run boundaries.
#[derive(Debug)]
pub struct RleCursor<'a> {
    bytes: &'a [u8],
    count: usize,
    directory: &'a [ChunkEntry],
    logical: usize,
    byte_offset: usize,
    run_value: u64,
    run_remaining: u64,
    buffer: Vec<u64>,
}

impl<'a> RleCursor<'a> {
    /// Create a cursor over `count` logical values with the main part's
    /// chunk `directory`, positioned at the first element.
    pub fn new(bytes: &'a [u8], count: usize, directory: &'a [ChunkEntry]) -> RleCursor<'a> {
        RleCursor {
            bytes,
            count,
            directory,
            logical: 0,
            byte_offset: 0,
            run_value: 0,
            run_remaining: 0,
            buffer: Vec::with_capacity(RLE_CHUNK.min(count)),
        }
    }
}

impl ChunkCursor for RleCursor<'_> {
    fn try_next_chunk(&mut self) -> Result<Option<&[u64]>, DecodeError> {
        if self.logical >= self.count {
            return Ok(None);
        }
        let chunk = (self.count - self.logical).min(RLE_CHUNK);
        // The walk state lives in locals for the duration of the chunk and
        // is written back once, so the expansion loop runs out of registers.
        let (mut value, mut run_remaining) = (self.run_value, self.run_remaining);
        let mut offset = self.byte_offset;
        self.buffer.clear();
        while self.buffer.len() < chunk {
            if run_remaining == 0 {
                let elements_left = self.count - self.logical - self.buffer.len();
                (value, run_remaining) = checked_run(self.bytes, offset, elements_left as u64)?;
                offset += 16;
            }
            let take = run_remaining.min((chunk - self.buffer.len()) as u64) as usize;
            self.buffer.extend(std::iter::repeat_n(value, take));
            run_remaining -= take as u64;
        }
        (self.run_value, self.run_remaining) = (value, run_remaining);
        self.byte_offset = offset;
        self.logical += chunk;
        Ok(Some(&self.buffer))
    }

    fn last_chunk(&self) -> &[u64] {
        &self.buffer
    }

    fn seek(&mut self, chunk_idx: usize) {
        match self.directory.get(chunk_idx) {
            Some(entry) => {
                self.byte_offset = entry.byte_offset;
                self.logical = entry.logical_start;
                // Directory entries sit on run boundaries: the next read
                // starts a fresh run.
                self.run_remaining = 0;
            }
            None => self.logical = self.count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compress_main_part, compressed_size_bytes, decompress_into, Format};

    #[test]
    fn roundtrip_runs() {
        let mut values = Vec::new();
        for i in 0..100u64 {
            values.extend(std::iter::repeat_n(i % 7, (i % 13 + 1) as usize));
        }
        let (bytes, main_len) = compress_main_part(&Format::Rle, &values);
        assert_eq!(main_len, values.len());
        let mut decoded = Vec::new();
        decompress_into(&Format::Rle, &bytes, main_len, &mut decoded);
        assert_eq!(decoded, values);
    }

    #[test]
    fn long_runs_compress_dramatically() {
        // 90 % of elements are a single value, as in the select micro-benchmark
        // input of Section 5.1.
        let mut values = vec![5u64; 90_000];
        values.extend((0..10_000u64).map(|i| i % 64));
        let rle_size = compressed_size_bytes(&Format::Rle, &values);
        let uncompressed = values.len() * 8;
        // The 10k-element tail is runs of length 1 (16 bytes each); the long
        // 90 %-run still dominates, giving roughly a 5x reduction.
        assert!(rle_size * 4 < uncompressed, "rle size {rle_size}");
    }

    #[test]
    fn worst_case_doubles_the_size() {
        // All-distinct data: one run per element, 16 bytes each.
        let values: Vec<u64> = (0..1000).collect();
        let rle_size = compressed_size_bytes(&Format::Rle, &values);
        assert_eq!(rle_size, values.len() * 16);
    }

    #[test]
    fn run_iteration_reports_runs_without_decompression() {
        let values = [vec![7u64; 500], vec![9u64; 300], vec![7u64; 200]].concat();
        let (bytes, main_len) = compress_main_part(&Format::Rle, &values);
        let mut runs = Vec::new();
        for_each_run(&bytes, main_len, &mut |value, len| runs.push((value, len)));
        assert_eq!(runs, vec![(7, 500), (9, 300), (7, 200)]);
    }

    #[test]
    fn runs_spanning_append_calls_are_merged() {
        let mut compressor = RleCompressor::new();
        let mut bytes = Vec::new();
        compressor.append(&[4, 4, 4], &mut bytes);
        compressor.append(&[4, 4, 9], &mut bytes);
        compressor.finish(&mut bytes);
        let mut runs = Vec::new();
        for_each_run(&bytes, 6, &mut |value, len| runs.push((value, len)));
        assert_eq!(runs, vec![(4, 5), (9, 1)]);
    }

    #[test]
    fn long_runs_are_split_into_cache_resident_chunks() {
        let values = vec![3u64; 10_000];
        let (bytes, main_len) = compress_main_part(&Format::Rle, &values);
        let mut chunk_sizes = Vec::new();
        let mut cursor = RleCursor::new(&bytes, main_len, &[]);
        while let Some(chunk) = cursor.next_chunk() {
            chunk_sizes.push(chunk.len());
        }
        assert!(chunk_sizes.iter().all(|&s| s <= RLE_CHUNK));
        assert_eq!(chunk_sizes.iter().sum::<usize>(), values.len());
    }

    #[test]
    fn empty_column() {
        let (bytes, main_len) = compress_main_part(&Format::Rle, &[]);
        assert!(bytes.is_empty());
        let mut decoded = Vec::new();
        decompress_into(&Format::Rle, &bytes, main_len, &mut decoded);
        assert!(decoded.is_empty());
    }
}
