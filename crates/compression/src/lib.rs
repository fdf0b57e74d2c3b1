//! # morph-compression
//!
//! Lightweight integer compression formats and direct morphing for
//! MorphStore-rs.
//!
//! The paper's processing model (Section 3) requires that *every* base column
//! and every intermediate result can be materialised in a lightweight integer
//! compression format, that formats can be chosen per column independently,
//! and that the representation can be changed ("morphed") efficiently.  This
//! crate provides:
//!
//! * the [`Format`] descriptor enumerating the supported formats — the five
//!   formats of the paper's implementation (Section 4.1: uncompressed, static
//!   bit packing, SIMD-BP-style dynamic bit packing, DELTA + BP, FOR + BP)
//!   plus run-length encoding as an extension,
//! * whole-buffer and *streaming* compression ([`Compressor`]) used by the
//!   output side of the on-the-fly de/re-compression wrapper (the
//!   L1-cache-resident buffer layer of Figure 4), writing through a
//!   [`ByteSink`] that either stores the bytes or only counts them (exact
//!   sizes without packing),
//! * block-wise decompression through one pull decoder per format
//!   ([`ChunkCursor`], [`cursor_for`]) used by the input side of that
//!   wrapper, so operators never materialise a whole uncompressed column
//!   (design principle DP3),
//! * random read access for the formats that support it (uncompressed and
//!   static BP, as in Section 4.2),
//! * direct morphing between any two formats ([`morph()`]).
//!
//! All uncompressed values are `u64`, the native word width, as in the paper.
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod bitpack;
pub mod dyn_bp;
pub mod morph;
pub mod rle;
pub mod static_bp;
pub mod uncompressed;

use std::fmt;

use dyn_bp::{Cascade, DynBpCompressor, DynBpCursor};

/// Block size (in data elements) of the static bit-packing format.
///
/// 64 values of `w` bits occupy exactly `8 * w` bytes, so every block is
/// byte-aligned for every width.
pub const STATIC_BP_BLOCK: usize = 64;

/// Block size (in data elements) of the dynamic bit-packing format, matching
/// SIMD-BP512 (the AVX-512 port of SIMD-BP128 used by the paper).
pub const DYN_BP_BLOCK: usize = 512;

/// Number of uncompressed data elements held by the cache-resident buffer of
/// the on-the-fly de/re-compression wrapper (16 KiB = 2048 × 8 bytes, half of
/// a typical 32 KiB L1 data cache — the value used in the paper's
/// evaluation).
pub const CACHE_BUFFER_ELEMENTS: usize = 2048;

/// A lightweight integer compression format (Section 4.1 of the paper).
///
/// `Format` is a runtime value so that the benchmark harness and the format
/// selection strategies can sweep combinations, exactly as the paper does for
/// Figures 5–10.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Format {
    /// Plain 64-bit integers (no compression).
    Uncompressed,
    /// Static bit packing: one fixed bit width for the whole column
    /// (the paper's "static BP"; byte-aligned widths model SQL narrow types).
    StaticBp(u8),
    /// Dynamic bit packing with per-block widths, blocks of 512 values
    /// (the paper's 64-bit port of SIMD-BP).
    DynBp,
    /// Delta coding cascaded with dynamic bit packing (for sorted or
    /// near-sorted data such as position lists).
    DeltaDynBp,
    /// Frame-of-reference coding cascaded with dynamic bit packing (for data
    /// in a narrow range far from zero).
    ForDynBp,
    /// Run-length encoding: (value, run length) pairs.
    Rle,
}

impl Format {
    /// Convenience constructor for [`Format::StaticBp`] with the width needed
    /// to hold `max_value`.
    pub fn static_bp_for_max(max_value: u64) -> Format {
        Format::StaticBp(bitpack::bit_width_of(max_value))
    }

    /// Convenience constructor for [`Format::DynBp`].
    pub fn dyn_bp() -> Format {
        Format::DynBp
    }

    /// Convenience constructor for [`Format::DeltaDynBp`].
    pub fn delta_dyn_bp() -> Format {
        Format::DeltaDynBp
    }

    /// Convenience constructor for [`Format::ForDynBp`].
    pub fn for_dyn_bp() -> Format {
        Format::ForDynBp
    }

    /// The five formats evaluated by the paper (Section 5.1: "MorphStore
    /// currently supports five compression algorithms"), with the static
    /// width derived from `max_value`.
    pub fn paper_formats(max_value: u64) -> Vec<Format> {
        vec![
            Format::Uncompressed,
            Format::static_bp_for_max(max_value),
            Format::DynBp,
            Format::DeltaDynBp,
            Format::ForDynBp,
        ]
    }

    /// All formats supported by this crate, with the static width derived
    /// from `max_value`.
    pub fn all_formats(max_value: u64) -> Vec<Format> {
        let mut formats = Self::paper_formats(max_value);
        formats.push(Format::Rle);
        formats
    }

    /// Number of data elements per compression block.  Columns store the
    /// first `len - len % block_size()` elements in compressed form and the
    /// rest as an uncompressed remainder (Figure 3 of the paper).
    pub fn block_size(&self) -> usize {
        match self {
            Format::Uncompressed => 1,
            Format::StaticBp(_) => STATIC_BP_BLOCK,
            Format::DynBp | Format::DeltaDynBp | Format::ForDynBp => DYN_BP_BLOCK,
            Format::Rle => 1,
        }
    }

    /// Whether the format actually compresses (everything except
    /// [`Format::Uncompressed`]).
    pub fn is_compressed(&self) -> bool {
        !matches!(self, Format::Uncompressed)
    }

    /// Whether random read access to individual elements of the compressed
    /// main part is supported (Section 4.2: uncompressed and static BP only).
    pub fn supports_random_access(&self) -> bool {
        matches!(self, Format::Uncompressed | Format::StaticBp(_))
    }

    /// Whether a block's bytes depend only on its own values: the encoder
    /// carries no state from one block to the next, so the main parts of
    /// two columns encoded separately concatenate, block-aligned, to the
    /// bytes of one column encoded from both.  DELTA's running predecessor
    /// and RLE's pending run are such state.
    pub fn blocks_are_independent(&self) -> bool {
        matches!(
            self,
            Format::Uncompressed | Format::StaticBp(_) | Format::DynBp | Format::ForDynBp
        )
    }

    /// Short human-readable label (matches the terminology of the paper's
    /// figures).  Alias for the `Display` implementation, which owns the
    /// canonical spelling; `FromStr` parses it back.
    pub fn label(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for Format {
    /// The canonical format-name spelling, shared by the benchmark harness
    /// and the plan debug printer, and parseable via `FromStr`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Format::Uncompressed => f.write_str("uncompr"),
            Format::StaticBp(w) => write!(f, "staticBP({w})"),
            Format::DynBp => f.write_str("SIMD-BP"),
            Format::DeltaDynBp => f.write_str("DELTA+SIMD-BP"),
            Format::ForDynBp => f.write_str("FOR+SIMD-BP"),
            Format::Rle => f.write_str("RLE"),
        }
    }
}

/// Error returned when parsing a [`Format`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFormatError {
    input: String,
}

impl fmt::Display for ParseFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown compression format {:?} (expected one of: uncompr, staticBP(<bits>), \
             SIMD-BP, DELTA+SIMD-BP, FOR+SIMD-BP, RLE)",
            self.input
        )
    }
}

impl std::error::Error for ParseFormatError {}

impl std::str::FromStr for Format {
    type Err = ParseFormatError;

    /// Parse the canonical spelling produced by `Display`, so format names
    /// round-trip through benchmark CSV output and the plan debug printer.
    fn from_str(s: &str) -> Result<Format, ParseFormatError> {
        let s = s.trim();
        match s {
            "uncompr" => return Ok(Format::Uncompressed),
            "SIMD-BP" => return Ok(Format::DynBp),
            "DELTA+SIMD-BP" => return Ok(Format::DeltaDynBp),
            "FOR+SIMD-BP" => return Ok(Format::ForDynBp),
            "RLE" => return Ok(Format::Rle),
            _ => {}
        }
        if let Some(width) = s
            .strip_prefix("staticBP(")
            .and_then(|rest| rest.strip_suffix(')'))
        {
            if let Ok(width) = width.trim().parse::<u8>() {
                if (1..=64).contains(&width) {
                    return Ok(Format::StaticBp(width));
                }
            }
        }
        Err(ParseFormatError {
            input: s.to_string(),
        })
    }
}

/// Where a [`Compressor`] writes: every encoded byte goes through one of
/// these three calls.
///
/// A `Vec<u8>` stores the bytes.  A [`ByteCount`] only adds up their
/// number — `len` for a header write, 8 per word,
/// [`bitpack::packed_size_bytes`] for a pack — so a compressor run into it
/// makes every encoding decision (block widths, references, delta chains,
/// runs) and every check exactly as it would when storing, and ends with
/// the exact encoded size without packing a single value.
pub trait ByteSink {
    /// Append `bytes` verbatim (header fields, run pairs).
    fn put(&mut self, bytes: &[u8]);

    /// Append `values` bit-packed with `width` bits each, in the
    /// [`bitpack`] layout.
    fn pack(&mut self, values: &[u64], width: u8);

    /// Append `values` as little-endian 64-bit words (the uncompressed
    /// layout).
    fn put_words(&mut self, values: &[u64]);
}

impl ByteSink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }

    fn pack(&mut self, values: &[u64], width: u8) {
        bitpack::pack_into(values, width, self);
    }

    fn put_words(&mut self, values: &[u64]) {
        self.reserve(values.len() * 8);
        for &value in values {
            self.extend_from_slice(&value.to_le_bytes());
        }
    }
}

/// A [`ByteSink`] that counts the bytes an encoder would write instead of
/// storing them — the sizing sink behind
/// [`compressed_size_bytes`] and the column builder's sizing mode.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ByteCount(pub usize);

impl ByteSink for ByteCount {
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }

    fn pack(&mut self, values: &[u64], width: u8) {
        assert!((1..=64).contains(&width), "bit width must be in 1..=64");
        self.0 += bitpack::packed_size_bytes(values.len(), width);
    }

    fn put_words(&mut self, values: &[u64]) {
        self.0 += values.len() * 8;
    }
}

/// Streaming compressor used by the output-side buffer layer of the
/// on-the-fly de/re-compression wrapper (Figure 4, steps 6–9).
///
/// Chunks passed to [`Compressor::append`] must have a length that is a
/// multiple of the format's [`Format::block_size`]; the engine's sink
/// guarantees this by flushing its cache-resident buffer in multiples of the
/// block size and keeping the rest as the uncompressed remainder.
///
/// Each format has one compressor body, and it writes only through a
/// [`ByteSink`]: into a `Vec<u8>` it encodes, into a [`ByteCount`] it
/// *sizes* — same decisions, same checks, same byte count, no packing.
pub trait Compressor {
    /// Compress `values` and append the encoded bytes to `out`.
    fn append(&mut self, values: &[u64], out: &mut dyn ByteSink);

    /// Flush any internal state (pending runs) to `out`.  Must be called
    /// exactly once, after the last `append`.
    fn finish(&mut self, out: &mut dyn ByteSink);
}

/// Create a streaming [`Compressor`] for `format`.
pub fn compressor_for(format: &Format) -> Box<dyn Compressor> {
    match format {
        Format::Uncompressed => Box::new(uncompressed::UncompressedCompressor),
        Format::StaticBp(width) => Box::new(static_bp::StaticBpCompressor::new(*width)),
        Format::DynBp => Box::new(DynBpCompressor::new(Cascade::Plain)),
        Format::DeltaDynBp => Box::new(DynBpCompressor::new(Cascade::Delta)),
        Format::ForDynBp => Box::new(DynBpCompressor::new(Cascade::For)),
        Format::Rle => Box::new(rle::RleCompressor::new()),
    }
}

/// Compress a whole buffer of values (whose length need *not* be a multiple
/// of the block size — only the leading multiple is compressed; the caller is
/// responsible for storing the remainder separately, as the column layer
/// does).  Returns the encoded main part and the number of elements it
/// contains.
pub fn compress_main_part(format: &Format, values: &[u64]) -> (Vec<u8>, usize) {
    let block = format.block_size();
    let main_len = values.len() - values.len() % block;
    let mut out = Vec::new();
    let mut compressor = compressor_for(format);
    compressor.append(&values[..main_len], &mut out);
    compressor.finish(&mut out);
    (out, main_len)
}

/// Error reported by the decoders when an encoded main part is truncated or
/// structurally corrupt.
///
/// Every format's [`ChunkCursor`] validates headers and lengths before it
/// reads them and returns this error from
/// [`try_next_chunk`](ChunkCursor::try_next_chunk); the infallible
/// [`next_chunk`](ChunkCursor::next_chunk) the engine's hot paths use
/// unwinds with the same value as its panic payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The encoded buffer ends before the data it promises.
    Truncated {
        /// Canonical name of the format whose decoder failed.
        format: &'static str,
        /// Byte offset at which the decoder needed more input.
        offset: usize,
        /// Number of bytes required at `offset`.
        needed: usize,
        /// Number of bytes actually available from `offset`.
        available: usize,
    },
    /// A header field holds a value no encoder produces.
    CorruptHeader {
        /// Canonical name of the format whose decoder failed.
        format: &'static str,
        /// Human-readable description of the impossible field.
        detail: String,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated {
                format,
                offset,
                needed,
                available,
            } => write!(
                f,
                "truncated {format} input: need {needed} bytes at offset {offset}, \
                 have {available}"
            ),
            DecodeError::CorruptHeader { format, detail } => {
                write!(f, "corrupt {format} header: {detail}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Check that `bytes` holds `needed` bytes starting at `offset`, returning a
/// [`DecodeError::Truncated`] naming `format` otherwise.  The one bounds
/// check every decoder shares.
pub(crate) fn ensure_bytes(
    format: &'static str,
    bytes: &[u8],
    offset: usize,
    needed: usize,
) -> Result<(), DecodeError> {
    let available = bytes.len().saturating_sub(offset);
    if available < needed {
        return Err(DecodeError::Truncated {
            format,
            offset,
            needed,
            available,
        });
    }
    Ok(())
}

/// Check that a main part of `count` elements is whole `block`-element
/// blocks — no encoder of a blocked format produces anything else.
pub(crate) fn ensure_whole_blocks(
    format: &'static str,
    count: usize,
    block: usize,
) -> Result<(), DecodeError> {
    if !count.is_multiple_of(block) {
        return Err(DecodeError::CorruptHeader {
            format,
            detail: format!("main part of {count} elements is not whole {block}-element blocks"),
        });
    }
    Ok(())
}

/// Read the little-endian `u64` at `bytes[start..start + 8]`.
///
/// Total and panic-free for in-bounds reads via `copy_from_slice` into a
/// fixed array — the codified replacement for the
/// `try_into().expect("8 bytes")` idiom the hot decode paths used to carry.
/// Callers must have validated `start + 8 <= bytes.len()` (every decoder
/// does, through [`ensure_bytes`] or an explicit length check); an
/// out-of-bounds `start` still panics on the slice, exactly like the
/// expect-based idiom, but no `expect` remains on the per-element path.
#[inline(always)]
pub(crate) fn read_u64_le(bytes: &[u8], start: usize) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(&bytes[start..start + 8]);
    u64::from_le_bytes(word)
}

/// Decompress the whole compressed main part (`count` elements) into `out`.
pub fn decompress_into(format: &Format, bytes: &[u8], count: usize, out: &mut Vec<u64>) {
    out.reserve(count);
    for_each_decompressed_block(format, bytes, count, &mut |chunk| {
        out.extend_from_slice(chunk)
    });
}

/// Decompress the compressed main part block-wise, invoking `consumer` with
/// chunks of uncompressed values whose total length is `count` — the
/// format's [`ChunkCursor`] driven to completion.
///
/// # Panics
/// Panics if the buffer is truncated or corrupt, carrying the structured
/// [`DecodeError`] as the panic payload (so governed executors and the
/// query server recover the cause without string matching); use
/// [`try_for_each_decompressed_block`] for untrusted bytes.
pub fn for_each_decompressed_block(
    format: &Format,
    bytes: &[u8],
    count: usize,
    consumer: &mut dyn FnMut(&[u64]),
) {
    try_for_each_decompressed_block(format, bytes, count, consumer)
        .unwrap_or_else(|err| std::panic::panic_any(err));
}

/// Fallible variant of [`for_each_decompressed_block`]: truncated or corrupt
/// input yields a structured [`DecodeError`] instead of a panic.
///
/// `consumer` may have been invoked with a prefix of the data before an
/// error is detected (decoding is streaming); on `Err` the decoded prefix
/// must be discarded.
pub fn try_for_each_decompressed_block(
    format: &Format,
    bytes: &[u8],
    count: usize,
    consumer: &mut dyn FnMut(&[u64]),
) -> Result<(), DecodeError> {
    // A sequential walk never seeks, so it needs no directory.
    drain(&mut *cursor_for(format, bytes, count, &[]), count, consumer)
}

/// Pull `cursor` until `count` values were handed to `consumer` (the last
/// chunk is trimmed) — the one push driver, built from the pull decoders.
fn drain(
    cursor: &mut dyn ChunkCursor,
    mut count: usize,
    consumer: &mut dyn FnMut(&[u64]),
) -> Result<(), DecodeError> {
    while count > 0 {
        let Some(chunk) = cursor.try_next_chunk()? else {
            break;
        };
        let take = chunk.len().min(count);
        consumer(&chunk[..take]);
        count -= take;
    }
    Ok(())
}

/// One entry of a [chunk directory](chunk_directory): a position in the
/// encoded main part at which decoding can start without replaying the
/// prefix.
///
/// Every entry marks the beginning of an independently decodable *chunk* —
/// a bit-packing block, a group of RLE runs, or a fixed stride of a
/// random-access format — identified by the byte offset of its first encoded
/// byte and the logical index of its first data element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChunkEntry {
    /// Offset of the chunk's first byte within the encoded main part.
    pub byte_offset: usize,
    /// Logical index of the chunk's first data element.
    pub logical_start: usize,
}

/// Target number of logical elements per directory chunk for formats whose
/// natural unit is smaller than a cache-resident buffer (single runs, single
/// elements).  Matches [`CACHE_BUFFER_ELEMENTS`], so a chunk is the same
/// granularity the on-the-fly wrapper works at.
pub const CHUNK_DIRECTORY_TARGET: usize = CACHE_BUFFER_ELEMENTS;

/// Build the chunk directory of an encoded main part: the sequence of
/// [`ChunkEntry`] seek points at which [`for_each_decompressed_block_in`]
/// can start decoding.
///
/// The directory is recorded at compression time by the column layer and is
/// what makes a compressed column *seekable* — a worker can decode an
/// arbitrary contiguous range of chunks without touching the prefix.  The
/// construction never decompresses data:
///
/// * uncompressed and static BP have fixed strides, so entries are pure
///   arithmetic (one per [`CHUNK_DIRECTORY_TARGET`] elements),
/// * the dynamic BP family ([`Format::DynBp`], [`Format::DeltaDynBp`],
///   [`Format::ForDynBp`]) walks the per-block width bytes, yielding one
///   entry per 512-element block (cascade blocks carry their reference
///   value, so every block is self-contained),
/// * RLE walks the run headers, starting a new chunk at the first run
///   boundary after [`CHUNK_DIRECTORY_TARGET`] logical elements.
pub fn chunk_directory(format: &Format, bytes: &[u8], count: usize) -> Vec<ChunkEntry> {
    if count == 0 {
        return Vec::new();
    }
    let stride_entries = |bytes_per_element_num: usize, bytes_per_element_den: usize| {
        (0..count)
            .step_by(CHUNK_DIRECTORY_TARGET)
            .map(|logical_start| ChunkEntry {
                byte_offset: logical_start * bytes_per_element_num / bytes_per_element_den,
                logical_start,
            })
            .collect()
    };
    match format {
        Format::Uncompressed => stride_entries(8, 1),
        // CHUNK_DIRECTORY_TARGET is a multiple of 8 elements, so every
        // stride boundary of a `width`-bit stream falls on a whole byte.
        Format::StaticBp(width) => stride_entries(*width as usize, 8),
        Format::DynBp => dyn_bp::chunk_directory(Cascade::Plain, bytes, count),
        Format::DeltaDynBp => dyn_bp::chunk_directory(Cascade::Delta, bytes, count),
        Format::ForDynBp => dyn_bp::chunk_directory(Cascade::For, bytes, count),
        Format::Rle => {
            let mut entries = Vec::new();
            let mut logical = 0usize;
            let mut run_idx = 0usize;
            let mut next_chunk_at = 0usize;
            rle::for_each_run(bytes, count, &mut |_, run_len| {
                if logical >= next_chunk_at {
                    entries.push(ChunkEntry {
                        // RLE runs are fixed-size (value, length) pairs.
                        byte_offset: run_idx * 16,
                        logical_start: logical,
                    });
                    next_chunk_at = logical + CHUNK_DIRECTORY_TARGET;
                }
                logical += run_len as usize;
                run_idx += 1;
            });
            entries
        }
    }
}

/// Decompress the contiguous directory chunks `entries` of an encoded main
/// part, handing cache-resident pieces of uncompressed values to `consumer`
/// — [`for_each_decompressed_block`] restricted to a seekable sub-range.
///
/// `directory` must be the [`chunk_directory`] of exactly this main part and
/// `count` its total logical length.  Decoding starts at the first entry's
/// seek point; no prefix of the buffer is replayed, which is what makes
/// chunk-range partitions of one operator independent.
pub fn for_each_decompressed_block_in(
    format: &Format,
    bytes: &[u8],
    count: usize,
    directory: &[ChunkEntry],
    entries: std::ops::Range<usize>,
    consumer: &mut dyn FnMut(&[u64]),
) {
    if entries.start >= entries.end {
        return;
    }
    assert!(
        entries.end <= directory.len(),
        "chunk range {entries:?} exceeds the directory ({} entries)",
        directory.len()
    );
    let end_logical = directory
        .get(entries.end)
        .map_or(count, |e| e.logical_start);
    let span = end_logical - directory[entries.start].logical_start;
    let mut cursor = cursor_for(format, bytes, count, directory);
    cursor.seek(entries.start);
    drain(&mut *cursor, span, consumer).unwrap_or_else(|err| std::panic::panic_any(err));
}

/// A pull-based block decoder over an encoded main part — the **only**
/// decoder of each format.
///
/// The caller pulls one cache-resident chunk at a time, so any number of
/// compressed inputs can be paired position-wise on one thread with a carry
/// buffer bounded by one chunk each, never a whole column; the push-style
/// [`for_each_decompressed_block`] family merely drives a cursor to
/// completion (push can be built from pull, not the reverse).
///
/// Contract:
///
/// * [`try_next_chunk`](ChunkCursor::try_next_chunk) decodes and returns
///   the next chunk of values, or `None` at the end of the stream.  Chunks
///   come in stream order; their concatenation is exactly the sequential
///   decode.  Every chunk holds at most [`CACHE_BUFFER_ELEMENTS`] values
///   (long RLE runs are split), so the uncompressed data stays
///   cache-resident.  The returned slice borrows the cursor's internal
///   decode buffer and is invalidated by the next call.  Every header field
///   and length is validated before it is used, so truncated or corrupt
///   bytes yield a [`DecodeError`], never a slice-index panic.
/// * [`next_chunk`](ChunkCursor::next_chunk) is the same step for
///   engine-produced bytes: a [`DecodeError`] unwinds as the panic payload.
/// * [`seek`](ChunkCursor::seek) repositions the cursor at the start of
///   directory chunk `chunk_idx` — the entry index of [`chunk_directory`]
///   for this main part — without decoding any prefix.  An index at or past
///   the directory length positions the cursor at the end of the stream.
pub trait ChunkCursor {
    /// Decode and return the next chunk of values, `Ok(None)` when the
    /// cursor is exhausted, or the [`DecodeError`] describing why the bytes
    /// at the current position cannot be decoded.
    fn try_next_chunk(&mut self) -> Result<Option<&[u64]>, DecodeError>;

    /// [`try_next_chunk`](ChunkCursor::try_next_chunk) for trusted bytes.
    ///
    /// # Panics
    /// Panics with the structured [`DecodeError`] as the payload if the
    /// bytes are truncated or corrupt.
    fn next_chunk(&mut self) -> Option<&[u64]> {
        self.try_next_chunk()
            .unwrap_or_else(|err| std::panic::panic_any(err))
    }

    /// The chunk most recently returned by
    /// [`next_chunk`](ChunkCursor::next_chunk), still resident in the
    /// cursor's decode buffer.  Lets a caller re-borrow the current chunk
    /// after releasing the `next_chunk` borrow (current borrow-checker
    /// rules cannot express holding it across a conditional re-decode).
    /// Contents are unspecified before the first decode and after a seek.
    fn last_chunk(&self) -> &[u64];

    /// Reposition the cursor at the start of directory chunk `chunk_idx`.
    fn seek(&mut self, chunk_idx: usize);
}

/// Create a [`ChunkCursor`] over an encoded main part of `count` elements.
///
/// `directory` must be the [`chunk_directory`] of exactly this main part;
/// formats with data-dependent block offsets (the dynamic BP family, RLE)
/// seek through it, fixed-stride formats seek by arithmetic.
pub fn cursor_for<'a>(
    format: &Format,
    bytes: &'a [u8],
    count: usize,
    directory: &'a [ChunkEntry],
) -> Box<dyn ChunkCursor + Send + 'a> {
    match format {
        Format::Uncompressed => Box::new(uncompressed::UncompressedCursor::new(bytes, count)),
        Format::StaticBp(width) => Box::new(static_bp::StaticBpCursor::new(bytes, *width, count)),
        Format::DynBp => Box::new(DynBpCursor::new(Cascade::Plain, bytes, count, directory)),
        Format::DeltaDynBp => Box::new(DynBpCursor::new(Cascade::Delta, bytes, count, directory)),
        Format::ForDynBp => Box::new(DynBpCursor::new(Cascade::For, bytes, count, directory)),
        Format::Rle => Box::new(rle::RleCursor::new(bytes, count, directory)),
    }
}

/// Random read access to element `idx` of a compressed main part.
///
/// Returns `None` if the format does not support random access (see
/// [`Format::supports_random_access`]).
pub fn get_element(format: &Format, bytes: &[u8], count: usize, idx: usize) -> Option<u64> {
    debug_assert!(idx < count);
    let _ = count;
    match format {
        Format::Uncompressed => Some(uncompressed::get(bytes, idx)),
        Format::StaticBp(width) => Some(bitpack::get_packed(bytes, *width, idx)),
        _ => None,
    }
}

/// Exact size in bytes of the compressed representation of `values` in
/// `format` (main part plus the 8-byte-per-element uncompressed remainder):
/// the format's compressor run into a [`ByteCount`].
pub fn compressed_size_bytes(format: &Format, values: &[u64]) -> usize {
    let main_len = values.len() - values.len() % format.block_size();
    let mut size = ByteCount::default();
    let mut compressor = compressor_for(format);
    compressor.append(&values[..main_len], &mut size);
    compressor.finish(&mut size);
    size.0 + (values.len() - main_len) * 8
}

pub use morph::morph_main_part as morph;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_sizes() {
        assert_eq!(Format::Uncompressed.block_size(), 1);
        assert_eq!(Format::StaticBp(13).block_size(), 64);
        assert_eq!(Format::DynBp.block_size(), 512);
        assert_eq!(Format::DeltaDynBp.block_size(), 512);
        assert_eq!(Format::ForDynBp.block_size(), 512);
        assert_eq!(Format::Rle.block_size(), 1);
    }

    #[test]
    fn random_access_support() {
        assert!(Format::Uncompressed.supports_random_access());
        assert!(Format::StaticBp(7).supports_random_access());
        assert!(!Format::DynBp.supports_random_access());
        assert!(!Format::DeltaDynBp.supports_random_access());
        assert!(!Format::Rle.supports_random_access());
    }

    #[test]
    fn paper_formats_are_five() {
        let formats = Format::paper_formats(1000);
        assert_eq!(formats.len(), 5);
        assert!(formats.contains(&Format::StaticBp(10)));
        assert_eq!(Format::all_formats(1000).len(), 6);
    }

    #[test]
    fn labels_are_unique() {
        let formats = Format::all_formats(63);
        let labels: std::collections::HashSet<String> = formats.iter().map(|f| f.label()).collect();
        assert_eq!(labels.len(), formats.len());
        assert_eq!(Format::StaticBp(6).to_string(), "staticBP(6)");
    }

    #[test]
    fn format_names_round_trip_through_from_str() {
        for format in Format::all_formats(123_456) {
            let spelled = format.to_string();
            assert_eq!(spelled.parse::<Format>(), Ok(format), "{spelled}");
            assert_eq!(format.label(), spelled);
        }
        assert_eq!(" staticBP(7) ".parse::<Format>(), Ok(Format::StaticBp(7)));
        assert!("staticBP(0)".parse::<Format>().is_err());
        assert!("staticBP(65)".parse::<Format>().is_err());
        assert!("staticBP(x)".parse::<Format>().is_err());
        let err = "simd-bp".parse::<Format>().unwrap_err();
        assert!(err.to_string().contains("unknown compression format"));
    }

    #[test]
    fn static_bp_for_max_picks_effective_width() {
        assert_eq!(Format::static_bp_for_max(0), Format::StaticBp(1));
        assert_eq!(Format::static_bp_for_max(63), Format::StaticBp(6));
        assert_eq!(Format::static_bp_for_max(64), Format::StaticBp(7));
        assert_eq!(Format::static_bp_for_max(u64::MAX), Format::StaticBp(64));
    }

    #[test]
    fn byte_count_equals_stored_length_for_every_format() {
        let mut values: Vec<u64> = (0..5000u64).map(|i| (i * 31) % 509).collect();
        values.extend(std::iter::repeat_n(7, 700));
        for format in Format::all_formats(508) {
            let (bytes, main_len) = compress_main_part(&format, &values);
            let expected = bytes.len() + (values.len() - main_len) * 8;
            assert_eq!(
                compressed_size_bytes(&format, &values),
                expected,
                "{format}"
            );
        }
    }

    #[test]
    fn compress_main_part_respects_block_size() {
        let values: Vec<u64> = (0..1000).collect();
        let (_, main_len) = compress_main_part(&Format::DynBp, &values);
        assert_eq!(main_len, 512);
        let (_, main_len) = compress_main_part(&Format::StaticBp(10), &values);
        assert_eq!(main_len, 960);
        let (_, main_len) = compress_main_part(&Format::Uncompressed, &values);
        assert_eq!(main_len, 1000);
    }
}
