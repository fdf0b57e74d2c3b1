//! Dictionary encoding with an embedded, order-preserving dictionary and
//! bit-packed keys.
//!
//! DICT is a logical-level technique (Section 2.1): every value is replaced
//! by its key in a dictionary of the distinct values.  Here the dictionary is
//! *sorted*, so the mapping is order-preserving, which keeps range predicates
//! meaningful on the keys (Section 3.1 assumes order-preserving dictionary
//! coding when range predicates need to be evaluated).  The keys are packed
//! with the physical-level NS primitive.
//!
//! Because building the dictionary requires seeing all values first, this
//! format is not streamable ([`crate::Format::supports_streaming`] returns
//! `false`); the streaming compressor buffers its input and encodes in
//! [`crate::Compressor::finish`].  It is provided as an *extension* beyond
//! the paper's five formats, primarily to exercise design principle DP2
//! (a rich and easily extensible set of schemes).
//!
//! Layout:
//! `[distinct count d: u64 LE][d sorted distinct values: d * 8 bytes]`
//! `[key width: u8][packed keys: ceil(count * width / 8) bytes]`.

use crate::bitpack;
use crate::{
    ByteSink, ChunkCursor, Compressor, DecodeError, CACHE_BUFFER_ELEMENTS, CHUNK_DIRECTORY_TARGET,
};

/// Streaming-interface compressor for the dictionary format (buffers all
/// input internally; see the module documentation).
#[derive(Debug, Clone, Default)]
pub struct DictCompressor {
    buffered: Vec<u64>,
}

impl DictCompressor {
    /// Create an empty dictionary compressor.
    pub fn new() -> Self {
        DictCompressor {
            buffered: Vec::new(),
        }
    }
}

impl Compressor for DictCompressor {
    fn append(&mut self, values: &[u64], _out: &mut dyn ByteSink) {
        self.buffered.extend_from_slice(values);
    }

    fn finish(&mut self, out: &mut dyn ByteSink) {
        encode_into(&self.buffered, out);
        self.buffered.clear();
    }
}

/// Encode `values` into the dictionary layout described in the module docs.
/// An empty input produces an empty encoding.
pub fn encode_into(values: &[u64], out: &mut dyn ByteSink) {
    if values.is_empty() {
        return;
    }
    let mut dictionary: Vec<u64> = values.to_vec();
    dictionary.sort_unstable();
    dictionary.dedup();
    out.put_words(&[dictionary.len() as u64]);
    out.put_words(&dictionary);
    let width = bitpack::bit_width_of(dictionary.len().saturating_sub(1) as u64);
    out.put(&[width]);
    // Every value is present by construction (the dictionary is the sorted
    // dedup of `values`), so the first index with a value `>= v` *is* the
    // key — `partition_point` makes the lookup total with no panic path.
    let keys: Vec<u64> = values
        .iter()
        .map(|v| dictionary.partition_point(|&entry| entry < *v) as u64)
        .collect();
    out.pack(&keys, width);
}

/// Decode the embedded dictionary of a non-empty encoding: the sorted
/// distinct values, the byte offset of the packed key stream and the key
/// width in bits.  Every length is validated before it is trusted, so a
/// truncated or corrupt header yields a structured [`DecodeError`] instead
/// of a slicing panic.
fn try_decode_dictionary(bytes: &[u8]) -> Result<(Vec<u64>, usize, u8), DecodeError> {
    let (keys_offset, width) = try_header_layout(bytes)?;
    let distinct = crate::read_u64_le(bytes, 0) as usize;
    let mut dictionary: Vec<u64> = Vec::with_capacity(distinct);
    for i in 0..distinct {
        dictionary.push(crate::read_u64_le(bytes, 8 + i * 8));
    }
    Ok((dictionary, keys_offset, width))
}

/// Parse the header of a non-empty dictionary encoding: returns the byte
/// offset of the packed key stream and the key width in bits.
///
/// Used by the chunk directory to compute seek points into the key stream
/// without decoding any values.
///
/// # Panics
/// Panics if the header is truncated or corrupt; use [`try_header_layout`]
/// for untrusted bytes.
pub fn header_layout(bytes: &[u8]) -> (usize, u8) {
    try_header_layout(bytes).unwrap_or_else(|err| std::panic::panic_any(err))
}

/// Fallible variant of [`header_layout`]: validates that the buffer holds
/// the distinct count, all dictionary entries and the width byte, and that
/// the width is a legal bit width, before any of them is used.
pub fn try_header_layout(bytes: &[u8]) -> Result<(usize, u8), DecodeError> {
    crate::ensure_bytes("DICT", bytes, 0, 8)?;
    let distinct = crate::read_u64_le(bytes, 0);
    // The dictionary must fit into addressable memory before the size
    // arithmetic below can be trusted (a hostile 2^61-entry count would
    // overflow `usize` multiplication).
    let entries_bytes = distinct
        .checked_mul(8)
        .and_then(|b| usize::try_from(b).ok())
        .ok_or_else(|| DecodeError::CorruptHeader {
            format: "DICT",
            detail: format!("implausible distinct-value count {distinct}"),
        })?;
    crate::ensure_bytes("DICT", bytes, 8, entries_bytes + 1)?;
    let width_offset = 8 + entries_bytes;
    let width = bytes[width_offset];
    if !(1..=64).contains(&width) {
        return Err(DecodeError::CorruptHeader {
            format: "DICT",
            detail: format!("key width {width} is not in 1..=64"),
        });
    }
    Ok((width_offset + 1, width))
}

/// [`ChunkCursor`] over a dictionary-encoded main part — the format's only
/// decoder.  The embedded dictionary is decoded (and validated) once at
/// construction — it is format metadata, not transient uncompressed data;
/// chunks decode [`CACHE_BUFFER_ELEMENTS`]-element strides of the packed key
/// stream, which are byte-aligned for every key width, so seeks are pure
/// arithmetic.  Each chunk's key window and key range are validated before
/// the keys are looked up.
#[derive(Debug)]
pub struct DictCursor<'a> {
    /// The sorted distinct values, the byte offset of the key stream and the
    /// key width — or why the header is unreadable (reported by the first
    /// decode; never read for an empty column, whose encoding is empty).
    header: Result<(Vec<u64>, usize, u8), DecodeError>,
    bytes: &'a [u8],
    count: usize,
    pos: usize,
    keys: Vec<u64>,
    buffer: Vec<u64>,
}

impl<'a> DictCursor<'a> {
    /// Create a cursor over `count` values of a dictionary encoding,
    /// positioned at the first element.
    pub fn new(bytes: &'a [u8], count: usize) -> DictCursor<'a> {
        DictCursor {
            header: try_decode_dictionary(bytes),
            bytes,
            count,
            pos: 0,
            keys: Vec::with_capacity(CACHE_BUFFER_ELEMENTS.min(count)),
            buffer: Vec::with_capacity(CACHE_BUFFER_ELEMENTS.min(count)),
        }
    }
}

impl ChunkCursor for DictCursor<'_> {
    fn try_next_chunk(&mut self) -> Result<Option<&[u64]>, DecodeError> {
        if self.pos >= self.count {
            return Ok(None);
        }
        let (dictionary, keys_offset, width) = self.header.as_ref().map_err(DecodeError::clone)?;
        let chunk = (self.count - self.pos).min(CACHE_BUFFER_ELEMENTS);
        // `pos` only ever rests on multiples of CACHE_BUFFER_ELEMENTS (seek
        // strides and chunk advances), so the key window is byte-aligned.
        let start = keys_offset + self.pos * *width as usize / 8;
        let packed = bitpack::packed_size_bytes(chunk, *width);
        crate::ensure_bytes("DICT", self.bytes, start, packed)?;
        self.keys.clear();
        bitpack::unpack_into(
            &self.bytes[start..start + packed],
            *width,
            chunk,
            &mut self.keys,
        );
        // One range check per chunk keeps the lookup loop branch-free.
        let max_key = self.keys.iter().copied().fold(0, u64::max);
        if max_key >= dictionary.len() as u64 {
            return Err(DecodeError::CorruptHeader {
                format: "DICT",
                detail: format!(
                    "key {max_key} exceeds the dictionary of {} entries",
                    dictionary.len()
                ),
            });
        }
        self.buffer.clear();
        self.buffer
            .extend(self.keys.iter().map(|&k| dictionary[k as usize]));
        self.pos += chunk;
        Ok(Some(&self.buffer))
    }

    fn last_chunk(&self) -> &[u64] {
        &self.buffer
    }

    fn seek(&mut self, chunk_idx: usize) {
        self.pos = chunk_idx
            .saturating_mul(CHUNK_DIRECTORY_TARGET)
            .min(self.count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compress_main_part, compressed_size_bytes, decompress_into, Format};

    #[test]
    fn roundtrip_low_cardinality() {
        let values: Vec<u64> = (0..10_000u64)
            .map(|i| (i * 7919) % 23 + 1_000_000)
            .collect();
        let (bytes, main_len) = compress_main_part(&Format::Dict, &values);
        assert_eq!(main_len, values.len());
        let mut decoded = Vec::new();
        decompress_into(&Format::Dict, &bytes, main_len, &mut decoded);
        assert_eq!(decoded, values);
    }

    #[test]
    fn low_cardinality_compresses_well() {
        let values: Vec<u64> = (0..100_000u64)
            .map(|i| ((i * 31) % 16) * (u64::MAX / 16))
            .collect();
        let size = compressed_size_bytes(&Format::Dict, &values);
        let uncompressed = values.len() * 8;
        // 4-bit keys + tiny dictionary => ~1/16 of the uncompressed size.
        assert!(size * 10 < uncompressed, "dict size {size}");
    }

    #[test]
    fn dictionary_is_order_preserving() {
        let values = vec![500u64, 10, 70, 10, 500, 999];
        let mut bytes = Vec::new();
        encode_into(&values, &mut bytes);
        // The embedded dictionary must be sorted: 10 < 70 < 500 < 999.
        let distinct = u64::from_le_bytes(bytes[0..8].try_into().unwrap());
        assert_eq!(distinct, 4);
        let dict: Vec<u64> = (0..4)
            .map(|i| u64::from_le_bytes(bytes[8 + i * 8..16 + i * 8].try_into().unwrap()))
            .collect();
        assert_eq!(dict, vec![10, 70, 500, 999]);
    }

    #[test]
    fn roundtrip_high_cardinality_and_extremes() {
        let mut values: Vec<u64> = (0..3000u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        values.push(u64::MAX);
        values.push(0);
        let (bytes, main_len) = compress_main_part(&Format::Dict, &values);
        let mut decoded = Vec::new();
        decompress_into(&Format::Dict, &bytes, main_len, &mut decoded);
        assert_eq!(decoded, values);
    }

    #[test]
    fn empty_column() {
        let (bytes, main_len) = compress_main_part(&Format::Dict, &[]);
        let mut decoded = Vec::new();
        decompress_into(&Format::Dict, &bytes, main_len, &mut decoded);
        assert!(decoded.is_empty());
    }

    #[test]
    fn single_value_column() {
        let values = vec![77u64; 5000];
        let (bytes, main_len) = compress_main_part(&Format::Dict, &values);
        let mut decoded = Vec::new();
        decompress_into(&Format::Dict, &bytes, main_len, &mut decoded);
        assert_eq!(decoded, values);
        // 1 distinct value -> 1-bit keys: 8 (count) + 8 (dict) + 1 (width) + ceil(5000/8).
        assert_eq!(
            compressed_size_bytes(&Format::Dict, &values),
            8 + 8 + 1 + 625
        );
    }
}
