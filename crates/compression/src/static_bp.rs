//! Static bit packing: one fixed bit width for the whole column.
//!
//! This is the paper's "static BP" (Section 4.1): "a variant of BP with one
//! block and fixed bit width for all data elements".  Byte-aligned widths (8,
//! 16, 32) correspond to the narrow SQL integer types that most systems use
//! as their only physical-level compression (Section 2.2).  Because the width
//! is constant, the position of every element in the bit stream is known,
//! which is what makes random read access — and thus the project operator on
//! compressed data — straightforward (Section 4.2).
//!
//! Layout: the values are packed as one dense bit stream in blocks of
//! [`STATIC_BP_BLOCK`] = 64 values, so every block occupies exactly `8 * w`
//! bytes and blocks are byte-aligned for every width.

use crate::bitpack;
use crate::{
    ByteSink, ChunkCursor, Compressor, DecodeError, CACHE_BUFFER_ELEMENTS, CHUNK_DIRECTORY_TARGET,
    STATIC_BP_BLOCK,
};

/// Streaming compressor for static bit packing with a fixed `width`.
#[derive(Debug, Clone)]
pub struct StaticBpCompressor {
    width: u8,
}

impl StaticBpCompressor {
    /// Create a compressor packing every value with `width` bits.
    ///
    /// # Panics
    /// Panics if `width` is not in `1..=64`.
    pub fn new(width: u8) -> Self {
        assert!((1..=64).contains(&width), "bit width must be in 1..=64");
        StaticBpCompressor { width }
    }
}

impl Compressor for StaticBpCompressor {
    fn append(&mut self, values: &[u64], out: &mut dyn ByteSink) {
        assert_eq!(
            values.len() % STATIC_BP_BLOCK,
            0,
            "static BP chunks must be multiples of {STATIC_BP_BLOCK} elements"
        );
        // Static BP has one fixed width for the whole column; a value that
        // does not fit indicates an inconsistent plan (the optimizer assigned
        // a too-narrow width), which must fail loudly rather than silently
        // truncate data.
        let effective = bitpack::bit_width_of_max(values);
        assert!(
            effective <= self.width,
            "static BP width {} is too narrow: data requires {} bits",
            self.width,
            effective
        );
        out.pack(values, self.width);
    }

    fn finish(&mut self, _out: &mut dyn ByteSink) {}
}

/// [`ChunkCursor`] over a static-BP main part — the format's only decoder.
/// The width is constant, so seeks are pure arithmetic; directory strides
/// are multiples of 8 elements and therefore always byte-aligned.  The
/// width, the block grid and every chunk's byte window are validated before
/// the chunk is unpacked.
#[derive(Debug)]
pub struct StaticBpCursor<'a> {
    bytes: &'a [u8],
    width: u8,
    count: usize,
    pos: usize,
    buffer: Vec<u64>,
}

impl<'a> StaticBpCursor<'a> {
    /// Create a cursor over `count` values of `width` bits each, positioned
    /// at the first element.
    pub fn new(bytes: &'a [u8], width: u8, count: usize) -> StaticBpCursor<'a> {
        StaticBpCursor {
            bytes,
            width,
            count,
            pos: 0,
            buffer: Vec::with_capacity(CACHE_BUFFER_ELEMENTS.min(count)),
        }
    }
}

impl ChunkCursor for StaticBpCursor<'_> {
    fn try_next_chunk(&mut self) -> Result<Option<&[u64]>, DecodeError> {
        if self.pos >= self.count {
            return Ok(None);
        }
        if !(1..=64).contains(&self.width) {
            return Err(DecodeError::CorruptHeader {
                format: "static BP",
                detail: format!("bit width {} is not in 1..=64", self.width),
            });
        }
        crate::ensure_whole_blocks("static BP", self.count, STATIC_BP_BLOCK)?;
        let chunk = (self.count - self.pos).min(CACHE_BUFFER_ELEMENTS);
        // `pos` only ever rests on multiples of CACHE_BUFFER_ELEMENTS (seek
        // strides and chunk advances), so the start is byte-aligned.
        let byte_start = bitpack::packed_size_bytes(self.pos, self.width);
        let byte_end = bitpack::packed_size_bytes(self.pos + chunk, self.width);
        crate::ensure_bytes("static BP", self.bytes, byte_start, byte_end - byte_start)?;
        self.buffer.clear();
        bitpack::unpack_into(
            &self.bytes[byte_start..byte_end],
            self.width,
            chunk,
            &mut self.buffer,
        );
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
    use crate::{compress_main_part, compressed_size_bytes, decompress_into, get_element, Format};

    #[test]
    fn roundtrip_various_widths() {
        for width in [1u8, 6, 8, 13, 32, 48, 63, 64] {
            let max = bitpack::max_value_for_width(width);
            let values: Vec<u64> = (0..4096u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & max)
                .collect();
            let format = Format::StaticBp(width);
            let (bytes, main_len) = compress_main_part(&format, &values);
            assert_eq!(main_len, values.len());
            assert_eq!(bytes.len(), bitpack::packed_size_bytes(values.len(), width));
            let mut decoded = Vec::new();
            decompress_into(&format, &bytes, main_len, &mut decoded);
            assert_eq!(decoded, values);
        }
    }

    #[test]
    fn compression_ratio_matches_width() {
        // 6-bit data (like column C1 of Table 1) should compress to ~6/64 of
        // the uncompressed size.
        let values: Vec<u64> = (0..128 * 1024u64).map(|i| i % 64).collect();
        let compressed = compressed_size_bytes(&Format::StaticBp(6), &values);
        let uncompressed = values.len() * 8;
        let ratio = compressed as f64 / uncompressed as f64;
        assert!((ratio - 6.0 / 64.0).abs() < 0.01, "ratio was {ratio}");
    }

    #[test]
    fn random_access_matches_sequential() {
        let values: Vec<u64> = (0..1024u64).map(|i| (i * 7) % 1000).collect();
        let format = Format::StaticBp(10);
        let (bytes, main_len) = compress_main_part(&format, &values);
        for idx in [0usize, 1, 63, 64, 65, 511, 1023] {
            assert_eq!(
                get_element(&format, &bytes, main_len, idx),
                Some(values[idx]),
                "mismatch at {idx}"
            );
        }
    }

    #[test]
    fn remainder_is_left_to_caller() {
        let values: Vec<u64> = (0..130).collect();
        let (_, main_len) = compress_main_part(&Format::StaticBp(8), &values);
        assert_eq!(main_len, 128);
    }

    #[test]
    #[should_panic(expected = "multiples")]
    fn append_rejects_partial_blocks() {
        let mut compressor = StaticBpCompressor::new(8);
        compressor.append(&[1, 2, 3], &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "bit width")]
    fn zero_width_rejected() {
        StaticBpCompressor::new(0);
    }

    #[test]
    fn blockwise_decode_chunks_are_cache_resident() {
        let values: Vec<u64> = (0..8192u64).map(|i| i % 100).collect();
        let (bytes, main_len) = compress_main_part(&Format::StaticBp(7), &values);
        let mut total = 0usize;
        let mut cursor = StaticBpCursor::new(&bytes, 7, main_len);
        while let Some(chunk) = cursor.next_chunk() {
            assert!(chunk.len() <= CACHE_BUFFER_ELEMENTS);
            total += chunk.len();
        }
        assert_eq!(total, main_len);
    }
}
