//! Frame-of-reference coding cascaded with dynamic bit packing
//! (FOR + SIMD-BP).
//!
//! Each value is represented as its (non-negative) offset from a per-block
//! reference value — the minimum of the block — which maps data lying in a
//! narrow range far away from zero (column C3 of Table 1: uniform in
//! `[2^62, 2^62 + 63]`) onto small integers suitable for null suppression.
//!
//! Layout per block of [`DYN_BP_BLOCK`] = 512 elements:
//! `[reference: u64 LE][width: u8][packed offsets: 64 * width bytes]`.

use crate::bitpack;
use crate::delta::checked_cascade_header;
use crate::{ByteSink, ChunkCursor, ChunkEntry, Compressor, DecodeError, DYN_BP_BLOCK};

/// Streaming compressor for FOR + dynamic BP.  The reference is chosen per
/// block, so the compressor itself is stateless.
#[derive(Debug, Default, Clone, Copy)]
pub struct ForDynBpCompressor;

impl Compressor for ForDynBpCompressor {
    fn append(&mut self, values: &[u64], out: &mut dyn ByteSink) {
        assert_eq!(
            values.len() % DYN_BP_BLOCK,
            0,
            "FOR+BP chunks must be multiples of {DYN_BP_BLOCK} elements"
        );
        let mut offsets: Vec<u64> = Vec::with_capacity(DYN_BP_BLOCK);
        for block in values.chunks_exact(DYN_BP_BLOCK) {
            // `chunks_exact` never yields an empty block; the fold makes
            // the reference total without a panicking path.
            let reference = block.iter().copied().fold(u64::MAX, u64::min);
            out.put(&reference.to_le_bytes());
            offsets.clear();
            offsets.extend(block.iter().map(|&v| v - reference));
            let width = bitpack::bit_width_of_max(&offsets);
            out.put(&[width]);
            out.pack(&offsets, width);
        }
    }

    fn finish(&mut self, _out: &mut dyn ByteSink) {}
}

/// [`ChunkCursor`] over a FOR+BP main part — the format's only decoder: one
/// 512-element block per chunk, its header validated before the payload is
/// unpacked.  Every block carries its own reference, so blocks are
/// self-contained and seeking needs no prefix replay.
#[derive(Debug)]
pub struct ForCursor<'a> {
    bytes: &'a [u8],
    count: usize,
    directory: &'a [ChunkEntry],
    logical: usize,
    byte_offset: usize,
    offsets: Vec<u64>,
    buffer: Vec<u64>,
}

impl<'a> ForCursor<'a> {
    /// Create a cursor over `count` values (whole blocks) with the main
    /// part's chunk `directory`, positioned at the first element.
    pub fn new(bytes: &'a [u8], count: usize, directory: &'a [ChunkEntry]) -> ForCursor<'a> {
        ForCursor {
            bytes,
            count,
            directory,
            logical: 0,
            byte_offset: 0,
            offsets: Vec::with_capacity(DYN_BP_BLOCK.min(count)),
            buffer: Vec::with_capacity(DYN_BP_BLOCK.min(count)),
        }
    }
}

impl ChunkCursor for ForCursor<'_> {
    fn try_next_chunk(&mut self) -> Result<Option<&[u64]>, DecodeError> {
        if self.logical >= self.count {
            return Ok(None);
        }
        crate::ensure_whole_blocks("FOR+BP", self.count, DYN_BP_BLOCK)?;
        let offset = self.byte_offset;
        let (reference, width, packed) = checked_cascade_header("FOR+BP", self.bytes, offset)?;
        self.offsets.clear();
        bitpack::unpack_into(
            &self.bytes[offset + 9..offset + 9 + packed],
            width,
            DYN_BP_BLOCK,
            &mut self.offsets,
        );
        self.buffer.clear();
        self.buffer
            .extend(self.offsets.iter().map(|&o| reference.wrapping_add(o)));
        self.byte_offset = offset + 9 + packed;
        self.logical += DYN_BP_BLOCK;
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
    fn roundtrip_narrow_range_of_huge_values() {
        // Column C3 of Table 1: uniform in [2^62, 2^62 + 63].
        let values: Vec<u64> = (0..16 * 1024u64)
            .map(|i| (1 << 62) + (i.wrapping_mul(2654435761) % 64))
            .collect();
        let (bytes, main_len) = compress_main_part(&Format::ForDynBp, &values);
        let mut decoded = Vec::new();
        decompress_into(&Format::ForDynBp, &bytes, main_len, &mut decoded);
        assert_eq!(decoded, values);
    }

    #[test]
    fn narrow_huge_values_compress_well_with_for_but_not_bp() {
        let values: Vec<u64> = (0..16 * 1024u64)
            .map(|i| (1 << 62) + (i.wrapping_mul(2654435761) % 64))
            .collect();
        let for_size = compressed_size_bytes(&Format::ForDynBp, &values);
        let dyn_size = compressed_size_bytes(&Format::DynBp, &values);
        let uncompressed = values.len() * 8;
        // Plain BP must spend 63 bits/value; FOR needs ~6 bits/value + headers.
        assert!(for_size * 5 < dyn_size, "for {for_size} vs dyn {dyn_size}");
        assert!(dyn_size as f64 > 0.9 * uncompressed as f64);
    }

    #[test]
    fn roundtrip_extreme_spread() {
        let mut values = vec![0u64; DYN_BP_BLOCK];
        values[13] = u64::MAX;
        values.extend((0..DYN_BP_BLOCK as u64).map(|i| i + 7));
        let (bytes, main_len) = compress_main_part(&Format::ForDynBp, &values);
        let mut decoded = Vec::new();
        decompress_into(&Format::ForDynBp, &bytes, main_len, &mut decoded);
        assert_eq!(decoded, values);
    }

    #[test]
    fn constant_block_needs_one_bit_per_offset() {
        let values = vec![(1u64 << 55) + 9; 2 * DYN_BP_BLOCK];
        let size = compressed_size_bytes(&Format::ForDynBp, &values);
        // Per block: 8 (reference) + 1 (width) + 64 (1-bit offsets) = 73 bytes.
        assert_eq!(size, 2 * 73);
    }

    #[test]
    #[should_panic(expected = "multiples")]
    fn append_rejects_partial_blocks() {
        let mut compressor = ForDynBpCompressor;
        compressor.append(&[1, 2, 3], &mut Vec::new());
    }
}
