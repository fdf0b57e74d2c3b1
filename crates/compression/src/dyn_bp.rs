//! Dynamic bit packing with per-block widths (the paper's 64-bit port of
//! SIMD-BP, "SIMD-BP512").
//!
//! The input is partitioned into blocks of [`DYN_BP_BLOCK`] = 512 data
//! elements.  For each block the effective bit width of the largest value is
//! determined and all 512 values are packed with that width (Section 2.1:
//! "partition a sequence of integer values into blocks and compress every
//! value in a block using a fixed bit width, namely the effective bit width
//! of the largest value in the block").  This adapts to the *local* data
//! distribution, which is what makes it robust against outliers (column C2 of
//! Table 1).
//!
//! Layout per block: `[width: u8][packed values: 64 * width bytes]`.

use crate::bitpack;
use crate::{ByteSink, ChunkCursor, ChunkEntry, Compressor, DecodeError, DYN_BP_BLOCK};

/// Streaming compressor for dynamic bit packing.
#[derive(Debug, Default, Clone, Copy)]
pub struct DynBpCompressor;

impl Compressor for DynBpCompressor {
    fn append(&mut self, values: &[u64], out: &mut dyn ByteSink) {
        assert_eq!(
            values.len() % DYN_BP_BLOCK,
            0,
            "dynamic BP chunks must be multiples of {DYN_BP_BLOCK} elements"
        );
        for block in values.chunks_exact(DYN_BP_BLOCK) {
            encode_block(block, out);
        }
    }

    fn finish(&mut self, _out: &mut dyn ByteSink) {}
}

/// Encode one block of exactly [`DYN_BP_BLOCK`] values.
pub fn encode_block(block: &[u64], out: &mut dyn ByteSink) {
    debug_assert_eq!(block.len(), DYN_BP_BLOCK);
    let width = bitpack::bit_width_of_max(block);
    out.put(&[width]);
    out.pack(block, width);
}

/// Byte size of one encoded block with the given `width`.
#[inline]
pub fn block_encoded_size(width: u8) -> usize {
    1 + bitpack::packed_size_bytes(DYN_BP_BLOCK, width)
}

/// Validate and read the width byte of the block starting at `offset`,
/// returning the width and the byte length of the packed payload behind it.
fn checked_block_header(bytes: &[u8], offset: usize) -> Result<(u8, usize), DecodeError> {
    crate::ensure_bytes("dynamic BP", bytes, offset, 1)?;
    let width = bytes[offset];
    if !(1..=64).contains(&width) {
        return Err(DecodeError::CorruptHeader {
            format: "dynamic BP",
            detail: format!("block width {width} at offset {offset} is not in 1..=64"),
        });
    }
    let packed = bitpack::packed_size_bytes(DYN_BP_BLOCK, width);
    crate::ensure_bytes("dynamic BP", bytes, offset + 1, packed)?;
    Ok((width, packed))
}

/// [`ChunkCursor`] over a dynamic-BP main part — the format's only decoder:
/// one 512-element block per chunk, its header validated before the payload
/// is unpacked.  Block offsets are data-dependent, so seeks go through the
/// chunk directory (one entry per block).
#[derive(Debug)]
pub struct DynBpCursor<'a> {
    bytes: &'a [u8],
    count: usize,
    directory: &'a [ChunkEntry],
    logical: usize,
    byte_offset: usize,
    buffer: Vec<u64>,
}

impl<'a> DynBpCursor<'a> {
    /// Create a cursor over `count` values (whole blocks) with the main
    /// part's chunk `directory`, positioned at the first element.
    pub fn new(bytes: &'a [u8], count: usize, directory: &'a [ChunkEntry]) -> DynBpCursor<'a> {
        DynBpCursor {
            bytes,
            count,
            directory,
            logical: 0,
            byte_offset: 0,
            buffer: Vec::with_capacity(DYN_BP_BLOCK.min(count)),
        }
    }
}

impl ChunkCursor for DynBpCursor<'_> {
    fn try_next_chunk(&mut self) -> Result<Option<&[u64]>, DecodeError> {
        if self.logical >= self.count {
            return Ok(None);
        }
        crate::ensure_whole_blocks("dynamic BP", self.count, DYN_BP_BLOCK)?;
        let (width, packed) = checked_block_header(self.bytes, self.byte_offset)?;
        self.buffer.clear();
        bitpack::unpack_into(
            &self.bytes[self.byte_offset + 1..self.byte_offset + 1 + packed],
            width,
            DYN_BP_BLOCK,
            &mut self.buffer,
        );
        self.logical += DYN_BP_BLOCK;
        self.byte_offset += 1 + packed;
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

/// Iterate over the per-block bit widths of an encoded main part without
/// decompressing the data.  Used by specialized operators and by direct
/// morphing to static BP (the target width is the maximum block width).
pub fn block_widths(bytes: &[u8], count: usize) -> Vec<u8> {
    let blocks = count / DYN_BP_BLOCK;
    let mut widths = Vec::with_capacity(blocks);
    let mut offset_bytes = 0usize;
    for _ in 0..blocks {
        let width = bytes[offset_bytes];
        widths.push(width);
        offset_bytes += block_encoded_size(width);
    }
    widths
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compress_main_part, compressed_size_bytes, decompress_into, Format};

    #[test]
    fn roundtrip_uniform_small_values() {
        let values: Vec<u64> = (0..4096u64).map(|i| i % 60).collect();
        let (bytes, main_len) = compress_main_part(&Format::DynBp, &values);
        assert_eq!(main_len, 4096);
        let mut decoded = Vec::new();
        decompress_into(&Format::DynBp, &bytes, main_len, &mut decoded);
        assert_eq!(decoded, values);
    }

    #[test]
    fn adapts_to_local_outliers() {
        // Mimics column C2 of Table 1: mostly small values with rare huge
        // outliers.  Dynamic BP should stay close to the small-value width in
        // most blocks, unlike static BP which must use 63 bits everywhere.
        let mut values: Vec<u64> = (0..64 * 1024u64).map(|i| i % 64).collect();
        values[100] = (1 << 63) - 1;
        values[50_000] = (1 << 63) - 1;
        let dyn_size = compressed_size_bytes(&Format::DynBp, &values);
        let static_size = compressed_size_bytes(&Format::StaticBp(63), &values);
        assert!(
            (dyn_size as f64) < (static_size as f64) * 0.2,
            "dyn {dyn_size} vs static {static_size}"
        );
        let (bytes, main_len) = compress_main_part(&Format::DynBp, &values);
        let widths = block_widths(&bytes, main_len);
        assert_eq!(widths.len(), values.len() / DYN_BP_BLOCK);
        assert_eq!(widths.iter().filter(|&&w| w == 63).count(), 2);
        let mut decoded = Vec::new();
        decompress_into(&Format::DynBp, &bytes, main_len, &mut decoded);
        assert_eq!(decoded, values);
    }

    #[test]
    fn roundtrip_extreme_values() {
        let mut values = vec![u64::MAX; DYN_BP_BLOCK];
        values.extend(vec![0u64; DYN_BP_BLOCK]);
        let (bytes, main_len) = compress_main_part(&Format::DynBp, &values);
        let mut decoded = Vec::new();
        decompress_into(&Format::DynBp, &bytes, main_len, &mut decoded);
        assert_eq!(decoded, values);
    }

    #[test]
    fn encoded_size_is_header_plus_packed_bits() {
        let values: Vec<u64> = vec![3; DYN_BP_BLOCK];
        let (bytes, _) = compress_main_part(&Format::DynBp, &values);
        // width 2 -> 512*2/8 = 128 bytes + 1 header byte
        assert_eq!(bytes.len(), 129);
        assert_eq!(block_encoded_size(2), 129);
    }

    #[test]
    #[should_panic(expected = "multiples")]
    fn append_rejects_partial_blocks() {
        let mut compressor = DynBpCompressor;
        compressor.append(&[1, 2, 3], &mut Vec::new());
    }

    #[test]
    fn remainder_left_to_caller() {
        let values: Vec<u64> = (0..700).collect();
        let (_, main_len) = compress_main_part(&Format::DynBp, &values);
        assert_eq!(main_len, 512);
    }
}
