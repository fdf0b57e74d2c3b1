//! Delta coding cascaded with dynamic bit packing (DELTA + SIMD-BP).
//!
//! Each value is replaced by its difference to the predecessor (Section 2.1),
//! which turns sorted or nearly sorted sequences — position lists produced by
//! the select operator, sorted dictionary keys, dates — into sequences of
//! tiny integers that the physical-level NS scheme then packs densely.  The
//! paper finds DELTA + SIMD-BP to be the best output format for the select
//! operator in *all* cases "since the output is always sorted" (Section 5.1).
//!
//! Layout per block of [`DYN_BP_BLOCK`] = 512 elements:
//! `[reference: u64 LE][width: u8][packed deltas: 64 * width bytes]`
//! where `reference` is the value preceding the block (0 for the first
//! block) and the deltas are wrapping differences, so the encoding is total:
//! it works for unsorted data too, merely with larger widths.

use crate::bitpack;
use crate::{ByteSink, ChunkCursor, ChunkEntry, Compressor, DecodeError, DYN_BP_BLOCK};

/// Validate and read the `[reference: u64][width: u8]` header of the block
/// starting at `offset`, returning the reference, the width and the byte
/// length of the packed payload behind the header.  Shared by the DELTA and
/// FOR decoders (both cascades use the same per-block layout).
pub(crate) fn checked_cascade_header(
    format: &'static str,
    bytes: &[u8],
    offset: usize,
) -> Result<(u64, u8, usize), DecodeError> {
    crate::ensure_bytes(format, bytes, offset, 9)?;
    let reference = crate::read_u64_le(bytes, offset);
    let width = bytes[offset + 8];
    if !(1..=64).contains(&width) {
        return Err(DecodeError::CorruptHeader {
            format,
            detail: format!(
                "block width {width} at offset {} is not in 1..=64",
                offset + 8
            ),
        });
    }
    let packed = bitpack::packed_size_bytes(DYN_BP_BLOCK, width);
    crate::ensure_bytes(format, bytes, offset + 9, packed)?;
    Ok((reference, width, packed))
}

/// Streaming compressor for DELTA + dynamic BP.  Carries the last value seen
/// so far so that consecutive [`Compressor::append`] calls form one
/// continuous delta chain.
#[derive(Debug, Clone)]
pub struct DeltaDynBpCompressor {
    previous: u64,
    scratch: Vec<u64>,
}

impl DeltaDynBpCompressor {
    /// Create a compressor with an initial predecessor of 0.
    pub fn new() -> Self {
        DeltaDynBpCompressor {
            previous: 0,
            scratch: Vec::with_capacity(DYN_BP_BLOCK),
        }
    }
}

impl Default for DeltaDynBpCompressor {
    fn default() -> Self {
        Self::new()
    }
}

impl Compressor for DeltaDynBpCompressor {
    fn append(&mut self, values: &[u64], out: &mut dyn ByteSink) {
        assert_eq!(
            values.len() % DYN_BP_BLOCK,
            0,
            "DELTA+BP chunks must be multiples of {DYN_BP_BLOCK} elements"
        );
        for block in values.chunks_exact(DYN_BP_BLOCK) {
            out.put(&self.previous.to_le_bytes());
            self.scratch.clear();
            self.scratch.push(block[0].wrapping_sub(self.previous));
            self.scratch
                .extend(block.windows(2).map(|pair| pair[1].wrapping_sub(pair[0])));
            self.previous = block[DYN_BP_BLOCK - 1];
            let width = bitpack::bit_width_of_max(&self.scratch);
            out.put(&[width]);
            out.pack(&self.scratch, width);
        }
    }

    fn finish(&mut self, _out: &mut dyn ByteSink) {}
}

/// [`ChunkCursor`] over a DELTA+BP main part — the format's only decoder:
/// one 512-element block per chunk, its header validated before the payload
/// is unpacked.  Every block carries its own reference value, so blocks are
/// self-contained and seeking needs no prefix replay.
#[derive(Debug)]
pub struct DeltaCursor<'a> {
    bytes: &'a [u8],
    count: usize,
    directory: &'a [ChunkEntry],
    logical: usize,
    byte_offset: usize,
    deltas: Vec<u64>,
    buffer: Vec<u64>,
}

impl<'a> DeltaCursor<'a> {
    /// Create a cursor over `count` values (whole blocks) with the main
    /// part's chunk `directory`, positioned at the first element.
    pub fn new(bytes: &'a [u8], count: usize, directory: &'a [ChunkEntry]) -> DeltaCursor<'a> {
        DeltaCursor {
            bytes,
            count,
            directory,
            logical: 0,
            byte_offset: 0,
            deltas: Vec::with_capacity(DYN_BP_BLOCK.min(count)),
            buffer: Vec::with_capacity(DYN_BP_BLOCK.min(count)),
        }
    }
}

impl ChunkCursor for DeltaCursor<'_> {
    fn try_next_chunk(&mut self) -> Result<Option<&[u64]>, DecodeError> {
        if self.logical >= self.count {
            return Ok(None);
        }
        crate::ensure_whole_blocks("DELTA+BP", self.count, DYN_BP_BLOCK)?;
        let offset = self.byte_offset;
        let (reference, width, packed) = checked_cascade_header("DELTA+BP", self.bytes, offset)?;
        self.deltas.clear();
        bitpack::unpack_into(
            &self.bytes[offset + 9..offset + 9 + packed],
            width,
            DYN_BP_BLOCK,
            &mut self.deltas,
        );
        self.buffer.clear();
        let mut prev = reference;
        for &delta in &self.deltas {
            prev = prev.wrapping_add(delta);
            self.buffer.push(prev);
        }
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
    fn roundtrip_sorted_positions() {
        // A typical select output: sorted positions.
        let values: Vec<u64> = (0..10 * 1024u64).map(|i| i * 3).collect();
        let (bytes, main_len) = compress_main_part(&Format::DeltaDynBp, &values);
        let mut decoded = Vec::new();
        decompress_into(&Format::DeltaDynBp, &bytes, main_len, &mut decoded);
        assert_eq!(decoded, values[..main_len]);
    }

    #[test]
    fn sorted_data_compresses_much_better_than_plain_bp() {
        // Mimics column C4 of Table 1: sorted values around 2^47.
        let values: Vec<u64> = (0..32 * 1024u64).map(|i| (1 << 47) + i * 3).collect();
        let delta_size = compressed_size_bytes(&Format::DeltaDynBp, &values);
        let dyn_size = compressed_size_bytes(&Format::DynBp, &values);
        let uncompressed = values.len() * 8;
        assert!(
            delta_size * 4 < dyn_size,
            "delta {delta_size} vs dyn {dyn_size}"
        );
        assert!(delta_size * 10 < uncompressed);
    }

    #[test]
    fn roundtrip_unsorted_data_via_wrapping_deltas() {
        let values: Vec<u64> = (0..2048u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let (bytes, main_len) = compress_main_part(&Format::DeltaDynBp, &values);
        let mut decoded = Vec::new();
        decompress_into(&Format::DeltaDynBp, &bytes, main_len, &mut decoded);
        assert_eq!(decoded, values);
    }

    #[test]
    fn streaming_appends_form_one_delta_chain() {
        let values: Vec<u64> = (0..4 * DYN_BP_BLOCK as u64).map(|i| 1000 + i).collect();
        // Compress in two separate appends; the chain must survive the split.
        let mut compressor = DeltaDynBpCompressor::new();
        let mut bytes = Vec::new();
        let half = values.len() / 2;
        compressor.append(&values[..half], &mut bytes);
        compressor.append(&values[half..], &mut bytes);
        compressor.finish(&mut bytes);
        let mut decoded = Vec::new();
        decompress_into(&Format::DeltaDynBp, &bytes, values.len(), &mut decoded);
        assert_eq!(decoded, values);
    }

    #[test]
    fn constant_runs_need_one_bit_per_delta() {
        let values = vec![1u64; 4 * DYN_BP_BLOCK];
        let size = compressed_size_bytes(&Format::DeltaDynBp, &values);
        // Per block: 8 (reference) + 1 (width) + 512/8 (1-bit deltas) = 73 bytes.
        assert_eq!(size, 4 * 73);
    }

    #[test]
    #[should_panic(expected = "multiples")]
    fn append_rejects_partial_blocks() {
        let mut compressor = DeltaDynBpCompressor::new();
        compressor.append(&[1, 2, 3], &mut Vec::new());
    }
}
