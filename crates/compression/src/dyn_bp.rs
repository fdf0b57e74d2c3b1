//! Dynamic bit packing with per-block widths (the paper's 64-bit port of
//! SIMD-BP, "SIMD-BP512") and its two cascades, DELTA + SIMD-BP and
//! FOR + SIMD-BP — one codec with a per-block logical step.
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
//! Section 2.1 separates logical-level techniques from the one physical-level
//! null-suppression step they cascade onto; the [`Cascade`] is that logical
//! step, applied per block before packing:
//!
//! * [`Cascade::Plain`] packs the values themselves,
//! * [`Cascade::Delta`] packs each value's wrapping difference to its
//!   predecessor, which turns sorted or nearly sorted sequences (position
//!   lists, dates) into tiny integers — the paper finds DELTA + SIMD-BP the
//!   best select output format in *all* cases "since the output is always
//!   sorted" (Section 5.1); the differences wrap, so unsorted data encodes
//!   too, merely with larger widths,
//! * [`Cascade::For`] packs each value's offset from the block minimum, which
//!   maps data in a narrow range far from zero (column C3 of Table 1) onto
//!   small integers.
//!
//! Layout per block: `[reference: u64 LE]? [width: u8] [packed: 64 * width
//! bytes]`.  The cascades carry the reference — the value preceding the
//! block (0 for the first) for DELTA, the block minimum for FOR — so every
//! block decodes on its own and seeking needs no prefix replay.

use crate::bitpack;
use crate::{ByteSink, ChunkCursor, ChunkEntry, Compressor, DecodeError, DYN_BP_BLOCK};

/// The logical-level step a dynamic-BP block applies before null
/// suppression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cascade {
    /// Plain SIMD-BP: the values are packed as they are.
    Plain,
    /// DELTA + SIMD-BP: wrapping differences to the predecessor.
    Delta,
    /// FOR + SIMD-BP: offsets from the block minimum.
    For,
}

impl Cascade {
    /// Bytes in front of a block's packed values: the width byte, behind
    /// the 8-byte reference of a cascade.
    pub fn header_bytes(self) -> usize {
        match self {
            Cascade::Plain => 1,
            Cascade::Delta | Cascade::For => 9,
        }
    }

    /// Offset of the width byte within a block.
    pub fn width_offset(self) -> usize {
        self.header_bytes() - 1
    }

    /// Encoded size of one block packed with `width` bits.
    pub(crate) fn block_bytes(self, width: u8) -> usize {
        self.header_bytes() + bitpack::packed_size_bytes(DYN_BP_BLOCK, width)
    }

    /// The format name carried by this step's errors.
    fn name(self) -> &'static str {
        match self {
            Cascade::Plain => "dynamic BP",
            Cascade::Delta => "DELTA+BP",
            Cascade::For => "FOR+BP",
        }
    }
}

/// Streaming compressor for the dynamic-BP family.  DELTA carries the last
/// value seen so far, so consecutive [`Compressor::append`] calls form one
/// continuous delta chain.
#[derive(Debug, Clone)]
pub struct DynBpCompressor {
    cascade: Cascade,
    previous: u64,
    scratch: Vec<u64>,
}

impl DynBpCompressor {
    /// Create a compressor applying `cascade`, with an initial DELTA
    /// predecessor of 0.
    pub fn new(cascade: Cascade) -> Self {
        DynBpCompressor {
            cascade,
            previous: 0,
            scratch: Vec::new(),
        }
    }
}

impl Compressor for DynBpCompressor {
    fn append(&mut self, values: &[u64], out: &mut dyn ByteSink) {
        assert_eq!(
            values.len() % DYN_BP_BLOCK,
            0,
            "{} chunks must be multiples of {DYN_BP_BLOCK} elements",
            self.cascade.name()
        );
        for block in values.chunks_exact(DYN_BP_BLOCK) {
            let packed: &[u64] = match self.cascade {
                Cascade::Plain => block,
                Cascade::Delta => {
                    out.put(&self.previous.to_le_bytes());
                    let mut previous = self.previous;
                    self.scratch.clear();
                    self.scratch.extend(block.iter().map(|&value| {
                        let delta = value.wrapping_sub(previous);
                        previous = value;
                        delta
                    }));
                    self.previous = previous;
                    &self.scratch
                }
                Cascade::For => {
                    // `chunks_exact` never yields an empty block; the fold
                    // makes the reference total without a panicking path.
                    let reference = block.iter().copied().fold(u64::MAX, u64::min);
                    out.put(&reference.to_le_bytes());
                    self.scratch.clear();
                    self.scratch
                        .extend(block.iter().map(|&value| value - reference));
                    &self.scratch
                }
            };
            let width = bitpack::bit_width_of_max(packed);
            out.put(&[width]);
            out.pack(packed, width);
        }
    }

    fn finish(&mut self, _out: &mut dyn ByteSink) {}
}

/// The chunk directory of a dynamic-BP family main part: one entry per
/// block, found by walking the width bytes.
pub(crate) fn chunk_directory(cascade: Cascade, bytes: &[u8], count: usize) -> Vec<ChunkEntry> {
    let mut byte_offset = 0usize;
    (0..count / DYN_BP_BLOCK)
        .map(|block| {
            let entry = ChunkEntry {
                byte_offset,
                logical_start: block * DYN_BP_BLOCK,
            };
            byte_offset += cascade.block_bytes(bytes[byte_offset + cascade.width_offset()]);
            entry
        })
        .collect()
}

/// [`ChunkCursor`] over a dynamic-BP family main part — the family's only
/// decoder: one 512-element block per chunk, its header validated before
/// the payload is unpacked, the logical step undone in a second pass over
/// the unpacked block while it is cache-resident.
/// Block offsets are data-dependent, so seeks go through the chunk
/// directory (one entry per block).
#[derive(Debug)]
pub struct DynBpCursor<'a> {
    cascade: Cascade,
    bytes: &'a [u8],
    count: usize,
    directory: &'a [ChunkEntry],
    logical: usize,
    byte_offset: usize,
    buffer: Vec<u64>,
}

impl<'a> DynBpCursor<'a> {
    /// Create a cursor undoing `cascade` over `count` values (whole blocks)
    /// with the main part's chunk `directory`, positioned at the first
    /// element.
    pub fn new(
        cascade: Cascade,
        bytes: &'a [u8],
        count: usize,
        directory: &'a [ChunkEntry],
    ) -> DynBpCursor<'a> {
        DynBpCursor {
            cascade,
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
        let name = self.cascade.name();
        crate::ensure_whole_blocks(name, self.count, DYN_BP_BLOCK)?;
        let offset = self.byte_offset;
        let header = self.cascade.header_bytes();
        crate::ensure_bytes(name, self.bytes, offset, header)?;
        let width_at = offset + self.cascade.width_offset();
        let width = self.bytes[width_at];
        if !(1..=64).contains(&width) {
            return Err(DecodeError::CorruptHeader {
                format: name,
                detail: format!("block width {width} at offset {width_at} is not in 1..=64"),
            });
        }
        let packed = bitpack::packed_size_bytes(DYN_BP_BLOCK, width);
        crate::ensure_bytes(name, self.bytes, offset + header, packed)?;
        let payload = &self.bytes[offset + header..offset + header + packed];
        let buffer = &mut self.buffer;
        buffer.clear();
        bitpack::unpack_into(payload, width, DYN_BP_BLOCK, buffer);
        // The cascade's step, in a second pass over the L1-resident block.
        match self.cascade {
            Cascade::Plain => {}
            Cascade::Delta => {
                let mut previous = crate::read_u64_le(self.bytes, offset);
                for value in buffer.iter_mut() {
                    previous = previous.wrapping_add(*value);
                    *value = previous;
                }
            }
            Cascade::For => {
                let reference = crate::read_u64_le(self.bytes, offset);
                for value in buffer.iter_mut() {
                    *value = reference.wrapping_add(*value);
                }
            }
        }
        self.byte_offset = offset + header + packed;
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

    // Plain SIMD-BP.

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
        let directory = chunk_directory(Cascade::Plain, &bytes, main_len);
        let widths: Vec<u8> = directory.iter().map(|e| bytes[e.byte_offset]).collect();
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
        assert_eq!(Cascade::Plain.block_bytes(2), 129);
    }

    #[test]
    #[should_panic(expected = "multiples")]
    fn append_rejects_partial_blocks() {
        let mut compressor = DynBpCompressor::new(Cascade::Plain);
        compressor.append(&[1, 2, 3], &mut Vec::new());
    }

    #[test]
    fn remainder_left_to_caller() {
        let values: Vec<u64> = (0..700).collect();
        let (_, main_len) = compress_main_part(&Format::DynBp, &values);
        assert_eq!(main_len, 512);
    }

    mod delta {
        use super::*;

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
            let mut compressor = DynBpCompressor::new(Cascade::Delta);
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
            let mut compressor = DynBpCompressor::new(Cascade::Delta);
            compressor.append(&[1, 2, 3], &mut Vec::new());
        }
    }

    mod frame_of_ref {
        use super::*;

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
            let mut compressor = DynBpCompressor::new(Cascade::For);
            compressor.append(&[1, 2, 3], &mut Vec::new());
        }
    }
}
