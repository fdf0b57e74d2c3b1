//! Direct morphing: changing the representation of data from one compressed
//! format to another.
//!
//! Morphing is the key enabler of the *on-the-fly morphing* integration
//! degree (Figure 2(d)) and of design principle DP2: the format of every
//! intermediate can be chosen independently because it can always be adapted
//! to what an operator expects.  Following \[18\] (Damme et al., ADBIS 2015),
//! a direct morph avoids the full uncompressed materialisation of the column:
//! the source format is decoded block by block into a cache-resident buffer
//! that is immediately re-encoded into the target format, and two cases
//! have shortcuts that skip even that.

use crate::{
    bitpack, compressor_for, for_each_decompressed_block, static_bp, ChunkCursor, Format,
    CACHE_BUFFER_ELEMENTS, DYN_BP_BLOCK,
};

/// Morph a compressed main part of `count` elements from `src` format to
/// `dst` format.  Returns the encoded bytes in the target format.
///
/// `count` must be a multiple of both formats' block sizes (the column layer
/// of the engine guarantees this by re-balancing the uncompressed remainder
/// when the block sizes differ).
///
/// The generic path streams cache-resident blocks from the source decoder
/// into the target encoder, so at no point is the whole column materialised
/// uncompressed (DP3).  Shortcuts exist for:
///
/// * identical source and target formats (bytes are copied verbatim),
/// * static BP → static BP with a different width (repacking without
///   interpreting values).
pub fn morph_main_part(src: &Format, dst: &Format, bytes: &[u8], count: usize) -> Vec<u8> {
    assert_eq!(
        count % src.block_size(),
        0,
        "morph source count must be whole blocks"
    );
    assert_eq!(
        count % dst.block_size(),
        0,
        "morph target count must be whole blocks"
    );
    if src == dst {
        return bytes.to_vec();
    }
    if let (Format::StaticBp(src_width), Format::StaticBp(dst_width)) = (src, dst) {
        return repack_static(bytes, *src_width, *dst_width, count);
    }
    // Generic streaming morph: decode block-wise, re-encode immediately.
    let mut out = Vec::new();
    let mut encoder = compressor_for(dst);
    let dst_block = dst.block_size();
    let mut staging: Vec<u64> = Vec::with_capacity(CACHE_BUFFER_ELEMENTS + DYN_BP_BLOCK);
    for_each_decompressed_block(src, bytes, count, &mut |chunk| {
        staging.extend_from_slice(chunk);
        let usable = staging.len() - staging.len() % dst_block;
        if usable > 0 {
            encoder.append(&staging[..usable], &mut out);
            staging.drain(..usable);
        }
    });
    if !staging.is_empty() {
        // `count` is a multiple of the destination block size, so by the time
        // the source is exhausted the staging buffer must be flushable.
        assert_eq!(staging.len() % dst_block, 0, "morph staging misaligned");
        encoder.append(&staging, &mut out);
    }
    encoder.finish(&mut out);
    out
}

/// Repack a static-BP bit stream to a different width without the
/// logical-level decode step.
///
/// # Panics
/// Panics if a value needs more than `dst_width` bits — in every build, as
/// the static-BP compressor does: packing would silently truncate it.
fn repack_static(bytes: &[u8], src_width: u8, dst_width: u8, count: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(bitpack::packed_size_bytes(count, dst_width));
    let mut cursor = static_bp::StaticBpCursor::new(bytes, src_width, count);
    while let Some(chunk) = cursor.next_chunk() {
        let effective = bitpack::bit_width_of_max(chunk);
        assert!(
            effective <= dst_width,
            "static BP width {dst_width} is too narrow: data requires {effective} bits"
        );
        bitpack::pack_into(chunk, dst_width, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compress_main_part, decompress_into};

    fn sample_values(n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| (i * 37) % 1000 + 500).collect()
    }

    fn roundtrip_via_morph(src: Format, dst: Format, values: &[u64]) {
        let (src_bytes, main_len) = compress_main_part(&src, values);
        let lcm_len = main_len - main_len % dst.block_size();
        // Restrict to a length valid for both formats.
        let (src_bytes, main_len) = if lcm_len != main_len {
            compress_main_part(&src, &values[..lcm_len])
        } else {
            (src_bytes, main_len)
        };
        let morphed = morph_main_part(&src, &dst, &src_bytes, main_len);
        let mut from_morph = Vec::new();
        decompress_into(&dst, &morphed, main_len, &mut from_morph);
        assert_eq!(from_morph, values[..main_len], "morph {src} -> {dst}");
        // The morphed bytes must be identical to compressing from scratch,
        // i.e. morphing is exactly "re-encode in the target format".
        let (direct, _) = compress_main_part(&dst, &values[..main_len]);
        assert_eq!(
            morphed, direct,
            "morph {src} -> {dst} differs from direct compression"
        );
    }

    #[test]
    fn morph_between_all_paper_formats() {
        let values = sample_values(4096);
        let formats = Format::paper_formats(1500);
        for src in &formats {
            for dst in &formats {
                roundtrip_via_morph(*src, *dst, &values);
            }
        }
    }

    #[test]
    fn morph_involving_rle_and_dict() {
        let mut values = vec![42u64; 2048];
        values.extend(sample_values(2048));
        let formats = [Format::Rle, Format::DynBp, Format::Uncompressed];
        for src in &formats {
            for dst in &formats {
                roundtrip_via_morph(*src, *dst, &values);
            }
        }
    }

    #[test]
    fn identity_morph_is_a_copy() {
        let values = sample_values(1024);
        let (bytes, main_len) = compress_main_part(&Format::DynBp, &values);
        let morphed = morph_main_part(&Format::DynBp, &Format::DynBp, &bytes, main_len);
        assert_eq!(morphed, bytes);
    }

    #[test]
    fn static_repack_widens_and_narrows() {
        let values: Vec<u64> = (0..1024u64).map(|i| i % 200).collect();
        let (narrow, main_len) = compress_main_part(&Format::StaticBp(8), &values);
        let widened = morph_main_part(
            &Format::StaticBp(8),
            &Format::StaticBp(20),
            &narrow,
            main_len,
        );
        let mut decoded = Vec::new();
        decompress_into(&Format::StaticBp(20), &widened, main_len, &mut decoded);
        assert_eq!(decoded, values);
        let renarrowed = morph_main_part(
            &Format::StaticBp(20),
            &Format::StaticBp(8),
            &widened,
            main_len,
        );
        assert_eq!(renarrowed, narrow);
    }

    #[test]
    #[should_panic(expected = "too narrow")]
    fn static_repack_rejects_a_too_narrow_target_in_every_build() {
        let values: Vec<u64> = (0..256u64).map(|i| i % 200).collect();
        let (bytes, main_len) = compress_main_part(&Format::StaticBp(8), &values);
        morph_main_part(&Format::StaticBp(8), &Format::StaticBp(4), &bytes, main_len);
    }

    #[test]
    #[should_panic(expected = "whole blocks")]
    fn morph_rejects_partial_blocks() {
        let values = sample_values(700);
        let (bytes, _) = compress_main_part(&Format::Uncompressed, &values);
        morph_main_part(&Format::Uncompressed, &Format::DynBp, &bytes, 700);
    }
}
