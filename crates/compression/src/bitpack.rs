//! Horizontal bit packing of 64-bit integers with an arbitrary bit width.
//!
//! This is the *null suppression* (NS) primitive underlying both the static
//! bit-packing format and the SIMD-BP-style dynamic bit-packing format
//! (Section 2.1 of the paper): the leading zero bits of small integers are
//! omitted by storing every value with a fixed number of bits.
//!
//! The layout is a dense little-endian bit stream: value *i* occupies bits
//! `[i*width, (i+1)*width)` of the output, where bit *b* of the stream is bit
//! `b % 8` of byte `b / 8`.  When the number of packed values is a multiple
//! of 64 the stream is a whole number of 64-bit words, which is how the
//! formats use it (their block sizes are multiples of 64).
//!
//! [`unpack_into`], the decode under every bit-packed cursor, runs in two
//! steps: the AVX2 kernel of `morph_vector::x86` unpacks the longest prefix
//! of whole 8-value groups whose 8-byte reads stay inside the payload
//! (widths up to 57, where the CPU has AVX2), and the scalar bit walker
//! decodes the rest from the byte-aligned offset where the prefix stopped.
//! Packing is scalar.

/// Number of bytes needed to pack `count` values of `width` bits.
#[inline]
pub fn packed_size_bytes(count: usize, width: u8) -> usize {
    (count * width as usize).div_ceil(8)
}

/// Effective bit width of `value` (at least 1).
#[inline]
pub fn bit_width_of(value: u64) -> u8 {
    if value == 0 {
        1
    } else {
        (64 - value.leading_zeros()) as u8
    }
}

/// Effective bit width of the largest value in `values` (at least 1).
#[inline]
pub fn bit_width_of_max(values: &[u64]) -> u8 {
    bit_width_of(values.iter().fold(0u64, |acc, &v| acc | v))
}

/// Largest value representable with `width` bits.
#[inline]
pub fn max_value_for_width(width: u8) -> u64 {
    debug_assert!((1..=64).contains(&width));
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Pack `values` with `width` bits each, appending the bit stream to `out`.
///
/// # Panics
/// Panics (in debug builds) if a value does not fit into `width` bits; in
/// release builds excess bits are silently truncated, so callers must ensure
/// the width is sufficient (the formats always derive it from the data).
pub fn pack_into(values: &[u64], width: u8, out: &mut Vec<u8>) {
    assert!((1..=64).contains(&width), "bit width must be in 1..=64");
    let width = width as u32;
    out.reserve(packed_size_bytes(values.len(), width as u8));
    let mut acc: u64 = 0; // bit accumulator
    let mut bits_in_acc: u32 = 0;
    for &value in values {
        debug_assert!(
            width == 64 || value <= max_value_for_width(width as u8),
            "value {value} does not fit into {width} bits"
        );
        let value = if width == 64 {
            value
        } else {
            value & max_value_for_width(width as u8)
        };
        acc |= value.wrapping_shl(bits_in_acc);
        let consumed = 64 - bits_in_acc;
        if width >= consumed {
            // The accumulator is full: emit it and start a new one with the
            // remaining high bits of the current value.
            out.extend_from_slice(&acc.to_le_bytes());
            acc = if consumed >= 64 {
                0
            } else {
                value.wrapping_shr(consumed)
            };
            bits_in_acc = width - consumed;
        } else {
            bits_in_acc += width;
        }
    }
    if bits_in_acc > 0 {
        let bytes_needed = bits_in_acc.div_ceil(8) as usize;
        out.extend_from_slice(&acc.to_le_bytes()[..bytes_needed]);
    }
}

/// Walk `count` values of `width` bits each from `bytes`, invoking
/// `consumer` once per decoded value — the single copy of the scalar
/// bit-stream traversal, behind [`sum_packed`] and the tail of
/// [`unpack_into`] (monomorphised per consumer, so there is no per-value
/// indirection).
///
/// # Panics
/// Panics if `bytes` is too short for `count` values of the given width.
#[inline]
fn for_each_packed_value(bytes: &[u8], width: u8, count: usize, consumer: &mut impl FnMut(u64)) {
    assert!((1..=64).contains(&width), "bit width must be in 1..=64");
    let needed = packed_size_bytes(count, width);
    assert!(
        bytes.len() >= needed,
        "packed buffer too short: need {needed} bytes, have {}",
        bytes.len()
    );
    let width = width as u32;
    let mask = max_value_for_width(width as u8);
    let mut word_idx = 0usize; // index of the next full word to read
    let mut acc: u64 = 0;
    let mut bits_in_acc: u32 = 0;
    let read_word = |idx: usize| -> u64 {
        let start = idx * 8;
        if start + 8 <= bytes.len() {
            crate::read_u64_le(bytes, start)
        } else {
            let mut buf = [0u8; 8];
            let avail = bytes.len().saturating_sub(start);
            buf[..avail].copy_from_slice(&bytes[start..]);
            u64::from_le_bytes(buf)
        }
    };
    for _ in 0..count {
        if bits_in_acc >= width {
            consumer(acc & mask);
            acc = acc.wrapping_shr(width);
            bits_in_acc -= width;
        } else {
            let next = read_word(word_idx);
            word_idx += 1;
            consumer((acc | next.wrapping_shl(bits_in_acc)) & mask);
            let bits_from_next = width - bits_in_acc;
            acc = if bits_from_next >= 64 {
                0
            } else {
                next.wrapping_shr(bits_from_next)
            };
            bits_in_acc = 64 - bits_from_next;
        }
    }
}

/// Unpack `count` values of `width` bits each from `bytes`, appending them to
/// `out`: a vectorised prefix of whole 8-value groups
/// ([`morph_vector::x86::try_unpack`]), then the scalar walker from the
/// byte where the prefix ended.
///
/// # Panics
/// Panics if `bytes` is too short for `count` values of the given width.
pub fn unpack_into(bytes: &[u8], width: u8, count: usize, out: &mut Vec<u64>) {
    out.reserve(count);
    let done = morph_vector::x86::try_unpack(bytes, width, count, out);
    // `done` is a multiple of 8, so the prefix ends on a byte boundary.
    let rest = &bytes[done / 8 * width as usize..];
    for_each_packed_value(rest, width, count - done, &mut |value| out.push(value));
}

/// Wrapping sum of `count` values of `width` bits each, read directly from
/// the packed bit stream — no decode buffer is materialised.
///
/// This is the primitive behind the specialized static-BP summation operator
/// (Figure 2(c) of the paper: compressed internal processing with direct
/// data access).
///
/// # Panics
/// Panics if `bytes` is too short for `count` values of the given width.
pub fn sum_packed(bytes: &[u8], width: u8, count: usize) -> u64 {
    let mut total = 0u64;
    for_each_packed_value(bytes, width, count, &mut |value| {
        total = total.wrapping_add(value);
    });
    total
}

/// Random access: read the value at logical position `idx` from a bit stream
/// of `width`-bit values.
///
/// Used by the project operator for static bit packing (Section 4.2: random
/// read access is supported for uncompressed data and static BP only).
///
/// One 8-byte read when the value's bits fit into the word starting at its
/// first byte and 8 bytes remain; the copied window of `get_packed_window`
/// covers the rest (a width above 57 starting late in its first byte, a
/// value in the stream's last 7 bytes).
#[inline]
pub fn get_packed(bytes: &[u8], width: u8, idx: usize) -> u64 {
    debug_assert!((1..=64).contains(&width));
    let bit_pos = idx * width as usize;
    let byte_pos = bit_pos / 8;
    let bit_in_byte = bit_pos % 8;
    if bit_in_byte + width as usize <= 64 && byte_pos + 8 <= bytes.len() {
        return (crate::read_u64_le(bytes, byte_pos) >> bit_in_byte) & max_value_for_width(width);
    }
    get_packed_window(bytes, width, idx)
}

/// [`get_packed`] through a copied byte window, valid for every width,
/// offset and position in the stream.
fn get_packed_window(bytes: &[u8], width: u8, idx: usize) -> u64 {
    let width = width as usize;
    let bit_pos = idx * width;
    let byte_pos = bit_pos / 8;
    let bit_in_byte = bit_pos % 8;
    // Read up to 9 bytes covering the (width + 7)-bit window.
    let mut window = [0u8; 16];
    let end = (byte_pos + (bit_in_byte + width).div_ceil(8) + 1).min(bytes.len());
    let len = end - byte_pos;
    window[..len].copy_from_slice(&bytes[byte_pos..end]);
    let lo = crate::read_u64_le(&window, 0);
    let hi = crate::read_u64_le(&window, 8);
    let shifted = if bit_in_byte == 0 {
        lo
    } else {
        (lo >> bit_in_byte) | (hi << (64 - bit_in_byte))
    };
    shifted & max_value_for_width(width as u8)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(values: &[u64], width: u8) {
        let mut packed = Vec::new();
        pack_into(values, width, &mut packed);
        assert_eq!(packed.len(), packed_size_bytes(values.len(), width));
        let mut unpacked = Vec::new();
        unpack_into(&packed, width, values.len(), &mut unpacked);
        assert_eq!(unpacked, values, "roundtrip failed for width {width}");
        for (i, &expected) in values.iter().enumerate() {
            assert_eq!(
                get_packed(&packed, width, i),
                expected,
                "random access failed at {i} for width {width}"
            );
        }
    }

    #[test]
    fn roundtrip_all_widths() {
        for width in 1..=64u8 {
            let max = max_value_for_width(width);
            let values: Vec<u64> = (0..256u64)
                .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) & max)
                .collect();
            roundtrip(&values, width);
        }
    }

    #[test]
    fn roundtrip_counts_not_multiple_of_64() {
        for count in [1usize, 3, 63, 65, 100, 127] {
            let values: Vec<u64> = (0..count as u64).map(|i| i % 31).collect();
            roundtrip(&values, 5);
        }
    }

    #[test]
    fn roundtrip_extreme_values() {
        roundtrip(&[0, u64::MAX, 1, u64::MAX - 1, 0, 42], 64);
        roundtrip(&vec![0u64; 128], 1);
        roundtrip(&vec![1u64; 128], 1);
        let max63 = max_value_for_width(63);
        roundtrip(&[max63, 0, max63, 7], 63);
    }

    #[test]
    fn sum_packed_matches_unpacked_sum() {
        for width in [1u8, 5, 8, 13, 31, 63, 64] {
            let max = max_value_for_width(width);
            let values: Vec<u64> = (0..513u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & max)
                .collect();
            let mut packed = Vec::new();
            pack_into(&values, width, &mut packed);
            let expected = values.iter().fold(0u64, |a, &b| a.wrapping_add(b));
            assert_eq!(
                sum_packed(&packed, width, values.len()),
                expected,
                "width {width}"
            );
            assert_eq!(sum_packed(&packed, width, 0), 0);
        }
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn sum_packed_rejects_short_buffer() {
        sum_packed(&[0u8; 4], 8, 64);
    }

    #[test]
    fn packed_sizes() {
        assert_eq!(packed_size_bytes(64, 1), 8);
        assert_eq!(packed_size_bytes(64, 8), 64);
        assert_eq!(packed_size_bytes(64, 64), 512);
        assert_eq!(packed_size_bytes(512, 9), 576);
        assert_eq!(packed_size_bytes(0, 13), 0);
        assert_eq!(packed_size_bytes(1, 13), 2);
    }

    #[test]
    fn bit_width_helpers() {
        assert_eq!(bit_width_of(0), 1);
        assert_eq!(bit_width_of(1), 1);
        assert_eq!(bit_width_of(2), 2);
        assert_eq!(bit_width_of(255), 8);
        assert_eq!(bit_width_of(256), 9);
        assert_eq!(bit_width_of(u64::MAX), 64);
        assert_eq!(bit_width_of_max(&[1, 2, 3, 200]), 8);
        assert_eq!(bit_width_of_max(&[]), 1);
        assert_eq!(max_value_for_width(1), 1);
        assert_eq!(max_value_for_width(8), 255);
        assert_eq!(max_value_for_width(64), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "bit width")]
    fn pack_rejects_zero_width() {
        pack_into(&[1, 2, 3], 0, &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn unpack_rejects_short_buffer() {
        let mut out = Vec::new();
        unpack_into(&[0u8; 4], 8, 64, &mut out);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        // The one-word read of `get_packed` agrees with the copied window
        // — and with the packed values — where the two paths meet: the
        // last 16 bytes of a packed main part, whose final 8 bytes the word
        // read must never run past.
        #[test]
        fn word_read_matches_the_window_at_the_stream_tail(
            width in 1u8..=64,
            blocks in 1usize..6,
            seed in proptest::any::<u64>(),
        ) {
            let mask = max_value_for_width(width);
            let count = blocks * 64;
            let values: Vec<u64> = (0..count as u64)
                .map(|i| (i ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask)
                .collect();
            let mut packed = Vec::new();
            pack_into(&values, width, &mut packed);
            let tail_start = packed.len().saturating_sub(16);
            for idx in (0..count).filter(|&i| i * width as usize / 8 >= tail_start) {
                proptest::prop_assert_eq!(get_packed_window(&packed, width, idx), values[idx]);
                proptest::prop_assert_eq!(get_packed(&packed, width, idx), values[idx]);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(8))]

        // The vectorised prefix of `unpack_into` plus its scalar tail
        // decode exactly what the scalar walker alone decodes, for every
        // width (the AVX2 kernel takes 1..=57, the walker the rest) and for
        // counts around the 8-value group and the block sizes, with the
        // payload cut at its packed size so the prefix's last 8-byte reads
        // sit right at the slice's end.
        #[test]
        fn unpack_into_equals_the_scalar_walker(seed in proptest::any::<u64>()) {
            for width in 1..=64u8 {
                let mask = max_value_for_width(width);
                for count in [0usize, 1, 7, 8, 9, 511, 512, 2047, 2048, 2049] {
                    let values: Vec<u64> = (0..count as u64)
                        .map(|i| (i ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask)
                        .collect();
                    let mut packed = Vec::new();
                    pack_into(&values, width, &mut packed);
                    let payload = &packed[..packed_size_bytes(count, width)];
                    let mut walked = vec![u64::MAX];
                    for_each_packed_value(payload, width, count, &mut |v| walked.push(v));
                    let mut unpacked = vec![u64::MAX];
                    unpack_into(payload, width, count, &mut unpacked);
                    proptest::prop_assert_eq!(&unpacked, &walked, "width {}, count {}", width, count);
                    proptest::prop_assert_eq!(&unpacked[1..], &values[..]);
                }
            }
        }
    }

    #[test]
    fn packing_is_dense() {
        // 64 values of 6 bits each must occupy exactly 48 bytes (cf. Figure 3
        // of the paper: 450 elements at 32 bits -> 1800 bytes).
        let values: Vec<u64> = (0..64u64).collect();
        let mut packed = Vec::new();
        pack_into(&values, 6, &mut packed);
        assert_eq!(packed.len(), 48);
    }
}
