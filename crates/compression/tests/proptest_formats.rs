//! Property-based tests on the compression substrate: every format must
//! round-trip arbitrary data, morphing must be equivalent to
//! decompress-then-recompress, and random access must agree with sequential
//! decompression.

use morph_compression::{
    chunk_directory, compress_main_part, compressed_size_bytes, decompress_into,
    for_each_decompressed_block_in, get_element, morph, Format,
};
use proptest::prelude::*;

/// Strategy producing value vectors with diverse characteristics: small
/// values, huge values, runs, sorted ranges.
fn value_vectors() -> impl Strategy<Value = Vec<u64>> {
    prop_oneof![
        // Small values, arbitrary length.
        prop::collection::vec(0u64..1000, 0..3000),
        // Full 64-bit range.
        prop::collection::vec(any::<u64>(), 0..1500),
        // Runs of repeated values.
        prop::collection::vec((0u64..5, 1usize..200), 0..40).prop_map(|runs| {
            runs.into_iter()
                .flat_map(|(v, n)| std::iter::repeat_n(v, n))
                .collect()
        }),
        // Sorted sequences (select-operator outputs).
        (0u64..1_000_000, prop::collection::vec(0u64..50, 0..2500)).prop_map(|(start, deltas)| {
            deltas
                .into_iter()
                .scan(start, |acc, d| {
                    *acc += d;
                    Some(*acc)
                })
                .collect()
        }),
    ]
}

fn all_formats(values: &[u64]) -> Vec<Format> {
    let max = values.iter().copied().max().unwrap_or(0);
    Format::all_formats(max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn compress_decompress_roundtrip(values in value_vectors()) {
        for format in all_formats(&values) {
            let (bytes, main_len) = compress_main_part(&format, &values);
            let mut decoded = Vec::new();
            decompress_into(&format, &bytes, main_len, &mut decoded);
            prop_assert_eq!(&decoded[..], &values[..main_len], "format {}", format);
        }
    }

    #[test]
    fn compressed_size_accounts_for_all_elements(values in value_vectors()) {
        for format in all_formats(&values) {
            let size = compressed_size_bytes(&format, &values);
            if format == Format::Uncompressed {
                prop_assert_eq!(size, values.len() * 8);
            } else if values.is_empty() {
                prop_assert_eq!(size, 0);
            } else {
                prop_assert!(size > 0);
            }
        }
    }

    #[test]
    fn random_access_matches_sequential(values in value_vectors()) {
        for format in [Format::Uncompressed, Format::static_bp_for_max(
            values.iter().copied().max().unwrap_or(0))] {
            let (bytes, main_len) = compress_main_part(&format, &values);
            let mut decoded = Vec::new();
            decompress_into(&format, &bytes, main_len, &mut decoded);
            for idx in (0..main_len).step_by(97.max(main_len / 13 + 1)) {
                prop_assert_eq!(get_element(&format, &bytes, main_len, idx), Some(decoded[idx]));
            }
        }
    }

    #[test]
    fn chunk_directory_seeks_match_sequential_decode(values in value_vectors(), splits in prop::collection::vec(any::<u32>(), 0..6)) {
        for format in all_formats(&values) {
            let (bytes, main_len) = compress_main_part(&format, &values);
            let directory = chunk_directory(&format, &bytes, main_len);
            let mut expected = Vec::new();
            decompress_into(&format, &bytes, main_len, &mut expected);
            // Directory invariants: entry 0 is the origin, starts strictly
            // increase and stay in bounds.
            if main_len > 0 {
                prop_assert_eq!(directory[0].logical_start, 0, "format {}", format);
                prop_assert_eq!(directory[0].byte_offset, 0, "format {}", format);
            }
            for pair in directory.windows(2) {
                prop_assert!(pair[0].logical_start < pair[1].logical_start);
                prop_assert!(pair[0].byte_offset <= pair[1].byte_offset);
            }
            // Any split of 0..n_chunks concatenates to the full decode.
            let mut bounds: Vec<usize> = splits
                .iter()
                .map(|&s| if directory.is_empty() { 0 } else { s as usize % (directory.len() + 1) })
                .collect();
            bounds.push(0);
            bounds.push(directory.len());
            bounds.sort_unstable();
            bounds.dedup();
            let mut collected = Vec::new();
            for window in bounds.windows(2) {
                for_each_decompressed_block_in(
                    &format,
                    &bytes,
                    main_len,
                    &directory,
                    window[0]..window[1],
                    &mut |chunk| collected.extend_from_slice(chunk),
                );
            }
            prop_assert_eq!(&collected, &expected, "format {}", format);
        }
    }

    #[test]
    fn morphing_equals_recompression(values in value_vectors()) {
        let formats = all_formats(&values);
        // Restrict to a length every format can represent in its main part.
        let len = values.len() - values.len() % 512;
        let values = &values[..len];
        for src in &formats {
            let (src_bytes, _) = compress_main_part(src, values);
            for dst in &formats {
                let morphed = morph(src, dst, &src_bytes, len);
                let (direct, _) = compress_main_part(dst, values);
                prop_assert_eq!(&morphed, &direct, "morph {} -> {}", src, dst);
            }
        }
    }
}
