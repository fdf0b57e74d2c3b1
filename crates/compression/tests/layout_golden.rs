//! Layout pin: the exact encoded bytes and chunk directory of every format
//! on a fixed set of inputs, as FNV-1a digests.
//!
//! Roundtrip tests and footprint totals cannot catch a layout change that
//! stays self-consistent (an encoder and its decoder changed together, a
//! header field moved, a block width chosen differently at the same size).
//! These digests can: any change to a single encoded byte or directory entry
//! fails here.  The constants were recorded from the encoders as they stood
//! before the dynamic-BP family was folded into one codec; a deliberate
//! layout change must update them and say so.

use morph_compression::{chunk_directory, compress_main_part, compressor_for, ChunkEntry, Format};

/// 64-bit FNV-1a over `bytes`, continuing from `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn digest_bytes(bytes: &[u8]) -> u64 {
    fnv1a(FNV_OFFSET, bytes)
}

fn digest_directory(directory: &[ChunkEntry]) -> u64 {
    directory.iter().fold(FNV_OFFSET, |hash, entry| {
        let hash = fnv1a(hash, &(entry.byte_offset as u64).to_le_bytes());
        fnv1a(hash, &(entry.logical_start as u64).to_le_bytes())
    })
}

/// The fixed inputs, each long enough for several blocks plus a remainder
/// (except the empty and sub-block ones).
fn inputs() -> Vec<(&'static str, Vec<u64>)> {
    let outliers = {
        let mut values: Vec<u64> = (0..5000u64).map(|i| (i * 7) % 61).collect();
        for idx in [3usize, 700, 701, 2600, 4999] {
            values[idx] = (1 << 63) - 1;
        }
        values
    };
    let long_runs = [(9u64, 3000usize), (2, 1), (9, 700), (1 << 50, 2100), (0, 5)]
        .into_iter()
        .flat_map(|(value, len)| std::iter::repeat_n(value, len))
        .collect();
    vec![
        (
            "sorted_positions",
            (0..5000u64).map(|i| i * 3 + (i * i) % 5).collect(),
        ),
        (
            "narrow_range_at_2_40",
            (0..5000u64)
                .map(|i| (1 << 40) + i.wrapping_mul(2_654_435_761) % 1000)
                .collect(),
        ),
        ("small_with_outliers", outliers),
        ("long_runs", long_runs),
        ("sub_block", (0..300u64).map(|i| (i * 13) % 97).collect()),
        ("empty", Vec::new()),
    ]
}

/// Every format, with the static width derived from the input's maximum.
fn formats(values: &[u64]) -> Vec<Format> {
    let max = values.iter().copied().max().unwrap_or(0);
    let mut formats = Format::paper_formats(max);
    formats.push(Format::Rle);
    formats
}

/// `(input, format, digest of the main-part bytes, digest of its chunk
/// directory)`.
#[rustfmt::skip]
const GOLDEN: &[(&str, &str, u64, u64)] = &[
    ("sorted_positions", "uncompr", 0x50a04be0a878f4ce, 0x9d8c1c865cc1bd9d),
    ("sorted_positions", "staticBP(14)", 0xb02bad4687c8e002, 0x3d316d89e477d317),
    ("sorted_positions", "SIMD-BP", 0x40cee929024b8270, 0xab7e9f7b2f52f6d7),
    ("sorted_positions", "DELTA+SIMD-BP", 0x2fd48bf0065de250, 0xc0d42bc2afd65e11),
    ("sorted_positions", "FOR+SIMD-BP", 0xf7e82d7cb7ebe794, 0x91296fe6aa5440b1),
    ("sorted_positions", "RLE", 0xfa2d021b5af6ff91, 0x11e5dea712c031bf),
    ("narrow_range_at_2_40", "uncompr", 0x3dc86d5e3d304225, 0x9d8c1c865cc1bd9d),
    ("narrow_range_at_2_40", "staticBP(41)", 0xe85c6cf3d24dd06e, 0x05b6c1af81e09894),
    ("narrow_range_at_2_40", "SIMD-BP", 0x0956853bd5db82c4, 0x394cd2d8f905384b),
    ("narrow_range_at_2_40", "DELTA+SIMD-BP", 0x0bca9ca057e1278a, 0xae91f94d65e1ee75),
    ("narrow_range_at_2_40", "FOR+SIMD-BP", 0x507c9a0bcc99686b, 0x8744391fef8602c9),
    ("narrow_range_at_2_40", "RLE", 0xac8f67737e25c8cd, 0x6832863641c39784),
    ("small_with_outliers", "uncompr", 0xdf0f1456b8d92500, 0x9d8c1c865cc1bd9d),
    ("small_with_outliers", "staticBP(63)", 0xd3a02844f700a810, 0xdefd6357d9589ba2),
    ("small_with_outliers", "SIMD-BP", 0x308589c59453e14f, 0x43fa8d31f27ffe18),
    ("small_with_outliers", "DELTA+SIMD-BP", 0xd7b92b8076271ad5, 0xae91f94d65e1ee75),
    ("small_with_outliers", "FOR+SIMD-BP", 0x84cf2f4c82f03c2f, 0x9b4690d92b1f72a3),
    ("small_with_outliers", "RLE", 0x6ded781161e5165a, 0x247c210d6f7a0e5d),
    ("long_runs", "uncompr", 0x8a662f70dc2e2f27, 0x9d8c1c865cc1bd9d),
    ("long_runs", "staticBP(51)", 0xe5e0d2fd967d2674, 0x4d1a15fda202fd66),
    ("long_runs", "SIMD-BP", 0x98c8e5e9d2b9273e, 0x83e266d698081e82),
    ("long_runs", "DELTA+SIMD-BP", 0x61bfb3379712ee9c, 0x6698b5114947cbeb),
    ("long_runs", "FOR+SIMD-BP", 0xdcc3c7257f117185, 0x71be915a50f6de39),
    ("long_runs", "RLE", 0xc6f16720e03385fc, 0x2f173b2ee0389d2b),
    ("sub_block", "uncompr", 0x58b59c08535936d2, 0x88201fb960ff6465),
    ("sub_block", "staticBP(7)", 0xf0822095fc49d399, 0x88201fb960ff6465),
    ("sub_block", "SIMD-BP", 0xcbf29ce484222325, 0xcbf29ce484222325),
    ("sub_block", "DELTA+SIMD-BP", 0xcbf29ce484222325, 0xcbf29ce484222325),
    ("sub_block", "FOR+SIMD-BP", 0xcbf29ce484222325, 0xcbf29ce484222325),
    ("sub_block", "RLE", 0x638f87d3437223d2, 0x88201fb960ff6465),
    ("empty", "uncompr", 0xcbf29ce484222325, 0xcbf29ce484222325),
    ("empty", "staticBP(1)", 0xcbf29ce484222325, 0xcbf29ce484222325),
    ("empty", "SIMD-BP", 0xcbf29ce484222325, 0xcbf29ce484222325),
    ("empty", "DELTA+SIMD-BP", 0xcbf29ce484222325, 0xcbf29ce484222325),
    ("empty", "FOR+SIMD-BP", 0xcbf29ce484222325, 0xcbf29ce484222325),
    ("empty", "RLE", 0xcbf29ce484222325, 0xcbf29ce484222325),
];

#[test]
fn encoded_bytes_and_directories_match_the_pinned_layout() {
    let mut computed = Vec::new();
    for (name, values) in inputs() {
        for format in formats(&values) {
            let (bytes, main_len) = compress_main_part(&format, &values);
            let directory = chunk_directory(&format, &bytes, main_len);
            computed.push((
                name,
                format.to_string(),
                digest_bytes(&bytes),
                digest_directory(&directory),
            ));
        }
    }
    assert_eq!(computed.len(), GOLDEN.len(), "one pinned entry per case");
    for ((name, format, bytes, directory), golden) in computed.iter().zip(GOLDEN) {
        assert_eq!((*name, format.as_str()), (golden.0, golden.1));
        assert_eq!(*bytes, golden.2, "{name} / {format}: encoded bytes changed");
        assert_eq!(
            *directory, golden.3,
            "{name} / {format}: chunk directory changed"
        );
    }
}

/// DELTA's chain carries across `append` calls: a column fed in two appends,
/// split mid-column, encodes to the same pinned bytes as one append.
#[test]
fn delta_chain_split_mid_column_matches_the_pinned_layout() {
    let values: Vec<u64> = (0..4096u64).map(|i| 1_000_000 + i * 5 + i % 3).collect();
    let format = Format::DeltaDynBp;
    let mut compressor = compressor_for(&format);
    let mut bytes = Vec::new();
    compressor.append(&values[..1536], &mut bytes);
    compressor.append(&values[1536..], &mut bytes);
    compressor.finish(&mut bytes);
    let (whole, main_len) = compress_main_part(&format, &values);
    assert_eq!(bytes, whole);
    let directory = chunk_directory(&format, &bytes, main_len);
    assert_eq!(digest_bytes(&bytes), 0xb8f723faf996167b);
    assert_eq!(digest_directory(&directory), 0x95cd00f92914cbf1);
}
