//! Fuzz-style regression tests: no format decoder may panic (or hang) on
//! truncated or corrupt input.
//!
//! The engine's own columns are well-formed by construction, but encoded
//! main parts can cross a trust boundary (disk snapshots, network buffers),
//! where a bare `unwrap`/slice panic aborts the whole process.  Every
//! format's one decoder — its `ChunkCursor` — therefore validates before
//! it reads and reports a structured [`DecodeError`]; these tests feed it
//! byte slices truncated at every plausible boundary plus targeted header
//! corruptions, pulled directly (also after a `seek`) and pushed through
//! the generic driver, and assert an `Err` comes back both ways — never a
//! panic.

use morph_compression::{
    chunk_directory, compress_main_part, cursor_for, decompress_into, dyn_bp::Cascade, rle,
    try_for_each_decompressed_block, ChunkEntry, DecodeError, Format,
};

/// Sample data with enough spread to exercise multi-block encodings in
/// every format (several 512-element blocks plus runs and repeats).
fn sample_values() -> Vec<u64> {
    (0..4096u64)
        .map(|i| if i % 7 == 0 { i / 3 } else { (i * 131) % 1000 })
        .collect()
}

fn all_formats() -> Vec<Format> {
    Format::all_formats(4096)
}

/// Pull the format's cursor over `bytes` to the end of the stream, starting
/// at directory chunk `from` when given; returns the decoded values.
fn try_pull(
    format: &Format,
    bytes: &[u8],
    count: usize,
    directory: &[ChunkEntry],
    from: Option<usize>,
) -> Result<Vec<u64>, DecodeError> {
    let mut cursor = cursor_for(format, bytes, count, directory);
    if let Some(chunk_idx) = from {
        cursor.seek(chunk_idx);
    }
    let mut decoded = Vec::new();
    while let Some(chunk) = cursor.try_next_chunk()? {
        decoded.extend_from_slice(chunk);
    }
    Ok(decoded)
}

/// Decode to completion both ways — the generic push driver and the pulled
/// cursor — discarding output; the two must agree on the outcome.
fn try_decode(format: &Format, bytes: &[u8], count: usize) -> Result<(), DecodeError> {
    let pushed = try_for_each_decompressed_block(format, bytes, count, &mut |_| {});
    let pulled = try_pull(format, bytes, count, &[], None).map(|_| ());
    assert_eq!(pushed, pulled, "format {format}: push and pull disagree");
    pushed
}

#[test]
fn valid_input_decodes_and_matches_the_infallible_path() {
    let values = sample_values();
    for format in all_formats() {
        let (bytes, main_len) = compress_main_part(&format, &values);
        let mut streamed = Vec::new();
        try_for_each_decompressed_block(&format, &bytes, main_len, &mut |chunk| {
            streamed.extend_from_slice(chunk)
        })
        .unwrap_or_else(|err| panic!("format {format}: {err}"));
        let mut reference = Vec::new();
        decompress_into(&format, &bytes, main_len, &mut reference);
        assert_eq!(streamed, reference, "format {format}");
    }
}

#[test]
fn every_truncation_of_every_format_yields_an_error() {
    let values = sample_values();
    for format in all_formats() {
        let (bytes, main_len) = compress_main_part(&format, &values);
        if main_len == 0 {
            continue;
        }
        // Cut at a spread of byte lengths, including 0, 1, block-ish
        // boundaries and one-byte-short-of-complete.
        let cuts: Vec<usize> = [0usize, 1, 7, 8, 9, 16, 17]
            .into_iter()
            .chain((1..8).map(|i| bytes.len() * i / 8))
            .chain([bytes.len() - 1])
            .filter(|&cut| cut < bytes.len())
            .collect();
        // The directory is metadata recorded at compression time, so it
        // survives a truncation of the bytes it indexes.
        let directory = chunk_directory(&format, &bytes, main_len);
        for cut in cuts {
            let truncated = &bytes[..cut];
            let result = try_decode(&format, truncated, main_len);
            assert!(
                result.is_err(),
                "format {format}: decoding {main_len} elements from {cut}/{} bytes succeeded",
                bytes.len()
            );
            // Every seek target — before, at or past the cut — still has to
            // reach the missing tail.
            for chunk_idx in 0..directory.len() {
                let result = try_pull(&format, truncated, main_len, &directory, Some(chunk_idx));
                assert!(
                    result.is_err(),
                    "format {format}: seek to chunk {chunk_idx} of {cut}/{} bytes succeeded",
                    bytes.len()
                );
            }
        }
    }
}

#[test]
fn truncation_errors_are_structured_and_printable() {
    let values = sample_values();
    for format in all_formats() {
        let (bytes, main_len) = compress_main_part(&format, &values);
        if main_len == 0 {
            continue;
        }
        let err = try_decode(&format, &bytes[..bytes.len() / 2], main_len).unwrap_err();
        let message = err.to_string();
        assert!(
            message.contains("truncated") || message.contains("corrupt"),
            "format {format}: unhelpful message {message:?}"
        );
    }
}

#[test]
fn corrupt_width_bytes_are_rejected() {
    let values = sample_values();
    for (format, cascade) in [
        (Format::DynBp, Cascade::Plain),
        (Format::DeltaDynBp, Cascade::Delta),
        (Format::ForDynBp, Cascade::For),
    ] {
        let (mut bytes, main_len) = compress_main_part(&format, &values);
        // The width byte of the first block.
        let width_offset = cascade.width_offset();
        let directory = chunk_directory(&format, &bytes, main_len);
        for bad_width in [0u8, 65, 255] {
            bytes[width_offset] = bad_width;
            let err = try_decode(&format, &bytes, main_len).unwrap_err();
            assert!(
                matches!(err, DecodeError::CorruptHeader { .. }),
                "format {format}, width {bad_width}: {err}"
            );
            // Blocks are validated one by one: a seek onto the corrupt block
            // fails the same way, a seek past it decodes the intact rest.
            let err = try_pull(&format, &bytes, main_len, &directory, Some(0)).unwrap_err();
            assert!(matches!(err, DecodeError::CorruptHeader { .. }), "{err}");
            let rest = try_pull(&format, &bytes, main_len, &directory, Some(1));
            assert_eq!(
                rest.as_deref(),
                Ok(&values[512..main_len]),
                "format {format}"
            );
        }
    }
    let err = try_decode(&Format::StaticBp(0), &[0u8; 64], 64).unwrap_err();
    assert!(matches!(err, DecodeError::CorruptHeader { .. }));
}

#[test]
fn rle_zero_length_run_errors_instead_of_hanging() {
    // A run of length 0 can never be produced by the compressor; a naive
    // count-driven walk would loop forever on it.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&42u64.to_le_bytes());
    bytes.extend_from_slice(&0u64.to_le_bytes());
    let err = try_decode(&Format::Rle, &bytes, 10).unwrap_err();
    assert!(matches!(err, DecodeError::CorruptHeader { .. }), "{err}");
    let mut runs = Vec::new();
    let err = rle::try_for_each_run(&bytes, 10, &mut |v, n| runs.push((v, n))).unwrap_err();
    assert!(matches!(err, DecodeError::CorruptHeader { .. }), "{err}");
    assert!(runs.is_empty());
}

#[test]
fn rle_overlong_run_is_rejected() {
    // One run claiming more elements than the logical count.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&7u64.to_le_bytes());
    bytes.extend_from_slice(&100u64.to_le_bytes());
    let err = try_decode(&Format::Rle, &bytes, 10).unwrap_err();
    assert!(matches!(err, DecodeError::CorruptHeader { .. }), "{err}");
}

#[test]
fn empty_buffers_error_for_nonzero_counts() {
    for format in all_formats() {
        let count = match format.block_size() {
            1 => 64,
            bs => bs,
        };
        let result = try_decode(&format, &[], count);
        assert!(result.is_err(), "format {format}");
    }
}
