//! The trivial uncompressed "format": values stored as little-endian 64-bit
//! integers.
//!
//! Keeping uncompressed data behind the same interface as the compressed
//! formats lets the engine treat "uncompressed" as just another format, which
//! is how the paper's evaluation sweeps format combinations (the
//! best/worst combinations are explicitly "allowed to employ the
//! uncompressed format", Section 5.2).

use crate::{
    ByteSink, ChunkCursor, Compressor, DecodeError, CACHE_BUFFER_ELEMENTS, CHUNK_DIRECTORY_TARGET,
};

/// Streaming "compressor" that simply serialises values as 8-byte
/// little-endian words.
#[derive(Debug, Default, Clone, Copy)]
pub struct UncompressedCompressor;

impl Compressor for UncompressedCompressor {
    fn append(&mut self, values: &[u64], out: &mut dyn ByteSink) {
        out.put_words(values);
    }

    fn finish(&mut self, _out: &mut dyn ByteSink) {}
}

/// [`ChunkCursor`] over an uncompressed main part — the format's only
/// decoder.  The stride is fixed (8 bytes per element), so seeks are pure
/// arithmetic; every chunk's byte window is validated before it is read.
#[derive(Debug)]
pub struct UncompressedCursor<'a> {
    bytes: &'a [u8],
    count: usize,
    pos: usize,
    buffer: Vec<u64>,
}

impl<'a> UncompressedCursor<'a> {
    /// Create a cursor over `count` values encoded in `bytes`, positioned at
    /// the first element.
    pub fn new(bytes: &'a [u8], count: usize) -> UncompressedCursor<'a> {
        UncompressedCursor {
            bytes,
            count,
            pos: 0,
            buffer: Vec::with_capacity(CACHE_BUFFER_ELEMENTS.min(count)),
        }
    }
}

impl ChunkCursor for UncompressedCursor<'_> {
    fn try_next_chunk(&mut self) -> Result<Option<&[u64]>, DecodeError> {
        if self.pos >= self.count {
            return Ok(None);
        }
        let chunk = (self.count - self.pos).min(CACHE_BUFFER_ELEMENTS);
        crate::ensure_bytes("uncompressed", self.bytes, self.pos * 8, chunk * 8)?;
        self.buffer.clear();
        for i in 0..chunk {
            let start = (self.pos + i) * 8;
            self.buffer.push(crate::read_u64_le(self.bytes, start));
        }
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

/// Random access to element `idx`.
#[inline]
pub fn get(bytes: &[u8], idx: usize) -> u64 {
    crate::read_u64_le(bytes, idx * 8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compress_main_part, decompress_into, Format};

    #[test]
    fn roundtrip() {
        let values: Vec<u64> = (0..5000).map(|i| i * 37 + 5).collect();
        let (bytes, main_len) = compress_main_part(&Format::Uncompressed, &values);
        assert_eq!(main_len, values.len());
        assert_eq!(bytes.len(), values.len() * 8);
        let mut decoded = Vec::new();
        decompress_into(&Format::Uncompressed, &bytes, main_len, &mut decoded);
        assert_eq!(decoded, values);
    }

    #[test]
    fn random_access() {
        let values: Vec<u64> = vec![9, u64::MAX, 0, 123456789];
        let mut bytes = Vec::new();
        bytes.put_words(&values);
        for (i, &expected) in values.iter().enumerate() {
            assert_eq!(get(&bytes, i), expected);
        }
    }

    #[test]
    fn empty_input() {
        let (bytes, main_len) = compress_main_part(&Format::Uncompressed, &[]);
        assert!(bytes.is_empty());
        assert_eq!(main_len, 0);
        let mut decoded = Vec::new();
        decompress_into(&Format::Uncompressed, &bytes, 0, &mut decoded);
        assert!(decoded.is_empty());
    }

    #[test]
    fn short_buffer_is_rejected_with_structured_payload() {
        // The infallible `next_chunk` carries the `DecodeError` itself as
        // the panic payload, so governed executors recover it structurally.
        let payload = std::panic::catch_unwind(|| {
            UncompressedCursor::new(&[0u8; 10], 2)
                .next_chunk()
                .map(<[u64]>::len)
        })
        .expect_err("short buffer must panic");
        let decode = payload
            .downcast_ref::<crate::DecodeError>()
            .expect("payload is a DecodeError");
        assert!(matches!(decode, crate::DecodeError::Truncated { .. }));
    }

    #[test]
    fn short_buffer_yields_structured_error() {
        let err = UncompressedCursor::new(&[0u8; 10], 2)
            .try_next_chunk()
            .unwrap_err();
        assert_eq!(
            err,
            crate::DecodeError::Truncated {
                format: "uncompressed",
                offset: 0,
                needed: 16,
                available: 10,
            }
        );
    }

    #[test]
    fn cursor_streams_and_seeks() {
        let values: Vec<u64> = (0..5000).collect();
        let mut bytes = Vec::new();
        bytes.put_words(&values);
        let mut cursor = UncompressedCursor::new(&bytes, values.len());
        let mut collected = Vec::new();
        while let Some(chunk) = cursor.next_chunk() {
            assert!(chunk.len() <= CACHE_BUFFER_ELEMENTS);
            collected.extend_from_slice(chunk);
        }
        assert_eq!(collected, values);
        // Seek to the second directory chunk (2048-element stride).
        cursor.seek(1);
        assert_eq!(cursor.next_chunk().unwrap()[0], values[2048]);
        cursor.seek(usize::MAX / CHUNK_DIRECTORY_TARGET);
        assert!(cursor.next_chunk().is_none());
    }
}
