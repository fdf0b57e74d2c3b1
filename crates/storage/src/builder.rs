//! The compressing column builder — the output-side buffer layer of the
//! on-the-fly de/re-compression wrapper (Figure 4 of the paper).
//!
//! Operators produce uncompressed values (one vector register or one small
//! chunk at a time) and push them into a [`ColumnBuilder`].  The builder
//! appends them to an internal L1-cache-resident buffer of
//! [`CACHE_BUFFER_ELEMENTS`] values (16 KiB, half the L1 data cache — the
//! size used in the paper's evaluation, Section 5).  Whenever the buffer
//! fills up, the output format's compression routine is invoked on it and the
//! compressed bytes are appended to the output column's buffer.  At the end,
//! whatever whole blocks remain are compressed and the rest is stored as the
//! uncompressed remainder — steps 6–9 of Figure 4.

use morph_compression::{
    compressor_for, ByteCount, ByteSink, Compressor, Format, CACHE_BUFFER_ELEMENTS,
};

use crate::{Column, ColumnSize};

/// Incrementally builds a [`Column`] in a chosen format from a stream of
/// uncompressed values — or, in *sizing mode*, only the column's
/// [`ColumnSize`].
///
/// The compressor writes through the builder's [`ByteSink`] `S`.  A
/// `ColumnBuilder` ([`ColumnBuilder::new`]) stores the bytes and finishes
/// into a [`Column`].  A `ColumnBuilder<ByteCount>`
/// ([`ColumnBuilder::sizing`]) counts them and finishes into the
/// [`ColumnSize`] that [`Column::size`] of the encoded column would report:
/// both run the same buffer, flush, compressor and remainder logic, so the
/// size is exact by construction, and nothing is packed.
pub struct ColumnBuilder<S = Vec<u8>> {
    format: Format,
    buffer: Vec<u64>,
    compressor: Box<dyn Compressor>,
    sink: S,
    main_len: usize,
    total_len: usize,
    /// Sizing mode in debug builds: a real encoder fed the same values, so
    /// every sized column is checked against its encoding.
    #[cfg(debug_assertions)]
    shadow: Option<Box<ColumnBuilder>>,
}

impl<S> std::fmt::Debug for ColumnBuilder<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColumnBuilder")
            .field("format", &self.format)
            .field("buffered", &self.buffer.len())
            .field("total_len", &self.total_len)
            .finish()
    }
}

impl ColumnBuilder {
    /// Create a builder producing a column in `format`.
    pub fn new(format: Format) -> ColumnBuilder {
        ColumnBuilder::with_sink(format, Vec::new())
    }

    /// Append the entire logical content of `column`, exactly as if every
    /// one of its values had been pushed individually — the splice primitive
    /// that merges the partial outputs of a chunk-partitioned operator back
    /// into one column.
    ///
    /// For formats whose blocks depend only on their own values
    /// ([`Format::blocks_are_independent`]), an aligned append splices the
    /// column's compressed main part byte-for-byte without re-encoding; only
    /// the sub-block remainder is re-buffered.  Other formats and unaligned
    /// appends re-push the values through the streaming compressor instead.
    /// Either way the resulting column is byte-identical to a single builder
    /// fed the concatenated value sequence.
    pub fn append_column(&mut self, column: &Column) {
        let splice_safe = self.format.blocks_are_independent();
        // The spliced blocks must land where the serial builder would have
        // compressed them: with an empty buffer, `main_len` is a multiple of
        // the block size (it only ever grows by whole blocks), so the
        // incoming block grid lines up with the global one.
        if splice_safe && self.buffer.is_empty() && column.format() == &self.format {
            self.sink.extend_from_slice(column.main_part_bytes());
            self.main_len += column.main_part_len();
            self.total_len += column.main_part_len();
            self.push_slice(&column.remainder_values());
            return;
        }
        column.for_each_chunk(&mut |chunk| self.push_slice(chunk));
    }

    /// Finish the column: compress the remaining whole blocks, then append
    /// the rest as the uncompressed remainder.
    pub fn finish(mut self) -> Column {
        self.seal();
        let main_bytes = self.sink.len() - (self.total_len - self.main_len) * 8;
        Column::from_parts(
            self.format,
            self.total_len,
            self.main_len,
            main_bytes,
            self.sink,
        )
    }
}

impl ColumnBuilder<ByteCount> {
    /// Create a builder that sizes a column in `format` without encoding
    /// it: the compressor makes every decision it makes when encoding, but
    /// writes into a [`ByteCount`].
    pub fn sizing(format: Format) -> ColumnBuilder<ByteCount> {
        ColumnBuilder {
            #[cfg(debug_assertions)]
            shadow: Some(Box::new(ColumnBuilder::new(format))),
            ..ColumnBuilder::with_sink(format, ByteCount::default())
        }
    }

    /// Finish sizing: the [`ColumnSize`] of the column a
    /// [`ColumnBuilder::new`] fed the same values would have produced.
    pub fn finish(mut self) -> ColumnSize {
        self.seal();
        let size = ColumnSize {
            format: self.format,
            len: self.total_len,
            bytes: self.sink.0,
        };
        #[cfg(debug_assertions)]
        if let Some(shadow) = self.shadow.take() {
            assert_eq!(
                shadow.finish().size(),
                size,
                "sized column differs from its encoding"
            );
        }
        size
    }
}

impl<S: ByteSink> ColumnBuilder<S> {
    fn with_sink(format: Format, sink: S) -> ColumnBuilder<S> {
        ColumnBuilder {
            format,
            buffer: Vec::with_capacity(CACHE_BUFFER_ELEMENTS),
            compressor: compressor_for(&format),
            sink,
            main_len: 0,
            total_len: 0,
            #[cfg(debug_assertions)]
            shadow: None,
        }
    }

    /// Feed the debug-build shadow encoder of a sizing builder (a no-op
    /// otherwise) — after the builder's own step, so a failing check fires
    /// on the sizing path first.
    #[inline]
    fn mirror(&mut self, _feed: impl FnOnce(&mut ColumnBuilder)) {
        #[cfg(debug_assertions)]
        if let Some(shadow) = &mut self.shadow {
            _feed(shadow);
        }
    }

    /// The output format of this builder.
    pub fn format(&self) -> &Format {
        &self.format
    }

    /// Number of values pushed so far.
    pub fn len(&self) -> usize {
        self.total_len
    }

    /// Whether no values have been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.total_len == 0
    }

    /// Append a single value.
    #[inline]
    pub fn push(&mut self, value: u64) {
        self.buffer.push(value);
        self.total_len += 1;
        if self.buffer.len() == CACHE_BUFFER_ELEMENTS {
            self.flush_full_buffer();
        }
        self.mirror(|shadow| shadow.push(value));
    }

    /// Append a slice of values.
    pub fn push_slice(&mut self, values: &[u64]) {
        let mut rest = values;
        self.total_len += values.len();
        while !rest.is_empty() {
            let space = CACHE_BUFFER_ELEMENTS - self.buffer.len();
            let take = space.min(rest.len());
            self.buffer.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if self.buffer.len() == CACHE_BUFFER_ELEMENTS {
                self.flush_full_buffer();
            }
        }
        self.mirror(|shadow| shadow.push_slice(values));
    }

    /// Append the consecutive positions `start..start + len` without any
    /// caller-side scratch buffer: the run is written straight into the
    /// internal cache-resident buffer, one buffer-full at a time.
    ///
    /// This is the sink of the specialized RLE select kernel, whose matching
    /// runs can be arbitrarily long — materialising them in a caller-owned
    /// `Vec` first would grow that allocation to the longest run.
    pub fn push_run(&mut self, start: u64, len: u64) {
        let mut next = start;
        let end = start + len;
        self.total_len += len as usize;
        while next < end {
            let space = (CACHE_BUFFER_ELEMENTS - self.buffer.len()) as u64;
            let take = space.min(end - next);
            self.buffer.extend(next..next + take);
            next += take;
            if self.buffer.len() == CACHE_BUFFER_ELEMENTS {
                self.flush_full_buffer();
            }
        }
        self.mirror(|shadow| shadow.push_run(start, len));
    }

    /// Compress the full cache-resident buffer.  The buffer size is a
    /// multiple of every format's block size, so the whole buffer can be
    /// handed to the compressor.
    fn flush_full_buffer(&mut self) {
        debug_assert_eq!(self.buffer.len(), CACHE_BUFFER_ELEMENTS);
        self.compressor.append(&self.buffer, &mut self.sink);
        self.main_len += self.buffer.len();
        self.buffer.clear();
    }

    /// Compress the remaining whole blocks, flush the compressor, then
    /// write the rest as the uncompressed remainder — steps 8–9 of
    /// Figure 4, shared by both finishes.
    fn seal(&mut self) {
        let block = self.format.block_size();
        let compressible = self.buffer.len() - self.buffer.len() % block;
        if compressible > 0 {
            self.compressor
                .append(&self.buffer[..compressible], &mut self.sink);
            self.main_len += compressible;
        }
        self.compressor.finish(&mut self.sink);
        self.sink.put_words(&self.buffer[compressible..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| (i * 31) % 509).collect()
    }

    #[test]
    fn builder_equals_whole_buffer_compression() {
        let values = sample(10_000);
        let max = *values.iter().max().unwrap();
        for format in Format::all_formats(max) {
            let mut builder = ColumnBuilder::new(format);
            for &v in &values {
                builder.push(v);
            }
            let streamed = builder.finish();
            let direct = Column::compress(&values, &format);
            assert_eq!(streamed, direct, "format {format}");
        }
    }

    #[test]
    fn push_slice_equals_push_loop() {
        let values = sample(7531);
        for format in [Format::DynBp, Format::DeltaDynBp, Format::Rle] {
            let mut by_slice = ColumnBuilder::new(format);
            // Push in odd-sized pieces to exercise buffer boundaries.
            for chunk in values.chunks(777) {
                by_slice.push_slice(chunk);
            }
            let mut by_value = ColumnBuilder::new(format);
            for &v in &values {
                by_value.push(v);
            }
            assert_eq!(by_slice.finish(), by_value.finish());
        }
    }

    #[test]
    fn push_run_equals_push_slice_of_the_range() {
        // Runs shorter, equal to and much longer than the internal buffer,
        // starting at unaligned buffer offsets.
        for format in [Format::DeltaDynBp, Format::DynBp, Format::Rle] {
            let mut by_run = ColumnBuilder::new(format);
            let mut by_slice = ColumnBuilder::new(format);
            let mut start = 3u64;
            for len in [0u64, 1, 7, 2048, 2049, 10_000] {
                by_run.push_run(start, len);
                let range: Vec<u64> = (start..start + len).collect();
                by_slice.push_slice(&range);
                start += len + 11;
            }
            assert_eq!(by_run.finish(), by_slice.finish(), "format {format}");
        }
    }

    #[test]
    fn append_column_equals_pushing_the_values_for_all_formats() {
        let values = sample(12_000);
        let max = *values.iter().max().unwrap();
        // Split into three uneven pieces, build each as its own column, then
        // splice; the result must be byte-identical to one continuous build
        // — for splice-safe formats (fast path) and stateful ones alike.
        let cuts = [0usize, 2048, 2048 + 3001, values.len()];
        for format in Format::all_formats(max) {
            let mut merged = ColumnBuilder::new(format);
            for window in cuts.windows(2) {
                let partial = {
                    let mut b = ColumnBuilder::new(format);
                    b.push_slice(&values[window[0]..window[1]]);
                    b.finish()
                };
                merged.append_column(&partial);
            }
            let direct = Column::compress(&values, &format);
            assert_eq!(merged.finish(), direct, "format {format}");
        }
    }

    #[test]
    fn append_column_merges_rle_runs_across_the_seam() {
        // A run spanning the splice point must re-merge (the serial builder
        // would have counted it as one run).
        let mut left = ColumnBuilder::new(Format::Rle);
        left.push_slice(&[1, 1, 4, 4, 4]);
        let right = {
            let mut b = ColumnBuilder::new(Format::Rle);
            b.push_slice(&[4, 4, 9]);
            b.finish()
        };
        left.append_column(&right);
        let direct = Column::compress(&[1, 1, 4, 4, 4, 4, 4, 9], &Format::Rle);
        assert_eq!(left.finish(), direct);
    }

    #[test]
    fn builder_tracks_length() {
        let mut builder = ColumnBuilder::new(Format::DynBp);
        assert!(builder.is_empty());
        builder.push_slice(&[1, 2, 3]);
        builder.push(4);
        assert_eq!(builder.len(), 4);
        assert_eq!(builder.format(), &Format::DynBp);
        let column = builder.finish();
        assert_eq!(column.decompress(), vec![1, 2, 3, 4]);
        assert_eq!(column.main_part_len(), 0);
        assert_eq!(column.remainder_len(), 4);
    }

    #[test]
    fn empty_builder_produces_empty_column() {
        for format in Format::all_formats(100) {
            let column = ColumnBuilder::new(format).finish();
            assert!(column.is_empty());
            assert_eq!(column.size_used_bytes(), 0, "format {format}");
        }
    }

    #[test]
    fn remainder_is_at_most_one_block() {
        let values = sample(5000);
        let column = {
            let mut b = ColumnBuilder::new(Format::DynBp);
            b.push_slice(&values);
            b.finish()
        };
        assert!(column.remainder_len() < 512);
        assert_eq!(column.main_part_len() + column.remainder_len(), 5000);
    }
}
