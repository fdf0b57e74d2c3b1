//! Property test for the column builder's sizing mode: for every format,
//! every length from empty to several cache buffers plus a sub-block
//! remainder, and any mix of `push`, `push_slice` and `push_run` pieces,
//! `ColumnBuilder::sizing(f)` reports exactly the format, length and bytes
//! of the column `ColumnBuilder::new(f)` encodes from the same pushes — and
//! the static-BP "too narrow" check fires in both modes.

use std::panic::{catch_unwind, AssertUnwindSafe};

use morph_compression::{ByteSink, Format, CACHE_BUFFER_ELEMENTS};
use morph_storage::{Column, ColumnBuilder};
use proptest::prelude::*;

/// One push into a builder.
#[derive(Debug, Clone)]
enum Piece {
    One(u64),
    Slice(Vec<u64>),
    Run(u64, u64),
}

/// Push pieces whose values span the formats' sweet spots: narrow values,
/// full-width values, runs of one value and ascending positions.
fn pieces() -> impl Strategy<Value = Vec<Piece>> {
    let piece = (0u8..4, any::<u64>(), 0usize..1400).prop_map(|(kind, seed, n)| match kind {
        0 => Piece::One(seed >> (seed % 64)),
        1 => {
            let bits = seed % 64 + 1;
            let mask = if bits == 64 {
                u64::MAX
            } else {
                (1 << bits) - 1
            };
            Piece::Slice(
                (0..n as u64)
                    .map(|i| (i ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask)
                    .collect(),
            )
        }
        2 => Piece::Slice(vec![seed % 5; n]),
        _ => Piece::Run(seed % 1_000_000_000, n as u64),
    });
    prop::collection::vec(piece, 0..10)
}

fn feed<S: ByteSink>(builder: &mut ColumnBuilder<S>, pieces: &[Piece]) {
    for piece in pieces {
        match piece {
            Piece::One(value) => builder.push(*value),
            Piece::Slice(values) => builder.push_slice(values),
            Piece::Run(start, len) => builder.push_run(*start, *len),
        }
    }
}

fn values_of(pieces: &[Piece]) -> Vec<u64> {
    let mut values = Vec::new();
    for piece in pieces {
        match piece {
            Piece::One(value) => values.push(*value),
            Piece::Slice(slice) => values.extend_from_slice(slice),
            Piece::Run(start, len) => values.extend(*start..*start + *len),
        }
    }
    values
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sizing_equals_encoding(pieces in pieces(), tail in 0usize..512) {
        let values = values_of(&pieces);
        // Past three cache buffers plus a sub-block remainder, push the
        // capped prefix as one slice instead.
        let cap = 3 * CACHE_BUFFER_ELEMENTS + tail;
        let values = &values[..values.len().min(cap)];
        let max = values.iter().copied().max().unwrap_or(0);
        for format in Format::all_formats(max) {
            let mut encoder = ColumnBuilder::new(format);
            let mut sizer = ColumnBuilder::sizing(format);
            if values.len() < cap {
                feed(&mut encoder, &pieces);
                feed(&mut sizer, &pieces);
            } else {
                encoder.push_slice(values);
                sizer.push_slice(values);
            }
            let column = encoder.finish();
            prop_assert_eq!(&column, &Column::compress(values, &format), "format {}", format);
            prop_assert_eq!(sizer.finish(), column.size(), "format {}", format);
        }
    }
}

/// A static-BP width too narrow for the data fails loudly whether the
/// column is encoded or only sized — at a full-buffer flush and at finish.
#[test]
fn too_narrow_static_bp_fails_in_both_modes() {
    fn message(run: impl FnOnce()) -> String {
        let payload = catch_unwind(AssertUnwindSafe(run)).expect_err("must panic");
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default()
    }
    for len in [64usize, CACHE_BUFFER_ELEMENTS + 64] {
        let values: Vec<u64> = (0..len as u64).map(|i| 200 + i % 300).collect();
        let encode = message(|| {
            let mut builder = ColumnBuilder::new(Format::StaticBp(8));
            builder.push_slice(&values);
            builder.finish();
        });
        let size = message(|| {
            let mut builder = ColumnBuilder::sizing(Format::StaticBp(8));
            builder.push_slice(&values);
            builder.finish();
        });
        assert!(encode.contains("too narrow"), "encode: {encode}");
        assert_eq!(size, encode, "len {len}");
    }
}
