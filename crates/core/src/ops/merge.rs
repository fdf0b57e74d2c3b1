//! Position-list set operations: intersection and union of sorted position
//! columns.
//!
//! Conjunctive predicates over different columns (e.g. the lineorder filters
//! of SSB query flight 1: `lo_discount BETWEEN 1 AND 3 AND lo_quantity < 25`)
//! are evaluated as one select per column followed by an intersection of the
//! resulting sorted position lists; disjunctions use the union.  Both inputs
//! are consumed chunk-wise, so compressed position lists are never fully
//! decompressed.

use morph_compression::Format;
use morph_storage::{Column, ColumnBuilder};

use crate::exec::ExecSettings;
use crate::ops::partitioned::{effective_output_format, intersect_sorted_part};
use crate::ops::PullSide;

/// Merge-intersect two sorted position columns: the chunk-range kernel
/// [`intersect_sorted_part`] over the whole of `a`.
///
/// Both inputs must be strictly increasing (as produced by [`crate::select`]).
pub fn intersect_sorted(
    a: &Column,
    b: &Column,
    out_format: &Format,
    settings: &ExecSettings,
) -> Column {
    intersect_sorted_part(
        a,
        b,
        0..a.chunk_count(),
        &effective_output_format(out_format, settings),
    )
}

/// Merge-union two sorted position columns (duplicates collapse).
///
/// Both inputs stay compressed: `a` is streamed chunk by chunk, `b` is
/// pulled through its chunk cursor into a carry bounded by one chunk — the
/// merge never materialises a whole position list (cf. `zip_chunks`).
pub fn merge_sorted(
    a: &Column,
    b: &Column,
    out_format: &Format,
    settings: &ExecSettings,
) -> Column {
    let mut builder = ColumnBuilder::new(effective_output_format(out_format, settings));
    let mut pulled = PullSide::new(b.cursor());
    a.for_each_chunk(&mut |chunk| {
        crate::govern::checkpoint_chunk();
        for &value in chunk {
            // Emit the smaller `b` values in passing and the probed value
            // exactly once (duplicates collapse).
            pulled.merge_step(value, |other| builder.push(other));
            builder.push(value);
        }
    });
    // Whatever remains of `b` once `a` is exhausted.
    loop {
        let available = pulled.peek();
        if available.is_empty() {
            break;
        }
        builder.push_slice(available);
        let n = available.len();
        pulled.advance(n);
    }
    pulled.finish();
    builder.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_intersect(a: &[u64], b: &[u64]) -> Vec<u64> {
        let set: std::collections::HashSet<u64> = b.iter().copied().collect();
        a.iter().copied().filter(|v| set.contains(v)).collect()
    }

    fn reference_union(a: &[u64], b: &[u64]) -> Vec<u64> {
        let mut set: std::collections::BTreeSet<u64> = a.iter().copied().collect();
        set.extend(b.iter().copied());
        set.into_iter().collect()
    }

    #[test]
    fn intersect_matches_reference() {
        let a_values: Vec<u64> = (0..10_000u64).filter(|i| i % 3 == 0).collect();
        let b_values: Vec<u64> = (0..10_000u64).filter(|i| i % 5 == 0).collect();
        let expected = reference_intersect(&a_values, &b_values);
        for format in [Format::Uncompressed, Format::DeltaDynBp, Format::DynBp] {
            let a = Column::compress(&a_values, &format);
            let b = Column::compress(&b_values, &format);
            let out = intersect_sorted(&a, &b, &Format::DeltaDynBp, &ExecSettings::default());
            assert_eq!(out.decompress(), expected, "format {format}");
            // Intersection is symmetric.
            let out_rev = intersect_sorted(&b, &a, &Format::DeltaDynBp, &ExecSettings::default());
            assert_eq!(out_rev.decompress(), expected);
        }
    }

    #[test]
    fn union_matches_reference() {
        let a_values: Vec<u64> = (0..5000u64).filter(|i| i % 7 == 0).collect();
        let b_values: Vec<u64> = (0..5000u64).filter(|i| i % 11 == 0).collect();
        let expected = reference_union(&a_values, &b_values);
        let a = Column::compress(&a_values, &Format::DeltaDynBp);
        let b = Column::compress(&b_values, &Format::DeltaDynBp);
        let out = merge_sorted(&a, &b, &Format::DeltaDynBp, &ExecSettings::default());
        assert_eq!(out.decompress(), expected);
        let out_rev = merge_sorted(&b, &a, &Format::DeltaDynBp, &ExecSettings::default());
        assert_eq!(out_rev.decompress(), expected);
    }

    #[test]
    fn disjoint_and_identical_inputs() {
        let a = Column::from_slice(&[1, 3, 5]);
        let b = Column::from_slice(&[2, 4, 6]);
        assert!(
            intersect_sorted(&a, &b, &Format::Uncompressed, &ExecSettings::default()).is_empty()
        );
        assert_eq!(
            merge_sorted(&a, &b, &Format::Uncompressed, &ExecSettings::default()).decompress(),
            vec![1, 2, 3, 4, 5, 6]
        );
        assert_eq!(
            intersect_sorted(&a, &a, &Format::Uncompressed, &ExecSettings::default()).decompress(),
            vec![1, 3, 5]
        );
        assert_eq!(
            merge_sorted(&a, &a, &Format::Uncompressed, &ExecSettings::default()).decompress(),
            vec![1, 3, 5]
        );
    }

    #[test]
    fn empty_inputs() {
        let a = Column::from_slice(&[1, 2, 3]);
        let empty = Column::from_slice(&[]);
        assert!(
            intersect_sorted(&a, &empty, &Format::Uncompressed, &ExecSettings::default())
                .is_empty()
        );
        assert_eq!(
            merge_sorted(&a, &empty, &Format::Uncompressed, &ExecSettings::default()).decompress(),
            vec![1, 2, 3]
        );
        assert_eq!(
            merge_sorted(&empty, &a, &Format::Uncompressed, &ExecSettings::default()).decompress(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn output_format_and_degree_are_respected() {
        let a_values: Vec<u64> = (0..4000u64).step_by(2).collect();
        let b_values: Vec<u64> = (0..4000u64).step_by(3).collect();
        let a = Column::compress(&a_values, &Format::DeltaDynBp);
        let b = Column::compress(&b_values, &Format::DeltaDynBp);
        let compressed = intersect_sorted(&a, &b, &Format::DeltaDynBp, &ExecSettings::default());
        assert_eq!(compressed.format(), &Format::DeltaDynBp);
        let plain = intersect_sorted(
            &a,
            &b,
            &Format::DeltaDynBp,
            &ExecSettings::scalar_uncompressed(),
        );
        assert_eq!(plain.format(), &Format::Uncompressed);
        assert_eq!(plain.decompress(), compressed.decompress());
    }
}
