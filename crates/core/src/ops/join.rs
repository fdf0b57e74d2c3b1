//! Join operators: equi-join and semi-join.
//!
//! The SSB queries are star joins: the (filtered) dimension tables are joined
//! to the fact table via foreign keys.  In the operator-at-a-time model these
//! joins consume key columns and produce position columns:
//!
//! * [`join`] returns, for every match, the position in the probe column and
//!   the position in the build column (MonetDB-style join producing two
//!   aligned position lists),
//! * [`semi_join`] returns only the probe positions that have at least one
//!   match — which is all the SSB plans need when a dimension is used purely
//!   as a filter.
//!
//! The key table is always built on the *build* (second) input, which in a
//! star join is the filtered dimension-key column and therefore small and
//! dense: [`morph_vector::keys`] provides a [`KeySet`](morph_vector::keys::KeySet)
//! for the semi-join and a [`KeyIndex`] (CSR: key → its build positions, in
//! build order, so N:M output order is the build order) for the join.  Each
//! picks direct addressing over `[min, max]` or open addressing from the
//! build side's observed range and the probe length — see DESIGN.md, "Join
//! kernels: direct-addressed key tables".  Both sides are streamed
//! chunk-wise — the build column once per table-construction pass, the probe
//! column once — so neither key column is ever materialised uncompressed
//! (DP3); the table itself is charged to the query's memory budget.  An
//! empty build side short-circuits: nothing can match, so the probe side is
//! not decoded at all.
//!
//! Keys are compared by value, which is correct for dictionary-encoded data
//! because MorphStore assumes "an individual dictionary per domain"
//! (Section 3.1): both join sides of an SSB join refer to the same key
//! domain.

use morph_compression::Format;
use morph_storage::{Column, ColumnBuilder};
use morph_vector::keys::KeyIndex;

use crate::exec::ExecSettings;
use crate::ops::partitioned::{
    build_semi_join_set, effective_output_format, scan_build_side, semi_join_part,
};

/// Equi-join of two key columns.
///
/// Returns `(probe_positions, build_positions)`: for every pair `(i, j)` with
/// `probe[i] == build[j]`, position `i` is appended to the first output and
/// `j` to the second, in probe order (and build order within one probe
/// position).  `out_formats` are the formats of the two output columns
/// (ignored for the purely uncompressed degree).
pub fn join(
    probe: &Column,
    build: &Column,
    out_formats: (&Format, &Format),
    settings: &ExecSettings,
) -> (Column, Column) {
    let mut probe_out = ColumnBuilder::new(effective_output_format(out_formats.0, settings));
    let mut build_out = ColumnBuilder::new(effective_output_format(out_formats.1, settings));
    // An empty build side matches nothing: skip decoding the probe side.
    if !build.is_empty() {
        // Build phase: key -> its positions in the build column.
        let index = KeyIndex::build(|sink| scan_build_side(build, sink), probe.logical_len());
        crate::govern::charge_transient(index.heap_bytes());
        // Probe phase.
        let mut probe_pos = 0u64;
        probe.for_each_chunk(&mut |chunk| {
            crate::govern::checkpoint_chunk();
            for &value in chunk {
                for &build_pos in index.matches(value) {
                    probe_out.push(probe_pos);
                    build_out.push(build_pos);
                }
                probe_pos += 1;
            }
        });
    }
    (probe_out.finish(), build_out.finish())
}

/// Semi-join: the positions of `probe` whose value occurs in `build`.
pub fn semi_join(
    probe: &Column,
    build: &Column,
    out_format: &Format,
    settings: &ExecSettings,
) -> Column {
    // The serial operator is the partitioned kernel over the whole chunk
    // range, so the morsel path reproduces it by construction.
    let set = build_semi_join_set(build, probe.logical_len());
    semi_join_part(
        probe,
        &set,
        0..probe.chunk_count(),
        &effective_output_format(out_format, settings),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn n_to_one_join_matches_reference() {
        // Fact foreign keys probe a dimension primary-key column.
        let dim_keys: Vec<u64> = (0..100).collect();
        let fact_fk: Vec<u64> = (0..5000u64).map(|i| (i * 37) % 100).collect();
        let probe = Column::compress(&fact_fk, &Format::DynBp);
        let build = Column::compress(&dim_keys, &Format::StaticBp(7));
        let (probe_pos, build_pos) = join(
            &probe,
            &build,
            (&Format::DeltaDynBp, &Format::DynBp),
            &ExecSettings::default(),
        );
        assert_eq!(probe_pos.logical_len(), 5000);
        assert_eq!(build_pos.logical_len(), 5000);
        let p = probe_pos.decompress();
        let b = build_pos.decompress();
        assert_eq!(p, (0..5000u64).collect::<Vec<_>>());
        for i in 0..5000usize {
            assert_eq!(dim_keys[b[i] as usize], fact_fk[p[i] as usize]);
        }
    }

    #[test]
    fn join_with_partial_matches() {
        let probe = Column::from_slice(&[1, 5, 9, 5, 100]);
        let build = Column::from_slice(&[5, 7, 9]);
        let (p, b) = join(
            &probe,
            &build,
            (&Format::Uncompressed, &Format::Uncompressed),
            &ExecSettings::default(),
        );
        assert_eq!(p.decompress(), vec![1, 2, 3]);
        assert_eq!(b.decompress(), vec![0, 2, 0]);
    }

    #[test]
    fn n_to_m_join_produces_all_pairs() {
        let probe = Column::from_slice(&[7, 8]);
        let build = Column::from_slice(&[7, 7, 8]);
        let (p, b) = join(
            &probe,
            &build,
            (&Format::Uncompressed, &Format::Uncompressed),
            &ExecSettings::default(),
        );
        assert_eq!(p.decompress(), vec![0, 0, 1]);
        assert_eq!(b.decompress(), vec![0, 1, 2]);
    }

    #[test]
    fn join_output_formats_are_respected() {
        let probe = Column::compress(
            &(0..3000u64).map(|i| i % 50).collect::<Vec<_>>(),
            &Format::DynBp,
        );
        let build = Column::from_slice(&(0..50).collect::<Vec<u64>>());
        let (p, b) = join(
            &probe,
            &build,
            (&Format::DeltaDynBp, &Format::StaticBp(6)),
            &ExecSettings::default(),
        );
        assert_eq!(p.format(), &Format::DeltaDynBp);
        assert_eq!(b.format(), &Format::StaticBp(6));
        let (p_plain, _) = join(
            &probe,
            &build,
            (&Format::DeltaDynBp, &Format::StaticBp(6)),
            &ExecSettings::scalar_uncompressed(),
        );
        assert_eq!(p_plain.format(), &Format::Uncompressed);
    }

    #[test]
    fn semi_join_matches_reference_for_all_formats() {
        let probe_values: Vec<u64> = (0..8000u64).map(|i| i % 997).collect();
        let build_values: Vec<u64> = (0..200u64).map(|i| i * 5).collect();
        let build_set: std::collections::HashSet<u64> = build_values.iter().copied().collect();
        let expected: Vec<u64> = probe_values
            .iter()
            .enumerate()
            .filter(|(_, v)| build_set.contains(v))
            .map(|(i, _)| i as u64)
            .collect();
        for probe_format in [Format::Uncompressed, Format::DynBp] {
            let probe = Column::compress(&probe_values, &probe_format);
            let build = Column::compress(&build_values, &Format::StaticBp(10));
            let out = semi_join(
                &probe,
                &build,
                &Format::DeltaDynBp,
                &ExecSettings::default(),
            );
            assert_eq!(out.decompress(), expected, "probe {probe_format}");
        }
    }

    #[test]
    fn semi_join_with_no_matches_and_empty_inputs() {
        let settings = ExecSettings::default();
        let probe_values: Vec<u64> = (0..6000u64).map(|i| i % 50).collect();
        let build = Column::from_slice(&[90, 100]);
        let empty = Column::from_slice(&[]);
        for probe_format in Format::all_formats(49) {
            let probe = Column::compress(&probe_values, &probe_format);
            for out_format in [Format::Uncompressed, Format::DeltaDynBp] {
                // Whatever the reason nothing matches, the output is the
                // column an untouched builder finishes.
                let nothing = ColumnBuilder::new(out_format).finish();
                assert_eq!(semi_join(&probe, &build, &out_format, &settings), nothing);
                assert_eq!(semi_join(&probe, &empty, &out_format, &settings), nothing);
                assert_eq!(semi_join(&empty, &build, &out_format, &settings), nothing);
                // The morsel path: every part of an empty build side is empty.
                let set = build_semi_join_set(&empty, probe.logical_len());
                assert!(set.is_empty());
                for range in probe.partition_chunks(3) {
                    assert_eq!(semi_join_part(&probe, &set, range, &out_format), nothing);
                }
                let formats = (&out_format, &out_format);
                for (p, b) in [(&probe, &empty), (&empty, &build), (&probe, &build)] {
                    let (probe_pos, build_pos) = join(p, b, formats, &settings);
                    assert_eq!(probe_pos, nothing, "{probe_format} -> {out_format}");
                    assert_eq!(build_pos, nothing, "{probe_format} -> {out_format}");
                }
            }
        }
    }
}
