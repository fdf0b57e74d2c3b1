//! The group operator: assign dense group identifiers to the rows of one or
//! more key columns (MonetDB-style `group`/`groupby` with extents).
//!
//! [`group_by`] groups by a single key column; [`group_by_refine`] refines an
//! existing grouping by an additional key column, which is how multi-column
//! `GROUP BY` clauses (e.g. `GROUP BY d_year, p_brand1` in SSB query flight
//! 2) are executed operator-at-a-time.

use std::collections::HashMap;

use morph_compression::Format;
use morph_storage::{Column, ColumnBuilder};

use crate::exec::ExecSettings;
use crate::ops::partitioned::effective_output_format;
use crate::ops::zip_chunks;

/// The result of a grouping: per-row group identifiers and, per group, the
/// position of its first occurrence (the "extents" in MonetDB terminology,
/// used to look up the group's key values for the final result).
///
/// The two output columns are `Arc`-shared so the plan-level cache can
/// retain and serve a grouping without copying column bytes (consumers take
/// `&Column` and deref transparently).
#[derive(Debug, Clone)]
pub struct GroupResult {
    /// For every input row, the dense identifier (`0..group_count`) of its
    /// group, in input order.
    pub group_ids: std::sync::Arc<Column>,
    /// For every group, the position of its first occurrence in the input.
    pub representatives: std::sync::Arc<Column>,
    /// Number of distinct groups.
    pub group_count: usize,
}

fn finish_outputs(
    ids: Vec<u64>,
    reps: Vec<u64>,
    out_formats: (&Format, &Format),
    settings: &ExecSettings,
) -> GroupResult {
    let group_count = reps.len();
    let mut id_builder = ColumnBuilder::new(effective_output_format(out_formats.0, settings));
    id_builder.push_slice(&ids);
    let mut rep_builder = ColumnBuilder::new(effective_output_format(out_formats.1, settings));
    rep_builder.push_slice(&reps);
    GroupResult {
        group_ids: std::sync::Arc::new(id_builder.finish()),
        representatives: std::sync::Arc::new(rep_builder.finish()),
        group_count,
    }
}

/// Charge a grouping's working set to the current query's memory budget:
/// the per-row identifier buffer, the representatives and the key table.
fn charge_working_set<K>(ids: &[u64], reps: &[u64], mapping: &HashMap<K, u64>) {
    let entry_bytes = std::mem::size_of::<(K, u64)>() + 1;
    let bytes = (ids.len() + reps.len()) * 8 + mapping.capacity() * entry_bytes;
    crate::govern::charge_transient(bytes);
}

/// Group the rows of `keys` by value.  Group identifiers are dense and
/// assigned in order of first occurrence.
///
/// `out_formats` is `(format of group_ids, format of representatives)`.
pub fn group_by(
    keys: &Column,
    out_formats: (&Format, &Format),
    settings: &ExecSettings,
) -> GroupResult {
    let mut mapping: HashMap<u64, u64> = HashMap::new();
    let mut ids: Vec<u64> = Vec::with_capacity(keys.logical_len());
    let mut reps: Vec<u64> = Vec::new();
    let mut pos = 0u64;
    keys.for_each_chunk(&mut |chunk| {
        crate::govern::checkpoint_chunk();
        for &key in chunk {
            let next_id = mapping.len() as u64;
            let id = *mapping.entry(key).or_insert_with(|| {
                reps.push(pos);
                next_id
            });
            ids.push(id);
            pos += 1;
        }
    });
    charge_working_set(&ids, &reps, &mapping);
    finish_outputs(ids, reps, out_formats, settings)
}

/// Refine an existing grouping by an additional key column: rows belong to
/// the same output group iff they had the same previous group identifier
/// *and* the same key value.
pub fn group_by_refine(
    previous: &GroupResult,
    keys: &Column,
    out_formats: (&Format, &Format),
    settings: &ExecSettings,
) -> GroupResult {
    let mut mapping: HashMap<(u64, u64), u64> = HashMap::new();
    let mut ids: Vec<u64> = Vec::with_capacity(keys.logical_len());
    let mut reps: Vec<u64> = Vec::new();
    let mut pos = 0u64;
    let chunks = 0..previous.group_ids.chunk_count();
    zip_chunks(
        &previous.group_ids,
        keys,
        chunks,
        &mut |prev_ids, key_chunk| {
            for (&prev, &key) in prev_ids.iter().zip(key_chunk.iter()) {
                let next_id = mapping.len() as u64;
                let id = *mapping.entry((prev, key)).or_insert_with(|| {
                    reps.push(pos);
                    next_id
                });
                ids.push(id);
                pos += 1;
            }
        },
    );
    charge_working_set(&ids, &reps, &mapping);
    finish_outputs(ids, reps, out_formats, settings)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FORMATS: (&Format, &Format) = (&Format::StaticBp(20), &Format::DeltaDynBp);

    #[test]
    fn single_column_grouping() {
        let keys = Column::from_slice(&[5, 9, 5, 5, 7, 9]);
        let result = group_by(&keys, FORMATS, &ExecSettings::default());
        assert_eq!(result.group_count, 3);
        assert_eq!(result.group_ids.decompress(), vec![0, 1, 0, 0, 2, 1]);
        assert_eq!(result.representatives.decompress(), vec![0, 1, 4]);
        assert_eq!(result.group_ids.format(), &Format::StaticBp(20));
        assert_eq!(result.representatives.format(), &Format::DeltaDynBp);
    }

    #[test]
    fn grouping_is_format_independent() {
        let key_values: Vec<u64> = (0..6000u64).map(|i| (i * 31) % 13).collect();
        let reference = group_by(
            &Column::from_slice(&key_values),
            (&Format::Uncompressed, &Format::Uncompressed),
            &ExecSettings::default(),
        );
        for format in Format::all_formats(12) {
            let keys = Column::compress(&key_values, &format);
            let result = group_by(&keys, FORMATS, &ExecSettings::default());
            assert_eq!(result.group_count, reference.group_count, "format {format}");
            assert_eq!(
                result.group_ids.decompress(),
                reference.group_ids.decompress(),
                "format {format}"
            );
            assert_eq!(
                result.representatives.decompress(),
                reference.representatives.decompress()
            );
        }
    }

    #[test]
    fn refinement_produces_composite_groups() {
        let year = Column::from_slice(&[1997, 1997, 1998, 1998, 1997]);
        let brand = Column::from_slice(&[1, 2, 1, 1, 1]);
        let by_year = group_by(&year, FORMATS, &ExecSettings::default());
        assert_eq!(by_year.group_count, 2);
        let by_year_brand = group_by_refine(&by_year, &brand, FORMATS, &ExecSettings::default());
        // Groups: (1997,1), (1997,2), (1998,1) -> 3 groups.
        assert_eq!(by_year_brand.group_count, 3);
        assert_eq!(by_year_brand.group_ids.decompress(), vec![0, 1, 2, 2, 0]);
        assert_eq!(by_year_brand.representatives.decompress(), vec![0, 1, 2]);
    }

    #[test]
    fn refinement_matches_tuple_grouping_reference() {
        let a_values: Vec<u64> = (0..3000u64).map(|i| i % 4).collect();
        let b_values: Vec<u64> = (0..3000u64).map(|i| (i * 7) % 5).collect();
        let a = Column::compress(&a_values, &Format::DynBp);
        let b = Column::compress(&b_values, &Format::StaticBp(3));
        let refined = group_by_refine(
            &group_by(&a, FORMATS, &ExecSettings::default()),
            &b,
            FORMATS,
            &ExecSettings::default(),
        );
        // Reference: group by the pair directly.
        let mut mapping = HashMap::new();
        let mut expected_ids = Vec::new();
        for (x, y) in a_values.iter().zip(b_values.iter()) {
            let next = mapping.len() as u64;
            expected_ids.push(*mapping.entry((*x, *y)).or_insert(next));
        }
        assert_eq!(refined.group_count, mapping.len());
        assert_eq!(refined.group_ids.decompress(), expected_ids);
    }

    #[test]
    fn purely_uncompressed_outputs() {
        let keys = Column::from_slice(&[1, 1, 2]);
        let result = group_by(&keys, FORMATS, &ExecSettings::scalar_uncompressed());
        assert_eq!(result.group_ids.format(), &Format::Uncompressed);
        assert_eq!(result.representatives.format(), &Format::Uncompressed);
    }

    #[test]
    fn empty_input() {
        let keys = Column::from_slice(&[]);
        let result = group_by(&keys, FORMATS, &ExecSettings::default());
        assert_eq!(result.group_count, 0);
        assert!(result.group_ids.is_empty());
        assert!(result.representatives.is_empty());
    }

    #[test]
    fn all_rows_in_one_group() {
        let keys = Column::compress(&vec![42u64; 5000], &Format::Rle);
        let result = group_by(&keys, FORMATS, &ExecSettings::default());
        assert_eq!(result.group_count, 1);
        assert_eq!(result.representatives.decompress(), vec![0]);
        assert!(result.group_ids.decompress().iter().all(|&g| g == 0));
    }
}
