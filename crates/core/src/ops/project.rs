//! The project operator: gather the values of a data column at a list of
//! positions.
//!
//! Project is the operator that "requires random read access to compressed
//! data, because [it] is used to transfer the result of a selection on one
//! column to another column" (Section 4.2).  MorphStore restricts random
//! access to uncompressed data and static bit packing; if the data column is
//! held in another format, this implementation morphs it to a random-access
//! format first (an instance of on-the-fly morphing), mirroring that
//! restriction.

use morph_compression::Format;
use morph_storage::Column;

use crate::exec::{ExecSettings, IntegrationDegree};
use crate::ops::agg::agg_max;
use crate::ops::partitioned::{effective_output_format, project_part};
use crate::specialized;

/// The morph a project must apply before random-accessing `data`:
/// `Some(static BP copy)` when the format does not support random access,
/// `None` when `data` can be gathered from directly.
///
/// Shared with the morsel scheduler and the fused executor so the (serial)
/// morph happens once per operator, before the gather fans out.
pub(crate) fn ensure_random_access(data: &Column) -> Option<Column> {
    if data.supports_random_access() {
        None
    } else {
        let max = agg_max(data, &ExecSettings::default());
        Some(data.to_format(&Format::static_bp_for_max(max)))
    }
}

/// The chunk step of project: append `data[position]` for every position of
/// one chunk of the position list.  `data` must support random access.
///
/// # Panics
/// Panics if a position is out of bounds for `data`.
#[inline]
pub(crate) fn gather_chunk(data: &Column, positions: &[u64], out: &mut Vec<u64>) {
    out.reserve(positions.len());
    for &position in positions {
        let value = data
            .get(position as usize)
            .unwrap_or_else(|| panic!("project: position {position} out of bounds"));
        out.push(value);
    }
}

/// Gather `data[position]` for every position in `positions` (in order),
/// materialising the output in `out_format`.
///
/// With the specialized degree, a static-BP data column is gathered straight
/// off the packed bit stream ([`specialized::project_on_static_bp`]); any
/// other format keeps the general path: morph to a random-access format if
/// needed, then the chunk-range kernel [`project_part`] over the whole
/// position list.
///
/// # Panics
/// Panics if a position is out of bounds for `data`.
pub fn project(
    data: &Column,
    positions: &Column,
    out_format: &Format,
    settings: &ExecSettings,
) -> Column {
    if settings.degree == IntegrationDegree::Specialized
        && matches!(data.format(), Format::StaticBp(_))
    {
        return specialized::project_on_static_bp(data, positions, out_format);
    }
    let morphed = ensure_random_access(data);
    project_part(
        morphed.as_ref().unwrap_or(data),
        positions,
        0..positions.chunk_count(),
        &effective_output_format(out_format, settings),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| (i * 37) % 2048).collect()
    }

    #[test]
    fn project_matches_reference_for_all_formats() {
        let data_values = sample(6000);
        let position_values: Vec<u64> = (0..6000u64).filter(|p| p % 3 == 0).collect();
        let expected: Vec<u64> = position_values
            .iter()
            .map(|&p| data_values[p as usize])
            .collect();
        for data_format in Format::all_formats(2047) {
            let data = Column::compress(&data_values, &data_format);
            for pos_format in [
                Format::Uncompressed,
                Format::DeltaDynBp,
                Format::StaticBp(13),
            ] {
                let positions = Column::compress(&position_values, &pos_format);
                let out = project(&data, &positions, &Format::DynBp, &ExecSettings::default());
                assert_eq!(
                    out.decompress(),
                    expected,
                    "data {data_format}, positions {pos_format}"
                );
            }
        }
    }

    #[test]
    fn project_output_format_is_respected() {
        let data = Column::compress(&sample(1000), &Format::StaticBp(11));
        let positions = Column::from_slice(&[0, 10, 999, 500, 500]);
        for out_format in Format::all_formats(2047) {
            let out = project(&data, &positions, &out_format, &ExecSettings::default());
            assert_eq!(out.format(), &out_format);
            assert_eq!(out.logical_len(), 5);
        }
    }

    #[test]
    fn project_preserves_position_order_and_duplicates() {
        let data = Column::from_slice(&[10, 20, 30, 40]);
        let positions = Column::from_slice(&[3, 0, 3, 1, 1]);
        let out = project(
            &data,
            &positions,
            &Format::Uncompressed,
            &ExecSettings::default(),
        );
        assert_eq!(out.decompress(), vec![40, 10, 40, 20, 20]);
    }

    #[test]
    fn purely_uncompressed_output() {
        let data = Column::from_slice(&sample(100));
        let positions = Column::from_slice(&[5, 6, 7]);
        let out = project(
            &data,
            &positions,
            &Format::Rle,
            &ExecSettings::scalar_uncompressed(),
        );
        assert_eq!(out.format(), &Format::Uncompressed);
    }

    #[test]
    fn empty_positions_give_empty_output() {
        let data = Column::compress(&sample(100), &Format::DynBp);
        let positions = Column::from_slice(&[]);
        let out = project(&data, &positions, &Format::DynBp, &ExecSettings::default());
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_position_panics() {
        let data = Column::from_slice(&[1, 2, 3]);
        let positions = Column::from_slice(&[7]);
        project(
            &data,
            &positions,
            &Format::Uncompressed,
            &ExecSettings::default(),
        );
    }

    #[test]
    fn positions_in_the_remainder_are_projected_correctly() {
        // Data column where most positions land in the uncompressed remainder
        // of a 512-block format.
        let data_values = sample(600);
        let data = Column::compress(&data_values, &Format::DynBp);
        assert_eq!(data.main_part_len(), 512);
        let positions = Column::from_slice(&[511, 512, 599]);
        let out = project(
            &data,
            &positions,
            &Format::Uncompressed,
            &ExecSettings::default(),
        );
        assert_eq!(
            out.decompress(),
            vec![data_values[511], data_values[512], data_values[599]]
        );
    }
}
