//! Property-based workspace tests of the compression-enabled processing
//! model: for arbitrary data, every operator must produce identical results
//! regardless of the processing style, the integration degree and the
//! formats of its inputs and outputs — compression is an implementation
//! detail of the physical representation, never of the query semantics.

use morphstore::prelude::*;
use proptest::prelude::*;

fn arbitrary_values() -> impl Strategy<Value = Vec<u64>> {
    prop_oneof![
        prop::collection::vec(0u64..2000, 1..4000),
        prop::collection::vec(any::<u64>(), 1..1500),
        prop::collection::vec((0u64..10, 1usize..100), 1..60).prop_map(|runs| runs
            .into_iter()
            .flat_map(|(v, n)| std::iter::repeat_n(v, n))
            .collect()),
    ]
}

fn formats_for(values: &[u64]) -> Vec<Format> {
    Format::all_formats(values.iter().copied().max().unwrap_or(0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn select_is_invariant_under_formats_styles_and_degrees(
        values in arbitrary_values(),
        constant in 0u64..2000,
    ) {
        let reference: Vec<u64> = values
            .iter()
            .enumerate()
            .filter(|(_, &v)| v <= constant)
            .map(|(i, _)| i as u64)
            .collect();
        for format in formats_for(&values) {
            let input = Column::compress(&values, &format);
            for degree in IntegrationDegree::all() {
                for style in [ProcessingStyle::Scalar, ProcessingStyle::Vectorized] {
                    let settings = ExecSettings {
                        style,
                        degree,
                        ..ExecSettings::default()
                    };
                    let out = select(&input, &Predicate::Cmp(CmpOp::Le, constant), &Format::DeltaDynBp, &settings);
                    prop_assert_eq!(out.decompress(), reference.clone(),
                        "format {} degree {:?} style {:?}", format, degree, style);
                }
            }
        }
    }

    #[test]
    fn sum_is_invariant_under_formats_and_degrees(values in arbitrary_values()) {
        let expected = values.iter().fold(0u64, |a, &b| a.wrapping_add(b));
        for format in formats_for(&values) {
            let input = Column::compress(&values, &format);
            for degree in IntegrationDegree::all() {
                let settings = ExecSettings {
                    style: ProcessingStyle::Vectorized,
                    degree,
                    ..ExecSettings::default()
                };
                prop_assert_eq!(agg_sum(&input, &settings), expected, "format {}", format);
            }
        }
    }

    #[test]
    fn project_then_select_roundtrip(values in arbitrary_values()) {
        // Selecting all positions and projecting them back must reproduce the
        // column, whatever formats are involved.
        let max = values.iter().copied().max().unwrap_or(0);
        for format in [Format::Uncompressed, Format::DynBp, Format::Rle] {
            let data = Column::compress(&values, &format);
            let settings = ExecSettings::vectorized_compressed();
            let all = select(&data, &Predicate::Cmp(CmpOp::Le, max), &Format::DeltaDynBp, &settings);
            prop_assert_eq!(all.logical_len(), values.len());
            let restored = project(&data, &all, &Format::DynBp, &settings);
            prop_assert_eq!(restored.decompress(), values.clone());
        }
    }

    #[test]
    fn partitioned_kernels_equal_their_serial_operators(
        values in arbitrary_values(),
        parts in 1usize..9,
        constant in 0u64..2000,
    ) {
        // Intra-operator parallelism must be invisible: processing any
        // chunk partition of the input and splicing the partials in range
        // order reproduces the serial operator byte for byte.
        use morphstore::engine::ops::partitioned::{
            agg_sum_part, concat_partials, partition, project_part, select_part,
        };
        let settings = ExecSettings::vectorized_compressed();
        for format in formats_for(&values) {
            let input = Column::compress(&values, &format);
            let ranges = partition(&input, parts);
            prop_assert_eq!(
                ranges.iter().map(|r| r.len()).sum::<usize>(),
                input.chunk_count(),
                "format {}", format
            );

            let le = Predicate::Cmp(CmpOp::Le, constant);
            let serial = select(&input, &le, &Format::DeltaDynBp, &settings);
            let partials: Vec<Column> = ranges.iter()
                .map(|r| select_part(&input, &le, r.clone(), &Format::DeltaDynBp, settings.style))
                .collect();
            prop_assert_eq!(
                concat_partials(&Format::DeltaDynBp, &partials), serial,
                "select, format {}", format
            );

            let expected_sum = agg_sum(&input, &settings);
            let total = ranges.iter()
                .map(|r| agg_sum_part(&input, r.clone(), settings.style))
                .fold(0u64, u64::wrapping_add);
            prop_assert_eq!(total, expected_sum, "sum, format {}", format);
        }
        // Project: partition the position list, gather from static BP data.
        let data = Column::compress(
            &values,
            &Format::static_bp_for_max(values.iter().copied().max().unwrap_or(0)),
        );
        let position_values: Vec<u64> =
            (0..values.len() as u64).filter(|p| p % 3 == 0).collect();
        let positions = Column::compress(&position_values, &Format::DeltaDynBp);
        let serial = project(&data, &positions, &Format::DynBp, &settings);
        let partials: Vec<Column> = partition(&positions, parts).iter()
            .map(|r| project_part(&data, &positions, r.clone(), &Format::DynBp))
            .collect();
        prop_assert_eq!(concat_partials(&Format::DynBp, &partials), serial, "project");
    }

    #[test]
    fn group_sums_partition_the_total(values in arbitrary_values()) {
        let keys: Vec<u64> = values.iter().map(|v| v % 5).collect();
        let keys_col = Column::compress(&keys, &Format::StaticBp(3));
        let values_col = Column::compress(&values, &Format::DynBp);
        let settings = ExecSettings::default();
        let grouping = group_by(&keys_col, (&Format::StaticBp(4), &Format::DeltaDynBp), &settings);
        let sums = agg_sum_grouped(
            &grouping.group_ids,
            &values_col,
            grouping.group_count,
            &Format::Uncompressed,
            &settings,
        );
        let total_from_groups = sums.decompress().iter().fold(0u64, |a, &b| a.wrapping_add(b));
        let total = values.iter().fold(0u64, |a, &b| a.wrapping_add(b));
        prop_assert_eq!(total_from_groups, total);
    }

    #[test]
    fn intersection_is_contained_in_both_inputs(values in arbitrary_values()) {
        let a_positions: Vec<u64> = values.iter().enumerate()
            .filter(|(_, &v)| v % 2 == 0).map(|(i, _)| i as u64).collect();
        let b_positions: Vec<u64> = values.iter().enumerate()
            .filter(|(_, &v)| v % 3 == 0).map(|(i, _)| i as u64).collect();
        let a = Column::compress(&a_positions, &Format::DeltaDynBp);
        let b = Column::compress(&b_positions, &Format::DeltaDynBp);
        let settings = ExecSettings::default();
        let both = intersect_sorted(&a, &b, &Format::DeltaDynBp, &settings).decompress();
        let union = merge_sorted(&a, &b, &Format::DeltaDynBp, &settings).decompress();
        let a_set: std::collections::HashSet<u64> = a_positions.iter().copied().collect();
        let b_set: std::collections::HashSet<u64> = b_positions.iter().copied().collect();
        prop_assert!(both.iter().all(|p| a_set.contains(p) && b_set.contains(p)));
        prop_assert_eq!(union.len(), a_set.union(&b_set).count());
        prop_assert_eq!(both.len() + union.len(), a_positions.len() + b_positions.len());
    }
}
