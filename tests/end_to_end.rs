//! Workspace-level integration tests: exercise the public facade crate the
//! way a downstream user would, spanning data generation, compression,
//! operators, query execution and format selection.

use morphstore::cost::FormatSelectionStrategy;
use morphstore::prelude::*;
use morphstore::ssb::{dbgen, reference};
use morphstore::storage::datagen::SyntheticColumn;

#[test]
fn compression_pipeline_through_the_facade() {
    let values: Vec<u64> = (0..100_000u64).map(|i| i % 500).collect();
    let base = Column::compress(&values, &Format::DynBp);
    assert!(base.size_used_bytes() < values.len() * 8 / 4);

    let settings = ExecSettings::vectorized_compressed();
    let positions = select(
        &base,
        &Predicate::Cmp(CmpOp::Lt, 50),
        &Format::delta_dyn_bp(),
        &settings,
    );
    let projected = project(&base, &positions, &Format::StaticBp(9), &settings);
    let total = agg_sum(&projected, &settings);
    let expected: u64 = values.iter().filter(|&&v| v < 50).sum();
    assert_eq!(total, expected);
}

#[test]
fn grouped_aggregation_pipeline() {
    let keys: Vec<u64> = (0..50_000u64).map(|i| i % 7).collect();
    let amounts: Vec<u64> = (0..50_000u64).map(|i| i % 100).collect();
    let keys_col = Column::compress(&keys, &Format::StaticBp(3));
    let amounts_col = Column::compress(&amounts, &Format::DynBp);
    let settings = ExecSettings::default();
    let grouping = group_by(
        &keys_col,
        (&Format::StaticBp(3), &Format::DeltaDynBp),
        &settings,
    );
    assert_eq!(grouping.group_count, 7);
    let sums = agg_sum_grouped(
        &grouping.group_ids,
        &amounts_col,
        grouping.group_count,
        &Format::Uncompressed,
        &settings,
    );
    let mut expected = vec![0u64; 7];
    for (k, a) in keys.iter().zip(amounts.iter()) {
        expected[*k as usize] += a;
    }
    assert_eq!(sums.decompress(), expected);
}

#[test]
fn morphing_preserves_content_across_every_format_pair() {
    for column in SyntheticColumn::all() {
        let values = column.generate(10_000, 3);
        let max = values.iter().copied().max().unwrap_or(0);
        let formats = Format::all_formats(max);
        for src in &formats {
            let compressed = Column::compress(&values, src);
            for dst in &formats {
                assert_eq!(
                    morph(&compressed, dst).decompress(),
                    values,
                    "{src} -> {dst}"
                );
            }
        }
    }
}

#[test]
fn ssb_query_with_cost_based_formats_matches_reference() {
    let data = dbgen::generate(0.005, 11);
    for query in [SsbQuery::Q1_1, SsbQuery::Q2_1, SsbQuery::Q4_2] {
        // Capture a reference execution to learn the intermediates, build a
        // cost-based configuration, and re-run under it.
        let mut capture = ExecutionContext::new(
            ExecSettings::vectorized_uncompressed(),
            FormatConfig::uncompressed(),
        );
        capture.enable_capture();
        query.execute(&data, &mut capture);
        let mut columns = capture.captured_columns().clone();
        for name in query.base_columns() {
            let column = data.column(&name).clone();
            columns.insert(name, column);
        }
        let config =
            FormatSelectionStrategy::CostBased.build_config_for_plan(&query.plan(), &columns);
        let compressed_base = data.with_formats(&config);
        let mut ctx = ExecutionContext::new(ExecSettings::vectorized_compressed(), config);
        let result = query.execute(&compressed_base, &mut ctx);
        let expected = reference::evaluate(query, &data);
        assert_eq!(result.sorted_rows(), expected.sorted_rows(), "{query}");
        assert!(
            ctx.total_footprint_bytes() < capture.total_footprint_bytes(),
            "{query}"
        );
    }
}

#[test]
fn headline_claim_footprint_shrinks_with_continuous_compression() {
    // The paper's headline: continuous compression reduces the memory
    // footprint substantially (52 % on average at SF 10).  The absolute
    // number depends on the scale factor and the data, but the direction and
    // rough magnitude must hold at any scale.
    let data = dbgen::generate(0.01, 42);
    let mut uncompressed_total = 0usize;
    let mut compressed_total = 0usize;
    for query in SsbQuery::all() {
        let mut plain_ctx = ExecutionContext::new(
            ExecSettings::vectorized_uncompressed(),
            FormatConfig::uncompressed(),
        );
        query.execute(&data, &mut plain_ctx);
        uncompressed_total += plain_ctx.total_footprint_bytes();

        let compressed_base = data.with_narrow_static_bp(false);
        let mut compressed_ctx = ExecutionContext::new(
            ExecSettings::vectorized_compressed(),
            FormatConfig::with_default(Format::DynBp),
        );
        query.execute(&compressed_base, &mut compressed_ctx);
        compressed_total += compressed_ctx.total_footprint_bytes();
    }
    let ratio = compressed_total as f64 / uncompressed_total as f64;
    assert!(
        ratio < 0.6,
        "continuous compression only reached {ratio:.2} of the uncompressed footprint"
    );
}
