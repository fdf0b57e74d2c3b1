//! End-to-end correctness of the 13 SSB queries: the engine execution must
//! produce exactly the same result as the row-wise reference interpreter,
//! irrespective of the processing style, the degree of integration and the
//! compression formats chosen for base columns and intermediates.

use morph_compression::Format;
use morph_ssb::{dbgen, reference, SsbData, SsbQuery};
use morphstore_engine::exec::FormatConfig;
use morphstore_engine::{ExecSettings, ExecutionContext, IntegrationDegree, ProcessingStyle};
use proptest::prelude::*;

const SCALE_FACTOR: f64 = 0.01;
const SEED: u64 = 42;

fn run_query(
    query: SsbQuery,
    data: &SsbData,
    settings: ExecSettings,
    formats: FormatConfig,
) -> (morph_ssb::QueryResult, ExecutionContext) {
    let mut ctx = ExecutionContext::new(settings, formats);
    let result = query.execute(data, &mut ctx);
    (result, ctx)
}

#[test]
fn all_queries_match_reference_with_uncompressed_processing() {
    let data = dbgen::generate(SCALE_FACTOR, SEED);
    for query in SsbQuery::all() {
        let expected = reference::evaluate(query, &data);
        let (result, _) = run_query(
            query,
            &data,
            ExecSettings::scalar_uncompressed(),
            FormatConfig::uncompressed(),
        );
        assert_eq!(result.sorted_rows(), expected.sorted_rows(), "{query}");
    }
}

#[test]
fn all_queries_match_reference_with_continuous_compression() {
    let raw = dbgen::generate(SCALE_FACTOR, SEED);
    // Base columns in SIMD-BP, intermediates default to SIMD-BP as well.
    let data = raw.with_uniform_format(&Format::DynBp);
    for query in SsbQuery::all() {
        let expected = reference::evaluate(query, &raw);
        let (result, ctx) = run_query(
            query,
            &data,
            ExecSettings::vectorized_compressed(),
            FormatConfig::with_default(Format::DynBp),
        );
        assert_eq!(result.sorted_rows(), expected.sorted_rows(), "{query}");
        // The paper reports 15 to 56 intermediates per query; our plans are
        // in the same ballpark.
        assert!(
            ctx.intermediate_count() >= 10,
            "{query} produced only {} intermediates",
            ctx.intermediate_count()
        );
        assert!(ctx.total_footprint_bytes() > 0);
    }
}

#[test]
fn results_are_independent_of_format_combinations() {
    let raw = dbgen::generate(SCALE_FACTOR, SEED);
    let data_static = raw.with_narrow_static_bp(false);
    let configs = [
        FormatConfig::with_default(Format::DeltaDynBp),
        FormatConfig::with_default(Format::Rle),
        FormatConfig::with_default(Format::ForDynBp)
            .set("1.1/lo_pos", Format::DeltaDynBp)
            .set("2.1/lo_pos", Format::Uncompressed),
    ];
    // A representative subset (one query per flight) across heterogeneous
    // format assignments; the full cross-product runs in the uncompressed and
    // compressed tests above.
    for query in [
        SsbQuery::Q1_1,
        SsbQuery::Q2_1,
        SsbQuery::Q3_2,
        SsbQuery::Q4_1,
    ] {
        let expected = reference::evaluate(query, &raw);
        for config in &configs {
            let (result, _) = run_query(
                query,
                &data_static,
                ExecSettings::vectorized_compressed(),
                config.clone(),
            );
            assert_eq!(result.sorted_rows(), expected.sorted_rows(), "{query}");
        }
    }
}

#[test]
fn results_are_independent_of_integration_degree() {
    let raw = dbgen::generate(0.005, 7);
    let data = raw.with_uniform_format(&Format::DynBp);
    for query in [SsbQuery::Q1_2, SsbQuery::Q3_1] {
        let expected = reference::evaluate(query, &raw);
        for degree in IntegrationDegree::all() {
            let settings = ExecSettings {
                style: ProcessingStyle::Vectorized,
                degree,
                ..ExecSettings::default()
            };
            let (result, _) = run_query(
                query,
                &data,
                settings,
                FormatConfig::with_default(Format::DynBp),
            );
            assert_eq!(
                result.sorted_rows(),
                expected.sorted_rows(),
                "{query} {degree:?}"
            );
        }
    }
}

#[test]
fn compression_reduces_the_query_footprint() {
    let raw = dbgen::generate(SCALE_FACTOR, SEED);
    let compressed_data = raw.with_narrow_static_bp(false);
    for query in [SsbQuery::Q1_1, SsbQuery::Q2_2, SsbQuery::Q4_2] {
        let (_, ctx_uncompressed) = run_query(
            query,
            &raw,
            ExecSettings::vectorized_uncompressed(),
            FormatConfig::uncompressed(),
        );
        let (_, ctx_compressed) = run_query(
            query,
            &compressed_data,
            ExecSettings::vectorized_compressed(),
            FormatConfig::with_default(Format::DynBp),
        );
        let uncompressed = ctx_uncompressed.total_footprint_bytes();
        let compressed = ctx_compressed.total_footprint_bytes();
        assert!(
            (compressed as f64) < 0.7 * uncompressed as f64,
            "{query}: compressed {compressed} vs uncompressed {uncompressed}"
        );
    }
}

fn check_all_queries_against_reference(
    data: &SsbData,
    raw: &SsbData,
    settings: ExecSettings,
    formats: &FormatConfig,
) {
    for query in SsbQuery::all() {
        let (result, _) = run_query(query, data, settings.clone(), formats.clone());
        assert_eq!(
            result.sorted_rows(),
            reference::evaluate(query, raw).sorted_rows(),
            "{query}: plan execution diverged from the reference interpreter"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // All 13 queries against the reference over random data seeds, under
    // scalar uncompressed processing, uniform continuous compression, and a
    // heterogeneous per-edge assignment over static-BP base columns.
    #[test]
    fn all_queries_match_reference_across_seeds_and_format_assignments(seed in 0u64..10_000) {
        let raw = dbgen::generate(0.004, seed);

        check_all_queries_against_reference(
            &raw,
            &raw,
            ExecSettings::scalar_uncompressed(),
            &FormatConfig::uncompressed(),
        );

        check_all_queries_against_reference(
            &raw.with_uniform_format(&Format::DynBp),
            &raw,
            ExecSettings::vectorized_compressed(),
            &FormatConfig::with_default(Format::DynBp),
        );

        // 26 bits cover the widest intermediate (projected datekeys need 25).
        let mixed = FormatConfig::with_default(Format::StaticBp(26))
            .set("1.1/lo_pos", Format::DeltaDynBp)
            .set("2.1/lo_pos", Format::Uncompressed)
            .set("3.2/revenue_at_pos", Format::ForDynBp)
            .set("4.1/group_year", Format::Rle)
            .set("4.1/group_year_reps", Format::DeltaDynBp);
        check_all_queries_against_reference(
            &raw.with_narrow_static_bp(false),
            &raw,
            ExecSettings::vectorized_compressed(),
            &mixed,
        );
    }
}
