//! Determinism suite for parallel plan execution: for all 13 SSB queries and
//! `threads ∈ {1, 2, 4, 8}`, [`SsbQuery::execute_parallel`] must produce
//!
//! * byte-identical results (including row order) to the serial
//!   [`SsbQuery::execute`],
//! * an identical footprint-record *sequence* (names, formats, lengths,
//!   physical sizes, base/intermediate classification, in order), and
//! * an identical operator-timing label sequence,
//!
//! under both the scalar-uncompressed and the vectorized-compressed
//! configuration, plus a heterogeneous per-edge format assignment — and the
//! same again with intra-operator morsel parallelism enabled (a threshold
//! far below the fact-table size, so the hot selects, semi-joins, projects
//! and sums actually fan out and merge).  The parallel executor achieves
//! this by recording per node and merging the records back in topological
//! order, and by splicing morsel partials in range order — so whichever
//! worker runs whichever node (or part) whenever, the observable
//! bookkeeping is that of the serial walk.

mod common;

use common::{per_edge_formats, MIXED};
use morph_compression::Format;
use morph_ssb::{dbgen, SsbData, SsbQuery};
use morphstore_engine::exec::FormatConfig;
use morphstore_engine::{ExecSettings, ExecutionContext};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Fans out every operator over a few thousand elements — small enough that
/// the 0.004-scale-factor fact table (≈ 24 k rows) exercises the morsel
/// path on every query.
const TEST_MORSEL_THRESHOLD: usize = 4096;

fn check_all_queries(data: &SsbData, settings: ExecSettings, formats: &FormatConfig) {
    for query in SsbQuery::all() {
        let mut serial_ctx = ExecutionContext::new(settings.clone(), formats.clone());
        let serial = query.execute(data, &mut serial_ctx);
        for threads in THREAD_COUNTS {
            let mut ctx = ExecutionContext::new(settings.clone(), formats.clone());
            let parallel = query.execute_parallel(data, &mut ctx, threads);

            assert_eq!(
                parallel, serial,
                "{query} threads={threads}: result diverged"
            );
            assert_eq!(
                ctx.records(),
                serial_ctx.records(),
                "{query} threads={threads}: footprint records diverged"
            );
            assert_eq!(
                ctx.total_footprint_bytes(),
                serial_ctx.total_footprint_bytes(),
                "{query} threads={threads}"
            );
            let labels: Vec<&str> = ctx.timings().iter().map(|(n, _)| n.as_str()).collect();
            let serial_labels: Vec<&str> = serial_ctx
                .timings()
                .iter()
                .map(|(n, _)| n.as_str())
                .collect();
            assert_eq!(
                labels, serial_labels,
                "{query} threads={threads}: operator sequence diverged"
            );
        }
    }
}

#[test]
fn parallel_execution_is_deterministic_across_thread_counts() {
    let raw = dbgen::generate(0.004, 7);

    // Scalar processing on uncompressed data.
    check_all_queries(
        &raw,
        ExecSettings::scalar_uncompressed(),
        &FormatConfig::uncompressed(),
    );

    // Vectorized processing with continuous compression.
    let compressed = raw.with_uniform_format(&Format::DynBp);
    check_all_queries(
        &compressed,
        ExecSettings::vectorized_compressed(),
        &FormatConfig::with_default(Format::DynBp),
    );

    // A heterogeneous assignment: formats resolved per plan edge (26 bits
    // cover the widest intermediate; projected datekeys need 25).
    let mixed = per_edge_formats(Format::StaticBp(26), &MIXED);
    check_all_queries(
        &raw.with_narrow_static_bp(false),
        ExecSettings::vectorized_compressed(),
        &mixed,
    );
}

#[test]
fn parallel_execution_with_morsels_is_deterministic() {
    let raw = dbgen::generate(0.004, 7);

    // Vectorized + compressed with the morsel path enabled: the single-chain
    // Q1.x plans only parallelise through fanned-out operators, so this is
    // the configuration that exercises partition → process → merge on every
    // query.
    let compressed = raw.with_uniform_format(&Format::DynBp);
    check_all_queries(
        &compressed,
        ExecSettings::vectorized_compressed().with_morsel_threshold(TEST_MORSEL_THRESHOLD),
        &FormatConfig::with_default(Format::DynBp),
    );

    // Morsels under the purely uncompressed baseline (partials merged as
    // plain columns) and under a heterogeneous assignment including the
    // stateful DELTA and RLE output formats, whose merge re-pushes values
    // instead of splicing bytes.
    check_all_queries(
        &raw,
        ExecSettings::scalar_uncompressed().with_morsel_threshold(TEST_MORSEL_THRESHOLD),
        &FormatConfig::uncompressed(),
    );
    let mixed = per_edge_formats(
        Format::StaticBp(26),
        &[
            ("1.1/pos_2", Format::DeltaDynBp),
            ("1.2/pos_lo_discount", Format::Rle),
            ("2.1/pos", Format::Uncompressed),
            ("3.2/lo_revenue_at_pos", Format::ForDynBp),
        ],
    );
    check_all_queries(
        &raw.with_narrow_static_bp(false),
        ExecSettings::vectorized_compressed().with_morsel_threshold(TEST_MORSEL_THRESHOLD),
        &mixed,
    );
}

#[test]
fn ssb_plans_expose_independent_dimension_subtrees() {
    // The scheduler's raw material: every multi-join SSB plan must have at
    // least one ready set with two or more mutually independent operator
    // nodes beyond the scans (the per-dimension restriction chains).
    for query in [
        SsbQuery::Q2_1,
        SsbQuery::Q3_1,
        SsbQuery::Q4_1,
        SsbQuery::Q4_2,
    ] {
        let plan = query.plan();
        let levels = plan.ready_sets();
        let widest_inner = levels[1..].iter().map(|l| l.len()).max().unwrap_or(0);
        assert!(
            widest_inner >= 2,
            "{query}: no inter-operator parallelism in {levels:?}"
        );
        let covered: usize = levels.iter().map(|l| l.len()).sum();
        assert_eq!(covered, plan.node_count());
    }
}
