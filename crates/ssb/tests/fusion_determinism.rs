//! Determinism suite for operator fusion: for all 13 SSB queries, executing
//! with fusion enabled must be observationally **byte-identical** to the
//! unfused serial walk —
//!
//! * identical results (including row order),
//! * an identical footprint-record *sequence* (names, formats, lengths,
//!   physical sizes, classification, in order — fused regions still record
//!   their interior intermediates so footprint reporting never changes),
//! * an identical operator-timing label sequence,
//!
//! across the serial executor and the parallel executor at 2 and 4 workers
//! with intra-operator morsels enabled (threshold far below the fact table,
//! so fused regions actually fan out over their driver's chunk directory),
//! under three format configurations: scalar uncompressed, vectorized with
//! uniform continuous compression, and a heterogeneous per-edge assignment.
//!
//! On top of byte-identity, every query whose plan contains a fusible chain
//! must report the region and a positive `intermediate_bytes_avoided` —
//! the bytes of the interior columns the fused pass never kept.

mod common;

use common::{per_edge_formats, MIXED};
use morph_compression::Format;
use morph_ssb::{dbgen, SsbData, SsbQuery};
use morphstore_engine::exec::FormatConfig;
use morphstore_engine::{ExecSettings, ExecutionContext, FusionPlan};

const THREAD_COUNTS: [usize; 2] = [2, 4];

/// Fans out every operator over a few thousand elements — small enough that
/// the 0.004-scale-factor fact table (≈ 24 k rows) exercises the fused
/// morsel path on every query with a prefix-independent region.
const TEST_MORSEL_THRESHOLD: usize = 4096;

fn timing_labels(ctx: &ExecutionContext) -> Vec<String> {
    ctx.timings().iter().map(|(n, _)| n.clone()).collect()
}

fn check_all_queries(data: &SsbData, settings: ExecSettings, formats: &FormatConfig) {
    for query in SsbQuery::all() {
        let fusible_regions = FusionPlan::analyze(&query.plan()).region_count();

        // The unfused serial walk is the reference for everything.
        let mut serial_ctx = ExecutionContext::new(settings.clone(), formats.clone());
        let serial = query.execute(data, &mut serial_ctx);

        // Fused serial: one chunk-at-a-time pass per region.
        let fused_settings = settings.clone().with_fusion();
        let mut fused_ctx = ExecutionContext::new(fused_settings.clone(), formats.clone());
        let fused = query.execute(data, &mut fused_ctx);
        assert_eq!(fused, serial, "{query} fused serial: result diverged");
        assert_eq!(
            fused_ctx.records(),
            serial_ctx.records(),
            "{query} fused serial: footprint records diverged"
        );
        assert_eq!(
            fused_ctx.total_footprint_bytes(),
            serial_ctx.total_footprint_bytes(),
            "{query} fused serial"
        );
        assert_eq!(
            timing_labels(&fused_ctx),
            timing_labels(&serial_ctx),
            "{query} fused serial: operator sequence diverged"
        );
        assert_eq!(
            fused_ctx.fused_region_count(),
            fusible_regions,
            "{query}: fused serial must execute every detected region"
        );
        if fusible_regions > 0 {
            assert!(
                fused_ctx.intermediate_bytes_avoided() > 0,
                "{query}: fusible chain but no interior bytes avoided"
            );
        } else {
            assert_eq!(fused_ctx.intermediate_bytes_avoided(), 0, "{query}");
        }

        // Fused parallel with morsels: regions fan out over the driver's
        // chunk directory, partials splice back byte-identically.
        let morsel_settings = fused_settings.with_morsel_threshold(TEST_MORSEL_THRESHOLD);
        for threads in THREAD_COUNTS {
            let mut ctx = ExecutionContext::new(morsel_settings.clone(), formats.clone());
            let parallel = query.execute_parallel(data, &mut ctx, threads);
            assert_eq!(
                parallel, serial,
                "{query} fused threads={threads}: result diverged"
            );
            assert_eq!(
                ctx.records(),
                serial_ctx.records(),
                "{query} fused threads={threads}: footprint records diverged"
            );
            assert_eq!(
                ctx.total_footprint_bytes(),
                serial_ctx.total_footprint_bytes(),
                "{query} fused threads={threads}"
            );
            assert_eq!(
                timing_labels(&ctx),
                timing_labels(&serial_ctx),
                "{query} fused threads={threads}: operator sequence diverged"
            );
            assert_eq!(
                ctx.fused_region_count(),
                fusible_regions,
                "{query} fused threads={threads}"
            );
        }
    }
}

#[test]
fn fusion_is_byte_identical_across_executors_and_formats() {
    let raw = dbgen::generate(0.004, 7);

    // Scalar processing on uncompressed data (purely-uncompressed degree).
    check_all_queries(
        &raw,
        ExecSettings::scalar_uncompressed(),
        &FormatConfig::uncompressed(),
    );

    // Vectorized processing with continuous compression (on-the-fly
    // de/re-compression degree — the headline configuration).
    let compressed = raw.with_uniform_format(&Format::DynBp);
    check_all_queries(
        &compressed,
        ExecSettings::vectorized_compressed(),
        &FormatConfig::with_default(Format::DynBp),
    );

    // A heterogeneous assignment: formats resolved per plan edge, including
    // the stateful DELTA and RLE formats whose morsel merge re-pushes
    // values instead of splicing bytes.
    let mixed = per_edge_formats(Format::StaticBp(26), &MIXED);
    check_all_queries(
        &raw.with_narrow_static_bp(false),
        ExecSettings::vectorized_compressed(),
        &mixed,
    );
}

#[test]
fn ssb_plans_contain_fusible_regions() {
    // The tentpole must actually bite on the benchmark: most SSB plans end
    // in a select → … → project / agg tail the analyzer can fuse.
    let fusible = SsbQuery::all()
        .iter()
        .filter(|q| FusionPlan::analyze(&q.plan()).region_count() > 0)
        .count();
    assert!(
        fusible >= 8,
        "only {fusible}/13 SSB plans have a fusible region"
    );
}
