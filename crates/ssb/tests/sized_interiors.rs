//! Sized fused interiors are observably identical to encoded ones.
//!
//! A fused region whose unit runs as one part, with no plan cache and no
//! capture, only *sizes* its interior columns (nothing can read them); with
//! a cache attached it encodes them (the cache keeps them).  Both must be
//! indistinguishable from each other and from the unfused walk: identical
//! results, footprint records, timing labels and governor materialisation
//! charges.  Between the two fused runs, `intermediate_bytes_avoided` and
//! the governor's whole `used_bytes()` agree too; the unfused walk's
//! `used_bytes()` also holds the pairwise carry buffers (an unfused `calc`
//! pulls its right operand through one) that a fused pass never allocates,
//! so only its materialised share is compared.  Covered: a pure
//! select → project → agg chain, a shared-position-list tail, and every SSB
//! plan with a fusible region, under uniform DynBp, uniform DELTA and a
//! per-edge format assignment.  A memory budget that trips on an interior's
//! charge fails with the same error in all three runs.

use std::collections::HashMap;
use std::sync::Arc;

use morph_compression::Format;
use morph_ssb::{dbgen, SsbQuery};
use morph_storage::Column;
use morphstore_engine::exec::FormatConfig;
use morphstore_engine::plan::PlanOutput;
use morphstore_engine::{
    BinaryOp, CmpOp, ColumnSource, ExecError, ExecSettings, ExecutionContext, FusionPlan,
    PlanBuilder, QueryCache, QueryGovernor, QueryPlan,
};

/// What a run shows from the outside.
#[derive(Debug, PartialEq)]
struct Observed {
    output: PlanOutput,
    records: Vec<morphstore_engine::exec::ColumnRecord>,
    labels: Vec<String>,
    materialized_bytes: usize,
    transient_peak_bytes: usize,
    bytes_avoided: u64,
}

/// The three runs: unfused, fused with sized interiors (no cache), fused
/// with encoded interiors (an unbounded, cold cache).
fn three_settings(base: &ExecSettings) -> [(&'static str, ExecSettings); 3] {
    [
        ("unfused", base.clone()),
        ("fused, sized", base.clone().with_fusion()),
        (
            "fused, encoded",
            base.clone()
                .with_fusion()
                .with_cache(Arc::new(QueryCache::unbounded())),
        ),
    ]
}

fn observe(
    plan: &QueryPlan,
    source: &dyn ColumnSource,
    settings: ExecSettings,
    formats: &FormatConfig,
) -> Observed {
    let governor = Arc::new(QueryGovernor::new());
    let settings = settings.with_governor(Arc::clone(&governor));
    let mut ctx = ExecutionContext::new(settings, formats.clone());
    let output = plan.execute(source, &mut ctx);
    Observed {
        output,
        records: ctx.records().to_vec(),
        labels: ctx.timings().iter().map(|(l, _)| l.clone()).collect(),
        materialized_bytes: governor.used_bytes() - governor.transient_peak_bytes(),
        transient_peak_bytes: governor.transient_peak_bytes(),
        bytes_avoided: ctx.intermediate_bytes_avoided(),
    }
}

fn check_plan(name: &str, plan: &QueryPlan, source: &dyn ColumnSource, formats: &FormatConfig) {
    let base = ExecSettings::vectorized_compressed();
    let [unfused, sized, encoded] =
        three_settings(&base).map(|(_, settings)| observe(plan, source, settings, formats));
    assert!(sized.bytes_avoided > 0, "{name}: nothing fused");
    assert_eq!(sized, encoded, "{name}: sized vs encoded interiors");
    assert_eq!(
        Observed {
            bytes_avoided: sized.bytes_avoided,
            transient_peak_bytes: sized.transient_peak_bytes,
            ..unfused
        },
        sized,
        "{name}: unfused vs sized interiors"
    );
}

fn source(n: u64, format: Format) -> HashMap<String, Column> {
    let column = |f: &dyn Fn(u64) -> u64| {
        let values: Vec<u64> = (0..n).map(f).collect();
        Column::compress(&values, &format)
    };
    HashMap::from([
        ("a".to_string(), column(&|i| i % 97)),
        ("b".to_string(), column(&|i| (i * 7) % 113)),
        ("c".to_string(), column(&|i| i % 11)),
    ])
}

/// select → project → agg: one region over all three non-scan nodes.
fn chain_plan() -> QueryPlan {
    let mut b = PlanBuilder::new("sp");
    let a = b.scan("a");
    let bb = b.scan("b");
    let pos = b.select("pos", a, CmpOp::Lt, 50);
    let bv = b.project("b_at", bb, pos);
    let total = b.agg_sum("total", bv);
    b.finish_scalar(total)
}

/// A two-consumer position list driving the region
/// {b_at, c_at, prod, total}.
fn shared_pos_plan() -> QueryPlan {
    let mut b = PlanBuilder::new("t");
    let a = b.scan("a");
    let bb = b.scan("b");
    let cc = b.scan("c");
    let pos = b.select("pos", a, CmpOp::Lt, 50);
    let bv = b.project("b_at", bb, pos);
    let cv = b.project("c_at", cc, pos);
    let prod = b.calc_binary("prod", BinaryOp::Mul, bv, cv);
    let total = b.agg_sum("total", prod);
    b.finish_scalar(total)
}

fn per_edge_formats() -> FormatConfig {
    FormatConfig::with_default(Format::DynBp)
        .set("sp/pos", Format::DeltaDynBp)
        .set("sp/b_at", Format::StaticBp(7))
        .set("t/pos", Format::Rle)
        .set("t/b_at", Format::ForDynBp)
        .set("t/c_at", Format::Uncompressed)
        .set("t/prod", Format::DeltaDynBp)
}

#[test]
fn sized_interiors_are_observably_identical_on_hand_built_plans() {
    for (format, formats) in [
        (Format::DynBp, FormatConfig::with_default(Format::DynBp)),
        (
            Format::DeltaDynBp,
            FormatConfig::with_default(Format::DeltaDynBp),
        ),
        (Format::Uncompressed, per_edge_formats()),
    ] {
        let source = source(9000, format);
        for (name, plan) in [("chain", chain_plan()), ("shared pos", shared_pos_plan())] {
            check_plan(&format!("{name} / {format}"), &plan, &source, &formats);
        }
    }
}

#[test]
fn sized_interiors_are_observably_identical_on_ssb_plans() {
    let raw = dbgen::generate(0.004, 7);
    let per_edge = FormatConfig::with_default(Format::StaticBp(26))
        .set("1.1/lo_pos", Format::DeltaDynBp)
        .set("2.1/lo_pos", Format::Uncompressed)
        .set("3.2/revenue_at_pos", Format::ForDynBp)
        .set("4.1/group_year", Format::Rle)
        .set("4.1/group_year_reps", Format::DeltaDynBp);
    let configs = [
        (
            raw.with_uniform_format(&Format::DynBp),
            FormatConfig::with_default(Format::DynBp),
        ),
        (
            raw.with_uniform_format(&Format::DeltaDynBp),
            FormatConfig::with_default(Format::DeltaDynBp),
        ),
        (raw.with_narrow_static_bp(false), per_edge),
    ];
    let mut fusible = 0;
    for (data, formats) in &configs {
        for query in SsbQuery::all() {
            let plan = query.plan();
            if FusionPlan::analyze(&plan).region_count() == 0 {
                continue;
            }
            fusible += 1;
            check_plan(&query.to_string(), &plan, data, formats);
        }
    }
    assert!(fusible >= 3 * 8, "only {fusible} fusible SSB runs");
}

/// A budget one byte short of the charges up to and including the first
/// interior of the region trips on that interior's charge — with the same
/// `MemoryExceeded` in all three runs, and no records merged.  (The
/// hand-built plans have no node between a region's first member and its
/// root, so the charge sequence up to the interior is schedule-independent.)
#[test]
fn a_budget_tripping_on_an_interior_fails_identically() {
    let formats = FormatConfig::with_default(Format::DeltaDynBp);
    let source = source(9000, Format::DynBp);
    for (plan, interior) in [(chain_plan(), "sp/pos"), (shared_pos_plan(), "t/b_at")] {
        let reference = observe(
            &plan,
            &source,
            ExecSettings::vectorized_compressed(),
            &formats,
        );
        let mut charged = 0;
        for record in reference.records.iter().filter(|r| !r.is_base) {
            charged += record.bytes;
            if record.name == interior {
                break;
            }
        }
        let budget = charged - 1;
        let expected = ExecError::MemoryExceeded {
            used_bytes: charged,
            budget_bytes: budget,
        };
        for (run, settings) in three_settings(&ExecSettings::vectorized_compressed()) {
            let governor = Arc::new(QueryGovernor::new().with_memory_budget(budget));
            let mut ctx = ExecutionContext::new(settings.with_governor(governor), formats.clone());
            let error = plan
                .try_execute(&source, &mut ctx)
                .expect_err("the budget must trip");
            assert_eq!(error, expected, "{interior} {run}");
            assert!(ctx.records().is_empty(), "{interior} {run}: records merged");
        }
    }
}
