//! Property-based test of the one-record trace: for **any** generated
//! fusible chain, executing under a tracer yields one recorded span per
//! plan node, read off the same node records the execution context merges
//! — across serial, parallel, morsel-splitting and fused execution — with
//! byte-identical results to the untraced execution.  A span's rows and
//! bytes are its node's last footprint record, and its morsel fan-out
//! degree is non-zero only where the scheduler split the node.

use std::collections::HashMap;
use std::sync::Arc;

use morph_compression::Format;
use morph_storage::Column;
use morphstore_engine::exec::FormatConfig;
use morphstore_engine::plan::{PlanBuilder, PlanOutput, QueryPlan};
use morphstore_engine::{
    CmpOp, ExecSettings, ExecutionContext, ParallelExecutor, PlanTrace, QueryTracer,
};
use proptest::prelude::*;

const ROWS: u64 = 4000;

/// One chain stage (same shape as the fusion chain proptest: every stage
/// is single-consumer and position-preserving, so fused runs exercise the
/// region-recording path too).
#[derive(Debug, Clone)]
enum Step {
    SelectLt(u64),
    SelectGt(u64),
    Between(u64, u64),
    Project,
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u64..100).prop_map(Step::SelectLt),
        (0u64..100).prop_map(Step::SelectGt),
        (0u64..60, 0u64..50).prop_map(|(low, span)| Step::Between(low, low + span)),
        Just(Step::Project),
    ]
}

fn source() -> HashMap<String, Column> {
    let mut columns = HashMap::new();
    columns.insert(
        "x".to_string(),
        Column::from_vec((0..ROWS).map(|i| i % 97).collect()),
    );
    columns.insert(
        "d".to_string(),
        Column::from_vec((0..ROWS).map(|i| i % 50).collect()),
    );
    columns
}

fn build_chain(steps: &[Step]) -> QueryPlan {
    let mut b = PlanBuilder::new("chain");
    let x = b.scan("x");
    let d = b.scan("d");
    let mut current = x;
    for (i, s) in steps.iter().enumerate() {
        current = match s {
            Step::SelectLt(c) => b.select(&format!("s{i}"), current, CmpOp::Lt, *c),
            Step::SelectGt(c) => b.select(&format!("s{i}"), current, CmpOp::Gt, *c),
            Step::Between(low, high) => b.select_between(&format!("s{i}"), current, *low, *high),
            Step::Project => b.project(&format!("s{i}"), d, current),
        };
    }
    let total = b.agg_sum("total", current);
    b.finish_scalar(total)
}

/// Execute `plan` under a fresh tracer and return (output, context, trace).
fn traced_run(
    plan: &QueryPlan,
    source: &HashMap<String, Column>,
    settings: ExecSettings,
    formats: &FormatConfig,
    threads: usize,
) -> (PlanOutput, ExecutionContext, Arc<PlanTrace>) {
    let tracer = Arc::new(QueryTracer::new());
    let mut ctx = ExecutionContext::new(settings.with_tracer(Arc::clone(&tracer)), formats.clone());
    let out = if threads > 1 {
        ParallelExecutor::new(threads).execute(plan, source, &mut ctx)
    } else {
        plan.execute(source, &mut ctx)
    };
    let trace = tracer.last_trace().expect("executor published the trace");
    (out, ctx, trace)
}

/// The column node `index` of a `build_chain` plan over `steps` records:
/// the scanned base column, a step's intermediate, or nothing for the
/// final scalar sum.
fn recorded_name(steps: &[Step], index: usize) -> Option<String> {
    match index {
        0 => Some("x".to_string()),
        1 => Some("d".to_string()),
        i if i - 2 < steps.len() => Some(format!("chain/s{}", i - 2)),
        _ => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn spans_match_the_node_records_on_every_schedule(
        steps in prop::collection::vec(step(), 1..5),
        compressed in any::<bool>(),
    ) {
        let source = source();
        let plan = build_chain(&steps);
        let formats = if compressed {
            FormatConfig::with_default(Format::DynBp)
        } else {
            FormatConfig::uncompressed()
        };
        let settings = if compressed {
            ExecSettings::vectorized_compressed()
        } else {
            ExecSettings::scalar_uncompressed()
        };

        // Untraced serial reference for byte-identity.
        let mut ref_ctx = ExecutionContext::new(settings.clone(), formats.clone());
        let ref_out = plan.execute(&source, &mut ref_ctx);

        let configs = [
            ("serial", settings.clone(), 1usize),
            ("serial fused", settings.clone().with_fusion(), 1),
            ("parallel", settings.clone(), 3),
            ("morsel", settings.clone().with_morsel_threshold(256), 3),
            ("parallel fused", settings.clone().with_fusion(), 3),
            (
                "morsel fused",
                settings.clone().with_fusion().with_morsel_threshold(256),
                3,
            ),
        ];
        for (name, run_settings, threads) in configs {
            let morsels = run_settings.morsel_threshold.is_some();
            let fused = run_settings.fusion;
            let (out, ctx, trace) =
                traced_run(&plan, &source, run_settings, &formats, threads);
            prop_assert_eq!(&out, &ref_out, "{}: traced result diverged", name);
            prop_assert_eq!(trace.node_count(), plan.node_count(), "{}", name);
            for index in 0..trace.node_count() {
                let span = trace.node(index);
                prop_assert!(span.is_recorded(), "{}: node {} has no span", name, index);
                // One record: the span is the node's last footprint record.
                let (rows, bytes) = match recorded_name(&steps, index) {
                    Some(column) => {
                        let record = ctx.records().iter().rev().find(|r| r.name == column);
                        let record = record.expect("every column node has a footprint record");
                        (record.len as u64, record.bytes as u64)
                    }
                    None => (0, 0),
                };
                prop_assert_eq!(span.rows(), rows, "{}: node {} rows", name, index);
                prop_assert_eq!(span.bytes(), bytes, "{}: node {} bytes", name, index);
                if !morsels {
                    prop_assert_eq!(span.morsel_parts(), 0, "{}: node {}", name, index);
                }
            }
            // The first step reads all 4 000 rows of `x`, over the threshold
            // of 256, so the unfused morsel schedule splits it.  A fused
            // region fans out only when it is prefix-independent.
            if morsels && !fused {
                let fanned_out = (0..trace.node_count())
                    .any(|index| trace.node(index).morsel_parts() >= 2);
                prop_assert!(fanned_out, "{}: no span reports a fan-out", name);
            }
        }
    }
}
