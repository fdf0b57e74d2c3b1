//! `scan_compressed`: the paper's §5.1 simple query
//! `SELECT SUM(Y) FROM R WHERE X = c` at 90 % selectivity over three
//! synthetic column pairs.  Select, project, sum and the codec kernels do
//! all the work; joins, group-by, SQL, server and cache do none.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;

use morph_compression::Format;
use morph_cost::strategy::cost_based_format;
use morph_cost::SelectionObjective;
use morph_storage::datagen::SyntheticColumn;
use morph_storage::Column;
use morphstore_engine::exec::FormatConfig;
use morphstore_engine::plan::{PlanBuilder, PlanExecutor, QueryPlan};
use morphstore_engine::{CmpOp, ExecSettings, ExecutionContext, QueryTracer};

use crate::harness::{
    busy, finish_traced_pass, peak_rss_mib, repeat_set_up, run_sweeps, FirstOutputs, Report,
    RunConfig, SpanRecorder,
};
use crate::layers::{static_layers, EngineCounters, SetUpLayers};

/// Values per column in the full run (8 MiB uncompressed each).
pub const VALUES: usize = 1 << 20;
/// Values per column on the `--smoke` path.
pub const SMOKE_VALUES: usize = 1 << 16;

/// The (X, Y) column pairs of the paper's three cases.
const CASES: [(&str, SyntheticColumn, SyntheticColumn); 3] = [
    ("case1", SyntheticColumn::C1, SyntheticColumn::C1),
    ("case2", SyntheticColumn::C1, SyntheticColumn::C4),
    ("case3", SyntheticColumn::C2, SyntheticColumn::C3),
];

/// One case, ready to run: compressed base columns, the predicate constant,
/// per-edge formats, and the sum a plain fold over the raw values gives.
struct Case {
    label: &'static str,
    columns: HashMap<String, Column>,
    constant: u64,
    formats: FormatConfig,
    expected_sum: u64,
}

struct Cases {
    cases: Vec<Case>,
    layers: SetUpLayers,
}

fn plan(label: &str, constant: u64) -> QueryPlan {
    let mut p = PlanBuilder::new(label);
    let x = p.scan("X");
    let y = p.scan("Y");
    let positions = p.select("pos", x, CmpOp::Eq, constant);
    let projected = p.project("proj", y, positions);
    let sum = p.agg_sum("sum", projected);
    p.finish_scalar(sum)
}

fn runtime_format(column: &Column) -> Format {
    cost_based_format(column.stats(), SelectionObjective::Runtime)
}

fn set_up(values: usize, seed: u64) -> Cases {
    let mut tuning_s = 0.0;
    let mut compress_s = 0.0;
    let mut distinct = BTreeSet::new();
    let cases = CASES
        .iter()
        .map(|&(label, x_kind, y_kind)| {
            let (x_values, constant) = x_kind.generate_select_input(values, seed);
            let y_values = y_kind.generate(values, seed + 1);
            let expected_sum = x_values
                .iter()
                .zip(&y_values)
                .filter(|(x, _)| **x == constant)
                .fold(0u64, |sum, (_, y)| sum.wrapping_add(*y));
            let raw: HashMap<String, Column> = HashMap::from([
                ("X".to_string(), Column::from_vec(x_values)),
                ("Y".to_string(), Column::from_vec(y_values)),
            ]);

            // Formats for the two base columns and the two intermediates,
            // each from the statistics of the data it will hold.
            let started = Instant::now();
            let plan = plan(label, constant);
            let mut ctx = ExecutionContext::new(
                ExecSettings::vectorized_uncompressed(),
                FormatConfig::uncompressed(),
            );
            ctx.enable_capture();
            PlanExecutor.execute(&plan, &raw, &mut ctx);
            let mut formats = FormatConfig::default();
            for edge in plan.edges() {
                let column = if edge.is_base {
                    raw.get(&edge.name)
                } else {
                    ctx.captured_columns().get(&edge.name)
                };
                if let Some(column) = column {
                    let format = runtime_format(column);
                    distinct.insert(format.to_string());
                    formats.insert(&edge.name, format);
                }
            }
            tuning_s += started.elapsed().as_secs_f64();

            let started = Instant::now();
            let columns = raw
                .iter()
                .map(|(name, column)| {
                    let format = formats.format_for(name, Format::Uncompressed);
                    (name.clone(), column.to_format(&format))
                })
                .collect();
            compress_s += started.elapsed().as_secs_f64();
            Case {
                label,
                columns,
                constant,
                formats,
                expected_sum,
            }
        })
        .collect();
    Cases {
        cases,
        layers: SetUpLayers {
            dbgen_s: 0.0,
            tuning_s,
            tuning_count: CASES.len(),
            compress_s,
            distinct_formats: distinct.len(),
        },
    }
}

fn settings() -> ExecSettings {
    ExecSettings::vectorized_compressed().with_fusion()
}

pub fn run(config: &RunConfig) -> Report {
    let values = if config.smoke { SMOKE_VALUES } else { VALUES };
    let (db, setup_s) = repeat_set_up(config, || set_up(values, config.seed));
    let mut report = Report {
        setup_s,
        ops_per_block: db.cases.len(),
        ..Report::default()
    };

    // Timed phase: no tracer attached, no spans recorded.
    let mut outputs = FirstOutputs::new(db.cases.len());
    let mut footprints = vec![0usize; db.cases.len()];
    report.timed = run_sweeps(config.timed_phase(), db.cases.len(), |index| {
        let case = &db.cases[index];
        let started = Instant::now();
        let plan = plan(case.label, case.constant);
        let mut ctx = ExecutionContext::new(settings(), case.formats.clone());
        let output = PlanExecutor.try_execute(&plan, &case.columns, &mut ctx);
        let latency_ms = started.elapsed().as_secs_f64() * 1e3;
        footprints[index] = ctx.total_footprint_bytes();
        output
            .map_err(|e| eprintln!("morphbench: {}: {e}", case.label))
            .is_ok_and(|output| outputs.consistent(index, output.values))
            .then_some(latency_ms)
    });
    report.footprint_bytes = footprints.iter().sum();
    report.peak_rss_mib = peak_rss_mib();

    // Reference check against the plain fold computed from the raw values.
    let started = Instant::now();
    for (index, case) in db.cases.iter().enumerate() {
        if outputs.get(index) != Some(&vec![case.expected_sum]) {
            eprintln!("morphbench: {} disagrees with the plain fold", case.label);
            report.timed.failed += report.timed.block_s.len() as u64;
        }
    }
    report.verify_s = started.elapsed().as_secs_f64();

    if config.trace {
        traced_pass(config, &db, &outputs, &mut report);
    }
    report
}

fn traced_pass(
    config: &RunConfig,
    db: &Cases,
    outputs: &FirstOutputs<Vec<u64>>,
    report: &mut Report,
) {
    let mut recorder = SpanRecorder::new(true);
    let mut engine = EngineCounters::default();
    let mut op_id = 0u64;
    let traced = run_sweeps(config.traced_phase(), db.cases.len(), |index| {
        let case = &db.cases[index];
        op_id += 1;
        let started = Instant::now();
        let ok = recorder.span("op", op_id, |rec| {
            let plan = rec.span("engine.plan", op_id, |_| plan(case.label, case.constant));
            let tracer = Arc::new(QueryTracer::new());
            let mut ctx = ExecutionContext::new(
                settings().with_tracer(Arc::clone(&tracer)),
                case.formats.clone(),
            );
            let output = rec.span("engine.execute", op_id, |_| {
                PlanExecutor.try_execute(&plan, &case.columns, &mut ctx)
            });
            engine.absorb(&ctx, tracer.last_trace().as_deref());
            rec.span("harness.verify", op_id, |_| {
                output.is_ok_and(|output| Some(&output.values) == outputs.get(index))
            })
        });
        ok.then_some(started.elapsed().as_secs_f64() * 1e3)
    });

    let layers = &mut report.layers;
    let (execute_s, _) = busy(recorder.spans(), "engine.execute");
    engine.export(execute_s, 1, layers);
    let base: Vec<&Column> = db.cases.iter().flat_map(|c| c.columns.values()).collect();
    static_layers(&db.layers, &base, config.smoke, layers);

    let engine_spans = engine.node_spans;
    finish_traced_pass(config, report, &traced, recorder.spans(), engine_spans);
}
