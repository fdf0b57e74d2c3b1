//! The three `ssb_*` workloads: the 13 SSB queries as SQL over one generated
//! database, executed serially with cost-chosen formats (`ssb_compressed`),
//! serially on uncompressed data (`ssb_uncompressed`, the bypass control),
//! and on two threads with fusion and morsels (`ssb_parallel`).

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;

use morph_compression::Format;
use morph_cost::FormatSelectionStrategy;
use morph_sql::{Catalog, CompiledQuery};
use morph_ssb::{dbgen, reference, ssb_catalog, QueryResult, SsbData, SsbQuery};
use morph_storage::Column;
use morphstore_engine::exec::FormatConfig;
use morphstore_engine::plan::PlanOutput;
use morphstore_engine::{ExecSettings, ExecutionContext, QueryTracer};

use crate::harness::{
    busy, finish_traced_pass, peak_rss_mib, repeat_set_up, run_sweeps, FirstOutputs, Report,
    RunConfig, SpanRecorder,
};
use crate::layers::{sql_layers, static_layers, EngineCounters, SetUpLayers};

/// SSB scale factor of the full run: 600 k `lineorder` rows, 43 MiB of
/// uncompressed base data.
pub const SCALE_FACTOR: f64 = 0.1;
/// Scale factor of the `--smoke` path.
pub const SMOKE_SCALE_FACTOR: f64 = 0.005;
/// Worker threads per query in `ssb_parallel` (the box has two cores).
pub const PARALLEL_THREADS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    Compressed,
    Uncompressed,
    Parallel,
}

impl Variant {
    fn threads(self) -> usize {
        match self {
            Variant::Parallel => PARALLEL_THREADS,
            _ => 1,
        }
    }
}

/// One query as the timed phase runs it.
struct Prepared {
    query: SsbQuery,
    settings: ExecSettings,
    formats: FormatConfig,
}

/// What set-up produces, with the time each layer took.
struct Database {
    data: SsbData,
    catalog: Catalog,
    queries: Vec<Prepared>,
    layers: SetUpLayers,
}

fn compile(query: SsbQuery, catalog: &Catalog) -> CompiledQuery {
    morph_sql::compile_with_label(query.sql(), catalog, query.label())
        .unwrap_or_else(|e| panic!("{query} does not compile: {e}"))
}

/// The columns a strategy may assign a format to: the plan's base columns,
/// plus its intermediates captured from one uncompressed execution.
fn assignable_columns(compiled: &CompiledQuery, data: &SsbData) -> HashMap<String, Column> {
    let mut ctx = ExecutionContext::new(
        ExecSettings::vectorized_uncompressed(),
        FormatConfig::uncompressed(),
    );
    ctx.enable_capture();
    compiled.execute(data, &mut ctx);
    compiled
        .plan()
        .edges()
        .into_iter()
        .filter_map(|edge| {
            let column = if edge.is_base {
                Some(data.column(&edge.name))
            } else {
                ctx.captured_columns().get(&edge.name)
            };
            column.map(|c| (edge.name, c.clone()))
        })
        .collect()
}

/// Generate the database, let `morph-cost` choose formats (and the morsel
/// threshold) per query, and compress the base columns accordingly.
fn set_up(variant: Variant, scale_factor: f64, seed: u64) -> Database {
    let started = Instant::now();
    let raw = dbgen::generate(scale_factor, seed);
    let dbgen_s = started.elapsed().as_secs_f64();
    let catalog = ssb_catalog();

    let started = Instant::now();
    let mut base_formats = FormatConfig::default();
    let mut distinct = BTreeSet::new();
    let mut tuning_count = 0;
    let queries: Vec<Prepared> = SsbQuery::all()
        .into_iter()
        .map(|query| {
            if variant == Variant::Uncompressed {
                return Prepared {
                    query,
                    settings: ExecSettings::vectorized_uncompressed(),
                    formats: FormatConfig::uncompressed(),
                };
            }
            let compiled = compile(query, &catalog);
            let columns = assignable_columns(&compiled, &raw);
            let strategy = FormatSelectionStrategy::CostBased;
            let mut settings = ExecSettings::vectorized_compressed();
            let formats = if variant == Variant::Parallel {
                let tuning = strategy.build_tuning_for_plan(compiled.plan(), &columns);
                settings = settings.with_fusion();
                settings.morsel_threshold = tuning.morsel_threshold;
                tuning.formats
            } else {
                strategy.build_config_for_plan(compiled.plan(), &columns)
            };
            tuning_count += 1;
            for name in formats.explicit_columns() {
                let format = formats.format_for(name, Format::Uncompressed);
                distinct.insert(format.to_string());
                if !name.contains('/') {
                    base_formats.insert(name, format);
                }
            }
            Prepared {
                query,
                settings,
                formats,
            }
        })
        .collect();
    let tuning_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let data = if variant == Variant::Uncompressed {
        raw
    } else {
        raw.with_formats(&base_formats)
    };
    let compress_s = started.elapsed().as_secs_f64();
    Database {
        data,
        catalog,
        queries,
        layers: SetUpLayers {
            dbgen_s,
            tuning_s,
            tuning_count,
            compress_s,
            distinct_formats: distinct.len(),
        },
    }
}

fn execute(
    variant: Variant,
    compiled: &CompiledQuery,
    data: &SsbData,
    ctx: &mut ExecutionContext,
) -> Option<PlanOutput> {
    let result = match variant {
        Variant::Parallel => compiled.try_execute_parallel(data, ctx, PARALLEL_THREADS),
        _ => compiled.try_execute(data, ctx),
    };
    result
        .map_err(|e| eprintln!("morphbench: {}: {e}", compiled.plan().label()))
        .ok()
}

pub fn run(variant: Variant, config: &RunConfig) -> Report {
    let scale_factor = if config.smoke {
        SMOKE_SCALE_FACTOR
    } else {
        SCALE_FACTOR
    };
    let (db, setup_s) = repeat_set_up(config, || set_up(variant, scale_factor, config.seed));
    let mut report = Report {
        setup_s,
        ops_per_block: db.queries.len(),
        ..Report::default()
    };

    // Timed phase: no tracer attached, no spans recorded.
    let mut outputs = FirstOutputs::new(db.queries.len());
    let mut footprints = vec![0usize; db.queries.len()];
    report.timed = run_sweeps(config.timed_phase(), db.queries.len(), |index| {
        let prepared = &db.queries[index];
        let started = Instant::now();
        let compiled = compile(prepared.query, &db.catalog);
        let mut ctx = ExecutionContext::new(prepared.settings.clone(), prepared.formats.clone());
        let output = execute(variant, &compiled, &db.data, &mut ctx);
        let latency_ms = started.elapsed().as_secs_f64() * 1e3;
        footprints[index] = ctx.total_footprint_bytes();
        output
            .is_some_and(|output| outputs.consistent(index, output))
            .then_some(latency_ms)
    });
    report.footprint_bytes = footprints.iter().sum();
    report.peak_rss_mib = peak_rss_mib();

    // Reference check, outside set-up and the timed phase.
    let started = Instant::now();
    for (index, prepared) in db.queries.iter().enumerate() {
        let expected = reference::evaluate(prepared.query, &db.data);
        let matches = outputs.get(index).is_some_and(|output| {
            let actual = QueryResult {
                group_keys: output.group_keys.clone(),
                values: output.values.clone(),
            };
            actual.sorted_rows() == expected.sorted_rows()
        });
        if !matches {
            eprintln!(
                "morphbench: {} disagrees with the row-wise reference",
                prepared.query
            );
            // Every timed execution of the query returned this output.
            report.timed.failed += report.timed.block_s.len() as u64;
        }
    }
    report.verify_s = started.elapsed().as_secs_f64();

    if config.trace {
        traced_pass(variant, config, &db, &outputs, &mut report);
    }
    report
}

/// The traced pass: the same ops with a `QueryTracer` attached and harness
/// spans around every call into a layer, plus the codec and vector probes.
fn traced_pass(
    variant: Variant,
    config: &RunConfig,
    db: &Database,
    outputs: &FirstOutputs<PlanOutput>,
    report: &mut Report,
) {
    let mut recorder = SpanRecorder::new(true);
    let mut engine = EngineCounters::default();
    let mut plan_nodes = 0u64;
    let mut op_id = 0u64;
    let traced = run_sweeps(config.traced_phase(), db.queries.len(), |index| {
        let prepared = &db.queries[index];
        op_id += 1;
        let sql = prepared.query.sql();
        let started = Instant::now();
        let ok = recorder.span("op", op_id, |rec| {
            rec.span("sql.parse", op_id, |_| morph_sql::parse(sql).is_ok());
            let compiled = rec.span("sql.compile", op_id, |_| {
                compile(prepared.query, &db.catalog)
            });
            plan_nodes += compiled.plan().node_count() as u64;
            let tracer = Arc::new(QueryTracer::new());
            let settings = prepared.settings.clone().with_tracer(Arc::clone(&tracer));
            let mut ctx = ExecutionContext::new(settings, prepared.formats.clone());
            let output = rec.span("engine.execute", op_id, |_| {
                execute(variant, &compiled, &db.data, &mut ctx)
            });
            engine.absorb(&ctx, tracer.last_trace().as_deref());
            rec.span("harness.verify", op_id, |_| {
                output.is_some() && output.as_ref() == outputs.get(index)
            })
        });
        ok.then_some(started.elapsed().as_secs_f64() * 1e3)
    });

    let layers = &mut report.layers;
    let spans = recorder.spans();
    sql_layers(spans, plan_nodes, layers);
    let (execute_s, _) = busy(spans, "engine.execute");
    engine.export(execute_s, variant.threads(), layers);
    // All base columns as stored: the ones no query reads stay
    // uncompressed and count towards the base size too.
    let names = db.data.column_names();
    let base: Vec<&Column> = names.iter().map(|n| db.data.column(n)).collect();
    static_layers(&db.layers, &base, config.smoke, layers);

    let engine_spans = engine.node_spans;
    finish_traced_pass(config, report, &traced, recorder.spans(), engine_spans);
}
