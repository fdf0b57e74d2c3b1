//! The paper's table and figures as functions that return their rows.
//!
//! Each function computes one figure and returns typed rows with exact byte
//! counts and mean runtimes; printing them is the `repro` binary's job, and
//! `tests/paper_claims.rs` checks the paper's footprint claims on the same
//! rows.  Where a figure compares configurations of one query, every
//! configuration must return the same result rows, or the function panics.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use morph_compression::{compressed_size_bytes, Format};
use morph_cost::{greedy_runtime_search, FormatSelectionStrategy};
use morph_ssb::{SsbData, SsbQuery};
use morph_storage::datagen::SyntheticColumn;
use morph_storage::{Column, ColumnStats};
use morphstore_engine::exec::FormatConfig;
use morphstore_engine::plan::{PlanBuilder, PlanExecutor, QueryPlan};
use morphstore_engine::{
    select, CmpOp, ExecSettings, ExecutionContext, IntegrationDegree, Predicate, ProcessingStyle,
};

use crate::{assignable_columns, base_only_config, measure_query, runtime_cost_based_config};

/// Table 1's properties of one synthetic column.
#[derive(Debug, Clone)]
pub struct ColumnProperties {
    /// The column.
    pub column: SyntheticColumn,
    /// Its value distribution, as Table 1 states it.
    pub distribution: &'static str,
    /// Whether the generated values are sorted.
    pub sorted: bool,
    /// Bit width of the largest value.
    pub max_bit_width: u8,
    /// Number of distinct values.
    pub distinct: usize,
    /// Number of runs of equal values.
    pub runs: usize,
}

/// The exact size of one synthetic column in one format.
#[derive(Debug, Clone)]
pub struct FormatSize {
    /// The column.
    pub column: SyntheticColumn,
    /// The format.
    pub format: Format,
    /// Compressed size in bytes.
    pub bytes: usize,
}

/// Table 1: the synthetic columns' properties and, as context, their size
/// in every format.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// One row per column C1–C4.
    pub columns: Vec<ColumnProperties>,
    /// One row per column and format.
    pub sizes: Vec<FormatSize>,
}

/// Table 1 over `elements` values per column.
pub fn table1(elements: usize, seed: u64) -> Table1 {
    let distributions = [
        "uniform in [0,63]",
        "99.99% uniform in [0,63]; 0.01% 2^63-1",
        "uniform in [2^62, 2^62+63]",
        "uniform in [2^47, 2^47+100K]",
    ];
    let mut table = Table1 {
        columns: Vec::new(),
        sizes: Vec::new(),
    };
    for (column, distribution) in SyntheticColumn::all().into_iter().zip(distributions) {
        let values = column.generate(elements, seed);
        let stats = ColumnStats::from_values(&values);
        table.columns.push(ColumnProperties {
            column,
            distribution,
            sorted: stats.sorted,
            max_bit_width: stats.max_bit_width(),
            distinct: values.iter().collect::<HashSet<_>>().len(),
            runs: stats.runs,
        });
        for format in Format::all_formats(stats.max) {
            let bytes = compressed_size_bytes(&format, &values);
            table.sizes.push(FormatSize {
                column,
                format,
                bytes,
            });
        }
    }
    table
}

/// One select-operator run of Figure 5.
#[derive(Debug, Clone)]
pub struct SelectRun {
    /// The synthetic input column.
    pub column: SyntheticColumn,
    /// Format of the input column.
    pub input: Format,
    /// Format of the output positions.
    pub output: Format,
    /// Mean runtime.
    pub runtime: Duration,
    /// Number of selected positions.
    pub selected: usize,
}

/// Figure 5: the select operator (point predicate, 90 % selectivity) on C1–C4
/// for every input × output combination of the paper's five formats.  The
/// output's static-BP width fits the positions, the input's the values.
pub fn fig5(elements: usize, runs: usize, seed: u64) -> Vec<SelectRun> {
    let output_formats = Format::paper_formats(elements as u64);
    let mut rows = Vec::new();
    for column in SyntheticColumn::all() {
        let (values, constant) = column.generate_select_input(elements, seed);
        let max = values.iter().copied().max().unwrap_or(0);
        let uncompressed = Column::from_slice(&values);
        for input_format in Format::paper_formats(max) {
            let input = uncompressed.to_format(&input_format);
            for &output in &output_formats {
                let settings = ExecSettings {
                    style: ProcessingStyle::Vectorized,
                    degree: if input_format.is_compressed() || output.is_compressed() {
                        IntegrationDegree::OnTheFlyDeRecompression
                    } else {
                        IntegrationDegree::PurelyUncompressed
                    },
                    ..ExecSettings::default()
                };
                let mut total = Duration::ZERO;
                let mut selected = 0usize;
                for _ in 0..runs.max(1) {
                    let start = Instant::now();
                    let out = select(
                        &input,
                        &Predicate::Cmp(CmpOp::Eq, constant),
                        &output,
                        &settings,
                    );
                    total += start.elapsed();
                    selected = out.logical_len();
                }
                rows.push(SelectRun {
                    column,
                    input: input_format,
                    output,
                    runtime: total / runs.max(1) as u32,
                    selected,
                });
            }
        }
    }
    rows
}

/// One run of Figure 6's simple query: the footprint of each of its four
/// columns, the total, the mean runtime and the result.
#[derive(Debug, Clone)]
pub struct SimpleQueryRun {
    /// The base-column case (`case1` … `case3`).
    pub case: &'static str,
    /// The format configuration.
    pub config: &'static str,
    /// Bytes of the base column X.
    pub x_bytes: usize,
    /// Bytes of the base column Y.
    pub y_bytes: usize,
    /// Bytes of the positions X'.
    pub x_prime_bytes: usize,
    /// Bytes of the projected values Y'.
    pub y_prime_bytes: usize,
    /// Bytes of all columns together.
    pub total_bytes: usize,
    /// Mean runtime.
    pub runtime: Duration,
    /// `SUM(Y)`.
    pub sum: u64,
}

/// The label of the simple query's plan, the prefix of its intermediates'
/// record names (`"fig6/X'"`, `"fig6/Y'"`).
const LABEL: &str = "fig6";

/// `SELECT SUM(Y) FROM R WHERE X = c` as a plan: scan X, scan Y,
/// select X', project Y', sum.
fn simple_query(constant: u64) -> QueryPlan {
    let mut p = PlanBuilder::new(LABEL);
    let x = p.scan("X");
    let y = p.scan("Y");
    let positions = p.select("X'", x, CmpOp::Eq, constant);
    let projected = p.project("Y'", y, positions);
    let sum = p.agg_sum("sum", projected);
    p.finish_scalar(sum)
}

/// Figure 6: `SELECT SUM(Y) FROM R WHERE X = c` for the three base-column
/// cases of Section 5.1 — (X=C1, Y=C1), (X=C1, Y=C4), (X=C2, Y=C3), the
/// constant selecting 90 % — under five format configurations.  Static-BP
/// widths fit the case's values, and the positions' fit `elements`.
pub fn fig6(elements: usize, runs: usize, seed: u64) -> Vec<SimpleQueryRun> {
    use Format::{DeltaDynBp, ForDynBp, Uncompressed};
    use IntegrationDegree::{OnTheFlyDeRecompression, PurelyUncompressed};
    let cases = [
        ("case1", SyntheticColumn::C1, SyntheticColumn::C1),
        ("case2", SyntheticColumn::C1, SyntheticColumn::C4),
        ("case3", SyntheticColumn::C2, SyntheticColumn::C3),
    ];
    let positions_bp = Format::static_bp_for_max(elements as u64);
    let mut rows = Vec::new();
    for (case, x_column, y_column) in cases {
        let (x_values, constant) = x_column.generate_select_input(elements, seed);
        let y_values = y_column.generate(elements, seed + 1);
        let max = x_values.iter().chain(&y_values).copied().max().unwrap_or(0);
        let values_bp = Format::static_bp_for_max(max);
        // (label, base X and Y, X', Y'); compressed bases are processed
        // on the fly, the uncompressed one purely uncompressed.
        let configs = [
            ("uncompressed", Uncompressed, Uncompressed, Uncompressed),
            (
                "static BP (base only)",
                values_bp,
                Uncompressed,
                Uncompressed,
            ),
            (
                "static BP (base + intermediates)",
                values_bp,
                positions_bp,
                values_bp,
            ),
            (
                "DELTA+SIMD-BP X' / static BP rest",
                values_bp,
                DeltaDynBp,
                values_bp,
            ),
            (
                "DELTA+SIMD-BP X' / FOR+SIMD-BP Y'",
                values_bp,
                DeltaDynBp,
                ForDynBp,
            ),
        ];
        let x = Column::from_slice(&x_values);
        let y = Column::from_slice(&y_values);
        let plan = simple_query(constant);
        let mut reference_sum = None;
        for (config, base, positions, projected) in configs {
            let settings = ExecSettings {
                degree: if base.is_compressed() {
                    OnTheFlyDeRecompression
                } else {
                    PurelyUncompressed
                },
                ..ExecSettings::default()
            };
            let formats = FormatConfig::uncompressed()
                .set(&format!("{LABEL}/X'"), positions)
                .set(&format!("{LABEL}/Y'"), projected);
            let mut total_runtime = Duration::ZERO;
            let mut outcome = None;
            for _ in 0..runs.max(1) {
                let mut ctx = ExecutionContext::new(settings.clone(), formats.clone());
                let start = Instant::now();
                let source = HashMap::from([
                    ("X".to_string(), x.to_format(&base)),
                    ("Y".to_string(), y.to_format(&base)),
                ]);
                let output = PlanExecutor.execute(&plan, &source, &mut ctx);
                total_runtime += start.elapsed();
                outcome = Some((output.values[0], ctx));
            }
            let (sum, ctx) = outcome.expect("at least one run");
            match reference_sum {
                None => reference_sum = Some(sum),
                Some(reference) => {
                    assert_eq!(sum, reference, "{case}: result changed under {config}")
                }
            }
            let size_of = |name: &str| {
                ctx.records()
                    .iter()
                    .find(|r| r.name == name)
                    .map(|r| r.bytes)
                    .unwrap_or(0)
            };
            rows.push(SimpleQueryRun {
                case,
                config,
                x_bytes: size_of("X"),
                y_bytes: size_of("Y"),
                x_prime_bytes: size_of(&format!("{LABEL}/X'")),
                y_prime_bytes: size_of(&format!("{LABEL}/Y'")),
                total_bytes: ctx.total_footprint_bytes(),
                runtime: total_runtime / runs.max(1) as u32,
                sum,
            });
        }
    }
    rows
}

/// One SSB query under one configuration (Figures 7–10).
#[derive(Debug, Clone)]
pub struct SsbRun {
    /// The query.
    pub query: SsbQuery,
    /// The configuration's label.
    pub config: &'static str,
    /// Footprint of base columns and intermediates, in bytes.
    pub footprint_bytes: usize,
    /// Mean runtime.
    pub runtime: Duration,
}

/// Measure `query` under each `(label, base data, settings, formats)`
/// configuration, assert that all of them return the same rows, and append
/// one [`SsbRun`] per configuration to `rows`.  The configurations are
/// built one at a time, so at most one re-encoded copy of the data lives.
fn measure_configs<'a>(
    query: SsbQuery,
    runs: usize,
    configs: impl IntoIterator<Item = (&'static str, Cow<'a, SsbData>, ExecSettings, FormatConfig)>,
    rows: &mut Vec<SsbRun>,
) {
    let mut reference_rows = None;
    for (config, base, settings, formats) in configs {
        let measurement = measure_query(query, &base, settings, &formats, runs);
        let result = measurement.result.sorted_rows();
        match &reference_rows {
            None => reference_rows = Some(result),
            Some(reference) => {
                assert_eq!(&result, reference, "{query}: result changed under {config}")
            }
        }
        rows.push(SsbRun {
            query,
            config,
            footprint_bytes: measurement.footprint_bytes,
            runtime: measurement.runtime,
        });
    }
}

/// Measure `query` under each labelled format configuration, applied to the
/// base columns and the intermediates alike, with vectorised processing.
fn measure_formats(
    query: SsbQuery,
    data: &SsbData,
    runs: usize,
    configs: impl IntoIterator<Item = (&'static str, FormatConfig)>,
    rows: &mut Vec<SsbRun>,
) {
    let configs = configs.into_iter().map(|(label, formats)| {
        (
            label,
            Cow::Owned(data.with_formats(&formats)),
            ExecSettings::vectorized_compressed(),
            formats,
        )
    });
    measure_configs(query, runs, configs, rows);
}

/// Figure 7: every SSB query under the worst, purely uncompressed, static-BP
/// and best format combination.  Best and worst are the exhaustive
/// per-column footprint search, or with `greedy` the paper's greedy
/// measured-runtime search (expensive).
pub fn fig7(data: &SsbData, runs: usize, greedy: bool) -> Vec<SsbRun> {
    use FormatSelectionStrategy::{
        AllStaticBp, AllUncompressed, ExhaustiveBestFootprint, ExhaustiveWorstFootprint,
    };
    let mut rows = Vec::new();
    for query in SsbQuery::all() {
        let columns = assignable_columns(query, data);
        let combination = |strategy: FormatSelectionStrategy| {
            let config = match strategy {
                ExhaustiveBestFootprint | ExhaustiveWorstFootprint if greedy => {
                    let maxima: Vec<(String, u64)> = columns
                        .iter()
                        .map(|(name, column)| (name.clone(), ColumnStats::from_column(column).max))
                        .collect();
                    greedy_runtime_search(
                        &maxima,
                        |candidate| {
                            let base = data.with_formats(candidate);
                            measure_query(
                                query,
                                &base,
                                ExecSettings::vectorized_compressed(),
                                candidate,
                                1,
                            )
                            .runtime
                        },
                        strategy == ExhaustiveBestFootprint,
                    )
                }
                _ => strategy.build_config(&columns),
            };
            (strategy.label(), config)
        };
        let strategies = [
            ExhaustiveWorstFootprint,
            AllUncompressed,
            AllStaticBp,
            ExhaustiveBestFootprint,
        ];
        measure_formats(query, data, runs, strategies.map(combination), &mut rows);
    }
    rows
}

/// Figure 8: every SSB query uncompressed, with the best footprint formats
/// on the base columns only, and on base columns and intermediates.
pub fn fig8(data: &SsbData, runs: usize) -> Vec<SsbRun> {
    let mut rows = Vec::new();
    for query in SsbQuery::all() {
        let best = FormatSelectionStrategy::ExhaustiveBestFootprint
            .build_config(&assignable_columns(query, data));
        let configs = [
            ("uncompressed", FormatConfig::uncompressed()),
            ("compressed base columns", base_only_config(query, &best)),
            ("compressed base + intermediates", best),
        ];
        measure_formats(query, data, runs, configs, &mut rows);
    }
    rows
}

/// The series of Figure 9 that runs uncompressed scalar processing: it is
/// both the "MonetDB scalar uncompr." baseline and MorphStore's scalar
/// series (DESIGN.md, Substitutions).
pub const SCALAR_UNCOMPRESSED: &str = "monetdb-like / morphstore scalar uncompressed";

/// Figure 9 (and Figure 1's averages): every SSB query as the MonetDB-like
/// baseline and MorphStore's configurations — scalar uncompressed
/// ([`SCALAR_UNCOMPRESSED`]), vectorised uncompressed, vectorised with the
/// runtime-objective cost-based formats, and the MonetDB-like narrow types
/// (byte-aligned static BP on the base columns, scalar).
pub fn fig9(data: &SsbData, runs: usize) -> Vec<SsbRun> {
    let narrow_base = data.with_narrow_static_bp(true);
    let mut rows = Vec::new();
    for query in SsbQuery::all() {
        let best = runtime_cost_based_config(&assignable_columns(query, data));
        let configs = [
            (
                SCALAR_UNCOMPRESSED,
                Cow::Borrowed(data),
                ExecSettings::scalar_uncompressed(),
                FormatConfig::uncompressed(),
            ),
            (
                "morphstore vectorized uncompressed",
                Cow::Borrowed(data),
                ExecSettings::vectorized_uncompressed(),
                FormatConfig::uncompressed(),
            ),
            (
                "morphstore vectorized compressed",
                Cow::Owned(data.with_formats(&best)),
                ExecSettings::vectorized_compressed(),
                best,
            ),
            (
                "monetdb-like scalar narrow types",
                Cow::Borrowed(&narrow_base),
                ExecSettings::scalar_uncompressed(),
                base_only_config(query, &FormatConfig::uncompressed()),
            ),
        ];
        measure_configs(query, runs, configs, &mut rows);
    }
    rows
}

/// Figure 10: every SSB query's footprint under static BP everywhere, the
/// cost-based selection and the exhaustive best combination (one run each).
pub fn fig10(data: &SsbData) -> Vec<SsbRun> {
    use FormatSelectionStrategy::{AllStaticBp, CostBased, ExhaustiveBestFootprint};
    let mut rows = Vec::new();
    for query in SsbQuery::all() {
        let columns = assignable_columns(query, data);
        let configs = [AllStaticBp, CostBased, ExhaustiveBestFootprint]
            .map(|strategy| (strategy.label(), strategy.build_config(&columns)));
        measure_formats(query, data, 1, configs, &mut rows);
    }
    rows
}
