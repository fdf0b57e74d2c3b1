//! Shared harness code for the benchmark binaries that regenerate the tables
//! and figures of the MorphStore paper.
//!
//! Every binary accepts the same command-line arguments:
//!
//! * `--scale-factor <f>` — SSB scale factor (default 0.05; the paper uses 10),
//! * `--elements <n>` — element count for the micro-benchmarks (default 2 Mi;
//!   the paper uses 128 Mi),
//! * `--runs <n>` — repetitions per measurement, the mean is reported
//!   (default 3; the paper uses 10),
//! * `--seed <n>` — RNG seed (default 42),
//! * `--greedy` — enable the greedy measured runtime search where applicable
//!   (expensive; off by default).
//!
//! Output is CSV-like (comma-separated rows with a header) followed by a
//! short human-readable summary, so results can be recorded in
//! EXPERIMENTS.md or piped into a plotting tool.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use morph_compression::Format;
use morph_cost::FormatSelectionStrategy;
use morph_ssb::{QueryResult, SsbData, SsbQuery};
use morph_storage::Column;
use morphstore_engine::exec::FormatConfig;
use morphstore_engine::{ExecSettings, ExecutionContext};

/// Command-line arguments shared by all harness binaries.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// SSB scale factor.
    pub scale_factor: f64,
    /// Number of data elements for micro-benchmarks.
    pub elements: usize,
    /// Number of repetitions per measurement.
    pub runs: usize,
    /// RNG seed.
    pub seed: u64,
    /// Whether to run the greedy measured runtime search (Figure 7).
    pub greedy: bool,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs {
            scale_factor: 0.05,
            elements: 2 * 1024 * 1024,
            runs: 3,
            seed: 42,
            greedy: false,
        }
    }
}

impl HarnessArgs {
    /// Parse the arguments of the current process (unknown arguments are
    /// ignored so the binaries can also run under `cargo bench`-style
    /// wrappers).
    pub fn parse() -> HarnessArgs {
        let mut args = HarnessArgs::default();
        let mut iter = std::env::args().skip(1);
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--scale-factor" => {
                    if let Some(v) = iter.next().and_then(|v| v.parse().ok()) {
                        args.scale_factor = v;
                    }
                }
                "--elements" => {
                    if let Some(v) = iter.next().and_then(|v| v.parse().ok()) {
                        args.elements = v;
                    }
                }
                "--runs" => {
                    if let Some(v) = iter.next().and_then(|v| v.parse().ok()) {
                        args.runs = v;
                    }
                }
                "--seed" => {
                    if let Some(v) = iter.next().and_then(|v| v.parse().ok()) {
                        args.seed = v;
                    }
                }
                "--greedy" => args.greedy = true,
                _ => {}
            }
        }
        args
    }
}

/// One measurement of an SSB query under a particular configuration.
#[derive(Debug, Clone)]
pub struct QueryMeasurement {
    /// Mean wall-clock runtime over the requested runs.
    pub runtime: Duration,
    /// Total footprint of base columns and intermediates (bytes).
    pub footprint_bytes: usize,
    /// Footprint of the base columns only (bytes).
    pub base_bytes: usize,
    /// Footprint of the intermediates only (bytes).
    pub intermediate_bytes: usize,
    /// The query result (for sanity checks between configurations).
    pub result: QueryResult,
}

/// Execute `query` once and return the result together with the execution
/// context (footprints, timings, optionally captured intermediates).
pub fn run_query_once(
    query: SsbQuery,
    data: &SsbData,
    settings: ExecSettings,
    formats: &FormatConfig,
    capture: bool,
) -> (QueryResult, ExecutionContext) {
    let mut ctx = ExecutionContext::new(settings, formats.clone());
    if capture {
        ctx.enable_capture();
    }
    let result = query.execute(data, &mut ctx);
    (result, ctx)
}

/// Measure `query` under the given configuration: `runs` repetitions, mean
/// runtime, footprints from the last repetition.
pub fn measure_query(
    query: SsbQuery,
    data: &SsbData,
    settings: ExecSettings,
    formats: &FormatConfig,
    runs: usize,
) -> QueryMeasurement {
    let mut total = Duration::ZERO;
    let mut last: Option<(QueryResult, ExecutionContext)> = None;
    for _ in 0..runs.max(1) {
        let start = Instant::now();
        let outcome = run_query_once(query, data, settings.clone(), formats, false);
        total += start.elapsed();
        last = Some(outcome);
    }
    let (result, ctx) = last.expect("at least one run");
    QueryMeasurement {
        runtime: total / runs.max(1) as u32,
        footprint_bytes: ctx.total_footprint_bytes(),
        base_bytes: ctx.base_footprint_bytes(),
        intermediate_bytes: ctx.intermediate_footprint_bytes(),
        result,
    }
}

/// Gather all columns a strategy may assign a format to, enumerated from the
/// query plan's edges: the base columns the plan scans (data from the
/// database) plus every intermediate edge (data from one captured reference
/// execution, run uncompressed, which is format-neutral).
pub fn assignable_columns(query: SsbQuery, data: &SsbData) -> HashMap<String, Column> {
    let (_, ctx) = run_query_once(
        query,
        data,
        ExecSettings::vectorized_uncompressed(),
        &FormatConfig::uncompressed(),
        true,
    );
    let mut columns = HashMap::new();
    for edge in query.plan().edges() {
        let column = if edge.is_base {
            Some(data.column(&edge.name))
        } else {
            ctx.captured_columns().get(&edge.name)
        };
        if let Some(column) = column {
            columns.insert(edge.name, column.clone());
        }
    }
    columns
}

/// Build the format configuration a selection strategy chooses for `query`,
/// scoped to the edges of the query's plan.
pub fn strategy_config(
    query: SsbQuery,
    data: &SsbData,
    strategy: FormatSelectionStrategy,
) -> FormatConfig {
    strategy.build_config_for_plan(&query.plan(), &assignable_columns(query, data))
}

/// Cost-based per-column format selection with the *runtime* objective —
/// the configuration used for the "continuous compression" series of the
/// headline comparison (Figures 1 and 9), where the paper optimises for
/// query runtime rather than for the smallest footprint.
pub fn runtime_cost_based_config(query: SsbQuery, data: &SsbData) -> FormatConfig {
    let stats = assignable_columns(query, data)
        .into_iter()
        .map(|(name, column)| (name, morph_storage::ColumnStats::from_column(&column)))
        .collect();
    morph_cost::cost_based_config(&stats, morph_cost::SelectionObjective::Runtime)
}

/// Apply a configuration to the base columns of the database (the
/// intermediates are controlled by passing the same configuration to the
/// execution context).
pub fn apply_to_base(data: &SsbData, config: &FormatConfig) -> SsbData {
    data.with_formats(config)
}

/// Restrict a configuration to base columns only (intermediates fall back to
/// uncompressed) — used by the Figure 8 experiment.  The base columns come
/// from the query plan's scan edges.
pub fn base_only_config(query: SsbQuery, config: &FormatConfig) -> FormatConfig {
    let mut restricted = FormatConfig::with_default(Format::Uncompressed);
    for name in query.base_columns() {
        restricted.insert(&name, config.format_for(&name, Format::Uncompressed));
    }
    restricted
}

/// Pretty-print a duration in milliseconds with three decimals.
pub fn fmt_ms(duration: Duration) -> String {
    format!("{:.3}", duration.as_secs_f64() * 1e3)
}

/// Pretty-print a byte count in MiB with three decimals.
pub fn fmt_mib(bytes: usize) -> String {
    format!("{:.3}", bytes as f64 / (1024.0 * 1024.0))
}

/// Print a CSV header row.
pub fn print_header(columns: &[&str]) {
    println!("{}", columns.join(","));
}

/// Print a CSV data row.
pub fn print_row(values: &[String]) {
    println!("{}", values.join(","));
}

#[cfg(test)]
mod tests {
    use super::*;
    use morph_ssb::dbgen;

    #[test]
    fn default_args_are_sensible() {
        let args = HarnessArgs::default();
        assert!(args.scale_factor > 0.0);
        assert!(args.runs >= 1);
        assert!(!args.greedy);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_ms(Duration::from_millis(1500)), "1500.000");
        assert_eq!(fmt_mib(1024 * 1024), "1.000");
    }

    #[test]
    fn measure_query_returns_consistent_results_across_configs() {
        let data = dbgen::generate(0.005, 3);
        let uncompressed = measure_query(
            SsbQuery::Q1_1,
            &data,
            ExecSettings::vectorized_uncompressed(),
            &FormatConfig::uncompressed(),
            1,
        );
        let compressed_base = data.with_uniform_format(&Format::DynBp);
        let compressed = measure_query(
            SsbQuery::Q1_1,
            &compressed_base,
            ExecSettings::vectorized_compressed(),
            &FormatConfig::with_default(Format::DynBp),
            1,
        );
        assert_eq!(
            uncompressed.result.sorted_rows(),
            compressed.result.sorted_rows()
        );
        assert!(compressed.footprint_bytes < uncompressed.footprint_bytes);
        assert_eq!(
            uncompressed.footprint_bytes,
            uncompressed.base_bytes + uncompressed.intermediate_bytes
        );
    }

    #[test]
    fn assignable_columns_cover_base_and_intermediates() {
        let data = dbgen::generate(0.005, 3);
        let columns = assignable_columns(SsbQuery::Q1_1, &data);
        assert!(columns.contains_key("lo_discount"));
        assert!(columns.keys().any(|k| k.starts_with("1.1/")));
        let config = strategy_config(SsbQuery::Q1_1, &data, FormatSelectionStrategy::CostBased);
        assert_ne!(
            config.format_for("lo_discount", Format::Uncompressed),
            Format::Uncompressed
        );
    }

    #[test]
    fn base_only_config_leaves_intermediates_uncompressed() {
        let data = dbgen::generate(0.005, 3);
        let full = strategy_config(SsbQuery::Q1_1, &data, FormatSelectionStrategy::AllStaticBp);
        let base_only = base_only_config(SsbQuery::Q1_1, &full);
        assert_eq!(
            base_only.format_for("1.1/lo_pos", Format::Uncompressed),
            Format::Uncompressed
        );
        assert_ne!(
            base_only.format_for("lo_discount", Format::Uncompressed),
            Format::Uncompressed
        );
    }
}
