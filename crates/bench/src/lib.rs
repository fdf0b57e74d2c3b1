//! The harness that regenerates the tables and figures of the MorphStore
//! paper: one library function per figure ([`figures`]), one binary that
//! prints them (`repro`), and one test file that checks the paper's
//! footprint claims on the same functions (`tests/paper_claims.rs`).
//!
//! `repro <figure> [flags]` takes the figure as its positional argument —
//! `table1`, `fig5`, `fig6`, `fig7`, `fig8`, `fig9` or `fig10` (Figure 1's
//! averages are printed by `fig9`) — and these flags:
//!
//! * `--scale-factor <f>` — SSB scale factor (default 0.05; the paper uses 10),
//! * `--elements <n>` — element count for the micro-benchmarks (default 2 Mi;
//!   the paper uses 128 Mi),
//! * `--runs <n>` — repetitions per measurement, the mean is reported
//!   (default 3; the paper uses 10),
//! * `--seed <n>` — RNG seed (default 42),
//! * `--greedy` — enable the greedy measured runtime search of Figure 7
//!   (expensive; off by default).
//!
//! An unknown figure or flag, or a value that does not parse, is rejected
//! with a usage message and exit code 2.  Output is CSV-like
//! (comma-separated rows with a header) followed by averages or a short
//! summary, so results can be piped into a plotting tool.  Runtime claims
//! (Figures 1, 5, 6(b), 7(b) and 9) are printed, not checked; the
//! repository's benchmark (`morphbench`) is where runtime is gated.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use morph_compression::Format;
use morph_ssb::{QueryResult, SsbData, SsbQuery};
use morph_storage::{Column, ColumnStats};
use morphstore_engine::exec::FormatConfig;
use morphstore_engine::{ExecSettings, ExecutionContext};

pub mod figures;

/// The table and figures `repro` regenerates, by their command-line name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Figure {
    /// Table 1: the synthetic columns.
    Table1,
    /// Figure 5: select-operator format combinations.
    Fig5,
    /// Figure 6: the simple query's footprint and runtime.
    Fig6,
    /// Figure 7: SSB under four format combinations.
    Fig7,
    /// Figure 8: compressing base data vs. intermediates.
    Fig8,
    /// Figure 9 and Figure 1: the MonetDB-like baseline vs. MorphStore.
    Fig9,
    /// Figure 10: cost-based format selection.
    Fig10,
}

impl Figure {
    /// Every figure, in command-line order.
    pub const ALL: [Figure; 7] = [
        Figure::Table1,
        Figure::Fig5,
        Figure::Fig6,
        Figure::Fig7,
        Figure::Fig8,
        Figure::Fig9,
        Figure::Fig10,
    ];

    /// The figure's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Figure::Table1 => "table1",
            Figure::Fig5 => "fig5",
            Figure::Fig6 => "fig6",
            Figure::Fig7 => "fig7",
            Figure::Fig8 => "fig8",
            Figure::Fig9 => "fig9",
            Figure::Fig10 => "fig10",
        }
    }
}

/// The command line of `repro`, printed with every rejected argument.
pub const USAGE: &str = "usage: repro <table1|fig5|fig6|fig7|fig8|fig9|fig10> \
[--scale-factor F] [--elements N] [--runs N] [--seed N] [--greedy]";

/// Command-line flags of `repro`.
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
    /// Parse the current process's arguments; on a rejected argument, print
    /// the error and [`USAGE`] to stderr and exit with code 2.
    pub fn parse() -> (Figure, HarnessArgs) {
        Self::parse_from(std::env::args().skip(1)).unwrap_or_else(|error| {
            eprintln!("error: {error}\n{USAGE}");
            std::process::exit(2)
        })
    }

    /// Parse `args` (without the program name): exactly one figure name
    /// and any of the flags.  Unknown arguments, missing values and values
    /// that do not parse are errors.
    pub fn parse_from(
        args: impl IntoIterator<Item = String>,
    ) -> Result<(Figure, HarnessArgs), String> {
        fn value<T: std::str::FromStr>(
            flag: &str,
            iter: &mut impl Iterator<Item = String>,
        ) -> Result<T, String> {
            let value = iter.next().ok_or(format!("{flag} needs a value"))?;
            value
                .parse()
                .map_err(|_| format!("invalid value `{value}` for {flag}"))
        }
        let mut figure = None;
        let mut parsed = HarnessArgs::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--scale-factor" => parsed.scale_factor = value(&arg, &mut iter)?,
                "--elements" => parsed.elements = value(&arg, &mut iter)?,
                "--runs" => parsed.runs = value(&arg, &mut iter)?,
                "--seed" => parsed.seed = value(&arg, &mut iter)?,
                "--greedy" => parsed.greedy = true,
                flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
                name => match Figure::ALL.into_iter().find(|f| f.name() == name) {
                    None => return Err(format!("unknown figure `{name}`")),
                    Some(_) if figure.is_some() => return Err("more than one figure".into()),
                    named => figure = named,
                },
            }
        }
        let figure = figure.ok_or("missing figure")?;
        Ok((figure, parsed))
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
fn run_query_once(
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

/// Measure `query` under the given configuration: one untimed warm-up
/// run, then `runs` timed repetitions; mean runtime, footprints from the
/// last repetition.
pub fn measure_query(
    query: SsbQuery,
    data: &SsbData,
    settings: ExecSettings,
    formats: &FormatConfig,
    runs: usize,
) -> QueryMeasurement {
    run_query_once(query, data, settings.clone(), formats, false);
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
/// execution, run uncompressed, which is format-neutral).  Every selection
/// strategy derives its configuration from this one capture
/// ([`morph_cost::FormatSelectionStrategy::build_config`]).
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

/// Cost-based per-column format selection with the *runtime* objective over
/// a query's [`assignable_columns`] — the configuration of the "continuous
/// compression" series of the headline comparison (Figures 1 and 9), where
/// the paper optimises for query runtime rather than for the smallest
/// footprint.
pub fn runtime_cost_based_config(columns: &HashMap<String, Column>) -> FormatConfig {
    let stats = columns
        .iter()
        .map(|(name, column)| (name.clone(), ColumnStats::from_column(column)))
        .collect();
    morph_cost::cost_based_config(&stats, morph_cost::SelectionObjective::Runtime)
}

/// Restrict a configuration to base columns only (intermediates fall back to
/// uncompressed) — used by Figures 8 and 9.  The base columns come
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
    use morph_cost::FormatSelectionStrategy;
    use morph_ssb::dbgen;

    fn parse(args: &[&str]) -> Result<(Figure, HarnessArgs), String> {
        HarnessArgs::parse_from(args.iter().map(|arg| arg.to_string()))
    }

    #[test]
    fn parse_from_reads_the_figure_and_every_flag() {
        for figure in Figure::ALL {
            assert_eq!(parse(&[figure.name()]).unwrap().0, figure);
        }
        let (figure, args) = parse(&[
            "--scale-factor",
            "0.01",
            "fig8",
            "--elements",
            "65536",
            "--runs",
            "1",
            "--seed",
            "7",
            "--greedy",
        ])
        .unwrap();
        assert_eq!(figure, Figure::Fig8);
        assert_eq!(args.scale_factor, 0.01);
        assert_eq!(args.elements, 65536);
        assert_eq!(args.runs, 1);
        assert_eq!(args.seed, 7);
        assert!(args.greedy);
    }

    #[test]
    fn parse_from_rejects_what_it_cannot_use() {
        let rejected: [&[&str]; 8] = [
            &["fig8", "--scale-factor", "0,1"],
            &["fig8", "--scalefactor", "1"],
            &["fig8", "--runs"],
            &["fig8", "--elements", "-1"],
            &["fig8", "--seed", "x"],
            &["fig11"],
            &["fig8", "fig9"],
            &["--runs", "1"],
        ];
        for args in rejected {
            assert!(parse(args).is_err(), "{args:?} was accepted");
        }
        assert_eq!(
            parse(&["fig8", "--scale-factor", "0,1"]).unwrap_err(),
            "invalid value `0,1` for --scale-factor"
        );
        assert_eq!(
            parse(&["fig8", "--scalefactor", "1"]).unwrap_err(),
            "unknown flag `--scalefactor`"
        );
    }

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
        let config = FormatSelectionStrategy::CostBased.build_config(&columns);
        assert_ne!(
            config.format_for("lo_discount", Format::Uncompressed),
            Format::Uncompressed
        );
    }

    #[test]
    fn base_only_config_leaves_intermediates_uncompressed() {
        let data = dbgen::generate(0.005, 3);
        let full = FormatSelectionStrategy::AllStaticBp
            .build_config(&assignable_columns(SsbQuery::Q1_1, &data));
        let base_only = base_only_config(SsbQuery::Q1_1, &full);
        for name in SsbQuery::Q1_1.plan().intermediate_names() {
            assert_eq!(
                base_only.format_for(&name, Format::Uncompressed),
                Format::Uncompressed,
                "{name}"
            );
        }
        assert_ne!(
            base_only.format_for("lo_discount", Format::Uncompressed),
            Format::Uncompressed
        );
    }
}
