//! Regenerate one of the paper's table and figures as CSV on stdout.
//!
//! `cargo run -p morph-bench --release --bin repro -- <figure> [flags]`, with
//! the figure and flags described in the `morph_bench` crate documentation,
//! e.g. `repro fig8 --scale-factor 0.01 --runs 1`.

use morph_bench::figures::{self, SsbRun, SCALAR_UNCOMPRESSED};
use morph_bench::{fmt_mib, fmt_ms, print_header, print_row, Figure, HarnessArgs};
use morph_cost::FormatSelectionStrategy::ExhaustiveBestFootprint;
use morph_ssb::dbgen;

fn main() {
    let (figure, args) = HarnessArgs::parse();
    let ssb = || dbgen::generate(args.scale_factor, args.seed);
    let scope = format!("scale factor {}, {} runs", args.scale_factor, args.runs);
    match figure {
        Figure::Table1 => print_table1(&args),
        Figure::Fig5 => print_fig5(&args),
        Figure::Fig6 => print_fig6(&args),
        Figure::Fig7 => print_footprint_and_runtime(
            &format!("# Figure 7: impact of format combinations on SSB ({scope})"),
            "combination",
            &figures::fig7(&ssb(), args.runs, args.greedy),
        ),
        Figure::Fig8 => print_footprint_and_runtime(
            &format!("# Figure 8: compression of base data vs. intermediates ({scope})"),
            "configuration",
            &figures::fig8(&ssb(), args.runs),
        ),
        Figure::Fig9 => print_fig9(&scope, &figures::fig9(&ssb(), args.runs)),
        Figure::Fig10 => print_fig10(args.scale_factor, &figures::fig10(&ssb())),
    }
}

fn print_table1(args: &HarnessArgs) {
    let table = figures::table1(args.elements, args.seed);
    println!(
        "# Table 1: synthetic column properties ({} elements)",
        args.elements
    );
    print_header(&[
        "column",
        "distribution",
        "sorted",
        "max_bit_width",
        "distinct",
        "runs",
    ]);
    for row in &table.columns {
        print_row(&[
            row.column.label().to_string(),
            row.distribution.to_string(),
            if row.sorted { "yes" } else { "no" }.to_string(),
            row.max_bit_width.to_string(),
            row.distinct.to_string(),
            row.runs.to_string(),
        ]);
    }
    let uncompressed = args.elements * 8;
    println!();
    println!(
        "# Compressed sizes per format [MiB] (uncompressed = {} MiB)",
        fmt_mib(uncompressed)
    );
    print_header(&["column", "format", "size_mib", "fraction_of_uncompressed"]);
    for row in &table.sizes {
        print_row(&[
            row.column.label().to_string(),
            row.format.to_string(),
            fmt_mib(row.bytes),
            format!("{:.3}", row.bytes as f64 / uncompressed as f64),
        ]);
    }
}

fn print_fig5(args: &HarnessArgs) {
    println!(
        "# Figure 5: select-operator runtime, all format combinations ({} elements, {} runs)",
        args.elements, args.runs
    );
    print_header(&[
        "column",
        "input_format",
        "output_format",
        "runtime_ms",
        "selected",
    ]);
    let rows = figures::fig5(args.elements, args.runs, args.seed);
    for column_rows in rows.chunk_by(|a, b| a.column == b.column) {
        for row in column_rows {
            print_row(&[
                row.column.label().to_string(),
                row.input.to_string(),
                row.output.to_string(),
                fmt_ms(row.runtime),
                row.selected.to_string(),
            ]);
        }
        // The first of the fastest, against uncompressed in and out.
        let best = column_rows
            .iter()
            .reduce(|best, row| {
                if row.runtime < best.runtime {
                    row
                } else {
                    best
                }
            })
            .expect("at least one combination");
        let baseline = column_rows
            .iter()
            .find(|row| !row.input.is_compressed() && !row.output.is_compressed())
            .expect("an uncompressed combination")
            .runtime;
        println!(
            "summary,{},best = {} -> {} at {} ms,uncompressed baseline = {} ms,saving = {:.0}%",
            best.column.label(),
            best.input,
            best.output,
            fmt_ms(best.runtime),
            fmt_ms(baseline),
            (1.0 - best.runtime.as_secs_f64() / baseline.as_secs_f64().max(1e-12)) * 100.0
        );
    }
}

fn print_fig6(args: &HarnessArgs) {
    println!(
        "# Figure 6: simple query SELECT SUM(Y) FROM R WHERE X = c ({} elements, {} runs)",
        args.elements, args.runs
    );
    print_header(&[
        "case",
        "config",
        "X_mib",
        "Y_mib",
        "Xprime_mib",
        "Yprime_mib",
        "total_mib",
        "runtime_ms",
        "sum",
    ]);
    let rows = figures::fig6(args.elements, args.runs, args.seed);
    for case_rows in rows.chunk_by(|a, b| a.case == b.case) {
        for row in case_rows {
            print_row(&[
                row.case.to_string(),
                row.config.to_string(),
                fmt_mib(row.x_bytes),
                fmt_mib(row.y_bytes),
                fmt_mib(row.x_prime_bytes),
                fmt_mib(row.y_prime_bytes),
                fmt_mib(row.total_bytes),
                fmt_ms(row.runtime),
                row.sum.to_string(),
            ]);
        }
        println!();
    }
}

/// One configuration's sums over the queries of an SSB figure.
struct Total {
    config: &'static str,
    bytes: f64,
    secs: f64,
    queries: f64,
}

impl Total {
    fn mean_mib(&self) -> String {
        format!("{:.3}", self.bytes / self.queries / (1024.0 * 1024.0))
    }

    fn mean_ms(&self) -> String {
        format!("{:.3}", self.secs / self.queries * 1e3)
    }
}

/// Per-configuration sums, in first-appearance order.
fn totals(rows: &[SsbRun]) -> Vec<Total> {
    let mut totals: Vec<Total> = Vec::new();
    for row in rows {
        let index = match totals.iter().position(|t| t.config == row.config) {
            Some(index) => index,
            None => {
                totals.push(Total {
                    config: row.config,
                    bytes: 0.0,
                    secs: 0.0,
                    queries: 0.0,
                });
                totals.len() - 1
            }
        };
        let total = &mut totals[index];
        total.bytes += row.footprint_bytes as f64;
        total.secs += row.runtime.as_secs_f64();
        total.queries += 1.0;
    }
    totals
}

/// The sums of `config`.
fn total_of<'t>(totals: &'t [Total], config: &str) -> &'t Total {
    totals
        .iter()
        .find(|t| t.config == config)
        .unwrap_or_else(|| panic!("no {config} rows"))
}

/// Print an SSB figure's title, its per-query rows with the given
/// columns, and the title and header of its averages table.
fn print_ssb_rows(title: &str, columns: &[&str], rows: &[SsbRun], averages: (&str, &[&str])) {
    println!("{title}");
    print_header(columns);
    for row in rows {
        let mut values = vec![row.query.label().to_string(), row.config.to_string()];
        for column in &columns[2..] {
            values.push(match *column {
                "footprint_mib" => fmt_mib(row.footprint_bytes),
                _ => fmt_ms(row.runtime),
            });
        }
        print_row(&values);
    }
    println!();
    println!("{}", averages.0);
    print_header(averages.1);
}

const AVERAGES: &str = "# Averages over the 13 queries";

fn print_footprint_and_runtime(title: &str, key: &str, rows: &[SsbRun]) {
    print_ssb_rows(
        title,
        &["query", key, "footprint_mib", "runtime_ms"],
        rows,
        (AVERAGES, &[key, "avg_footprint_mib", "avg_runtime_ms"]),
    );
    for total in totals(rows) {
        print_row(&[total.config.to_string(), total.mean_mib(), total.mean_ms()]);
    }
}

fn print_fig9(scope: &str, rows: &[SsbRun]) {
    print_ssb_rows(
        &format!("# Figure 9 / Figure 1: MonetDB-baseline vs. MorphStore configurations ({scope})"),
        &["query", "configuration", "runtime_ms"],
        rows,
        (
            "# Figure 1: average runtime over the 13 SSB queries",
            &[
                "configuration",
                "avg_runtime_ms",
                "relative_to_scalar_uncompressed",
            ],
        ),
    );
    let totals = totals(rows);
    let scalar = total_of(&totals, SCALAR_UNCOMPRESSED).secs;
    for total in &totals {
        print_row(&[
            total.config.to_string(),
            total.mean_ms(),
            format!("{:.3}", total.secs / scalar),
        ]);
    }
    println!();
    println!("# \"{SCALAR_UNCOMPRESSED}\" is one series: the MonetDB-like baseline is the");
    println!("# engine's scalar uncompressed configuration (DESIGN.md, Substitutions).");
}

fn print_fig10(scale_factor: f64, rows: &[SsbRun]) {
    print_ssb_rows(
        &format!("# Figure 10: cost-based format selection vs. static BP vs. exhaustive best (scale factor {scale_factor})"),
        &["query", "strategy", "footprint_mib"],
        rows,
        (AVERAGES, &["strategy", "avg_footprint_mib", "relative_to_best"]),
    );
    let totals = totals(rows);
    let best = total_of(&totals, ExhaustiveBestFootprint.label()).bytes;
    for total in &totals {
        print_row(&[
            total.config.to_string(),
            total.mean_mib(),
            format!("{:.3}", total.bytes / best),
        ]);
    }
}
