//! Figure 6: memory footprint (a) and runtime (b) of the simple query
//! `SELECT SUM(Y) FROM R WHERE X = c` for three base-column cases and several
//! format configurations.
//!
//! The cases follow Section 5.1: case 1 = (X=C1, Y=C1), case 2 = (X=C1,
//! Y=C4), case 3 = (X=C2, Y=C3); the selection constant is the most frequent
//! value (90 % selectivity).
//!
//! Regenerate with:
//! `cargo run -p morph-bench --release --bin fig6_simple_query [--elements N] [--runs R]`

use std::collections::HashMap;
use std::time::{Duration, Instant};

use morph_bench::{fmt_mib, fmt_ms, print_header, print_row, HarnessArgs};
use morph_compression::Format;
use morph_storage::datagen::SyntheticColumn;
use morph_storage::Column;
use morphstore_engine::exec::FormatConfig;
use morphstore_engine::plan::{PlanBuilder, PlanExecutor, QueryPlan};
use morphstore_engine::{CmpOp, ExecSettings, ExecutionContext, IntegrationDegree};

/// One format configuration of the simple query: formats for the base
/// columns X and Y and the intermediates X' (positions) and Y' (projected
/// values).
struct Config {
    label: &'static str,
    base: Format,
    positions: Format,
    projected: Format,
    degree: IntegrationDegree,
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

fn run_simple_query(
    x: &Column,
    y: &Column,
    constant: u64,
    config: &Config,
) -> (u64, ExecutionContext, Duration) {
    let settings = ExecSettings {
        degree: config.degree,
        ..ExecSettings::default()
    };
    let formats = FormatConfig::uncompressed()
        .set(&format!("{LABEL}/X'"), config.positions)
        .set(&format!("{LABEL}/Y'"), config.projected);
    let mut ctx = ExecutionContext::new(settings, formats);
    let start = Instant::now();
    let source = HashMap::from([
        ("X".to_string(), x.to_format(&config.base)),
        ("Y".to_string(), y.to_format(&config.base)),
    ]);
    let output = PlanExecutor.execute(&simple_query(constant), &source, &mut ctx);
    let elapsed = start.elapsed();
    (output.values[0], ctx, elapsed)
}

fn main() {
    let args = HarnessArgs::parse();
    println!(
        "# Figure 6: simple query SELECT SUM(Y) FROM R WHERE X = c ({} elements, {} runs)",
        args.elements, args.runs
    );
    let cases = [
        ("case1", SyntheticColumn::C1, SyntheticColumn::C1),
        ("case2", SyntheticColumn::C1, SyntheticColumn::C4),
        ("case3", SyntheticColumn::C2, SyntheticColumn::C3),
    ];
    let configs = [
        Config {
            label: "uncompressed",
            base: Format::Uncompressed,
            positions: Format::Uncompressed,
            projected: Format::Uncompressed,
            degree: IntegrationDegree::PurelyUncompressed,
        },
        Config {
            label: "static BP (base only)",
            base: Format::StaticBp(63),
            positions: Format::Uncompressed,
            projected: Format::Uncompressed,
            degree: IntegrationDegree::OnTheFlyDeRecompression,
        },
        Config {
            label: "static BP (base + intermediates)",
            base: Format::StaticBp(63),
            positions: Format::StaticBp(63),
            projected: Format::StaticBp(63),
            degree: IntegrationDegree::OnTheFlyDeRecompression,
        },
        Config {
            label: "DELTA+SIMD-BP X' / static BP rest",
            base: Format::StaticBp(63),
            positions: Format::DeltaDynBp,
            projected: Format::StaticBp(63),
            degree: IntegrationDegree::OnTheFlyDeRecompression,
        },
        Config {
            label: "DELTA+SIMD-BP X' / FOR+SIMD-BP Y'",
            base: Format::StaticBp(63),
            positions: Format::DeltaDynBp,
            projected: Format::ForDynBp,
            degree: IntegrationDegree::OnTheFlyDeRecompression,
        },
    ];
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
    for (case, x_col, y_col) in cases {
        let (x_values, constant) = x_col.generate_select_input(args.elements, args.seed);
        let y_values = y_col.generate(args.elements, args.seed + 1);
        let x = Column::from_slice(&x_values);
        let y = Column::from_slice(&y_values);
        let mut reference_sum = None;
        for config in &configs {
            // For the three cases the static width should fit the data, not
            // hard-code 63: derive per case.
            let max = x_values
                .iter()
                .chain(y_values.iter())
                .copied()
                .max()
                .unwrap_or(0);
            let fitted = Config {
                label: config.label,
                base: match config.base {
                    Format::StaticBp(_) => Format::static_bp_for_max(max),
                    other => other,
                },
                positions: match config.positions {
                    Format::StaticBp(_) => Format::static_bp_for_max(args.elements as u64),
                    other => other,
                },
                projected: match config.projected {
                    Format::StaticBp(_) => Format::static_bp_for_max(max),
                    other => other,
                },
                degree: config.degree,
            };
            let mut total_runtime = Duration::ZERO;
            let mut outcome = None;
            for _ in 0..args.runs.max(1) {
                let (sum, ctx, elapsed) = run_simple_query(&x, &y, constant, &fitted);
                total_runtime += elapsed;
                outcome = Some((sum, ctx));
            }
            let (sum, ctx) = outcome.expect("at least one run");
            match reference_sum {
                None => reference_sum = Some(sum),
                Some(reference) => assert_eq!(sum, reference, "result changed with the format"),
            }
            let size_of = |name: &str| {
                ctx.records()
                    .iter()
                    .find(|r| r.name == name)
                    .map(|r| r.bytes)
                    .unwrap_or(0)
            };
            print_row(&[
                case.to_string(),
                fitted.label.to_string(),
                fmt_mib(size_of("X")),
                fmt_mib(size_of("Y")),
                fmt_mib(size_of(&format!("{LABEL}/X'"))),
                fmt_mib(size_of(&format!("{LABEL}/Y'"))),
                fmt_mib(ctx.total_footprint_bytes()),
                fmt_ms(total_runtime / args.runs.max(1) as u32),
                sum.to_string(),
            ]);
        }
        println!();
    }
    println!(
        "summary: compressing base columns AND intermediates shrinks both footprint and runtime;"
    );
    println!(
        "         the best intermediate format depends on the case (cf. Figure 6 of the paper)."
    );
}
