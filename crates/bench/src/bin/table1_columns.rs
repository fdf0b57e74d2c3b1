//! Table 1: properties of the synthetic columns C1–C4, plus (as additional
//! context) the exact compressed size each format achieves on them.
//!
//! Regenerate with:
//! `cargo run -p morph-bench --release --bin table1_columns [--elements N]`

use std::collections::HashSet;

use morph_bench::{fmt_mib, print_header, print_row, HarnessArgs};
use morph_compression::{compressed_size_bytes, Format};
use morph_storage::datagen::SyntheticColumn;
use morph_storage::ColumnStats;

fn main() {
    let args = HarnessArgs::parse();
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
    let descriptions = [
        "uniform in [0,63]",
        "99.99% uniform in [0,63]; 0.01% 2^63-1",
        "uniform in [2^62, 2^62+63]",
        "uniform in [2^47, 2^47+100K]",
    ];
    let mut generated = Vec::new();
    for (column, description) in SyntheticColumn::all().into_iter().zip(descriptions) {
        let values = column.generate(args.elements, args.seed);
        let stats = ColumnStats::from_values(&values);
        print_row(&[
            column.label().to_string(),
            description.to_string(),
            if stats.sorted { "yes" } else { "no" }.to_string(),
            stats.max_bit_width().to_string(),
            values.iter().collect::<HashSet<_>>().len().to_string(),
            stats.runs.to_string(),
        ]);
        generated.push((column, values, stats));
    }

    println!();
    println!(
        "# Compressed sizes per format [MiB] (uncompressed = {} MiB)",
        fmt_mib(args.elements * 8)
    );
    print_header(&["column", "format", "size_mib", "fraction_of_uncompressed"]);
    for (column, values, stats) in &generated {
        for format in Format::all_formats(stats.max) {
            let size = compressed_size_bytes(&format, values);
            print_row(&[
                column.label().to_string(),
                format.to_string(),
                fmt_mib(size),
                format!("{:.3}", size as f64 / (values.len() * 8) as f64),
            ]);
        }
    }
    println!();
    println!(
        "summary: C1/C2/C3/C4 reproduce the max bit widths 6/63/63/48 and the sortedness of Table 1"
    );
}
