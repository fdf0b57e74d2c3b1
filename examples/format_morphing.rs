//! Demonstrates why the choice of the compression format is data-dependent —
//! the core observation behind the paper's design principle DP2 — by
//! compressing the four synthetic columns of Table 1 with every format and
//! showing how intermediates can be morphed on the fly.
//!
//! Run with: `cargo run --release --example format_morphing`

use morphstore::prelude::*;
use morphstore::storage::datagen::SyntheticColumn;

fn main() {
    const N: usize = 1 << 20;

    println!("compressed size per format [MiB] ({N} elements per column)\n");
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "column", "uncompr", "staticBP", "SIMD-BP", "DELTA+BP", "FOR+BP"
    );
    for column in SyntheticColumn::all() {
        let values = column.generate(N, 7);
        let stats = ColumnStats::from_values(&values);
        let mib = |format: &Format| {
            Column::compress(&values, format).size_used_bytes() as f64 / (1024.0 * 1024.0)
        };
        println!(
            "{:<10} {:>12.3} {:>12.3} {:>12.3} {:>12.3} {:>12.3}",
            column.label(),
            mib(&Format::Uncompressed),
            mib(&Format::StaticBp(stats.max_bit_width())),
            mib(&Format::DynBp),
            mib(&Format::DeltaDynBp),
            mib(&Format::ForDynBp),
        );
    }

    println!("\nbest format per column (cost-based selection vs. exhaustive):");
    for column in SyntheticColumn::all() {
        let values = column.generate(N, 7);
        let stats = ColumnStats::from_values(&values);
        let cost_based =
            morphstore::cost::strategy::cost_based_format(&stats, SelectionObjective::Footprint);
        let exhaustive = Format::paper_formats(stats.max)
            .into_iter()
            .min_by_key(|f| Column::compress(&values, f).size_used_bytes())
            .unwrap();
        println!(
            "  {}: cost-based = {:<16} exhaustive best = {}",
            column.label(),
            cost_based.label(),
            exhaustive.label()
        );
    }

    // On-the-fly morphing: a select over an RLE-friendly column, executed by
    // the specialized RLE kernel even though the input arrives in SIMD-BP.
    println!("\non-the-fly morphing around a specialized operator:");
    let values = morphstore::storage::datagen::with_runs(N, 8, 256, 3);
    let input = Column::compress(&values, &Format::DynBp);
    let settings = ExecSettings {
        degree: IntegrationDegree::OnTheFlyMorphing,
        ..ExecSettings::default()
    };
    let eq_3 = Predicate::Cmp(CmpOp::Eq, 3);
    let positions = select(&input, &eq_3, &Format::delta_dyn_bp(), &settings);
    let general = select(
        &input,
        &eq_3,
        &Format::delta_dyn_bp(),
        &ExecSettings::vectorized_compressed(),
    );
    println!(
        "  SIMD-BP input morphed to RLE, run-based select found {} positions (general path: {})",
        positions.logical_len(),
        general.logical_len()
    );
    assert_eq!(positions.decompress(), general.decompress());
}
