//! Quickstart: compress a column, morph it between formats, and run a small
//! compression-enabled query pipeline (select → project → sum).
//!
//! Run with: `cargo run --release --example quickstart`

use morphstore::prelude::*;

fn main() {
    // 1. Build a base column of dictionary-encoded integers.
    let values: Vec<u64> = (0..1_000_000u64).map(|i| i % 1000).collect();
    let uncompressed = Column::from_slice(&values);
    println!(
        "uncompressed column: {} elements, {} bytes",
        uncompressed.logical_len(),
        uncompressed.size_used_bytes()
    );

    // 2. Compress it — every column carries exactly one format.
    let compressed = Column::compress(&values, &Format::DynBp);
    println!(
        "SIMD-BP column:      {} bytes ({:.1}% of uncompressed)",
        compressed.size_used_bytes(),
        100.0 * compressed.size_used_bytes() as f64 / uncompressed.size_used_bytes() as f64
    );

    // 3. Morph it into another format without changing its content.
    let as_static = morph(&compressed, &Format::static_bp_for_max(999));
    println!(
        "static BP column:    {} bytes (same logical content: {})",
        as_static.size_used_bytes(),
        as_static.decompress() == values
    );

    // 4. Run a small query with compressed base data AND compressed
    //    intermediates: SELECT SUM(v) FROM t WHERE v < 10.
    let settings = ExecSettings::vectorized_compressed();
    let positions = select(
        &compressed,
        &Predicate::Cmp(CmpOp::Lt, 10),
        &Format::delta_dyn_bp(),
        &settings,
    );
    println!(
        "select produced {} positions, stored in {} ({} bytes)",
        positions.logical_len(),
        positions.format(),
        positions.size_used_bytes()
    );
    let selected = project(&as_static, &positions, &Format::StaticBp(4), &settings);
    let total = agg_sum(&selected, &settings);
    let expected: u64 = values.iter().filter(|&&v| v < 10).sum();
    println!("sum over the selection = {total} (expected {expected})");
    assert_eq!(total, expected);
}
