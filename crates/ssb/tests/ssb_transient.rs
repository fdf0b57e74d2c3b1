//! The pairwise carry bound over real query plans: running all 13 SSB
//! queries — serial and on 2 threads with morsels, fused and unfused — must
//! keep every transient carry buffer of the position-wise binary operators
//! within one chunk (`transient::CARRY_BOUND_BYTES`), never O(column).
//!
//! `crates/core/tests/pairwise_transient.rs` checks each operator in
//! isolation; this suite checks the same bound where the operators meet the
//! plans' mixes of formats, morsel splits and fused regions.  Run in release
//! mode by CI next to the operator-level suite.

use morph_compression::Format;
use morph_ssb::{dbgen, SsbQuery};
use morphstore_engine::exec::FormatConfig;
use morphstore_engine::{transient, ExecSettings, ExecutionContext};

/// ≈ 60 k `lineorder` rows: each fact column spans about 30 chunks, so an
/// O(column) carry would exceed the one-chunk bound many times over.
const SCALE_FACTOR: f64 = 0.01;

/// Fans every fact-table operator out over many morsels.
const MORSEL_THRESHOLD: usize = 1024;

#[test]
fn ssb_plans_keep_pairwise_carries_chunk_bounded() {
    let data = dbgen::generate(SCALE_FACTOR, 42).with_uniform_format(&Format::DynBp);
    let formats = FormatConfig::with_default(Format::DynBp);
    let unfused = ExecSettings::vectorized_compressed();
    let configurations = [
        ("serial", unfused.clone(), 1),
        ("serial fused", unfused.clone().with_fusion(), 1),
        (
            "2 threads, morsels",
            unfused.clone().with_morsel_threshold(MORSEL_THRESHOLD),
            2,
        ),
        (
            "2 threads, morsels, fused",
            unfused
                .with_fusion()
                .with_morsel_threshold(MORSEL_THRESHOLD),
            2,
        ),
    ];

    // The counter is process-global; this binary holds a single test, so
    // nothing else runs operators between the reset and the read.
    transient::reset();
    for (what, settings, threads) in configurations {
        for query in SsbQuery::all() {
            let mut ctx = ExecutionContext::new(settings.clone(), formats.clone());
            query.execute_parallel(&data, &mut ctx, threads);
        }
        let peak = transient::peak_bytes();
        assert!(
            peak <= transient::CARRY_BOUND_BYTES,
            "{what}: peak transient carry of {peak} bytes exceeds the one-chunk \
             bound of {} bytes",
            transient::CARRY_BOUND_BYTES
        );
        assert!(
            peak > 0,
            "{what}: nothing was recorded — instrumentation lost?"
        );
        transient::reset();
    }
}
