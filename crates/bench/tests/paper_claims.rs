//! The paper's footprint claims, checked on the rows `repro` prints.
//!
//! Footprints are exact byte counts, so unlike the runtime claims they hold
//! or fail deterministically at any scale; these tests run at SSB scale
//! factor 0.01 (seed 42) and on 262 144-element synthetic columns.  Table 1
//! is pinned by `morph-storage`'s `c*_characteristics_match_table1` tests.

use std::sync::OnceLock;

use morph_bench::figures::{self, SsbRun};
use morph_cost::FormatSelectionStrategy::{
    AllStaticBp, AllUncompressed, CostBased, ExhaustiveBestFootprint, ExhaustiveWorstFootprint,
};
use morph_ssb::{dbgen, SsbData, SsbQuery};

const SCALE_FACTOR: f64 = 0.01;
const SEED: u64 = 42;

fn ssb() -> &'static SsbData {
    static DATA: OnceLock<SsbData> = OnceLock::new();
    DATA.get_or_init(|| dbgen::generate(SCALE_FACTOR, SEED))
}

/// The footprint of `query` under `config`, from a figure's rows.
fn footprint(rows: &[SsbRun], query: SsbQuery, config: &str) -> usize {
    rows.iter()
        .find(|row| row.query == query && row.config == config)
        .unwrap_or_else(|| panic!("{query}: no row for {config}"))
        .footprint_bytes
}

/// Figure 8: compressing base columns *and* intermediates takes less memory
/// than compressing base columns only, which takes less than no compression
/// — for every query.
#[test]
fn fig8_intermediates_shrink_the_footprint_beyond_base_compression() {
    let rows = figures::fig8(ssb(), 1);
    for query in SsbQuery::all() {
        let full = footprint(&rows, query, "compressed base + intermediates");
        let base_only = footprint(&rows, query, "compressed base columns");
        let uncompressed = footprint(&rows, query, "uncompressed");
        assert!(
            full < base_only && base_only < uncompressed,
            "{query}: base + intermediates {full} B, base only {base_only} B, \
             uncompressed {uncompressed} B"
        );
    }
}

/// Figure 7(a): the best format combination is at most static BP
/// everywhere, which beats no compression, which beats the worst
/// combination — for every query.
#[test]
fn fig7a_format_combinations_order_the_footprint() {
    let rows = figures::fig7(ssb(), 1, false);
    for query in SsbQuery::all() {
        let best = footprint(&rows, query, ExhaustiveBestFootprint.label());
        let static_bp = footprint(&rows, query, AllStaticBp.label());
        let uncompressed = footprint(&rows, query, AllUncompressed.label());
        let worst = footprint(&rows, query, ExhaustiveWorstFootprint.label());
        assert!(
            best <= static_bp && static_bp < uncompressed && uncompressed < worst,
            "{query}: best {best} B, static BP {static_bp} B, \
             uncompressed {uncompressed} B, worst {worst} B"
        );
    }
}

/// Figure 10: the cost-based selection lands within 1 % of the exhaustive
/// best combination for every query.
#[test]
fn fig10_cost_based_selection_is_within_one_percent_of_the_best() {
    let rows = figures::fig10(ssb());
    for query in SsbQuery::all() {
        let cost_based = footprint(&rows, query, CostBased.label());
        let best = footprint(&rows, query, ExhaustiveBestFootprint.label());
        assert!(
            cost_based * 100 <= best * 101,
            "{query}: cost-based {cost_based} B vs. best {best} B"
        );
    }
}

/// Figure 6(a): for each of the three cases of the simple query, static BP
/// on base columns and intermediates takes less memory than static BP on
/// the base columns only, which takes less than no compression.
#[test]
fn fig6a_static_bp_on_intermediates_shrinks_the_simple_query() {
    let rows = figures::fig6(256 * 1024, 1, SEED);
    for case in ["case1", "case2", "case3"] {
        let total = |config: &str| {
            rows.iter()
                .find(|row| row.case == case && row.config == config)
                .unwrap_or_else(|| panic!("{case}: no row for {config}"))
                .total_bytes
        };
        let full = total("static BP (base + intermediates)");
        let base_only = total("static BP (base only)");
        let uncompressed = total("uncompressed");
        assert!(
            full < base_only && base_only < uncompressed,
            "{case}: base + intermediates {full} B, base only {base_only} B, \
             uncompressed {uncompressed} B"
        );
    }
}
