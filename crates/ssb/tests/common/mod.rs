//! Per-edge format assignments shared by the SSB integration suites.
//!
//! `FormatConfig::format_for` falls back to the default for a name no plan
//! has, so a stale override would silently turn a heterogeneous assignment
//! uniform.  [`per_edge_formats`] therefore checks every override against
//! the intermediates the SSB plans actually produce.

use std::collections::HashSet;

use morph_compression::Format;
use morph_ssb::SsbQuery;
use morphstore_engine::exec::FormatConfig;

/// Overrides for the heterogeneous assignment most suites run: the final
/// position lists of Q1.1 (DELTA) and Q2.1 (uncompressed), a projected
/// measure of Q3.2 (FOR), and both outputs of Q4.1's first grouping (RLE
/// group ids, DELTA representatives).
pub const MIXED: [(&str, Format); 5] = [
    ("1.1/pos_2", Format::DeltaDynBp),
    ("2.1/pos", Format::Uncompressed),
    ("3.2/lo_revenue_at_pos", Format::ForDynBp),
    ("4.1/group", Format::Rle),
    ("4.1/group_reps", Format::DeltaDynBp),
];

/// `default` for every edge except `overrides`.
///
/// Panics if an override names no intermediate of any SSB plan.
pub fn per_edge_formats(default: Format, overrides: &[(&str, Format)]) -> FormatConfig {
    let intermediates: HashSet<String> = SsbQuery::all()
        .iter()
        .flat_map(|query| query.plan().intermediate_names())
        .collect();
    overrides.iter().fold(
        FormatConfig::with_default(default),
        |config, &(edge, format)| {
            assert!(
                intermediates.contains(edge),
                "override `{edge}` names no intermediate of any SSB plan"
            );
            config.set(edge, format)
        },
    )
}
