//! Static plan verification over the full SSB suite: every SQL-compiled
//! plan must pass
//! [`morphstore_engine::verify::verify`] — structure, fusion regions,
//! morsel safety — and [`verify_with_formats`] under every format
//! configuration the benchmark harness uses.  The mutated-plan rejection
//! classes are covered by the verifier's unit tests inside the engine
//! crate (plan internals are not exposed); this suite pins the
//! *acceptance* side: nothing the planner produces is ever rejected.

use morph_compression::Format;
use morph_ssb::SsbQuery;
use morphstore_engine::exec::FormatConfig;
use morphstore_engine::verify::{verify, verify_with_formats, PlanError};

fn format_configs() -> Vec<(&'static str, FormatConfig)> {
    vec![
        ("uncompressed", FormatConfig::uncompressed()),
        (
            "static_bp",
            FormatConfig::with_default(Format::StaticBp(32)),
        ),
        ("dyn_bp", FormatConfig::with_default(Format::DynBp)),
        ("delta", FormatConfig::with_default(Format::DeltaDynBp)),
        ("for", FormatConfig::with_default(Format::ForDynBp)),
        ("rle", FormatConfig::with_default(Format::Rle)),
    ]
}

#[test]
fn all_sql_compiled_ssb_plans_verify_clean() {
    // The compiler already runs the verifier on every query and would
    // have returned `SqlError::InvalidPlan`; re-verifying the returned
    // plan here makes the acceptance explicit and adds the per-format
    // check.
    for query in SsbQuery::all() {
        let plan = query.plan();
        assert_eq!(verify(&plan), Ok(()), "{query}: SQL-compiled plan rejected");
        for (config_name, formats) in format_configs() {
            assert_eq!(
                verify_with_formats(&plan, &formats),
                Ok(()),
                "{query} [{config_name}]: SQL-compiled plan rejected"
            );
        }
    }
}

#[test]
fn illegal_edge_formats_are_rejected_through_the_public_api() {
    let plan = SsbQuery::all()[0].plan();
    // Zero-width static bit-packing can encode nothing.
    let edge = plan
        .intermediate_names()
        .into_iter()
        .next()
        .expect("SSB plans have intermediates");
    let formats = FormatConfig::uncompressed().set(&edge, Format::StaticBp(0));
    match verify_with_formats(&plan, &formats) {
        Err(PlanError::IllegalEdgeFormat { edge: e, .. }) => assert_eq!(e, edge),
        other => panic!("expected IllegalEdgeFormat, got {other:?}"),
    }
}
