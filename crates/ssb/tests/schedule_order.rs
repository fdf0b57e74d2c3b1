//! The scheduler's pop policy over the real SSB plans: one worker starts
//! the units of every hand-built and SQL-compiled plan in node-list order.
//! Unfused, that is every node in order; fused, every fused region starts
//! at its root's own index and its interiors are never started on their
//! own.

use std::collections::BTreeSet;

use morph_ssb::{ssb_catalog, SsbQuery};
use morphstore_engine::exec::FormatConfig;
use morphstore_engine::parallel::single_worker_order;
use morphstore_engine::plan::QueryPlan;
use morphstore_engine::FusionPlan;

fn assert_node_list_order(what: &str, plan: &QueryPlan) -> usize {
    let all: Vec<usize> = (0..plan.node_count()).collect();
    assert_eq!(single_worker_order(plan, false), all, "{what}, unfused");

    let fusion = FusionPlan::analyze(plan);
    let topology = plan.topology(&fusion, &FormatConfig::default());
    let interiors: BTreeSet<usize> = topology
        .regions
        .iter()
        .flat_map(|region| region.members.iter().filter(|&&m| m != region.root))
        .copied()
        .collect();
    let expected: Vec<usize> = all.into_iter().filter(|i| !interiors.contains(i)).collect();
    assert_eq!(single_worker_order(plan, true), expected, "{what}, fused");
    fusion.region_count()
}

#[test]
fn one_worker_starts_every_ssb_plan_in_node_list_order() {
    let catalog = ssb_catalog();
    let mut regions = 0;
    for query in SsbQuery::all() {
        regions += assert_node_list_order(&format!("{query} hand-built"), &query.plan());
        let compiled = morph_sql::compile_with_label(query.sql(), &catalog, query.label())
            .unwrap_or_else(|e| panic!("{query}: {e}"));
        regions += assert_node_list_order(&format!("{query} SQL"), compiled.plan());
    }
    assert!(regions > 0, "the fused half checks at least one region");
}
