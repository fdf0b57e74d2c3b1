//! The scheduler's pop policy over the real SSB plans: one worker starts
//! the units of every SSB plan in node-list order.
//! Unfused, that is every node in order; fused, every fused region starts
//! at its root's own index and its interiors are never started on their
//! own.

use std::collections::BTreeSet;

use morph_ssb::SsbQuery;
use morphstore_engine::parallel::single_worker_order;
use morphstore_engine::plan::QueryPlan;
use morphstore_engine::FusionPlan;

fn assert_node_list_order(what: &str, plan: &QueryPlan) -> usize {
    let all: Vec<usize> = (0..plan.node_count()).collect();
    assert_eq!(single_worker_order(plan, false), all, "{what}, unfused");

    let fusion = FusionPlan::analyze(plan);
    let interiors: BTreeSet<usize> = fusion
        .region_summaries(plan)
        .into_iter()
        .flat_map(|region| {
            let (_root, interiors) = region.members.split_last().expect("a region has a root");
            interiors.to_vec()
        })
        .collect();
    let expected: Vec<usize> = all.into_iter().filter(|i| !interiors.contains(i)).collect();
    assert_eq!(single_worker_order(plan, true), expected, "{what}, fused");
    fusion.region_count()
}

#[test]
fn one_worker_starts_every_ssb_plan_in_node_list_order() {
    let mut regions = 0;
    for query in SsbQuery::all() {
        regions += assert_node_list_order(&query.to_string(), &query.plan());
    }
    assert!(regions > 0, "the fused half checks at least one region");
}
