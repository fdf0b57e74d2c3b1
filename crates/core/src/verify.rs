//! Static verification of [`QueryPlan`]s.
//!
//! The plan layer's correctness rests on structural invariants the builder
//! establishes but nothing re-checks once a plan exists as a value: nodes
//! are stored in topological order (every edge points backwards), every
//! handle references a port its producer actually materialises, grouping
//! handles reference grouping nodes, and the outputs reference nodes of the
//! right kind.  Executors *assume* all of this — a malformed plan panics
//! deep inside a slot lookup with no indication of which edge was wrong.
//!
//! [`verify`] re-checks every invariant up front and returns a structured
//! [`PlanError`] naming the offending node, so malformed plans are rejected
//! at the boundary instead of panicking mid-execution:
//!
//! * **Acyclicity / topological order** — every input handle references a
//!   strictly earlier node.  In the list representation a cycle can only
//!   manifest as a forward (or self) edge, so this one check is exact.
//! * **Operator arity and port legality** — only grouping nodes produce a
//!   second column (`_reps`, port 1), scalar aggregations produce no
//!   column at all, and grouping handles must point at grouping nodes.
//! * **Output well-formedness** — a scalar output references a scalar
//!   node, grouped outputs reference column-producing ports, all in range.
//! * **Name uniqueness** — intermediate names (including the implicit
//!   `"<step>_reps"`) are the columns' identity in footprint records and
//!   format assignment; duplicates would silently alias.
//! * **Format legality** ([`verify_with_formats`]) — every edge's resolved
//!   format must be encodable by the kernel registry (static bit widths in
//!   `1..=64`), including `morph` targets baked into the plan itself.
//! * **Fusion-region legality** — the regions the fusion analysis would
//!   run are re-validated from first principles: interiors are
//!   position-preserving single-consumer operators, exactly one external
//!   stream drives the region, and project data sides stay external.
//! * **Morsel-partition safety** — a node's partitioned input is one of
//!   its declared inputs, so chunk-range fan-out never streams a column
//!   the dependency graph does not order before the node.
//!
//! The SQL planner runs [`verify`] on every compiled query; the serial and
//! parallel executors re-run it (plus the fusion check against the region
//! set they actually execute) under `debug_assertions`, so every existing
//! determinism suite doubles as a verifier suite.

use std::fmt;

use morph_compression::Format;

use crate::exec::FormatConfig;
use crate::fusion::{interior_eligible, streamed_inputs, FusedRegion, FusionPlan};
use crate::plan::{PlanOp, PlanOutputs, QueryPlan};

/// A structural defect of a [`QueryPlan`], found by [`verify`].
///
/// Node fields are indices into the plan's node list (the order
/// [`QueryPlan::describe`] prints).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The plan has no nodes.
    EmptyPlan,
    /// `node` consumes `input`, which is not a strictly earlier node — a
    /// forward or self edge.  Since nodes are stored as a list, this is
    /// exactly how a dependency cycle (or an out-of-range reference)
    /// manifests: the node order is not topological.
    ForwardReference {
        /// The consuming node.
        node: usize,
        /// The referenced node index (`>= node`, or out of range).
        input: usize,
    },
    /// `node` requests a port `producer` does not materialise (only
    /// grouping nodes have a port 1).
    InvalidPort {
        /// The consuming node.
        node: usize,
        /// The producing node.
        producer: usize,
        /// The requested port.
        port: u8,
    },
    /// `node` consumes the scalar aggregation `producer` as a column.
    ScalarAsColumn {
        /// The consuming node.
        node: usize,
        /// The scalar-producing node.
        producer: usize,
    },
    /// `node` uses `target` as a grouping, but `target` is not a
    /// `group_by` / `group_by_refine` node.
    NotAGrouping {
        /// The consuming node.
        node: usize,
        /// The node referenced as a grouping.
        target: usize,
    },
    /// Two nodes claim the intermediate name `name` (step names and the
    /// implicit `"<step>_reps"` of grouping nodes must be unique — they
    /// are the columns' identity in records and format assignment).
    DuplicateName {
        /// The doubly-claimed intermediate name.
        name: String,
    },
    /// An output handle references a node index outside the plan.
    OutputOutOfRange {
        /// The out-of-range node index.
        node: usize,
    },
    /// The scalar output references `node`, which is not a scalar
    /// aggregation.
    OutputNotScalar {
        /// The referenced node.
        node: usize,
    },
    /// A grouped output references a port of `node` that is not a
    /// materialised column.
    OutputNotColumn {
        /// The referenced node.
        node: usize,
        /// The referenced port.
        port: u8,
    },
    /// The format resolved (or baked into a `morph` node) for `edge` is
    /// not encodable: `reason` says which bound it violates.
    IllegalEdgeFormat {
        /// The column name the format applies to.
        edge: String,
        /// The offending format.
        format: Format,
        /// Which legality rule it violates.
        reason: &'static str,
    },
    /// `node`'s morsel decomposition partitions a column that is not among
    /// its declared inputs.
    MorselInputMismatch {
        /// The offending node.
        node: usize,
    },
    /// A fusion region's member list is malformed: fewer than two members,
    /// not strictly ascending, out of range, or the root is not the last
    /// member.
    FusionRootMismatch {
        /// The region's root node.
        root: usize,
    },
    /// A fusion region absorbed `node` as an interior stage, but its
    /// operator is not position-preserving and streamable.
    FusionIneligibleInterior {
        /// The ineligible interior node.
        node: usize,
    },
    /// A fusion region absorbed `node` as an interior stage, but `node`
    /// has more than one consumer — dropping its column after the pass
    /// would starve the other consumers.
    FusionMultiConsumerInterior {
        /// The multiply-consumed interior node.
        node: usize,
        /// How many consumers it actually has.
        consumers: usize,
    },
    /// A fusion region's members stream from more than one external column
    /// (or from an external column that is not the declared driver).
    FusionMultipleDrivers {
        /// The region's root node.
        root: usize,
    },
    /// A project member of a fusion region gathers from a data column
    /// inside the region — its data side must be a finished column, not an
    /// in-flight stream.
    FusionProjectDataInterior {
        /// The offending project node.
        node: usize,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::EmptyPlan => write!(f, "plan has no nodes"),
            PlanError::ForwardReference { node, input } => write!(
                f,
                "node #{node} references node #{input}, which is not strictly earlier \
                 (cycle or out-of-range edge)"
            ),
            PlanError::InvalidPort {
                node,
                producer,
                port,
            } => write!(
                f,
                "node #{node} requests port {port} of node #{producer}, which it does not produce"
            ),
            PlanError::ScalarAsColumn { node, producer } => write!(
                f,
                "node #{node} consumes scalar aggregation #{producer} as a column"
            ),
            PlanError::NotAGrouping { node, target } => write!(
                f,
                "node #{node} uses node #{target} as a grouping, but it is not one"
            ),
            PlanError::DuplicateName { name } => {
                write!(f, "duplicate intermediate name {name:?}")
            }
            PlanError::OutputOutOfRange { node } => {
                write!(f, "output references node #{node}, which is out of range")
            }
            PlanError::OutputNotScalar { node } => write!(
                f,
                "scalar output references node #{node}, which is not a scalar aggregation"
            ),
            PlanError::OutputNotColumn { node, port } => write!(
                f,
                "grouped output references port {port} of node #{node}, \
                 which is not a materialised column"
            ),
            PlanError::IllegalEdgeFormat {
                edge,
                format,
                reason,
            } => write!(
                f,
                "edge {edge:?} resolves to illegal format {format}: {reason}"
            ),
            PlanError::MorselInputMismatch { node } => write!(
                f,
                "node #{node} partitions a column that is not among its inputs"
            ),
            PlanError::FusionRootMismatch { root } => write!(
                f,
                "fusion region rooted at #{root} has a malformed member list"
            ),
            PlanError::FusionIneligibleInterior { node } => write!(
                f,
                "fusion interior #{node} is not a position-preserving streamable operator"
            ),
            PlanError::FusionMultiConsumerInterior { node, consumers } => write!(
                f,
                "fusion interior #{node} has {consumers} consumers (must be exactly 1)"
            ),
            PlanError::FusionMultipleDrivers { root } => write!(
                f,
                "fusion region rooted at #{root} streams from more than one external column"
            ),
            PlanError::FusionProjectDataInterior { node } => write!(
                f,
                "fused project #{node} gathers from a data column inside its own region"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// Whether `op` materialises a column at `port` (grouping nodes have two
/// ports, scalar aggregations none, everything else exactly port 0).
fn produces_column(op: &PlanOp, port: u8) -> bool {
    match op {
        PlanOp::AggSum { .. } => false,
        PlanOp::GroupBy { .. } | PlanOp::GroupByRefine { .. } => port <= 1,
        _ => port == 0,
    }
}

/// Check one consumed column handle against its producer.
fn check_col_input(
    plan: &QueryPlan,
    node: usize,
    input_node: usize,
    port: u8,
) -> Result<(), PlanError> {
    if input_node >= node {
        return Err(PlanError::ForwardReference {
            node,
            input: input_node,
        });
    }
    let producer = &plan.nodes[input_node].op;
    if matches!(producer, PlanOp::AggSum { .. }) {
        return Err(PlanError::ScalarAsColumn {
            node,
            producer: input_node,
        });
    }
    if !produces_column(producer, port) {
        return Err(PlanError::InvalidPort {
            node,
            producer: input_node,
            port,
        });
    }
    Ok(())
}

/// Check a grouping handle: in range (backwards) and pointing at a
/// grouping node.
fn check_group_input(plan: &QueryPlan, node: usize, target: usize) -> Result<(), PlanError> {
    if target >= node {
        return Err(PlanError::ForwardReference {
            node,
            input: target,
        });
    }
    if !matches!(
        plan.nodes[target].op,
        PlanOp::GroupBy { .. } | PlanOp::GroupByRefine { .. }
    ) {
        return Err(PlanError::NotAGrouping { node, target });
    }
    Ok(())
}

/// A format no encoder can honour, independent of the data: static
/// bit-packing with a width outside `1..=64`.  Everything else is a legal
/// target for every kernel (the registry decodes all formats blockwise).
fn check_format(edge: &str, format: Format) -> Result<(), PlanError> {
    if let Format::StaticBp(width) = format {
        if width == 0 || width > 64 {
            return Err(PlanError::IllegalEdgeFormat {
                edge: edge.to_string(),
                format,
                reason: "static bit width must be in 1..=64",
            });
        }
    }
    Ok(())
}

/// Verify the structural invariants of `plan` (everything except formats
/// and fusion regions).
fn verify_structure(plan: &QueryPlan) -> Result<(), PlanError> {
    if plan.nodes.is_empty() {
        return Err(PlanError::EmptyPlan);
    }

    // Per-node wiring: backwards edges, legal ports, grouping targets, and
    // statically legal morph targets.
    for (idx, node) in plan.nodes.iter().enumerate() {
        match &node.op {
            PlanOp::GroupByRefine { previous, .. } => {
                check_group_input(plan, idx, previous.node)?;
                let keys = match node.op.inputs().last() {
                    Some(r) => *r,
                    None => unreachable!("group_by_refine has inputs"),
                };
                check_col_input(plan, idx, keys.node, keys.port)?;
            }
            PlanOp::AggSumGrouped { group, values } => {
                check_group_input(plan, idx, group.node)?;
                check_col_input(plan, idx, values.node, values.port)?;
            }
            PlanOp::Morph { input, target } => {
                check_col_input(plan, idx, input.node, input.port)?;
                check_format(&plan.node_full_name(idx), *target)?;
            }
            op => {
                for input in op.inputs() {
                    check_col_input(plan, idx, input.node, input.port)?;
                }
            }
        }
    }

    // Intermediate-name uniqueness (scans claim no intermediate name; the
    // builder deduplicates scans of the same base column).
    let mut claimed: Vec<String> = Vec::new();
    for node in &plan.nodes {
        for name in crate::plan::PlanBuilder::claimed_names(&node.name, &node.op) {
            if claimed.contains(&name) {
                return Err(PlanError::DuplicateName { name });
            }
            claimed.push(name);
        }
    }

    // Outputs.
    let node_count = plan.nodes.len();
    match &plan.outputs {
        PlanOutputs::Scalar(value) => {
            if value.node >= node_count {
                return Err(PlanError::OutputOutOfRange { node: value.node });
            }
            if !matches!(plan.nodes[value.node].op, PlanOp::AggSum { .. }) {
                return Err(PlanError::OutputNotScalar { node: value.node });
            }
        }
        PlanOutputs::Grouped { keys, values } => {
            for r in keys.iter().chain(std::iter::once(values)) {
                if r.node >= node_count {
                    return Err(PlanError::OutputOutOfRange { node: r.node });
                }
                if !produces_column(&plan.nodes[r.node].op, r.port) {
                    return Err(PlanError::OutputNotColumn {
                        node: r.node,
                        port: r.port,
                    });
                }
            }
        }
    }

    // Morsel-partition safety: the partitioned input of every
    // chunk-partitionable node is one of its declared inputs, so fan-out
    // only ever streams columns the dependency graph orders before it.
    for (idx, node) in plan.nodes.iter().enumerate() {
        if let Some(partitioned) = node.op.partitioned_input() {
            if !node.op.inputs().contains(&partitioned) {
                return Err(PlanError::MorselInputMismatch { node: idx });
            }
        }
    }

    Ok(())
}

/// Count how many times each node's outputs are consumed (by other nodes
/// and by the plan outputs) — the consumer census the fusion analysis uses.
fn consumer_counts(plan: &QueryPlan) -> Vec<usize> {
    let mut consumers = vec![0usize; plan.nodes.len()];
    for node in &plan.nodes {
        for input in node.op.inputs() {
            consumers[input.node] += 1;
        }
    }
    match &plan.outputs {
        PlanOutputs::Scalar(value) => consumers[value.node] += 1,
        PlanOutputs::Grouped { keys, values } => {
            for key in keys {
                consumers[key.node] += 1;
            }
            consumers[values.node] += 1;
        }
    }
    consumers
}

/// Validate one fused region against the plan it was derived from.
pub(crate) fn verify_region(
    plan: &QueryPlan,
    consumers: &[usize],
    region: &FusedRegion,
) -> Result<(), PlanError> {
    let node_count = plan.nodes.len();
    let members = &region.members;
    let malformed = members.len() < 2
        || members.windows(2).any(|w| w[0] >= w[1])
        || members.iter().any(|&m| m >= node_count)
        || members.last() != Some(&region.root);
    if malformed {
        return Err(PlanError::FusionRootMismatch { root: region.root });
    }
    for &member in members {
        if member != region.root {
            if !interior_eligible(&plan.nodes[member].op) {
                return Err(PlanError::FusionIneligibleInterior { node: member });
            }
            if consumers[member] != 1 {
                return Err(PlanError::FusionMultiConsumerInterior {
                    node: member,
                    consumers: consumers[member],
                });
            }
        }
        for input in streamed_inputs(&plan.nodes[member].op) {
            if !members.contains(&input.node) && input != region.driver {
                return Err(PlanError::FusionMultipleDrivers { root: region.root });
            }
        }
        if let PlanOp::Project { data, .. } = plan.nodes[member].op {
            if members.contains(&data.node) {
                return Err(PlanError::FusionProjectDataInterior { node: member });
            }
        }
    }
    Ok(())
}

/// Validate every region of a fusion analysis against `plan`.
///
/// The executors run this (under `debug_assertions`) against the region
/// set they are *about to execute* — which may be a demoted subset of the
/// full analysis when the plan cache already holds whole regions.
pub(crate) fn verify_fusion(plan: &QueryPlan, fusion: &FusionPlan) -> Result<(), PlanError> {
    let consumers = consumer_counts(plan);
    for region in fusion.regions() {
        verify_region(plan, &consumers, region)?;
    }
    Ok(())
}

/// Verify the structural invariants of `plan`: topological order
/// (acyclicity), operator arity and port legality, grouping-handle
/// targets, intermediate-name uniqueness, output well-formedness,
/// morsel-partition safety, statically illegal `morph` targets, and the
/// legality of every fusion region the analysis would detect.
///
/// Returns the first defect found as a structured [`PlanError`]; a plan
/// constructed through [`crate::plan::PlanBuilder`] always verifies clean.
pub fn verify(plan: &QueryPlan) -> Result<(), PlanError> {
    verify_structure(plan)?;
    verify_fusion(plan, &FusionPlan::analyze(plan))
}

/// [`verify`], plus per-edge format legality: every edge's format under
/// `formats` must be encodable (static bit widths in `1..=64`).
pub fn verify_with_formats(plan: &QueryPlan, formats: &FormatConfig) -> Result<(), PlanError> {
    verify(plan)?;
    for edge in plan.edges() {
        let format = formats.format_for(&edge.name, Format::Uncompressed);
        check_format(&edge.name, format)?;
    }
    Ok(())
}

/// Panic with a readable diagnostic when `plan` fails verification — the
/// `debug_assertions` entry point of the executors.
#[cfg(debug_assertions)]
pub(crate) fn assert_verified(plan: &QueryPlan) {
    if let Err(err) = verify(plan) {
        panic!("plan {:?} failed static verification: {err}", plan.label());
    }
}

/// Panic when the region set an executor is about to run fails
/// verification — the `debug_assertions` fusion cross-check.
#[cfg(debug_assertions)]
pub(crate) fn assert_fusion_verified(plan: &QueryPlan, fusion: &FusionPlan) {
    if let Err(err) = verify_fusion(plan, fusion) {
        panic!(
            "plan {:?} failed fusion-region verification: {err}",
            plan.label()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{ColRef, GroupRef, PlanBuilder, PlanOutputs, ScalarRef};
    use crate::{BinaryOp, CmpOp, Predicate};

    fn col(node: usize, port: u8) -> ColRef {
        ColRef { node, port }
    }

    /// scan -> select -> project -> agg_sum (a fusible scalar plan).
    fn scalar_plan() -> QueryPlan {
        let mut b = PlanBuilder::new("t");
        let data = b.scan("x");
        let sel = b.select("sel", data, CmpOp::Lt, 10);
        let proj = b.project("proj", data, sel);
        let total = b.agg_sum("total", proj);
        b.finish_scalar(total)
    }

    /// A grouped plan with group_by + agg_sum_grouped.
    fn grouped_plan() -> QueryPlan {
        let mut b = PlanBuilder::new("g");
        let keys = b.scan("k");
        let vals = b.scan("v");
        let group = b.group_by("grp", keys);
        let sums = b.agg_sum_grouped("sums", group, vals);
        b.finish_grouped(vec![group.ids()], sums)
    }

    #[test]
    fn builder_plans_verify_clean() {
        assert_eq!(verify(&scalar_plan()), Ok(()));
        assert_eq!(verify(&grouped_plan()), Ok(()));
        assert_eq!(
            verify_with_formats(&scalar_plan(), &FormatConfig::uncompressed()),
            Ok(())
        );
    }

    #[test]
    fn forward_reference_is_a_cycle() {
        let mut plan = scalar_plan();
        // Point the select at the (later) project: a 1-edge cycle through
        // the node list.
        plan.nodes[1].op = PlanOp::Select {
            input: col(2, 0),
            pred: Predicate::Cmp(CmpOp::Lt, 10),
        };
        assert_eq!(
            verify(&plan),
            Err(PlanError::ForwardReference { node: 1, input: 2 })
        );
    }

    #[test]
    fn self_reference_is_a_cycle() {
        let mut plan = scalar_plan();
        plan.nodes[1].op = PlanOp::Select {
            input: col(1, 0),
            pred: Predicate::Cmp(CmpOp::Lt, 10),
        };
        assert_eq!(
            verify(&plan),
            Err(PlanError::ForwardReference { node: 1, input: 1 })
        );
    }

    #[test]
    fn ports_are_checked_against_the_producer() {
        let mut plan = scalar_plan();
        // A scan has no port 1.
        plan.nodes[2].op = PlanOp::Project {
            data: col(0, 1),
            positions: col(1, 0),
        };
        assert_eq!(
            verify(&plan),
            Err(PlanError::InvalidPort {
                node: 2,
                producer: 0,
                port: 1
            })
        );
    }

    #[test]
    fn scalar_nodes_cannot_be_consumed_as_columns() {
        let mut b = PlanBuilder::new("t");
        let x = b.scan("x");
        let _total = b.agg_sum("total", x);
        let y = b.scan("y");
        let total2 = b.agg_sum("total2", y);
        let mut plan = b.finish_scalar(total2);
        // Point the second aggregation at the first one's scalar.
        plan.nodes[3].op = PlanOp::AggSum { values: col(1, 0) };
        assert_eq!(
            verify(&plan),
            Err(PlanError::ScalarAsColumn {
                node: 3,
                producer: 1
            })
        );
    }

    #[test]
    fn grouping_handles_must_point_at_groupings() {
        let mut plan = grouped_plan();
        plan.nodes[3].op = PlanOp::AggSumGrouped {
            group: GroupRef { node: 0 },
            values: col(1, 0),
        };
        assert_eq!(
            verify(&plan),
            Err(PlanError::NotAGrouping { node: 3, target: 0 })
        );
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let mut plan = scalar_plan();
        plan.nodes[2].name = "sel".to_string();
        assert_eq!(
            verify(&plan),
            Err(PlanError::DuplicateName {
                name: "sel".to_string()
            })
        );
    }

    #[test]
    fn outputs_are_range_and_kind_checked() {
        let mut plan = scalar_plan();
        plan.outputs = PlanOutputs::Scalar(ScalarRef { node: 99 });
        assert_eq!(verify(&plan), Err(PlanError::OutputOutOfRange { node: 99 }));

        let mut plan = scalar_plan();
        plan.outputs = PlanOutputs::Scalar(ScalarRef { node: 2 });
        assert_eq!(verify(&plan), Err(PlanError::OutputNotScalar { node: 2 }));

        let mut plan = grouped_plan();
        plan.outputs = PlanOutputs::Grouped {
            keys: vec![col(2, 2)],
            values: col(3, 0),
        };
        assert_eq!(
            verify(&plan),
            Err(PlanError::OutputNotColumn { node: 2, port: 2 })
        );
    }

    #[test]
    fn illegal_morph_targets_are_rejected() {
        let mut b = PlanBuilder::new("t");
        let x = b.scan("x");
        let m = b.morph("m", x, Format::StaticBp(8));
        let total = b.agg_sum("total", m);
        let mut plan = b.finish_scalar(total);
        assert_eq!(verify(&plan), Ok(()));
        plan.nodes[1].op = PlanOp::Morph {
            input: col(0, 0),
            target: Format::StaticBp(0),
        };
        assert!(matches!(
            verify(&plan),
            Err(PlanError::IllegalEdgeFormat { .. })
        ));
    }

    #[test]
    fn illegal_configured_formats_are_rejected() {
        let plan = scalar_plan();
        let formats = FormatConfig::uncompressed().set("t/sel", Format::StaticBp(65));
        let err = verify_with_formats(&plan, &formats).unwrap_err();
        assert!(matches!(
            err,
            PlanError::IllegalEdgeFormat {
                format: Format::StaticBp(65),
                ..
            }
        ));
    }

    #[test]
    fn analyzed_regions_verify_clean() {
        let plan = scalar_plan();
        let fusion = FusionPlan::analyze(&plan);
        assert!(fusion.region_count() > 0, "test plan should fuse");
        assert_eq!(verify_fusion(&plan, &fusion), Ok(()));
    }

    #[test]
    fn multi_consumer_interiors_are_rejected() {
        // Two projects gather through the same select: the select has two
        // consumers and must not be fused as an interior.
        let mut b = PlanBuilder::new("t");
        let data = b.scan("x");
        let sel = b.select("sel", data, CmpOp::Lt, 10);
        let p1 = b.project("p1", data, sel);
        let p2 = b.project("p2", data, sel);
        let c = b.calc_binary("c", BinaryOp::Add, p1, p2);
        let total = b.agg_sum("total", c);
        let plan = b.finish_scalar(total);

        // The analysis itself refuses to absorb the select.
        let fusion = FusionPlan::analyze(&plan);
        assert_eq!(verify_fusion(&plan, &fusion), Ok(()));

        // A hand-built region that absorbs it anyway is rejected.
        let region = FusedRegion {
            members: vec![1, 2],
            root: 2,
            driver: col(0, 0),
            externals: vec![0],
            stages: vec![],
            prefix_independent: true,
        };
        let consumers = consumer_counts(&plan);
        assert_eq!(
            verify_region(&plan, &consumers, &region),
            Err(PlanError::FusionMultiConsumerInterior {
                node: 1,
                consumers: 2
            })
        );
    }

    #[test]
    fn regions_with_two_external_streams_are_rejected() {
        let mut b = PlanBuilder::new("t");
        let x = b.scan("x");
        let y = b.scan("y");
        let c = b.calc_binary("c", BinaryOp::Add, x, y);
        let total = b.agg_sum("total", c);
        let plan = b.finish_scalar(total);
        let region = FusedRegion {
            members: vec![2, 3],
            root: 3,
            driver: col(0, 0),
            externals: vec![0, 1],
            stages: vec![],
            prefix_independent: true,
        };
        let consumers = consumer_counts(&plan);
        assert_eq!(
            verify_region(&plan, &consumers, &region),
            Err(PlanError::FusionMultipleDrivers { root: 3 })
        );
    }

    #[test]
    fn ineligible_interiors_are_rejected() {
        let mut plan = scalar_plan();
        // Turn the interior select into a morph — not position-preserving
        // streamable in the fusion sense.
        plan.nodes[1].op = PlanOp::Morph {
            input: col(0, 0),
            target: Format::Rle,
        };
        let region = FusedRegion {
            members: vec![1, 3],
            root: 3,
            driver: col(0, 0),
            externals: vec![0],
            stages: vec![],
            prefix_independent: true,
        };
        let consumers = consumer_counts(&plan);
        assert_eq!(
            verify_region(&plan, &consumers, &region),
            Err(PlanError::FusionIneligibleInterior { node: 1 })
        );
    }

    #[test]
    fn project_data_inside_region_is_rejected() {
        let plan = scalar_plan();
        // Claim the project gathers from the select (its region-mate),
        // streaming positions from the driver so the select keeps exactly
        // one consumer.
        let mut bad = plan.clone();
        bad.nodes[2].op = PlanOp::Project {
            data: col(1, 0),
            positions: col(0, 0),
        };
        let region = FusedRegion {
            members: vec![1, 2, 3],
            root: 3,
            driver: col(0, 0),
            externals: vec![0],
            stages: vec![],
            prefix_independent: true,
        };
        let consumers = consumer_counts(&bad);
        assert_eq!(
            verify_region(&bad, &consumers, &region),
            Err(PlanError::FusionProjectDataInterior { node: 2 })
        );
    }

    #[test]
    fn malformed_member_lists_are_rejected() {
        let plan = scalar_plan();
        let consumers = consumer_counts(&plan);
        for members in [vec![3], vec![2, 1, 3], vec![1, 99]] {
            let region = FusedRegion {
                root: *members.last().unwrap_or(&0),
                members,
                driver: col(0, 0),
                externals: vec![0],
                stages: vec![],
                prefix_independent: true,
            };
            assert!(matches!(
                verify_region(&plan, &consumers, &region),
                Err(PlanError::FusionRootMismatch { .. })
            ));
        }
    }

    #[test]
    fn error_display_is_informative() {
        let errors: Vec<PlanError> = vec![
            PlanError::EmptyPlan,
            PlanError::ForwardReference { node: 1, input: 2 },
            PlanError::InvalidPort {
                node: 1,
                producer: 0,
                port: 1,
            },
            PlanError::ScalarAsColumn {
                node: 2,
                producer: 1,
            },
            PlanError::NotAGrouping { node: 3, target: 0 },
            PlanError::DuplicateName {
                name: "sel".to_string(),
            },
            PlanError::OutputOutOfRange { node: 9 },
            PlanError::OutputNotScalar { node: 2 },
            PlanError::OutputNotColumn { node: 2, port: 2 },
            PlanError::IllegalEdgeFormat {
                edge: "t/sel".to_string(),
                format: Format::StaticBp(0),
                reason: "static bit width must be in 1..=64",
            },
            PlanError::MorselInputMismatch { node: 2 },
            PlanError::FusionRootMismatch { root: 3 },
            PlanError::FusionIneligibleInterior { node: 1 },
            PlanError::FusionMultiConsumerInterior {
                node: 1,
                consumers: 2,
            },
            PlanError::FusionMultipleDrivers { root: 3 },
            PlanError::FusionProjectDataInterior { node: 2 },
        ];
        for err in errors {
            assert!(!err.to_string().is_empty());
        }
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// Build a random-but-valid chain plan: scan, then a sequence of
        /// unary stages, finished by a scalar aggregation.
        fn chain_plan(stages: &[u8]) -> QueryPlan {
            let mut b = PlanBuilder::new("p");
            let data = b.scan("x");
            let mut last = data;
            for (i, &kind) in stages.iter().enumerate() {
                let name = format!("s{i}");
                last = match kind % 4 {
                    0 => b.select(&name, last, CmpOp::Lt, 1 + kind as u64),
                    1 => b.select_between(&name, last, 2, 2 + kind as u64),
                    2 => b.project(&name, data, last),
                    _ => b.calc_binary(&name, BinaryOp::Add, last, last),
                };
            }
            let total = b.agg_sum("total", last);
            b.finish_scalar(total)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            // Every builder-constructed chain verifies clean, and its
            // fusion analysis passes region verification.
            #[test]
            fn builder_chains_verify_clean(stages in proptest::collection::vec(0u8..8, 0..6)) {
                let plan = chain_plan(&stages);
                prop_assert_eq!(verify(&plan), Ok(()));
                let fusion = FusionPlan::analyze(&plan);
                prop_assert_eq!(verify_fusion(&plan, &fusion), Ok(()));
            }

            // Rewiring any non-scan node's first input to a forward edge
            // is always rejected as a topological-order violation.
            #[test]
            fn forward_rewires_are_rejected(
                stages in proptest::collection::vec(0u8..8, 1..6),
                pick in 0usize..8,
            ) {
                let mut plan = chain_plan(&stages);
                let node_count = plan.nodes.len();
                let victim = 1 + pick % (node_count - 1);
                // A self edge or the next node forward (possibly one past
                // the end) — both are topological-order violations.
                let bad = col(victim + pick % 2, 0);
                plan.nodes[victim].op = match plan.nodes[victim].op.clone() {
                    PlanOp::Select { pred, .. } => PlanOp::Select { input: bad, pred },
                    PlanOp::Project { data, .. } => PlanOp::Project { data, positions: bad },
                    PlanOp::CalcBinary { op, rhs, .. } => PlanOp::CalcBinary { op, lhs: bad, rhs },
                    PlanOp::AggSum { .. } => PlanOp::AggSum { values: bad },
                    other => other,
                };
                prop_assert_eq!(
                    verify(&plan),
                    Err(PlanError::ForwardReference { node: victim, input: bad.node })
                );
            }
        }
    }
}
