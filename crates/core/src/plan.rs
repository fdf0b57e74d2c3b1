//! The logical query-plan DAG: construction ([`PlanBuilder`]), inspection
//! ([`QueryPlan`]) and execution ([`PlanExecutor`]).
//!
//! The paper's processing model deliberately keeps query planning ordinary:
//! a plan is "constructed using our compression-enabled query operators in
//! the same manner as for uncompressed processing" (Section 3.3), and the
//! per-column compression format is the *only* new degree of freedom.  This
//! module makes that plan a first-class value instead of a hand-written
//! sequence of operator calls:
//!
//! * [`PlanBuilder`] offers one constructor per physical operator
//!   ([`PlanBuilder::scan`], [`PlanBuilder::select`],
//!   [`PlanBuilder::project`], [`PlanBuilder::join`], …) and returns typed
//!   node handles ([`ColRef`], [`GroupRef`], [`ScalarRef`]) that later
//!   constructors consume.  Handles can only refer to nodes that already
//!   exist, so the node list is always in topological order.
//! * [`QueryPlan`] is the finished DAG.  It knows every *edge* — every base
//!   column and every named intermediate the plan materialises — which is
//!   what the format-selection strategies enumerate ([`QueryPlan::edges`])
//!   and what the debug printer renders ([`QueryPlan::describe`]).
//! * [`PlanExecutor`] runs the DAG on the calling thread: each node's
//!   output format is resolved from the [`FormatConfig`] of the given
//!   [`ExecutionContext`] under the stable name `"<plan label>/<step>"`,
//!   and footprints and timings are recorded exactly like the paper's
//!   evaluation requires — the bookkeeping every query used to copy-paste
//!   by hand.
//!
//! This module also holds what a node computes — `run_node_op`, the
//! whole-column operator, and `run_part`, its chunk-range kernel over one
//! part of the node's partitioned input.  *When* nodes run is the scheduler's
//! business ([`crate::parallel`]): one ready-queue loop over the explicit
//! dependency graph ([`QueryPlan::dependencies`]) behind both
//! [`PlanExecutor`] and [`crate::parallel::ParallelExecutor`].

use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use morph_cache::{CacheKey, CachedValue, Fingerprint, QueryCache};
use morph_compression::Format;
use morph_storage::{Column, ColumnSize};
use morph_vector::keys::KeySet;

use crate::exec::{ExecSettings, ExecutionContext, FormatConfig, NodeRecords};
use crate::ops::agg::{agg_sum, agg_sum_grouped};
use crate::ops::calc::calc_binary;
use crate::ops::group::{group_by, group_by_refine, GroupResult};
use crate::ops::join::{join, semi_join};
use crate::ops::merge::{intersect_sorted, merge_sorted};
use crate::ops::morph_op::morph;
use crate::ops::partitioned;
use crate::ops::project::project;
use crate::ops::select::{select, Predicate};
use crate::trace::PlanTrace;
use crate::{BinaryOp, CmpOp};

/// A provider of base columns by name — the leaf inputs of a plan.
///
/// [`crate::exec::ExecutionContext`] is deliberately not involved: a source
/// is pure storage, the context only records what an execution touched.
pub trait ColumnSource {
    /// The base column named `name`.
    ///
    /// # Panics
    /// Implementations panic when no column of that name exists; a plan
    /// referencing an unknown column is a construction bug, not a runtime
    /// condition.
    fn column(&self, name: &str) -> &Column;
}

impl ColumnSource for HashMap<String, Column> {
    fn column(&self, name: &str) -> &Column {
        self.get(name)
            .unwrap_or_else(|| panic!("unknown base column {name:?}"))
    }
}

/// Typed handle to the single column produced by a plan node (or to one of
/// the two columns of a grouping node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ColRef {
    pub(crate) node: usize,
    pub(crate) port: u8,
}

/// Typed handle to a grouping node (which produces *two* columns — per-row
/// group identifiers and per-group representative positions — plus the group
/// count).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GroupRef {
    pub(crate) node: usize,
}

impl GroupRef {
    /// The per-row dense group identifiers (recorded under the node's own
    /// step name).
    pub fn ids(&self) -> ColRef {
        ColRef {
            node: self.node,
            port: 0,
        }
    }

    /// The per-group representative positions (recorded under
    /// `"<step>_reps"`).
    pub fn representatives(&self) -> ColRef {
        ColRef {
            node: self.node,
            port: 1,
        }
    }
}

/// Typed handle to a scalar-producing node (whole-column aggregation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScalarRef {
    pub(crate) node: usize,
}

/// The physical operator a plan node executes.
#[derive(Debug, Clone)]
pub(crate) enum PlanOp {
    Scan {
        column: String,
    },
    Select {
        input: ColRef,
        pred: Predicate,
    },
    IntersectSorted {
        a: ColRef,
        b: ColRef,
    },
    MergeSorted {
        a: ColRef,
        b: ColRef,
    },
    Project {
        data: ColRef,
        positions: ColRef,
    },
    SemiJoin {
        probe: ColRef,
        build: ColRef,
    },
    Join {
        probe: ColRef,
        build: ColRef,
    },
    CalcBinary {
        op: BinaryOp,
        lhs: ColRef,
        rhs: ColRef,
    },
    GroupBy {
        keys: ColRef,
    },
    GroupByRefine {
        previous: GroupRef,
        keys: ColRef,
    },
    AggSumGrouped {
        group: GroupRef,
        values: ColRef,
    },
    AggSum {
        values: ColRef,
    },
    Morph {
        input: ColRef,
        target: Format,
    },
}

impl PlanOp {
    /// The operator mnemonic used in timing labels and the debug printer.
    pub(crate) fn mnemonic(&self) -> &'static str {
        match self {
            PlanOp::Scan { .. } => "scan",
            PlanOp::Select { .. } => "select",
            PlanOp::IntersectSorted { .. } => "intersect",
            PlanOp::MergeSorted { .. } => "merge",
            PlanOp::Project { .. } => "project",
            PlanOp::SemiJoin { .. } => "semijoin",
            PlanOp::Join { .. } => "join",
            PlanOp::CalcBinary { .. } => "calc",
            PlanOp::GroupBy { .. } | PlanOp::GroupByRefine { .. } => "group",
            PlanOp::AggSumGrouped { .. } | PlanOp::AggSum { .. } => "agg",
            PlanOp::Morph { .. } => "morph",
        }
    }

    /// The column handles this operator consumes (for the debug printer and
    /// the fusion analysis).
    pub(crate) fn inputs(&self) -> Vec<ColRef> {
        match *self {
            PlanOp::Scan { .. } => vec![],
            PlanOp::Select { input, .. } | PlanOp::Morph { input, .. } => vec![input],
            PlanOp::IntersectSorted { a, b } | PlanOp::MergeSorted { a, b } => vec![a, b],
            PlanOp::Project { data, positions } => vec![data, positions],
            PlanOp::SemiJoin { probe, build } | PlanOp::Join { probe, build } => {
                vec![probe, build]
            }
            PlanOp::CalcBinary { lhs, rhs, .. } => vec![lhs, rhs],
            PlanOp::GroupBy { keys } => vec![keys],
            PlanOp::GroupByRefine { previous, keys } => {
                vec![previous.ids(), previous.representatives(), keys]
            }
            PlanOp::AggSumGrouped { group, values } => vec![group.ids(), values],
            PlanOp::AggSum { values } => vec![values],
        }
    }

    /// The input [`run_part`] range-partitions, or `None` for operators
    /// without a chunk-range kernel.  Only the hot operators dominated by
    /// one streamed input have one: `select` (the data column, for every
    /// predicate), `project` (the position list), `semi_join` (the probe
    /// side; the build set is shared), `calc_binary` (the left operand; the
    /// right operand's aligned logical ranges are pulled per part),
    /// `intersect_sorted` (the first list; each part seeks into the second)
    /// and the whole-column `agg_sum`.
    pub(crate) fn partitioned_input(&self) -> Option<ColRef> {
        match *self {
            PlanOp::Select { input, .. } => Some(input),
            PlanOp::Project { positions, .. } => Some(positions),
            PlanOp::SemiJoin { probe, .. } => Some(probe),
            PlanOp::CalcBinary { lhs, .. } => Some(lhs),
            PlanOp::IntersectSorted { a, .. } => Some(a),
            PlanOp::AggSum { values } => Some(values),
            _ => None,
        }
    }
}

/// One node of the DAG: a step name plus the operator it runs.
#[derive(Debug, Clone)]
pub(crate) struct PlanNode {
    pub(crate) name: String,
    pub(crate) op: PlanOp,
}

/// What the plan returns to the caller.
#[derive(Debug, Clone)]
pub(crate) enum PlanOutputs {
    /// A single scalar (the ungrouped SSB flight-1 queries).
    Scalar(ScalarRef),
    /// Row-aligned group-key columns plus the aggregated measure.
    Grouped { keys: Vec<ColRef>, values: ColRef },
}

/// One materialised column of a plan: a base column or a named intermediate.
///
/// The format-selection strategies enumerate these instead of hard-coded
/// per-query column-name lists — the set of assignable columns is a property
/// of the plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanEdge {
    /// The name the column is recorded (and format-assigned) under: the bare
    /// column name for base columns, `"<plan label>/<step>"` for
    /// intermediates.
    pub name: String,
    /// Mnemonic of the operator producing the column.
    pub op: &'static str,
    /// Whether this is a base column (scan) rather than an intermediate.
    pub is_base: bool,
}

/// The decompressed result of executing a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanOutput {
    /// One vector per group-key output column, row-aligned with `values`
    /// (empty for scalar plans).
    pub group_keys: Vec<Vec<u64>>,
    /// The aggregated value per result row (a single element for scalar
    /// plans).
    pub values: Vec<u64>,
}

/// A finished logical operator DAG.
///
/// Nodes are stored in construction order, which [`PlanBuilder`] guarantees
/// to be a topological order; one worker therefore runs the node list
/// linearly.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    label: String,
    pub(crate) nodes: Vec<PlanNode>,
    pub(crate) outputs: PlanOutputs,
}

impl QueryPlan {
    /// The plan label, used as the prefix of every intermediate name.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Number of operator nodes (including scans).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The full (prefixed) name of the column produced by `node`, given its
    /// step `name`; grouping nodes record their second output under
    /// `"<step>_reps"`.
    fn full_name(&self, name: &str) -> String {
        format!("{}/{}", self.label, name)
    }

    /// The distinct base columns the plan scans, in first-use order.
    pub fn base_columns(&self) -> Vec<String> {
        let mut seen = Vec::new();
        for node in &self.nodes {
            if let PlanOp::Scan { column } = &node.op {
                if !seen.iter().any(|s| s == column) {
                    seen.push(column.clone());
                }
            }
        }
        seen
    }

    /// The full names of every intermediate the plan materialises, in
    /// execution order (grouping nodes contribute two names).
    pub fn intermediate_names(&self) -> Vec<String> {
        self.edges()
            .into_iter()
            .filter(|e| !e.is_base)
            .map(|e| e.name)
            .collect()
    }

    /// Every materialised column of the plan — base columns and
    /// intermediates — in execution order.
    ///
    /// Scalar aggregations produce no column and therefore no edge.
    pub fn edges(&self) -> Vec<PlanEdge> {
        let mut edges = Vec::new();
        let mut seen_bases: Vec<&str> = Vec::new();
        for node in &self.nodes {
            match &node.op {
                PlanOp::Scan { column } => {
                    if !seen_bases.contains(&column.as_str()) {
                        seen_bases.push(column);
                        edges.push(PlanEdge {
                            name: column.clone(),
                            op: "scan",
                            is_base: true,
                        });
                    }
                }
                PlanOp::AggSum { .. } => {}
                PlanOp::GroupBy { .. } | PlanOp::GroupByRefine { .. } => {
                    edges.push(PlanEdge {
                        name: self.full_name(&node.name),
                        op: node.op.mnemonic(),
                        is_base: false,
                    });
                    edges.push(PlanEdge {
                        name: self.full_name(&format!("{}_reps", node.name)),
                        op: node.op.mnemonic(),
                        is_base: false,
                    });
                }
                _ => {
                    edges.push(PlanEdge {
                        name: self.full_name(&node.name),
                        op: node.op.mnemonic(),
                        is_base: false,
                    });
                }
            }
        }
        edges
    }

    /// Render the plan with the format every edge would be materialised in
    /// under `formats` — the debug printer of the plan layer.  Formats are
    /// spelled via [`Format`]'s `Display` implementation, the same canonical
    /// spelling the benchmark harness uses.
    pub fn describe(&self, formats: &FormatConfig) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "plan {:?} ({} nodes)", self.label, self.nodes.len());
        for (idx, node) in self.nodes.iter().enumerate() {
            let inputs: Vec<String> = node
                .op
                .inputs()
                .iter()
                .map(|r| {
                    if r.port == 0 {
                        format!("#{}", r.node)
                    } else {
                        format!("#{}.reps", r.node)
                    }
                })
                .collect();
            let detail = match &node.op {
                // The step name of a scan *is* the column name.
                PlanOp::Scan { .. } => String::new(),
                PlanOp::Select { pred, .. } => pred.to_string(),
                PlanOp::CalcBinary { op, .. } => format!("{op:?}"),
                PlanOp::Morph { target, .. } => format!("to {target}"),
                _ => String::new(),
            };
            let format_of = |name: &str| formats.format_for(name, Format::Uncompressed);
            let materialised = match &node.op {
                PlanOp::Scan { .. } => String::new(),
                PlanOp::AggSum { .. } => " -> scalar".to_string(),
                PlanOp::AggSumGrouped { .. } => {
                    format!(
                        " -> {} : {}",
                        self.full_name(&node.name),
                        Format::Uncompressed
                    )
                }
                PlanOp::GroupBy { .. } | PlanOp::GroupByRefine { .. } => {
                    let ids = self.full_name(&node.name);
                    let reps = self.full_name(&format!("{}_reps", node.name));
                    format!(
                        " -> {} : {}, {} : {}",
                        ids,
                        format_of(&ids),
                        reps,
                        format_of(&reps)
                    )
                }
                _ => {
                    let name = self.full_name(&node.name);
                    format!(" -> {} : {}", name, format_of(&name))
                }
            };
            let detail = if detail.is_empty() {
                String::new()
            } else {
                format!(" {detail}")
            };
            let sources = if inputs.is_empty() {
                String::new()
            } else {
                format!(" <- [{}]", inputs.join(", "))
            };
            let _ = writeln!(
                out,
                "  [{idx:>3}] {:<9} {}{detail}{sources}{materialised}",
                node.op.mnemonic(),
                node.name,
            );
        }
        match &self.outputs {
            PlanOutputs::Scalar(s) => {
                let _ = writeln!(out, "  output: scalar #{}", s.node);
            }
            PlanOutputs::Grouped { keys, values } => {
                let keys: Vec<String> = keys.iter().map(|k| format!("#{}", k.node)).collect();
                let _ = writeln!(
                    out,
                    "  output: keys [{}], values #{}",
                    keys.join(", "),
                    values.node
                );
            }
        }
        out
    }

    /// [`QueryPlan::describe`] plus the plan's fused pipelines as bracketed
    /// groups — what EXPLAIN shows when operator fusion is enabled.  The
    /// node listing is identical to [`QueryPlan::describe`]; the trailing
    /// `fused pipelines:` section (absent when nothing fuses) names each
    /// region's member chain, its driver column, the interior columns that
    /// are no longer retained, and whether the region can fan out as
    /// morsels.
    pub fn describe_with_fusion(&self, formats: &FormatConfig) -> String {
        let mut out = self.describe(formats);
        out.push_str(&crate::fusion::FusionPlan::analyze(self).render(self));
        out
    }

    /// Render the executed plan annotated from a completed
    /// [`PlanTrace`]: per node the measured wall time, output rows,
    /// physical (compressed) versus logical bytes, the materialised format,
    /// whether the node was served from the plan cache, its morsel fan-out
    /// degree and its fused region; the executed fused regions follow as
    /// EXPLAIN's `fused pipelines:` section
    /// ([`FusionPlan::render`](crate::fusion::FusionPlan::render)).  This
    /// is the `EXPLAIN ANALYZE` body of the SQL front-end and of the
    /// server's slow-query log.
    ///
    /// Attach a [`QueryTracer`](crate::trace::QueryTracer) via
    /// [`ExecSettings::with_tracer`](crate::exec::ExecSettings::with_tracer),
    /// execute the plan, and pass
    /// [`QueryTracer::last_trace`](crate::trace::QueryTracer::last_trace)
    /// here.  A trace from a different plan is flagged in the header rather
    /// than panicking: a node it has no span for reads "(not executed)",
    /// and its fused regions are not rendered.
    pub fn explain_analyze(&self, trace: &PlanTrace) -> String {
        use fmt::Write as _;
        let stale = if trace.fingerprint == self.structural_fingerprint() {
            ""
        } else {
            " [trace is from a different plan]"
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "explain analyze {:?} ({} nodes, total {}){stale}",
            self.label,
            self.nodes.len(),
            fmt_duration(trace.total()),
        );
        for (idx, node) in self.nodes.iter().enumerate() {
            let name = crate::fusion::edge_name(self, ColRef { node: idx, port: 0 });
            let step = format!("{}:{name}", node.op.mnemonic());
            let Some(span) = trace.spans.get(idx).filter(|span| span.is_recorded()) else {
                let _ = writeln!(out, "  [{idx:>3}] {step:<40} (not executed)");
                continue;
            };
            let mut annotations = String::new();
            if span.cache_hit() {
                annotations.push_str("  cache hit");
            }
            if span.morsel_parts() > 0 {
                let _ = write!(annotations, "  fan-out x{}", span.morsel_parts());
            }
            if let Some(region) = trace.fusion.region_of(idx) {
                let _ = write!(annotations, "  fused region {region}");
            }
            let format = span
                .format
                .map_or_else(|| "scalar".to_string(), |format| format.to_string());
            let _ = writeln!(
                out,
                "  [{idx:>3}] {step:<40} {:>10}  {:>9} rows  {:>10} phys / {:>10} logical  {format}{annotations}",
                fmt_duration(span.elapsed()),
                span.rows(),
                fmt_bytes(span.bytes()),
                fmt_bytes(span.logical_bytes()),
            );
        }
        if stale.is_empty() {
            out.push_str(&trace.fusion.render(self));
        }
        out
    }

    /// Per node, the indices of the nodes whose outputs it consumes
    /// (sorted, deduplicated).  Handles can only refer to already-appended
    /// nodes, so `dependencies()[i]` contains only indices `< i` — this is
    /// the explicit dependency graph the scheduler ([`crate::parallel`])
    /// runs on.
    pub fn dependencies(&self) -> Vec<Vec<usize>> {
        self.nodes
            .iter()
            .map(|node| {
                let mut deps: Vec<usize> = node.op.inputs().iter().map(|r| r.node).collect();
                deps.sort_unstable();
                deps.dedup();
                deps
            })
            .collect()
    }

    /// Partition the nodes into *ready sets*: level 0 holds the nodes with
    /// no inputs (scans), level `k` the nodes whose inputs all lie in levels
    /// `< k` with at least one in level `k - 1`.  All nodes of one level are
    /// mutually independent and could run concurrently.
    ///
    /// This is the plan's parallelism profile (its length is the critical
    /// path in operator counts).  The scheduler ([`crate::parallel`]) runs
    /// *dynamically* by in-degree instead of level-by-level — a level
    /// barrier would serialise unbalanced subtrees — but the level
    /// structure is what tests and tools inspect.
    pub fn ready_sets(&self) -> Vec<Vec<usize>> {
        let deps = self.dependencies();
        let mut level_of = vec![0usize; self.nodes.len()];
        let mut levels: Vec<Vec<usize>> = Vec::new();
        for idx in 0..self.nodes.len() {
            // Nodes are in topological order, so dependency levels are known.
            let level = deps[idx]
                .iter()
                .map(|&d| level_of[d] + 1)
                .max()
                .unwrap_or(0);
            level_of[idx] = level;
            if levels.len() <= level {
                levels.resize(level + 1, Vec::new());
            }
            levels[level].push(idx);
        }
        levels
    }

    /// The full (prefixed) name node `idx` records its output column under.
    pub(crate) fn node_full_name(&self, idx: usize) -> String {
        self.full_name(&self.nodes[idx].name)
    }

    /// The timing label node `idx` is measured under
    /// (`"<label>/<mnemonic>:<step>"`).
    pub(crate) fn node_timing_label(&self, idx: usize) -> String {
        let node = &self.nodes[idx];
        format!("{}/{}:{}", self.label, node.op.mnemonic(), node.name)
    }

    /// A canonical fingerprint of the plan's *structure*: label, step names,
    /// operators with their parameters, the wiring between nodes, and the
    /// outputs — but no formats, no settings and no data.
    ///
    /// Two constructions of the same plan produce the same fingerprint; any
    /// differing step, parameter or edge produces a different one.  A
    /// [`PlanTrace`] carries it, so [`QueryPlan::explain_analyze`] can flag
    /// a trace of another plan.
    pub fn structural_fingerprint(&self) -> CacheKey {
        let mut fp = Fingerprint::with_tag("morph-plan");
        fp.write_str(&self.label);
        for node in &self.nodes {
            fp.write_str(&node.name);
            // Scans fingerprint as tag + column name and have no inputs, so
            // the uniform path covers them too.
            write_op_fingerprint(&mut fp, &node.op);
            for input in node.op.inputs() {
                fp.write_u64(input.node as u64);
                fp.write_u8(input.port);
            }
        }
        match &self.outputs {
            PlanOutputs::Scalar(value) => {
                fp.write_str("scalar");
                fp.write_u64(value.node as u64);
            }
            PlanOutputs::Grouped { keys, values } => {
                fp.write_str("grouped");
                for key in keys {
                    fp.write_u64(key.node as u64);
                    fp.write_u8(key.port);
                }
                fp.write_u64(values.node as u64);
                fp.write_u8(values.port);
            }
        }
        fp.finish()
    }

    /// The format node `idx`'s output is built in by every chunk-range run —
    /// a morsel part, a fused stage and the splice that merges their
    /// partials: the edge's assigned format, made effective for the
    /// integration degree.
    pub(crate) fn part_format(
        &self,
        idx: usize,
        settings: &ExecSettings,
        formats: &FormatConfig,
    ) -> Format {
        partitioned::effective_output_format(
            &formats.format_for(&self.node_full_name(idx), Format::Uncompressed),
            settings,
        )
    }

    /// Assemble the caller-facing [`PlanOutput`] from the executed slots.
    pub(crate) fn collect_output<'a, 's, F>(&self, slots: F) -> PlanOutput
    where
        'a: 's,
        F: Fn(usize) -> &'s Slot<'a>,
    {
        match &self.outputs {
            PlanOutputs::Scalar(value) => PlanOutput {
                group_keys: vec![],
                values: vec![slots(value.node).scalar()],
            },
            PlanOutputs::Grouped { keys, values } => PlanOutput {
                group_keys: keys
                    .iter()
                    .map(|k| slots(k.node).column(k.port).decompress())
                    .collect(),
                values: slots(values.node).column(values.port).decompress(),
            },
        }
    }

    /// Execute the plan against `source`, recording footprints and timings
    /// in `ctx` (convenience wrapper around [`PlanExecutor`]).
    pub fn execute(&self, source: &dyn ColumnSource, ctx: &mut ExecutionContext) -> PlanOutput {
        PlanExecutor.execute(self, source, ctx)
    }

    /// Fallible counterpart of [`QueryPlan::execute`]: a tripped
    /// [`QueryGovernor`](crate::govern::QueryGovernor) limit or a decode
    /// failure returns a structured [`ExecError`](crate::govern::ExecError)
    /// instead of unwinding (convenience wrapper around
    /// [`PlanExecutor::try_execute`]).
    pub fn try_execute(
        &self,
        source: &dyn ColumnSource,
        ctx: &mut ExecutionContext,
    ) -> Result<PlanOutput, crate::govern::ExecError> {
        PlanExecutor.try_execute(self, source, ctx)
    }
}

impl fmt::Display for QueryPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.describe(&FormatConfig::default()))
    }
}

/// Incremental construction of a [`QueryPlan`].
///
/// Every method appends one node and returns a typed handle; because a
/// handle can only be obtained from this builder, every edge points
/// backwards and the node list is a topological order by construction.  Step
/// names must be unique within a plan — they become the
/// `"<label>/<step>"` intermediate names that [`FormatConfig`] assigns
/// formats to.
#[derive(Debug, Clone)]
pub struct PlanBuilder {
    label: String,
    nodes: Vec<PlanNode>,
}

impl PlanBuilder {
    /// Start a plan labelled `label` (the prefix of its intermediate names,
    /// e.g. the SSB query label `"1.1"`).
    pub fn new(label: impl Into<String>) -> PlanBuilder {
        PlanBuilder {
            label: label.into(),
            nodes: Vec::new(),
        }
    }

    /// The intermediate names a non-scan node records under: its step name,
    /// plus the reserved `"<step>_reps"` for grouping nodes.
    pub(crate) fn claimed_names(name: &str, op: &PlanOp) -> Vec<String> {
        match op {
            PlanOp::Scan { .. } => vec![],
            PlanOp::GroupBy { .. } | PlanOp::GroupByRefine { .. } => {
                vec![name.to_string(), format!("{name}_reps")]
            }
            _ => vec![name.to_string()],
        }
    }

    fn push(&mut self, name: &str, op: PlanOp) -> usize {
        // Every intermediate name — including the implicit "<step>_reps" of
        // grouping nodes — must be unique: it is the column's identity in
        // the execution records and in the format assignment.
        let claims = Self::claimed_names(name, &op);
        for node in &self.nodes {
            for existing in Self::claimed_names(&node.name, &node.op) {
                assert!(
                    !claims.contains(&existing),
                    "duplicate plan step name {existing:?}"
                );
            }
        }
        for input in op.inputs() {
            assert!(
                input.node < self.nodes.len(),
                "plan step {name:?} references a node that does not exist yet"
            );
        }
        self.nodes.push(PlanNode {
            name: name.to_string(),
            op,
        });
        self.nodes.len() - 1
    }

    fn col(&mut self, name: &str, op: PlanOp) -> ColRef {
        ColRef {
            node: self.push(name, op),
            port: 0,
        }
    }

    /// Scan the base column `column`.  Scanning the same column twice
    /// returns the original handle (base columns are recorded once per
    /// query, as in the paper's footprint accounting).
    pub fn scan(&mut self, column: &str) -> ColRef {
        if let Some(existing) = self
            .nodes
            .iter()
            .position(|n| matches!(&n.op, PlanOp::Scan { column: c } if c == column))
        {
            return ColRef {
                node: existing,
                port: 0,
            };
        }
        self.col(
            column,
            PlanOp::Scan {
                column: column.to_string(),
            },
        )
    }

    /// Positions of `input` whose value satisfies `pred`.
    pub fn select_where(&mut self, name: &str, input: ColRef, pred: Predicate) -> ColRef {
        self.col(name, PlanOp::Select { input, pred })
    }

    /// Positions of `input` satisfying `value <op> constant`.
    pub fn select(&mut self, name: &str, input: ColRef, op: CmpOp, constant: u64) -> ColRef {
        self.select_where(name, input, Predicate::Cmp(op, constant))
    }

    /// Positions of `input` with a value in `[low, high]`.
    pub fn select_between(&mut self, name: &str, input: ColRef, low: u64, high: u64) -> ColRef {
        self.select_where(name, input, Predicate::Between(low, high))
    }

    /// Positions of `input` equal to one of `values` (`IN (a, b, …)`).
    pub fn select_in(&mut self, name: &str, input: ColRef, values: &[u64]) -> ColRef {
        self.select_where(name, input, Predicate::In(values.to_vec()))
    }

    /// Intersection of two sorted position columns.
    pub fn intersect_sorted(&mut self, name: &str, a: ColRef, b: ColRef) -> ColRef {
        self.col(name, PlanOp::IntersectSorted { a, b })
    }

    /// Union of two sorted position columns (duplicates collapse).
    pub fn merge_sorted(&mut self, name: &str, a: ColRef, b: ColRef) -> ColRef {
        self.col(name, PlanOp::MergeSorted { a, b })
    }

    /// `data[positions]`.
    pub fn project(&mut self, name: &str, data: ColRef, positions: ColRef) -> ColRef {
        self.col(name, PlanOp::Project { data, positions })
    }

    /// Positions of `probe` whose value occurs in `build`.
    pub fn semi_join(&mut self, name: &str, probe: ColRef, build: ColRef) -> ColRef {
        self.col(name, PlanOp::SemiJoin { probe, build })
    }

    /// N:1 join of `probe` (foreign keys) against `build` (a key column);
    /// materialises the build-side positions aligned with the probe rows.
    /// Execution asserts that every probe row finds exactly one match.
    pub fn join(&mut self, name: &str, probe: ColRef, build: ColRef) -> ColRef {
        self.col(name, PlanOp::Join { probe, build })
    }

    /// Element-wise binary calculation over two aligned columns.
    pub fn calc_binary(&mut self, name: &str, op: BinaryOp, lhs: ColRef, rhs: ColRef) -> ColRef {
        self.col(name, PlanOp::CalcBinary { op, lhs, rhs })
    }

    /// Group rows by a key column.  The per-row group identifiers and the
    /// per-group representatives are distinct intermediates with distinct
    /// data characteristics, named `<name>` and `<name>_reps`.
    pub fn group_by(&mut self, name: &str, keys: ColRef) -> GroupRef {
        GroupRef {
            node: self.push(name, PlanOp::GroupBy { keys }),
        }
    }

    /// Refine an existing grouping by an additional key column (multi-column
    /// `GROUP BY`, one refinement per further key).
    pub fn group_by_refine(&mut self, name: &str, previous: GroupRef, keys: ColRef) -> GroupRef {
        assert!(
            previous.node < self.nodes.len(),
            "plan step {name:?} references a grouping that does not exist yet"
        );
        GroupRef {
            node: self.push(name, PlanOp::GroupByRefine { previous, keys }),
        }
    }

    /// Per-group sum of `values`.  The output is a final query result and is
    /// always materialised uncompressed (Section 3.3 of the paper).
    pub fn agg_sum_grouped(&mut self, name: &str, group: GroupRef, values: ColRef) -> ColRef {
        assert!(
            group.node < self.nodes.len(),
            "plan step {name:?} references a grouping that does not exist yet"
        );
        self.col(name, PlanOp::AggSumGrouped { group, values })
    }

    /// Whole-column sum, producing a scalar.
    pub fn agg_sum(&mut self, name: &str, values: ColRef) -> ScalarRef {
        ScalarRef {
            node: self.push(name, PlanOp::AggSum { values }),
        }
    }

    /// Re-encode a column in `target` format (the morph operator as an
    /// explicit plan step).
    pub fn morph(&mut self, name: &str, input: ColRef, target: Format) -> ColRef {
        self.col(name, PlanOp::Morph { input, target })
    }

    /// Finish a plan whose result is the scalar produced by `value`.
    pub fn finish_scalar(self, value: ScalarRef) -> QueryPlan {
        assert!(value.node < self.nodes.len());
        QueryPlan {
            label: self.label,
            nodes: self.nodes,
            outputs: PlanOutputs::Scalar(value),
        }
    }

    /// Finish a plan returning row-aligned group-key columns plus the
    /// aggregated measure.
    pub fn finish_grouped(self, keys: Vec<ColRef>, values: ColRef) -> QueryPlan {
        for key in &keys {
            assert!(key.node < self.nodes.len());
        }
        assert!(values.node < self.nodes.len());
        QueryPlan {
            label: self.label,
            nodes: self.nodes,
            outputs: PlanOutputs::Grouped { keys, values },
        }
    }
}

/// Mix one operator's tag and parameters (not its inputs — the caller mixes
/// those, either as sub-fingerprints or as node indices).
///
/// Every operator kind gets a distinct tag and every parameter is mixed, so
/// two nodes fingerprint equal exactly when they run the same operator with
/// the same parameters.
fn write_op_fingerprint(fp: &mut Fingerprint, op: &PlanOp) {
    match op {
        PlanOp::Scan { column } => {
            fp.write_str("scan");
            fp.write_str(column);
        }
        PlanOp::Select { pred, .. } => {
            fp.write_str("select");
            fp.write_str(&pred.to_string());
        }
        PlanOp::IntersectSorted { .. } => fp.write_str("intersect_sorted"),
        PlanOp::MergeSorted { .. } => fp.write_str("merge_sorted"),
        PlanOp::Project { .. } => fp.write_str("project"),
        PlanOp::SemiJoin { .. } => fp.write_str("semi_join"),
        PlanOp::Join { .. } => fp.write_str("join"),
        PlanOp::CalcBinary { op, .. } => {
            fp.write_str("calc_binary");
            fp.write_str(&format!("{op:?}"));
        }
        PlanOp::GroupBy { .. } => fp.write_str("group_by"),
        PlanOp::GroupByRefine { .. } => fp.write_str("group_by_refine"),
        PlanOp::AggSumGrouped { .. } => fp.write_str("agg_sum_grouped"),
        PlanOp::AggSum { .. } => fp.write_str("agg_sum"),
        PlanOp::Morph { target, .. } => {
            fp.write_str("morph");
            fp.write_format(target);
        }
    }
}

/// Human-readable duration for `EXPLAIN ANALYZE` (ns up to seconds, two
/// decimals past the microsecond scale).
fn fmt_duration(d: std::time::Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

/// Human-readable byte count for `EXPLAIN ANALYZE` (binary units).
fn fmt_bytes(bytes: u64) -> String {
    const KIB: u64 = 1024;
    const MIB: u64 = 1024 * KIB;
    const GIB: u64 = 1024 * MIB;
    if bytes < KIB {
        format!("{bytes} B")
    } else if bytes < MIB {
        format!("{:.1} KiB", bytes as f64 / KIB as f64)
    } else if bytes < GIB {
        format!("{:.1} MiB", bytes as f64 / MIB as f64)
    } else {
        format!("{:.1} GiB", bytes as f64 / GIB as f64)
    }
}

/// Per-node cache data, precomputed by [`plan_cache_info`] once per
/// execution, before the scheduler starts, and shared read-only by its
/// workers.
#[derive(Debug, Clone)]
pub(crate) struct NodeCacheInfo {
    /// Canonical fingerprint of the subplan rooted at this node, under the
    /// current format assignment, settings digest and base-column
    /// generations.  `None` for scans — base columns are never cached.
    pub(crate) key: Option<CacheKey>,
    /// The base columns the subplan scans, in first-use order — the
    /// generation-invalidation tags of the node's cache entry.
    pub(crate) deps: Vec<String>,
}

/// Compute every node's canonical cache key and dependency tags.
///
/// A node's fingerprint mixes, bottom-up:
///
/// * the settings components that change materialised bytes (integration
///   degree, processing style — deliberately **not** the morsel threshold:
///   morsel merges are byte-identical to serial execution, so serial and
///   parallel runs at any thread count share entries),
/// * the operator tag and parameters,
/// * the fingerprints of its input nodes (with ports), which recursively
///   cover the whole subplan,
/// * the resolved output format(s) of the node's edge(s), and
/// * for scans: the base column's name, its cache *generation* and its
///   memoised content fingerprint — so a changed base table, a bumped
///   generation or a re-encoded column never serves stale entries.
pub(crate) fn plan_cache_info(
    plan: &QueryPlan,
    source: &dyn ColumnSource,
    formats: &FormatConfig,
    settings: &ExecSettings,
    cache: &QueryCache,
) -> Vec<NodeCacheInfo> {
    let mut fps: Vec<CacheKey> = Vec::with_capacity(plan.nodes.len());
    let mut infos: Vec<NodeCacheInfo> = Vec::with_capacity(plan.nodes.len());
    for (idx, node) in plan.nodes.iter().enumerate() {
        let mut fp = Fingerprint::with_tag("morph-subplan");
        fp.write_str(settings.degree.label());
        fp.write_str(settings.style.label());
        let info = match &node.op {
            PlanOp::Scan { column } => {
                let base = source.column(column);
                fp.write_str("scan");
                fp.write_str(column);
                fp.write_u64(cache.generation(column));
                fp.write_u64(base.fingerprint());
                fps.push(fp.finish());
                NodeCacheInfo {
                    key: None,
                    deps: vec![column.clone()],
                }
            }
            op => {
                write_op_fingerprint(&mut fp, op);
                let mut deps: Vec<String> = Vec::new();
                for input in op.inputs() {
                    fp.write_key(fps[input.node]);
                    fp.write_u8(input.port);
                    for dep in &infos[input.node].deps {
                        if !deps.contains(dep) {
                            deps.push(dep.clone());
                        }
                    }
                }
                let full = plan.node_full_name(idx);
                fp.write_format(&formats.format_for(&full, Format::Uncompressed));
                if matches!(op, PlanOp::GroupBy { .. } | PlanOp::GroupByRefine { .. }) {
                    let reps_name = format!("{full}_reps");
                    fp.write_format(&formats.format_for(&reps_name, Format::Uncompressed));
                }
                let key = fp.finish();
                fps.push(key);
                NodeCacheInfo {
                    key: Some(key),
                    deps,
                }
            }
        };
        infos.push(info);
    }
    infos
}

/// Reconstruct a node's slot from a cache hit, replaying the bookkeeping an
/// execution would have produced (same record names, formats, sizes; the
/// timing label is pushed by the caller).  Returns `None` when the cached
/// value's shape does not match the node (a 128-bit key collision — treat
/// as a miss and execute).
pub(crate) fn slot_from_cached(
    plan: &QueryPlan,
    idx: usize,
    value: CachedValue,
    rec: &mut NodeRecords,
) -> Option<Slot<'static>> {
    let full = &plan.node_full_name(idx);
    match (value, &plan.nodes[idx].op) {
        (CachedValue::Scalar(total), PlanOp::AggSum { .. }) => Some(Slot::Scalar(total)),
        (
            CachedValue::Pair { a, b, count },
            PlanOp::GroupBy { .. } | PlanOp::GroupByRefine { .. },
        ) => {
            rec.record_intermediate(full, &a);
            rec.record_intermediate(&format!("{full}_reps"), &b);
            Some(Slot::Group(Box::new(GroupResult {
                group_ids: a,
                representatives: b,
                group_count: count,
            })))
        }
        (CachedValue::Column(column), op)
            if !matches!(
                op,
                PlanOp::Scan { .. }
                    | PlanOp::AggSum { .. }
                    | PlanOp::GroupBy { .. }
                    | PlanOp::GroupByRefine { .. }
            ) =>
        {
            rec.record_intermediate(full, &column);
            Some(Slot::Col(column))
        }
        _ => None,
    }
}

/// The cacheable image of a completed node's slot (`None` for scans — base
/// columns are never cached).  Columns and grouping outputs are
/// `Arc`-shared with the slot, so insertion copies no bytes.
pub(crate) fn cached_from_slot(slot: &Slot<'_>) -> Option<CachedValue> {
    match slot {
        Slot::Base(_) => None,
        Slot::Col(column) => Some(CachedValue::Column(Arc::clone(column))),
        Slot::Group(group) => Some(CachedValue::Pair {
            a: Arc::clone(&group.group_ids),
            b: Arc::clone(&group.representatives),
            count: group.group_count,
        }),
        Slot::Scalar(total) => Some(CachedValue::Scalar(*total)),
        // An interior's column is cached before its slot drops it.
        Slot::Fused(_) => None,
    }
}

/// One materialised value during execution.
///
/// Slots hold only owned data or borrows of the (shared) column source, so a
/// slot table can be filled by worker threads and read by their dependents.
/// Node outputs are `Arc`-shared so the plan cache can retain a result
/// without copying its bytes (insertion is an `Arc` clone).
pub(crate) enum Slot<'a> {
    Base(&'a Column),
    Col(Arc<Column>),
    // Boxed: a grouping's two inline columns dwarf the other variants.
    Group(Box<GroupResult>),
    Scalar(u64),
    /// Interior of an executed fused region: the column was recorded (and
    /// possibly cached) but deliberately *not retained* — fusion's whole
    /// point — or only ever sized; this is its size.  Region validation
    /// guarantees no node ever reads this slot.
    Fused(ColumnSize),
}

impl Slot<'_> {
    pub(crate) fn column(&self, port: u8) -> &Column {
        match (self, port) {
            (Slot::Base(c), 0) => c,
            (Slot::Col(c), 0) => c,
            (Slot::Group(g), 0) => &g.group_ids,
            (Slot::Group(g), 1) => &g.representatives,
            _ => panic!("plan node does not produce the requested column"),
        }
    }

    pub(crate) fn group(&self) -> &GroupResult {
        match self {
            Slot::Group(g) => g,
            _ => panic!("plan node is not a grouping"),
        }
    }

    pub(crate) fn scalar(&self) -> u64 {
        match self {
            Slot::Scalar(v) => *v,
            _ => panic!("plan node does not produce a scalar"),
        }
    }
}

/// The output of one chunk-range part of one node: a partial column, or
/// the partial wrapping sum of an `agg_sum` — or, for a fused interior
/// that nothing reads and that runs as one part, only the column's size.
/// A unit's partials splice (or fold) back into its nodes' outputs in
/// range order.
pub(crate) enum Partial {
    Col(Column),
    Sum(u64),
    Sized(ColumnSize),
}

/// Runs a [`QueryPlan`] against a [`ColumnSource`] on the calling thread,
/// materialising every node under the execution settings and format
/// assignment of an [`ExecutionContext`].
///
/// Per node, execution
///
/// 1. resolves the output format from the context's [`FormatConfig`] under
///    the stable name `"<plan label>/<step>"` (grouped representatives:
///    `"<plan label>/<step>_reps"`),
/// 2. runs the physical operator under the context's [`crate::ExecSettings`],
///    timing it as `"<plan label>/<mnemonic>:<step>"`,
/// 3. records the result in the context — base columns once per query,
///    intermediates always — so footprints match the paper's accounting.
///
/// This is the scheduler of [`crate::parallel`] with one worker, run
/// inline: units are popped in node-list order, no unit splits into
/// morsels, and no thread is spawned — so the source need not be `Sync`.
#[derive(Debug, Default, Clone, Copy)]
pub struct PlanExecutor;

impl PlanExecutor {
    /// Execute `plan` against `source`, recording into `ctx`.
    pub fn execute(
        &self,
        plan: &QueryPlan,
        source: &dyn ColumnSource,
        ctx: &mut ExecutionContext,
    ) -> PlanOutput {
        crate::parallel::run_plan(plan, source, ctx, 1, |run| run.work(source))
    }

    /// Fallible counterpart of [`PlanExecutor::execute`]: runs the plan
    /// under the settings' [`QueryGovernor`](crate::govern::QueryGovernor)
    /// (when one is attached) and converts a governance or decode unwind
    /// into a structured [`ExecError`](crate::govern::ExecError).  Any
    /// other panic — a genuine bug — resumes unchanged.  On `Err`, `ctx`
    /// holds no records: they are merged only once every node completed.
    pub fn try_execute(
        &self,
        plan: &QueryPlan,
        source: &dyn ColumnSource,
        ctx: &mut ExecutionContext,
    ) -> Result<PlanOutput, crate::govern::ExecError> {
        crate::govern::run_governed(|| self.execute(plan, source, ctx))
    }
}

/// Run the physical operator of one (non-scan) plan node over its whole
/// input columns — the one-part run of a node, which keeps the
/// `Specialized` / `OnTheFlyMorphing` kernel dispatch of the operators.
///
/// `slots` resolves an already-executed node index to its materialised
/// value.  Nothing is recorded here: the scheduler times the call and
/// completes the node.
pub(crate) fn run_node_op<'a, 's, F>(
    plan: &QueryPlan,
    idx: usize,
    slots: &F,
    settings: &ExecSettings,
    formats: &FormatConfig,
) -> Slot<'static>
where
    'a: 's,
    F: Fn(usize) -> &'s Slot<'a>,
{
    let col = |r: ColRef| slots(r.node).column(r.port);
    let full = plan.node_full_name(idx);
    let out_format = formats.format_for(&full, Format::Uncompressed);
    let reps_format = || formats.format_for(&format!("{full}_reps"), Format::Uncompressed);
    let out = match &plan.nodes[idx].op {
        PlanOp::Scan { .. } => unreachable!("scans resolve to their base column"),
        PlanOp::AggSum { values } => return Slot::Scalar(agg_sum(col(*values), settings)),
        PlanOp::GroupBy { keys } => {
            let formats = (&out_format, &reps_format());
            return Slot::Group(Box::new(group_by(col(*keys), formats, settings)));
        }
        PlanOp::GroupByRefine { previous, keys } => {
            let previous = slots(previous.node).group();
            let formats = (&out_format, &reps_format());
            return Slot::Group(Box::new(group_by_refine(
                previous,
                col(*keys),
                formats,
                settings,
            )));
        }
        PlanOp::Select { input, pred } => select(col(*input), pred, &out_format, settings),
        PlanOp::IntersectSorted { a, b } => {
            intersect_sorted(col(*a), col(*b), &out_format, settings)
        }
        PlanOp::MergeSorted { a, b } => merge_sorted(col(*a), col(*b), &out_format, settings),
        PlanOp::Project { data, positions } => {
            project(col(*data), col(*positions), &out_format, settings)
        }
        PlanOp::SemiJoin { probe, build } => {
            semi_join(col(*probe), col(*build), &out_format, settings)
        }
        PlanOp::Join { probe, build } => join(col(*probe), col(*build), &out_format, settings),
        PlanOp::CalcBinary { op, lhs, rhs } => {
            calc_binary(*op, col(*lhs), col(*rhs), &out_format, settings)
        }
        PlanOp::AggSumGrouped { group, values } => {
            let grouping = slots(group.node).group();
            // Grouped sums are final query outputs and stay uncompressed
            // (Section 3.3).
            agg_sum_grouped(
                &grouping.group_ids,
                col(*values),
                grouping.group_count,
                &Format::Uncompressed,
                settings,
            )
        }
        PlanOp::Morph { input, target } => morph(col(*input), target),
    };
    Slot::Col(Arc::new(out))
}

/// Run node `idx`'s chunk-range kernel ([`partitioned`]) over the chunk
/// range `chunks` of its [`PlanOp::partitioned_input`]: one part of a
/// fanned-out node.  `keys` is the semi-join build set, built once for all
/// parts.
pub(crate) fn run_part<'a, 's, F>(
    plan: &QueryPlan,
    idx: usize,
    chunks: Range<usize>,
    slots: &F,
    settings: &ExecSettings,
    formats: &FormatConfig,
    keys: Option<&KeySet>,
) -> Partial
where
    'a: 's,
    F: Fn(usize) -> &'s Slot<'a>,
{
    let col = |r: ColRef| slots(r.node).column(r.port);
    let format = plan.part_format(idx, settings, formats);
    let column = match &plan.nodes[idx].op {
        PlanOp::Select { input, pred } => {
            partitioned::select_part(col(*input), pred, chunks, &format, settings.style)
        }
        PlanOp::Project { data, positions } => {
            partitioned::project_part(col(*data), col(*positions), chunks, &format)
        }
        PlanOp::SemiJoin { probe, .. } => {
            let keys = keys.expect("a fanned-out semi-join carries its build set");
            partitioned::semi_join_part(col(*probe), keys, chunks, &format)
        }
        PlanOp::CalcBinary { op, lhs, rhs } => partitioned::calc_binary_part(
            *op,
            col(*lhs),
            col(*rhs),
            chunks,
            &format,
            settings.style,
        ),
        PlanOp::IntersectSorted { a, b } => {
            partitioned::intersect_sorted_part(col(*a), col(*b), chunks, &format)
        }
        PlanOp::AggSum { values } => {
            return Partial::Sum(partitioned::agg_sum_part(
                col(*values),
                chunks,
                settings.style,
            ))
        }
        _ => unreachable!("only nodes with a partitioned input fan out"),
    };
    Partial::Col(column)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecSettings;

    fn source() -> HashMap<String, Column> {
        let mut columns = HashMap::new();
        columns.insert(
            "x".to_string(),
            Column::from_slice(&[5, 1, 5, 9, 5, 1, 9, 5]),
        );
        columns.insert(
            "y".to_string(),
            Column::from_slice(&[10, 20, 30, 40, 50, 60, 70, 80]),
        );
        columns
    }

    /// `SELECT SUM(y) WHERE x = 5` as a plan.
    fn scalar_plan() -> QueryPlan {
        let mut p = PlanBuilder::new("t");
        let x = p.scan("x");
        let y = p.scan("y");
        let pos = p.select("pos", x, CmpOp::Eq, 5);
        let projected = p.project("y_at_pos", y, pos);
        let total = p.agg_sum("total", projected);
        p.finish_scalar(total)
    }

    #[test]
    fn scalar_plan_executes_and_records() {
        let source = source();
        let mut ctx = ExecutionContext::new(ExecSettings::default(), FormatConfig::uncompressed());
        let out = scalar_plan().execute(&source, &mut ctx);
        assert_eq!(out.values, vec![10 + 30 + 50 + 80]);
        assert!(out.group_keys.is_empty());
        let names: Vec<&str> = ctx.records().iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["x", "y", "t/pos", "t/y_at_pos"]);
        let timings: Vec<&str> = ctx.timings().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            timings,
            vec!["t/select:pos", "t/project:y_at_pos", "t/agg:total"]
        );
    }

    #[test]
    fn grouped_plan_executes() {
        let source = source();
        let mut p = PlanBuilder::new("g");
        let x = p.scan("x");
        let y = p.scan("y");
        let group = p.group_by("by_x", x);
        let sums = p.agg_sum_grouped("sum_y", group, y);
        let keys = p.project("key_x", x, group.representatives());
        let plan = p.finish_grouped(vec![keys], sums);
        let mut ctx = ExecutionContext::new(ExecSettings::default(), FormatConfig::uncompressed());
        let out = plan.execute(&source, &mut ctx);
        // Groups in first-occurrence order: 5, 1, 9.
        assert_eq!(out.group_keys, vec![vec![5, 1, 9]]);
        assert_eq!(out.values, vec![10 + 30 + 50 + 80, 20 + 60, 40 + 70]);
        let names: Vec<&str> = ctx.records().iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["x", "y", "g/by_x", "g/by_x_reps", "g/sum_y", "g/key_x"]
        );
    }

    #[test]
    fn formats_are_resolved_per_edge() {
        let source = source();
        let formats = FormatConfig::uncompressed().set("t/pos", Format::DeltaDynBp);
        let mut ctx = ExecutionContext::new(ExecSettings::vectorized_compressed(), formats);
        scalar_plan().execute(&source, &mut ctx);
        let pos = ctx.records().iter().find(|r| r.name == "t/pos").unwrap();
        assert_eq!(pos.format, Format::DeltaDynBp);
    }

    #[test]
    fn scan_deduplicates_and_edges_enumerate_all_columns() {
        let mut p = PlanBuilder::new("t");
        let a = p.scan("x");
        let b = p.scan("x");
        assert_eq!(a, b);
        let pos = p.select("pos", a, CmpOp::Lt, 7);
        let total = p.agg_sum("total", pos);
        let plan = p.finish_scalar(total);
        assert_eq!(plan.base_columns(), vec!["x".to_string()]);
        assert_eq!(plan.intermediate_names(), vec!["t/pos".to_string()]);
        let edges = plan.edges();
        assert_eq!(edges.len(), 2);
        assert!(edges[0].is_base && edges[0].name == "x");
        assert_eq!(edges[1].op, "select");
    }

    #[test]
    fn select_in2_matches_two_selects_merged() {
        let source = source();
        let run = |plan: QueryPlan| {
            let mut ctx =
                ExecutionContext::new(ExecSettings::default(), FormatConfig::uncompressed());
            ctx.enable_capture();
            plan.execute(&source, &mut ctx);
            ctx.captured_columns()["t/pos"].clone()
        };
        let mut p = PlanBuilder::new("t");
        let x = p.scan("x");
        let pos = p.select_in("pos", x, &[1, 9]);
        let total = p.agg_sum("total", pos);
        let one_node = p.finish_scalar(total);
        assert!(one_node
            .describe(&FormatConfig::uncompressed())
            .contains("in (1, 9)"));
        let mut p = PlanBuilder::new("t");
        let x = p.scan("x");
        let first = p.select("first", x, CmpOp::Eq, 1);
        let second = p.select("second", x, CmpOp::Eq, 9);
        let pos = p.merge_sorted("pos", first, second);
        let total = p.agg_sum("total", pos);
        let merged = run(p.finish_scalar(total));
        // Positions of values 1 or 9: 1, 3, 5, 6.
        assert_eq!(merged.decompress(), vec![1, 3, 5, 6]);
        assert_eq!(run(one_node), merged);
    }

    #[test]
    #[should_panic(expected = "plan join is N:1")]
    fn join_rejects_a_duplicated_build_key_that_offsets_a_missing_one() {
        // Two probe rows and two build rows, but probe row 0 matches both
        // and probe row 1 neither.
        let columns: HashMap<String, Column> = [
            ("fk".to_string(), Column::from_slice(&[5, 9])),
            ("pk".to_string(), Column::from_slice(&[5, 5])),
        ]
        .into();
        let mut p = PlanBuilder::new("t");
        let (fk, pk) = (p.scan("fk"), p.scan("pk"));
        let build_pos = p.join("build_pos", fk, pk);
        let total = p.agg_sum("total", build_pos);
        let mut ctx = ExecutionContext::new(ExecSettings::default(), FormatConfig::uncompressed());
        p.finish_scalar(total).execute(&columns, &mut ctx);
    }

    #[test]
    fn describe_lists_nodes_and_formats() {
        let plan = scalar_plan();
        let formats = FormatConfig::uncompressed().set("t/pos", Format::Rle);
        let rendered = plan.describe(&formats);
        assert!(rendered.contains("plan \"t\""));
        assert!(rendered.contains("t/pos : RLE"));
        assert!(rendered.contains("output: scalar"));
        assert!(plan.to_string().contains("scan"));
    }

    #[test]
    #[should_panic(expected = "duplicate plan step name")]
    fn duplicate_step_names_are_rejected() {
        let mut p = PlanBuilder::new("t");
        let x = p.scan("x");
        p.select("pos", x, CmpOp::Eq, 1);
        p.select("pos", x, CmpOp::Eq, 2);
    }

    #[test]
    #[should_panic(expected = "duplicate plan step name \"g_reps\"")]
    fn step_colliding_with_reserved_reps_name_is_rejected() {
        let mut p = PlanBuilder::new("t");
        let x = p.scan("x");
        p.group_by("g", x);
        // "g_reps" is already claimed by the grouping's second output.
        p.select("g_reps", x, CmpOp::Eq, 1);
    }

    #[test]
    #[should_panic(expected = "duplicate plan step name \"h_reps\"")]
    fn grouping_claiming_an_existing_name_is_rejected() {
        let mut p = PlanBuilder::new("t");
        let x = p.scan("x");
        p.select("h_reps", x, CmpOp::Eq, 1);
        // The grouping's reserved "h_reps" output collides the other way.
        p.group_by("h", x);
    }

    #[test]
    fn warm_cache_run_is_byte_identical_to_cold_run() {
        let source = source();
        let cache = Arc::new(QueryCache::unbounded());
        let formats = FormatConfig::with_default(Format::DynBp);
        let settings = ExecSettings::vectorized_compressed().with_cache(Arc::clone(&cache));

        // Grouped plan: exercises Column, Pair and Scalar cache values.
        let plan = {
            let mut p = PlanBuilder::new("g");
            let x = p.scan("x");
            let y = p.scan("y");
            let group = p.group_by("by_x", x);
            let sums = p.agg_sum_grouped("sum_y", group, y);
            let keys = p.project("key_x", x, group.representatives());
            p.finish_grouped(vec![keys], sums)
        };

        let mut cold_ctx = ExecutionContext::new(settings.clone(), formats.clone());
        let cold = plan.execute(&source, &mut cold_ctx);
        assert_eq!(cold_ctx.cache_hit_count(), 0);
        assert!(cache.len() >= 3, "cold run populates the cache");

        let mut warm_ctx = ExecutionContext::new(settings.clone(), formats.clone());
        let warm = plan.execute(&source, &mut warm_ctx);
        assert_eq!(warm, cold);
        assert_eq!(warm_ctx.records(), cold_ctx.records());
        let warm_labels: Vec<&str> = warm_ctx.timings().iter().map(|(n, _)| n.as_str()).collect();
        let cold_labels: Vec<&str> = cold_ctx.timings().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(warm_labels, cold_labels);
        // Every non-scan node hit: group, grouped sum, project.
        assert_eq!(warm_ctx.cache_hit_count(), 3);

        // A cache-free reference run matches too.
        let mut plain_ctx =
            ExecutionContext::new(ExecSettings::vectorized_compressed(), formats.clone());
        let plain = plan.execute(&source, &mut plain_ctx);
        assert_eq!(plain, cold);
        assert_eq!(plain_ctx.records(), cold_ctx.records());
    }

    #[test]
    fn differing_formats_generations_and_settings_miss() {
        let source = source();
        let cache = Arc::new(QueryCache::unbounded());
        let plan = scalar_plan();
        let run = |formats: FormatConfig, settings: ExecSettings| {
            let mut ctx = ExecutionContext::new(settings.with_cache(Arc::clone(&cache)), formats);
            let out = plan.execute(&source, &mut ctx);
            (out, ctx.cache_hit_count())
        };
        let (cold, hits) = run(
            FormatConfig::uncompressed(),
            ExecSettings::vectorized_compressed(),
        );
        assert_eq!(hits, 0);
        // Same everything: all three non-scan nodes hit.
        let (warm, hits) = run(
            FormatConfig::uncompressed(),
            ExecSettings::vectorized_compressed(),
        );
        assert_eq!((warm, hits), (cold.clone(), 3));
        // A different edge format changes that edge's key and its
        // dependents' keys.
        let (refmt, hits) = run(
            FormatConfig::uncompressed().set("t/pos", Format::DeltaDynBp),
            ExecSettings::vectorized_compressed(),
        );
        assert_eq!(refmt, cold);
        assert_eq!(hits, 0);
        // A different integration degree misses entirely.
        let (plain, hits) = run(
            FormatConfig::uncompressed(),
            ExecSettings::scalar_uncompressed(),
        );
        assert_eq!(plain, cold);
        assert_eq!(hits, 0);
        // Bumping a base column's generation invalidates its subplans.
        cache.bump_generation("x");
        let (again, hits) = run(
            FormatConfig::uncompressed(),
            ExecSettings::vectorized_compressed(),
        );
        assert_eq!(again, cold);
        assert_eq!(hits, 0);
    }

    #[test]
    fn structural_fingerprint_is_stable_and_parameter_sensitive() {
        let make = |constant: u64| {
            let mut p = PlanBuilder::new("t");
            let x = p.scan("x");
            let pos = p.select("pos", x, CmpOp::Eq, constant);
            let total = p.agg_sum("total", pos);
            p.finish_scalar(total)
        };
        assert_eq!(
            make(5).structural_fingerprint(),
            make(5).structural_fingerprint()
        );
        assert_ne!(
            make(5).structural_fingerprint(),
            make(6).structural_fingerprint()
        );
        assert_ne!(
            scalar_plan().structural_fingerprint(),
            make(5).structural_fingerprint()
        );
        // The three predicate kinds over the same constants key apart.
        let with = |pred: Predicate| {
            let mut p = PlanBuilder::new("t");
            let x = p.scan("x");
            let pos = p.select_where("pos", x, pred);
            let total = p.agg_sum("total", pos);
            p.finish_scalar(total).structural_fingerprint()
        };
        let keys = [
            with(Predicate::Between(3, 5)),
            with(Predicate::In(vec![3, 5])),
            with(Predicate::Cmp(CmpOp::Eq, 3)),
        ];
        assert!(keys[0] != keys[1] && keys[1] != keys[2] && keys[0] != keys[2]);
    }

    #[test]
    fn morph_node_re_encodes() {
        let source = source();
        let mut p = PlanBuilder::new("t");
        let x = p.scan("x");
        let morphed = p.morph("x_rle", x, Format::Rle);
        let pos = p.select("pos", morphed, CmpOp::Eq, 5);
        let total = p.agg_sum("total", pos);
        let plan = p.finish_scalar(total);
        let mut ctx = ExecutionContext::new(
            ExecSettings::vectorized_compressed(),
            FormatConfig::uncompressed(),
        );
        plan.execute(&source, &mut ctx);
        let rec = ctx.records().iter().find(|r| r.name == "t/x_rle").unwrap();
        assert_eq!(rec.format, Format::Rle);
    }
}
