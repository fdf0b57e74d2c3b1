//! Operator fusion: single-pass cursor pipelines over compressed data.
//!
//! The operator-at-a-time model (DP1) materialises every intermediate as a
//! named compressed column.  For a chain like select → project → calc →
//! agg_sum that is wasteful: the interior columns are encoded by one
//! operator only to be decoded by exactly one consumer immediately after.
//! Fusion detects such *maximal fusible regions* in a [`QueryPlan`] and
//! executes each region as **one** chunk-at-a-time pass over a single
//! *driver* column: every driver chunk flows through all stages of the
//! region while it is cache-resident, and only the region *root*
//! materialises a full column (or scalar).
//!
//! ## Region detection
//!
//! A region is grown backwards from a root candidate (`agg_sum`, `project`
//! or `calc_binary`) along *streamed* edges — the inputs an operator
//! consumes sequentially (`select`/`select_between`: the filtered column,
//! `project`: the position list, `calc_binary`: both operands, `agg_sum`:
//! the summed column).  A producer is absorbed as an *interior* stage iff
//!
//! * its operator is position-preserving and streamable (`select`,
//!   `select_between`, `project`, `calc_binary`),
//! * it has exactly **one** consumer (the absorbing member), and
//! * it is not already part of another region.
//!
//! A grown region is valid iff it has at least one interior, all members'
//! streamed inputs resolve to members or to exactly **one** external
//! column (the *driver* — it may feed several stages), every `project`
//! member gathers from a column *outside* the region (its data side is
//! read at the gathered positions, not streamed in step with the driver),
//! and the per-chunk *shapes* line up: stages only zip streams that are
//! row-aligned within every driver chunk (a select starts a fresh shape, a
//! project carries its position stream's shape, a calc requires both
//! operands to share one shape).
//!
//! ## Byte identity
//!
//! Fused execution is observably identical to node-by-node execution:
//! results, footprint records and timing-label sequences are all
//! byte-identical.  Every stage runs the *same chunk step* as its unfused
//! operator (see [`crate::ops`]) and pushes its output, chunk by chunk, into
//! a [`ColumnBuilder`] at the edge's format — granularity-invariant (see
//! [`partitioned`](crate::ops::partitioned)), so the bytes are the unfused
//! ones.  An interior's record needs only its format, length and size.
//! When nothing can read the interior — its unit runs as **one part**, no
//! plan cache is attached and capture is off — the builder runs in
//! *sizing* mode ([`ColumnBuilder::sizing`]): the same compressor writes
//! into a byte count, so the record and the budget charge are exact and no
//! value is packed.  The root, every part of a fanned-out unit (part sizes
//! do not add across the block grid or a DELTA seam) and cached or
//! captured runs encode for real.  What fusion *removes* is the decode half
//! of every interior round-trip, the repeated driver passes, the retention
//! of interior columns (never entering the slot table) and, for sized
//! interiors, their packing.  The per-query sum of interior bytes is
//! reported as
//! [`ExecutionContext::intermediate_bytes_avoided`](crate::ExecutionContext::intermediate_bytes_avoided).
//!
//! Each stage's recorded time covers what its unfused operator's timer
//! covers: its chunk step, its sink push and finish (encode or size), and,
//! for the first stage reading the driver, the driver's chunk decode.
//!
//! Fusion only applies under the `PurelyUncompressed` and
//! `OnTheFlyDeRecompression` integration degrees: the `Specialized` and
//! `OnTheFlyMorphing` degrees run format-specialised kernels whose
//! operator-local format choices a fused pipeline cannot reproduce
//! bit-for-bit, so regions silently demote to node-by-node execution
//! there.
//!
//! ## Scheduling, governance and faults
//!
//! A region is one *unit* of the scheduler ([`crate::parallel`]): it runs
//! when its root's unit comes up, as one pass over the whole driver or —
//! when it is prefix-independent and the driver crosses the morsel
//! threshold — as several passes over driver chunk ranges whose per-stage
//! partials splice back in range order.  The scheduler checkpoints once per
//! *member* when the unit starts (the same count an unfused run pays), and
//! the pass checkpoints once per driver chunk, so cancellation, deadlines
//! and seeded chunk faults keep firing with bounded latency mid-pipeline.

use std::collections::HashMap;
use std::ops::Range;
use std::time::{Duration, Instant};

use morph_cache::QueryCache;
use morph_compression::ByteCount;
use morph_storage::ColumnBuilder;
use morph_vector::ProcessingStyle;

use crate::exec::{ExecSettings, FormatConfig, IntegrationDegree};
use crate::ops::agg::sum_chunk;
use crate::ops::calc::binary_chunk;
use crate::ops::project::Gather;
use crate::ops::select::{between_chunk, filter_chunk};
use crate::plan::{ColRef, NodeCacheInfo, Partial, PlanOp, PlanOutputs, QueryPlan, Slot};
use crate::{BinaryOp, CmpOp};

/// Where a fused stage reads its streamed input from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Src {
    /// The region's driver column (the one external stream).
    Driver,
    /// The in-flight output of an earlier stage of the same region.
    Stage(usize),
}

/// The operator one fused stage runs, with its streamed inputs rewritten
/// to [`Src`] references.
#[derive(Debug, Clone)]
pub(crate) enum StageKind {
    /// Comparison select emitting matching positions.
    Select {
        /// Streamed input.
        src: Src,
        /// Comparison operator.
        op: CmpOp,
        /// Comparison constant.
        constant: u64,
    },
    /// Inclusive range select emitting matching positions.
    SelectBetween {
        /// Streamed input.
        src: Src,
        /// Lower bound (inclusive).
        low: u64,
        /// Upper bound (inclusive).
        high: u64,
    },
    /// Gather from an external data column.
    Project {
        /// The gathered column — external to the region, read by the
        /// stage's own project reader over the pass.
        data: ColRef,
        /// Streamed position list.
        positions: Src,
    },
    /// Element-wise binary calculation over two aligned streams.
    Calc {
        /// The arithmetic operator.
        op: BinaryOp,
        /// Left operand stream.
        lhs: Src,
        /// Right operand stream.
        rhs: Src,
    },
    /// Whole-column wrapping sum (always the region root).
    AggSum {
        /// Streamed input.
        src: Src,
    },
}

/// One stage of a fused region: the plan node it replaces plus its
/// rewritten operator.
#[derive(Debug, Clone)]
pub(crate) struct FusedStage {
    /// The plan node index this stage executes.
    pub(crate) node: usize,
    /// The rewritten operator.
    pub(crate) kind: StageKind,
}

/// One maximal fusible region of a plan.
#[derive(Debug, Clone)]
pub struct FusedRegion {
    /// Member node indices, ascending; the root is the last entry.
    pub(crate) members: Vec<usize>,
    /// The root node (the only member whose column/scalar is retained).
    pub(crate) root: usize,
    /// The single external streamed input all stages ultimately consume.
    pub(crate) driver: ColRef,
    /// Distinct node indices of all external inputs (driver and project
    /// data sides) — the region's dependencies in the scheduler graph.
    pub(crate) externals: Vec<usize>,
    /// The stages, in ascending node order (a stage only reads earlier
    /// stages or the driver).
    pub(crate) stages: Vec<FusedStage>,
    /// Whether every select stage reads the driver directly.  Only such
    /// regions can fan out as morsel parts: a select over a *derived*
    /// stream needs the running count of values emitted before its chunk,
    /// which a mid-column part cannot know.
    pub(crate) prefix_independent: bool,
}

/// Read-only summary of one fused region, for cost models and tooling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusedRegionSummary {
    /// Member node indices, ascending; the root is the last entry.
    pub members: Vec<usize>,
    /// Edge name of the driver column (base-column name or
    /// `"<label>/<step>"`).
    pub driver: String,
    /// Edge names of the interior columns that fusion stops retaining.
    pub interior_edges: Vec<String>,
    /// Edge name of the root column (`None` when the root is a scalar
    /// aggregation).
    pub root_edge: Option<String>,
    /// Whether the region can fan out as morsel parts.
    pub prefix_independent: bool,
}

/// The fusion analysis of one [`QueryPlan`]: which nodes belong to which
/// maximal fusible region.
#[derive(Debug, Clone)]
pub struct FusionPlan {
    regions: Vec<FusedRegion>,
    region_of: Vec<Option<usize>>,
}

impl FusionPlan {
    /// An analysis with no regions (fusion disabled or inapplicable).
    pub(crate) fn empty(node_count: usize) -> FusionPlan {
        FusionPlan {
            regions: Vec::new(),
            region_of: vec![None; node_count],
        }
    }

    /// Detect the maximal fusible regions of `plan` (pure plan-structure
    /// analysis — settings, formats and data play no role).
    pub fn analyze(plan: &QueryPlan) -> FusionPlan {
        let node_count = plan.nodes.len();
        let mut consumers = vec![0usize; node_count];
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
        let mut fusion = FusionPlan::empty(node_count);
        // Roots are visited in descending index order so a region claims
        // the longest suffix of its chain before an upstream candidate
        // could carve out a shorter one.
        for root in (0..node_count).rev() {
            if fusion.region_of[root].is_some() {
                continue;
            }
            if !matches!(
                plan.nodes[root].op,
                PlanOp::AggSum { .. } | PlanOp::Project { .. } | PlanOp::CalcBinary { .. }
            ) {
                continue;
            }
            if let Some(region) = grow_region(plan, &consumers, &fusion.region_of, root) {
                let index = fusion.regions.len();
                for &member in &region.members {
                    fusion.region_of[member] = Some(index);
                }
                fusion.regions.push(region);
            }
        }
        fusion
    }

    /// The analysis the executors actually run under `settings`: empty
    /// when fusion is disabled or the integration degree runs specialised
    /// kernels, and with fully cached regions demoted to node-by-node
    /// execution (their members hit the plan cache individually, exactly
    /// like an unfused run).
    pub(crate) fn for_execution(
        plan: &QueryPlan,
        settings: &ExecSettings,
        cache_info: Option<&[NodeCacheInfo]>,
    ) -> FusionPlan {
        if !settings.fusion {
            return FusionPlan::empty(plan.nodes.len());
        }
        if !matches!(
            settings.degree,
            IntegrationDegree::PurelyUncompressed | IntegrationDegree::OnTheFlyDeRecompression
        ) {
            return FusionPlan::empty(plan.nodes.len());
        }
        let mut fusion = FusionPlan::analyze(plan);
        if let (Some(cache), Some(infos)) = (settings.cache.as_deref(), cache_info) {
            fusion.demote_fully_cached(cache, infos);
        }
        fusion
    }

    /// Drop every region whose members are all present in the plan cache:
    /// executing them node-by-node serves each member from its existing
    /// entry, so warm runs stay byte-identical to unfused warm runs.
    fn demote_fully_cached(&mut self, cache: &QueryCache, infos: &[NodeCacheInfo]) {
        self.regions.retain(|region| {
            !region
                .members
                .iter()
                .all(|&m| infos[m].key.is_some_and(|key| cache.contains(&key)))
        });
        self.region_of = vec![None; self.region_of.len()];
        for (index, region) in self.regions.iter().enumerate() {
            for &member in &region.members {
                self.region_of[member] = Some(index);
            }
        }
    }

    /// Number of detected regions.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Whether no region was detected (or fusion is disabled).
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// The regions, for executor dispatch.
    pub(crate) fn regions(&self) -> &[FusedRegion] {
        &self.regions
    }

    /// The region containing `node`, if any.
    pub(crate) fn region_of(&self, node: usize) -> Option<usize> {
        self.region_of[node]
    }

    /// The region at `index`.
    pub(crate) fn region(&self, index: usize) -> &FusedRegion {
        &self.regions[index]
    }

    /// Read-only summaries of the regions, for cost models and tooling.
    pub fn region_summaries(&self, plan: &QueryPlan) -> Vec<FusedRegionSummary> {
        self.regions
            .iter()
            .map(|region| FusedRegionSummary {
                members: region.members.clone(),
                driver: edge_name(plan, region.driver),
                interior_edges: region
                    .members
                    .iter()
                    .filter(|&&m| m != region.root)
                    .map(|&m| plan.node_full_name(m))
                    .collect(),
                root_edge: match plan.nodes[region.root].op {
                    PlanOp::AggSum { .. } => None,
                    _ => Some(plan.node_full_name(region.root)),
                },
                prefix_independent: region.prefix_independent,
            })
            .collect()
    }

    /// Render the regions as bracketed pipeline groups, numbered as the
    /// `fused region` annotations of EXPLAIN ANALYZE number them — the
    /// fusion section of EXPLAIN output (empty string when nothing fuses).
    pub fn render(&self, plan: &QueryPlan) -> String {
        use std::fmt::Write as _;
        if self.regions.is_empty() {
            return String::new();
        }
        let mut out = String::new();
        let _ = writeln!(out, "  fused pipelines:");
        for (index, region) in self.regions.iter().enumerate() {
            let chain: Vec<String> = region
                .members
                .iter()
                .map(|&m| {
                    format!(
                        "#{m} {}:{}",
                        plan.nodes[m].op.mnemonic(),
                        plan.nodes[m].name
                    )
                })
                .collect();
            let interiors: Vec<String> = region
                .members
                .iter()
                .filter(|&&m| m != region.root)
                .map(|&m| plan.node_full_name(m))
                .collect();
            let _ =
                writeln!(
                out,
                "    region {index}: [{}] driver {}; single pass, interiors not retained: {}; morsel fan-out: {}",
                chain.join(" -> "),
                edge_name(plan, region.driver),
                interiors.join(", "),
                if region.prefix_independent { "yes" } else { "no" },
            );
        }
        out
    }
}

/// The edge (column) name a handle resolves to: the base-column name for
/// scans, `"<label>/<step>"` (or `"<label>/<step>_reps"`) otherwise.
pub(crate) fn edge_name(plan: &QueryPlan, r: ColRef) -> String {
    match &plan.nodes[r.node].op {
        PlanOp::Scan { column } => column.clone(),
        _ if r.port == 1 => format!("{}_reps", plan.node_full_name(r.node)),
        _ => plan.node_full_name(r.node),
    }
}

/// The inputs an operator consumes *sequentially* — the edges fusion can
/// turn into in-flight streams.  A project's data side is deliberately
/// absent: it is read at the gathered positions, not in step with them.
pub(crate) fn streamed_inputs(op: &PlanOp) -> Vec<ColRef> {
    match *op {
        PlanOp::Select { input, .. } | PlanOp::SelectBetween { input, .. } => vec![input],
        PlanOp::Project { positions, .. } => vec![positions],
        PlanOp::CalcBinary { lhs, rhs, .. } => vec![lhs, rhs],
        PlanOp::AggSum { values } => vec![values],
        _ => vec![],
    }
}

/// Whether an operator can run as an interior stage of a fused region.
pub(crate) fn interior_eligible(op: &PlanOp) -> bool {
    matches!(
        op,
        PlanOp::Select { .. }
            | PlanOp::SelectBetween { .. }
            | PlanOp::Project { .. }
            | PlanOp::CalcBinary { .. }
    )
}

/// Grow the maximal region rooted at `root` and validate it; `None` when
/// nothing fuses or a validity rule fails.
fn grow_region(
    plan: &QueryPlan,
    consumers: &[usize],
    region_of: &[Option<usize>],
    root: usize,
) -> Option<FusedRegion> {
    let mut members = vec![root];
    let mut worklist = vec![root];
    while let Some(member) = worklist.pop() {
        for input in streamed_inputs(&plan.nodes[member].op) {
            let candidate = input.node;
            if input.port != 0
                || members.contains(&candidate)
                || region_of[candidate].is_some()
                || !interior_eligible(&plan.nodes[candidate].op)
                || consumers[candidate] != 1
            {
                continue;
            }
            members.push(candidate);
            worklist.push(candidate);
        }
    }
    if members.len() < 2 {
        return None;
    }
    members.sort_unstable();

    // Exactly one distinct external streamed input: the driver.
    let mut driver: Option<ColRef> = None;
    for &member in &members {
        for input in streamed_inputs(&plan.nodes[member].op) {
            if members.contains(&input.node) {
                continue;
            }
            match driver {
                None => driver = Some(input),
                Some(existing) if existing == input => {}
                Some(_) => return None,
            }
        }
    }
    let driver = driver?;

    // Every project gathers from outside the region: its data side must be
    // a finished column, not an in-flight stream.
    for &member in &members {
        if let PlanOp::Project { data, .. } = plan.nodes[member].op {
            if members.contains(&data.node) {
                return None;
            }
        }
    }

    // Rewrite inputs to Src references and validate per-chunk shapes:
    // shape 0 is the driver's row space; each select starts a fresh shape,
    // a project carries its position stream's shape, a calc requires both
    // operands to share one.
    let stage_index: HashMap<usize, usize> =
        members.iter().enumerate().map(|(i, &m)| (m, i)).collect();
    let src_of = |r: ColRef| -> Src {
        if r == driver {
            Src::Driver
        } else {
            Src::Stage(stage_index[&r.node])
        }
    };
    let mut shapes: Vec<usize> = vec![0; members.len()];
    let mut next_shape = 1usize;
    let mut stages = Vec::with_capacity(members.len());
    let mut prefix_independent = true;
    for (index, &member) in members.iter().enumerate() {
        let shape_of = |s: Src, shapes: &[usize]| match s {
            Src::Driver => 0,
            Src::Stage(j) => shapes[j],
        };
        let kind = match plan.nodes[member].op {
            PlanOp::Select {
                input,
                op,
                constant,
            } => {
                let src = src_of(input);
                if src != Src::Driver {
                    prefix_independent = false;
                }
                shapes[index] = next_shape;
                next_shape += 1;
                StageKind::Select { src, op, constant }
            }
            PlanOp::SelectBetween { input, low, high } => {
                let src = src_of(input);
                if src != Src::Driver {
                    prefix_independent = false;
                }
                shapes[index] = next_shape;
                next_shape += 1;
                StageKind::SelectBetween { src, low, high }
            }
            PlanOp::Project { data, positions } => {
                let src = src_of(positions);
                shapes[index] = shape_of(src, &shapes);
                StageKind::Project {
                    data,
                    positions: src,
                }
            }
            PlanOp::CalcBinary { op, lhs, rhs } => {
                let (lhs, rhs) = (src_of(lhs), src_of(rhs));
                if shape_of(lhs, &shapes) != shape_of(rhs, &shapes) {
                    return None;
                }
                shapes[index] = shape_of(lhs, &shapes);
                StageKind::Calc { op, lhs, rhs }
            }
            PlanOp::AggSum { values } => StageKind::AggSum {
                src: src_of(values),
            },
            _ => unreachable!("non-fusible operator absorbed into a region"),
        };
        stages.push(FusedStage { node: member, kind });
    }

    let mut externals = vec![driver.node];
    for stage in &stages {
        if let StageKind::Project { data, .. } = stage.kind {
            externals.push(data.node);
        }
    }
    externals.sort_unstable();
    externals.dedup();

    Some(FusedRegion {
        root: members[members.len() - 1],
        members,
        driver,
        externals,
        stages,
        prefix_independent,
    })
}

impl StageKind {
    /// Whether the stage streams the region's driver.
    fn reads_driver(&self) -> bool {
        match *self {
            StageKind::Select { src, .. }
            | StageKind::SelectBetween { src, .. }
            | StageKind::AggSum { src } => src == Src::Driver,
            StageKind::Project { positions, .. } => positions == Src::Driver,
            StageKind::Calc { lhs, rhs, .. } => lhs == Src::Driver || rhs == Src::Driver,
        }
    }
}

/// Where one stage's chunk outputs go.
enum StageSink {
    /// A column something may read: the root, a fanned-out part's partial
    /// (it splices), or an interior the plan cache or capture keeps.
    Encode(ColumnBuilder),
    /// An interior nothing reads: the same compressor, run into a byte
    /// count, yields its record without packing a value.
    Size(ColumnBuilder<ByteCount>),
    /// An aggregation, which folds into `StagePass::sums` instead.
    Fold,
}

impl StageSink {
    fn push(&mut self, values: &[u64]) {
        match self {
            StageSink::Encode(builder) => builder.push_slice(values),
            StageSink::Size(builder) => builder.push_slice(values),
            StageSink::Fold => {}
        }
    }

    fn finish(self, sum: u64) -> Partial {
        match self {
            StageSink::Encode(builder) => Partial::Col(builder.finish()),
            StageSink::Size(builder) => Partial::Sized(builder.finish()),
            StageSink::Fold => Partial::Sum(sum),
        }
    }
}

/// Per-stage working state of one pass over (a range of) the driver.
struct StagePass<'d> {
    /// Per stage, the project reader over the stage's data column (`None`
    /// for every non-project stage).
    gathers: Vec<Option<Gather<'d>>>,
    /// Per stage, the values produced from the current driver chunk.
    bufs: Vec<Vec<u64>>,
    /// Per stage, where its values go.
    sinks: Vec<StageSink>,
    /// Per stage, the total values emitted *before* the current chunk —
    /// the position base of selects over derived streams.
    emitted: Vec<u64>,
    /// Per stage, the running wrapping sum (aggregation stages only).
    sums: Vec<u64>,
    /// Per stage, accumulated time: its compute and sink push per chunk,
    /// its sink's finish, and — for the first stage reading the driver —
    /// every driver chunk pull.
    elapsed: Vec<Duration>,
}

/// Resolve a stage's streamed input within the current driver chunk.
fn src_vals<'x>(prev: &'x [Vec<u64>], chunk: &'x [u64], src: Src) -> &'x [u64] {
    match src {
        Src::Driver => chunk,
        Src::Stage(j) => &prev[j],
    }
}

/// The global position of the first value of a stream's current chunk.
fn src_base(emitted: &[u64], driver_base: u64, src: Src) -> u64 {
    match src {
        Src::Driver => driver_base,
        Src::Stage(j) => emitted[j],
    }
}

/// Drive one driver chunk through all stages of the region, filling every
/// stage's chunk buffer, pushing it into the stage's sink (and advancing
/// the aggregation sums).  Fires one governance chunk checkpoint before
/// touching the data.
///
/// Stage timings chain: each stage is charged from `clock` (the previous
/// stage's end, or the chunk's arrival) to its own end — one clock read
/// per stage.  Returns the last stage's end.
fn run_chunk(
    region: &FusedRegion,
    style: ProcessingStyle,
    pass: &mut StagePass<'_>,
    driver_base: u64,
    chunk: &[u64],
    mut clock: Instant,
) -> Instant {
    crate::govern::checkpoint_chunk();
    for (i, stage) in region.stages.iter().enumerate() {
        let (prev, rest) = pass.bufs.split_at_mut(i);
        let emitted = &pass.emitted;
        match &stage.kind {
            StageKind::Select { src, op, constant } => {
                let out = &mut rest[0];
                out.clear();
                filter_chunk(
                    style,
                    *op,
                    src_vals(prev, chunk, *src),
                    *constant,
                    src_base(emitted, driver_base, *src),
                    out,
                );
            }
            StageKind::SelectBetween { src, low, high } => {
                let out = &mut rest[0];
                out.clear();
                between_chunk(
                    src_vals(prev, chunk, *src),
                    *low,
                    *high,
                    src_base(emitted, driver_base, *src),
                    out,
                );
            }
            StageKind::Project { positions, .. } => {
                let out = &mut rest[0];
                out.clear();
                if let Some(gather) = &mut pass.gathers[i] {
                    gather.gather_chunk(src_vals(prev, chunk, *positions), out);
                }
            }
            StageKind::Calc { op, lhs, rhs } => {
                let out = &mut rest[0];
                out.clear();
                let (a, b) = (src_vals(prev, chunk, *lhs), src_vals(prev, chunk, *rhs));
                debug_assert_eq!(a.len(), b.len(), "fused calc operands must be aligned");
                binary_chunk(style, *op, a, b, out);
            }
            StageKind::AggSum { src } => {
                rest[0].clear();
                pass.sums[i] =
                    pass.sums[i].wrapping_add(sum_chunk(style, src_vals(prev, chunk, *src)));
            }
        }
        pass.sinks[i].push(&rest[0]);
        let now = Instant::now();
        pass.elapsed[i] += now - clock;
        clock = now;
    }
    for i in 0..region.stages.len() {
        pass.emitted[i] += pass.bufs[i].len() as u64;
    }
    clock
}

/// Run one pass of a fused region over the driver chunk range `chunks`,
/// producing one partial per stage — built at the effective output format,
/// like every chunk-range kernel, so a range-order splice reconstructs the
/// whole-range byte stream — and the accumulated time per stage.
///
/// With `size_interiors`, every stage but the root only *sizes* its output
/// ([`Partial::Sized`]): the caller guarantees the pass is the unit's only
/// part and that nothing — no plan cache, no capture — reads an interior.
///
/// A range that does not start at the driver's first chunk is only valid
/// for `prefix_independent` regions: every select reads the driver, whose
/// global chunk starts give exact position bases.
pub(crate) fn run_region_part<'a, 's, F>(
    plan: &QueryPlan,
    region: &FusedRegion,
    chunks: Range<usize>,
    slots: &F,
    settings: &ExecSettings,
    formats: &FormatConfig,
    size_interiors: bool,
) -> (Vec<Partial>, Vec<Duration>)
where
    'a: 's,
    F: Fn(usize) -> &'s Slot<'a>,
{
    debug_assert!(
        region.prefix_independent || chunks.start == 0,
        "fused morsel over a derived select"
    );
    let col = |r: ColRef| slots(r.node).column(r.port);
    let driver = col(region.driver);
    let n = region.stages.len();
    let sink = |stage: &FusedStage| {
        let format = || plan.part_format(stage.node, settings, formats);
        match stage.kind {
            StageKind::AggSum { .. } => StageSink::Fold,
            _ if size_interiors && stage.node != region.root => {
                StageSink::Size(ColumnBuilder::sizing(format()))
            }
            _ => StageSink::Encode(ColumnBuilder::new(format())),
        }
    };
    let mut pass = StagePass {
        gathers: region
            .stages
            .iter()
            .map(|stage| match stage.kind {
                StageKind::Project { data, .. } => Some(Gather::new(col(data))),
                _ => None,
            })
            .collect(),
        bufs: vec![Vec::new(); n],
        sinks: region.stages.iter().map(sink).collect(),
        emitted: vec![0; n],
        sums: vec![0; n],
        elapsed: vec![Duration::ZERO; n],
    };
    // The driver pull is the decode half of the first driver-reading
    // stage, as in its unfused operator.
    let puller = region
        .stages
        .iter()
        .position(|stage| stage.kind.reads_driver())
        .unwrap_or(0);
    let mut clock = Instant::now();
    driver.for_each_chunk_in(chunks, &mut |start, chunk| {
        let arrived = Instant::now();
        pass.elapsed[puller] += arrived - clock;
        clock = run_chunk(region, settings.style, &mut pass, start, chunk, arrived);
    });
    let mut partials = Vec::with_capacity(n);
    for (i, sink) in pass.sinks.into_iter().enumerate() {
        partials.push(sink.finish(pass.sums[i]));
        let now = Instant::now();
        pass.elapsed[i] += now - clock;
        clock = now;
    }
    (partials, pass.elapsed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{ColumnRecord, ExecutionContext};
    use crate::plan::{PlanBuilder, PlanOutput};
    use morph_compression::Format;
    use morph_storage::Column;
    use std::collections::HashMap;
    use std::sync::Arc;

    fn source(n: u64) -> HashMap<String, Column> {
        let mut columns = HashMap::new();
        columns.insert(
            "a".to_string(),
            Column::from_vec((0..n).map(|i| i % 97).collect()),
        );
        columns.insert(
            "b".to_string(),
            Column::from_vec((0..n).map(|i| (i * 7) % 113).collect()),
        );
        columns.insert(
            "c".to_string(),
            Column::from_vec((0..n).map(|i| i % 11).collect()),
        );
        columns
    }

    /// select → project → project → calc → agg with a *shared* position
    /// list: the two projects make `pos` two-consumer, so the region is
    /// the tail {b_at, c_at, prod, total} driven by the select's output.
    fn shared_pos_plan() -> QueryPlan {
        let mut b = PlanBuilder::new("t");
        let a = b.scan("a");
        let bb = b.scan("b");
        let cc = b.scan("c");
        let pos = b.select("pos", a, CmpOp::Lt, 50);
        let bv = b.project("b_at", bb, pos);
        let cv = b.project("c_at", cc, pos);
        let prod = b.calc_binary("prod", BinaryOp::Mul, bv, cv);
        let total = b.agg_sum("total", prod);
        b.finish_scalar(total)
    }

    /// A pure chain select → project → agg: one region spanning all three
    /// non-scan nodes, driven by the scanned base column.
    fn chain_plan() -> QueryPlan {
        let mut b = PlanBuilder::new("sp");
        let a = b.scan("a");
        let bb = b.scan("b");
        let pos = b.select("pos", a, CmpOp::Lt, 50);
        let bv = b.project("b_at", bb, pos);
        let total = b.agg_sum("total", bv);
        b.finish_scalar(total)
    }

    fn run(
        plan: &QueryPlan,
        source: &HashMap<String, Column>,
        settings: ExecSettings,
        formats: FormatConfig,
    ) -> (PlanOutput, Vec<ColumnRecord>, Vec<String>, ExecutionContext) {
        let mut ctx = ExecutionContext::new(settings, formats);
        let output = plan.execute(source, &mut ctx);
        let labels = ctx.timings().iter().map(|(l, _)| l.clone()).collect();
        (output, ctx.records().to_vec(), labels, ctx)
    }

    #[test]
    fn analyze_detects_chain_region() {
        let plan = chain_plan(); // 0 scan a, 1 scan b, 2 pos, 3 b_at, 4 total
        let fusion = FusionPlan::analyze(&plan);
        assert_eq!(fusion.region_count(), 1);
        let region = fusion.region(0);
        assert_eq!(region.members, vec![2, 3, 4]);
        assert_eq!(region.root, 4);
        assert_eq!(region.driver, ColRef { node: 0, port: 0 });
        assert_eq!(region.externals, vec![0, 1]);
        assert!(region.prefix_independent);
        let summaries = fusion.region_summaries(&plan);
        assert_eq!(summaries[0].members, vec![2, 3, 4]);
        assert_eq!(summaries[0].driver, "a");
        assert_eq!(summaries[0].interior_edges, vec!["sp/pos", "sp/b_at"]);
        assert_eq!(summaries[0].root_edge, None);
        assert!(summaries[0].prefix_independent);
    }

    #[test]
    fn analyze_stops_at_multi_consumer_nodes() {
        let plan = shared_pos_plan(); // 0 a, 1 b, 2 c, 3 pos, 4 b_at, 5 c_at, 6 prod, 7 total
        let fusion = FusionPlan::analyze(&plan);
        assert_eq!(fusion.region_count(), 1);
        let region = fusion.region(0);
        // pos is consumed by both projects, so it stays outside as driver.
        assert_eq!(region.members, vec![4, 5, 6, 7]);
        assert_eq!(region.driver, ColRef { node: 3, port: 0 });
        assert!(region.prefix_independent);
        assert!(fusion.region_of(3).is_none());
    }

    #[test]
    fn fused_serial_matches_unfused() {
        let source = source(5000);
        for plan in [shared_pos_plan(), chain_plan()] {
            for (settings, formats) in [
                (
                    ExecSettings::scalar_uncompressed(),
                    FormatConfig::uncompressed(),
                ),
                (
                    ExecSettings::vectorized_compressed(),
                    FormatConfig::with_default(Format::DynBp),
                ),
                (
                    ExecSettings::vectorized_compressed(),
                    FormatConfig::with_default(Format::DeltaDynBp),
                ),
            ] {
                let unfused = run(&plan, &source, settings.clone(), formats.clone());
                let fused = run(&plan, &source, settings.with_fusion(), formats);
                assert_eq!(unfused.0, fused.0, "results diverge");
                assert_eq!(unfused.1, fused.1, "footprint records diverge");
                assert_eq!(unfused.2, fused.2, "timing labels diverge");
                assert!(fused.3.fused_region_count() > 0);
                assert!(fused.3.intermediate_bytes_avoided() > 0);
                assert_eq!(unfused.3.fused_region_count(), 0);
            }
        }
    }

    #[test]
    fn specialized_degrees_demote_to_unfused() {
        let source = source(2000);
        let plan = chain_plan();
        let settings = ExecSettings {
            degree: IntegrationDegree::Specialized,
            ..ExecSettings::vectorized_compressed()
        }
        .with_fusion();
        let (_, _, _, ctx) = run(&plan, &source, settings, FormatConfig::uncompressed());
        assert_eq!(ctx.fused_region_count(), 0);
    }

    #[test]
    fn fused_and_unfused_share_cache_entries() {
        let source = source(4000);
        let plan = chain_plan();
        let formats = FormatConfig::with_default(Format::DynBp);

        // Cold fused run inserts every member under its unfused key...
        let cache = Arc::new(QueryCache::unbounded());
        let base = ExecSettings::vectorized_compressed().with_cache(Arc::clone(&cache));
        let cold = run(&plan, &source, base.clone().with_fusion(), formats.clone());
        assert_eq!(cold.3.fused_region_count(), 1);
        // ...so a warm *unfused* run hits all three non-scan nodes.
        let warm = run(&plan, &source, base.clone(), formats.clone());
        assert_eq!(warm.0, cold.0);
        assert_eq!(warm.1, cold.1);
        assert_eq!(warm.3.cache_hit_count(), 3);
        // A warm *fused* run demotes the fully cached region and hits too.
        let warm_fused = run(&plan, &source, base.with_fusion(), formats.clone());
        assert_eq!(warm_fused.0, cold.0);
        assert_eq!(warm_fused.1, cold.1);
        assert_eq!(warm_fused.3.cache_hit_count(), 3);
        assert_eq!(warm_fused.3.fused_region_count(), 0);

        // And the mirror image: cold unfused, warm fused.
        let cache = Arc::new(QueryCache::unbounded());
        let base = ExecSettings::vectorized_compressed().with_cache(Arc::clone(&cache));
        let cold = run(&plan, &source, base.clone(), formats.clone());
        let warm_fused = run(&plan, &source, base.with_fusion(), formats);
        assert_eq!(warm_fused.0, cold.0);
        assert_eq!(warm_fused.3.cache_hit_count(), 3);
        assert_eq!(warm_fused.3.fused_region_count(), 0);
    }

    #[test]
    fn describe_with_fusion_renders_pipeline_groups() {
        let plan = chain_plan();
        let formats = FormatConfig::with_default(Format::DynBp);
        let rendered = plan.describe_with_fusion(&formats);
        assert!(rendered.starts_with(&plan.describe(&formats)));
        assert!(rendered.contains("fused pipelines:"));
        assert!(rendered.contains("[#2 select:pos -> #3 project:b_at -> #4 agg:total]"));
        assert!(rendered.contains("    region 0: [#2 select:pos"));
        assert!(rendered.contains("driver a"));
        assert!(rendered.contains("interiors not retained: sp/pos, sp/b_at"));
        assert!(rendered.contains("morsel fan-out: yes"));

        // EXPLAIN ANALYZE of a fused run renders the same block.
        let tracer = Arc::new(crate::QueryTracer::new());
        let settings = ExecSettings::vectorized_compressed()
            .with_fusion()
            .with_tracer(Arc::clone(&tracer));
        run(&plan, &source(4000), settings, formats);
        let trace = tracer.last_trace().expect("the run published a trace");
        let block =
            |text: &str| text[text.find("  fused pipelines:").expect("a block")..].to_string();
        assert_eq!(block(&plan.explain_analyze(&trace)), block(&rendered));
    }
}
