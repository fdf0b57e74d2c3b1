//! Query-execution support: execution settings (processing style and degree
//! of integration), per-column format assignment, and bookkeeping of memory
//! footprints and operator runtimes.
//!
//! A query execution plan in the compression-enabled model is "constructed
//! using our compression-enabled query operators in the same manner as for
//! uncompressed processing" (Section 3.3); the only new degree of freedom is
//! the *format* of every base column and intermediate.  [`FormatConfig`]
//! captures such an assignment, and [`ExecutionContext`] records what a query
//! actually did with it — the total memory footprint of all touched columns
//! and the runtime per operator — which is exactly what the paper's
//! evaluation reports (Figures 6–10).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use morph_cache::QueryCache;
use morph_compression::Format;
use morph_storage::{Column, ColumnSize};
use morph_vector::ProcessingStyle;

use crate::trace::{NodeSpan, QueryTracer};

/// The four degrees of integrating compression into query operators
/// (Figure 2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum IntegrationDegree {
    /// Uncompressed internal processing with direct data access — the
    /// baseline with no compression involved at all (Figure 2(a)).
    PurelyUncompressed,
    /// Uncompressed internal processing with adaptive data access: inputs are
    /// decompressed and outputs recompressed on the fly, one cache-resident
    /// block / vector register at a time (Figure 2(b)).  This is the default
    /// and most general degree.
    #[default]
    OnTheFlyDeRecompression,
    /// Compressed internal processing with direct data access: the operator
    /// is specialised to the formats of its inputs and outputs
    /// (Figure 2(c)).  Falls back to on-the-fly de/re-compression when no
    /// specialization exists for the given formats.
    Specialized,
    /// Compressed internal processing with adaptive data access: inputs and
    /// outputs are *morphed* to the formats a specialized operator expects
    /// (Figure 2(d)).
    OnTheFlyMorphing,
}

impl IntegrationDegree {
    /// All four degrees, in the order of Figure 2.
    pub fn all() -> [IntegrationDegree; 4] {
        [
            IntegrationDegree::PurelyUncompressed,
            IntegrationDegree::OnTheFlyDeRecompression,
            IntegrationDegree::Specialized,
            IntegrationDegree::OnTheFlyMorphing,
        ]
    }

    /// Label used by the benchmark harness.
    pub fn label(&self) -> &'static str {
        match self {
            IntegrationDegree::PurelyUncompressed => "purely-uncompressed",
            IntegrationDegree::OnTheFlyDeRecompression => "on-the-fly-de/re-compression",
            IntegrationDegree::Specialized => "specialized",
            IntegrationDegree::OnTheFlyMorphing => "on-the-fly-morphing",
        }
    }
}

/// How operators execute: processing style (scalar vs. vectorized), degree
/// of integration of compression, intra-operator parallelism, and the
/// optional cross-query plan cache.
#[derive(Debug, Clone, Default)]
pub struct ExecSettings {
    /// Scalar or vectorized operator cores.
    pub style: ProcessingStyle,
    /// Degree of integrating compression into the operators.
    pub degree: IntegrationDegree,
    /// Minimum input length (in data elements) above which the scheduler
    /// splits a single hot operator (select, project, semi-join probe,
    /// calc, sorted intersection, whole-column sum) or a
    /// prefix-independent fused region into chunk-range *morsels*
    /// processed by several workers.  `None` (the default) disables
    /// intra-operator parallelism; one worker never splits, so the setting
    /// has no effect on [`PlanExecutor`](crate::plan::PlanExecutor).
    pub morsel_threshold: Option<usize>,
    /// Cross-query plan-level cache consulted by both executors before a
    /// node is scheduled: a hit completes the node without running the
    /// operator, a miss inserts the node's result on completion.  `None`
    /// (the default) disables caching.  The handle is shared — clone the
    /// settings (or the `Arc`) to let several queries populate one cache.
    pub cache: Option<Arc<QueryCache>>,
    /// Per-query governance token (cancellation, wall-clock deadline,
    /// transient-memory budget) checked by both executors at node and
    /// chunk boundaries.  `None` (the default) disables governance.  The
    /// handle is shared: the submitting side keeps a clone so it can
    /// [`cancel`](crate::govern::QueryGovernor::cancel) mid-execution.
    pub governor: Option<Arc<crate::govern::QueryGovernor>>,
    /// Enable operator fusion: maximal single-consumer chains of
    /// position-preserving nodes execute as one chunk-at-a-time pass over
    /// their driver column ([`fusion`](crate::fusion)).  Results, footprint
    /// records and timing-label sequences stay byte-identical to unfused
    /// execution; interior columns are dropped as soon as they are
    /// recorded.  `false` (the default) keeps node-by-node execution.
    pub fusion: bool,
    /// Per-query trace sink.  When attached, every completed execution
    /// publishes a [`PlanTrace`](crate::trace::PlanTrace) — one span per
    /// plan node, read off the node records after the run, so the workers
    /// record nothing twice.  `None` (the default) disables tracing;
    /// results, footprint records and timing-label sequences are
    /// byte-identical either way.
    pub tracer: Option<Arc<QueryTracer>>,
}

/// Settings compare by configuration; the cache and governor handles
/// compare by identity (two settings sharing one cache are equal, two
/// distinct caches are not).
impl PartialEq for ExecSettings {
    fn eq(&self, other: &Self) -> bool {
        self.style == other.style
            && self.degree == other.degree
            && self.morsel_threshold == other.morsel_threshold
            && self.fusion == other.fusion
            && match (&self.cache, &other.cache) {
                (None, None) => true,
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                _ => false,
            }
            && match (&self.governor, &other.governor) {
                (None, None) => true,
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                _ => false,
            }
            && match (&self.tracer, &other.tracer) {
                (None, None) => true,
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                _ => false,
            }
    }
}

impl Eq for ExecSettings {}

impl ExecSettings {
    /// Scalar processing on uncompressed data — the configuration the paper
    /// uses to compare against MonetDB (Figure 9, "MorphStore scalar
    /// uncompr.").
    pub fn scalar_uncompressed() -> ExecSettings {
        ExecSettings {
            style: ProcessingStyle::Scalar,
            degree: IntegrationDegree::PurelyUncompressed,
            ..ExecSettings::default()
        }
    }

    /// Vectorized processing on uncompressed data.
    pub fn vectorized_uncompressed() -> ExecSettings {
        ExecSettings {
            style: ProcessingStyle::Vectorized,
            degree: IntegrationDegree::PurelyUncompressed,
            ..ExecSettings::default()
        }
    }

    /// Vectorized processing with continuous compression (the paper's
    /// headline configuration).
    pub fn vectorized_compressed() -> ExecSettings {
        ExecSettings {
            style: ProcessingStyle::Vectorized,
            degree: IntegrationDegree::OnTheFlyDeRecompression,
            ..ExecSettings::default()
        }
    }

    /// The same settings with intra-operator morsel parallelism enabled for
    /// operator inputs of at least `threshold` data elements (builder style,
    /// for sweeps: `ExecSettings::vectorized_compressed()
    /// .with_morsel_threshold(64 * 1024)`).
    pub fn with_morsel_threshold(mut self, threshold: usize) -> ExecSettings {
        self.morsel_threshold = Some(threshold);
        self
    }

    /// The same settings with the given cross-query plan cache attached
    /// (builder style).  Both executors consult the cache before running a
    /// node and insert results on completion; warm runs return byte-identical
    /// results and bookkeeping to cold runs.
    pub fn with_cache(mut self, cache: Arc<QueryCache>) -> ExecSettings {
        self.cache = Some(cache);
        self
    }

    /// The same settings with a per-query governance token attached
    /// (builder style).  Both executors check the governor at node and
    /// chunk boundaries; a violated limit surfaces as an
    /// [`ExecError`](crate::govern::ExecError) from the `try_execute`
    /// entry points.
    pub fn with_governor(mut self, governor: Arc<crate::govern::QueryGovernor>) -> ExecSettings {
        self.governor = Some(governor);
        self
    }

    /// The same settings with operator fusion enabled (builder style).
    /// Fusible chains execute as single-pass cursor pipelines; all results
    /// and bookkeeping stay byte-identical to unfused execution.
    pub fn with_fusion(mut self) -> ExecSettings {
        self.fusion = true;
        self
    }

    /// The same settings with a per-query trace sink attached (builder
    /// style).  All executors publish a
    /// [`PlanTrace`](crate::trace::PlanTrace) per execution, which
    /// [`QueryPlan::explain_analyze`](crate::plan::QueryPlan::explain_analyze)
    /// renders as a per-node profile.
    pub fn with_tracer(mut self, tracer: Arc<QueryTracer>) -> ExecSettings {
        self.tracer = Some(tracer);
        self
    }
}

/// An assignment of a compression format to every named base column and
/// intermediate of a query.
///
/// Columns without an explicit entry use the default format.  Assignments are
/// independent per column (design principle DP2).
#[derive(Debug, Clone, Default)]
pub struct FormatConfig {
    default: Option<Format>,
    per_column: HashMap<String, Format>,
}

impl FormatConfig {
    /// Configuration in which every column is uncompressed.
    pub fn uncompressed() -> FormatConfig {
        FormatConfig {
            default: Some(Format::Uncompressed),
            per_column: HashMap::new(),
        }
    }

    /// Configuration with the given default format for every column.
    pub fn with_default(format: Format) -> FormatConfig {
        FormatConfig {
            default: Some(format),
            per_column: HashMap::new(),
        }
    }

    /// Set the format of one named column, returning `self` for chaining.
    pub fn set(mut self, column: &str, format: Format) -> FormatConfig {
        self.per_column.insert(column.to_string(), format);
        self
    }

    /// Set the format of one named column in place.
    pub fn insert(&mut self, column: &str, format: Format) {
        self.per_column.insert(column.to_string(), format);
    }

    /// The format assigned to `column`; `fallback` applies when neither a
    /// per-column entry nor a default exists.
    pub fn format_for(&self, column: &str, fallback: Format) -> Format {
        self.per_column
            .get(column)
            .copied()
            .or(self.default)
            .unwrap_or(fallback)
    }

    /// Names with explicit per-column assignments.
    pub fn explicit_columns(&self) -> impl Iterator<Item = &str> {
        self.per_column.keys().map(|s| s.as_str())
    }

    /// The default format, if one was set.
    pub fn default_format(&self) -> Option<Format> {
        self.default
    }
}

/// A record of one column touched during query execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnRecord {
    /// Name of the column (base column or intermediate).
    pub name: String,
    /// Format the column was materialised in.
    pub format: Format,
    /// Logical number of data elements.
    pub len: usize,
    /// Physical size in bytes (compressed main part + remainder).
    pub bytes: usize,
    /// Whether this is a base column (as opposed to an intermediate).
    pub is_base: bool,
}

/// Bookkeeping of a single plan node's execution, recorded independently of
/// the [`ExecutionContext`] so nodes can run on worker threads.
///
/// The scheduler ([`crate::parallel`]) gives every node its own
/// `NodeRecords`; once all nodes have completed, the per-node records are
/// merged back into the context **in topological (node-list) order** via
/// [`ExecutionContext::merge_node_records`] — on every path, serial or
/// parallel, fused or not — so the merged footprint records and
/// operator-timing label sequences never depend on which thread ran which
/// node when.  A failed execution merges nothing.
#[derive(Debug, Default)]
pub struct NodeRecords {
    records: Vec<ColumnRecord>,
    timings: Vec<(String, Duration)>,
    captured: Vec<(String, Column)>,
    capture: bool,
    cache_hits: usize,
    morsel_parts: usize,
}

impl NodeRecords {
    /// Create a recorder; `capture` keeps a copy of every recorded
    /// intermediate (mirroring [`ExecutionContext::enable_capture`]).
    pub fn new(capture: bool) -> NodeRecords {
        NodeRecords {
            capture,
            ..NodeRecords::default()
        }
    }

    /// Record a base column touched by this node.  Per-query deduplication
    /// happens at merge time, in the context.
    pub fn record_base(&mut self, name: &str, column: &Column) {
        self.records.push(ColumnRecord {
            name: name.to_string(),
            format: *column.format(),
            len: column.logical_len(),
            bytes: column.size_used_bytes(),
            is_base: true,
        });
    }

    /// Record an intermediate result produced by this node; its physical
    /// size is charged to the current query's memory budget.
    pub fn record_intermediate(&mut self, name: &str, column: &Column) {
        // Cross-check the static plan verifier against runtime reality: in
        // debug builds every produced column must carry a self-consistent
        // seekable chunk directory, so all existing determinism suites
        // exercise the invariant for free.
        #[cfg(debug_assertions)]
        if let Err(detail) = column.check_chunk_directory() {
            panic!("column {name:?} has an inconsistent chunk directory: {detail}");
        }
        self.record_size(name, column.size());
        if self.capture {
            self.captured.push((name.to_string(), column.clone()));
        }
    }

    /// Record an intermediate that was sized but never encoded — a fused
    /// interior nothing reads.  Its record and budget charge are exactly
    /// those of the encoded column.
    pub(crate) fn record_size(&mut self, name: &str, size: ColumnSize) {
        crate::govern::charge_materialized(size.bytes);
        self.records.push(ColumnRecord {
            name: name.to_string(),
            format: size.format,
            len: size.len,
            bytes: size.bytes,
            is_base: false,
        });
    }

    /// Record a measured duration under `op_name`: an operator's run, a
    /// fanned-out unit's fan-out-to-merge wall clock, a fused stage's
    /// accumulated time, or a cache hit's lookup time.
    pub fn push_timing(&mut self, op_name: &str, elapsed: Duration) {
        self.timings.push((op_name.to_string(), elapsed));
    }

    /// The duration of the most recent timing record — the node's measured
    /// runtime, which becomes the eviction *benefit* of its cache entry.
    pub fn last_duration(&self) -> Duration {
        self.timings
            .last()
            .map(|(_, d)| *d)
            .unwrap_or(Duration::ZERO)
    }

    /// Flag this node as served from the plan-level cache.  The footprint
    /// and timing records stay identical to an executed node (that is the
    /// warm-run determinism guarantee); the flag keeps the accounting
    /// honest by making hits countable.
    pub fn note_cache_hit(&mut self) {
        self.cache_hits += 1;
    }

    /// Note that this node ran as one of the `parts` chunk-range parts of
    /// a fanned-out unit.
    pub(crate) fn note_morsel_parts(&mut self, parts: usize) {
        self.morsel_parts = parts;
    }

    /// This node's trace span: the last timing (zero for scans, the lookup
    /// time for cache hits), rows, bytes and format of the last footprint
    /// record (a grouping's `_reps` column; nothing for a scalar sum), the
    /// cache-hit flag and the morsel fan-out degree.
    pub(crate) fn span(&self) -> NodeSpan {
        let last = self.records.last();
        NodeSpan {
            recorded: true,
            elapsed: self.last_duration(),
            rows: last.map_or(0, |record| record.len as u64),
            bytes: last.map_or(0, |record| record.bytes as u64),
            format: last.map(|record| record.format),
            cache_hit: self.cache_hits > 0,
            morsel_parts: self.morsel_parts as u64,
        }
    }
}

/// Records what a query execution did: which columns were touched (with their
/// formats and physical sizes) and how long each operator took.
///
/// The *memory footprint* of a query is the sum of the physical sizes of all
/// recorded columns — base columns and intermediates — matching the metric of
/// Figures 6–8 and 10.
#[derive(Debug, Default)]
pub struct ExecutionContext {
    /// Execution settings used by the query.
    pub settings: ExecSettings,
    /// Format assignment used by the query.
    pub formats: FormatConfig,
    records: Vec<ColumnRecord>,
    timings: Vec<(String, Duration)>,
    capture: bool,
    captured: HashMap<String, Column>,
    cache_hits: usize,
    fused_regions: usize,
    fused_bytes_avoided: u64,
}

impl ExecutionContext {
    /// Create a context with the given settings and format assignment.
    pub fn new(settings: ExecSettings, formats: FormatConfig) -> ExecutionContext {
        ExecutionContext {
            settings,
            formats,
            records: Vec::new(),
            timings: Vec::new(),
            capture: false,
            captured: HashMap::new(),
            cache_hits: 0,
            fused_regions: 0,
            fused_bytes_avoided: 0,
        }
    }

    /// Keep a copy of every recorded intermediate column.
    ///
    /// The format-selection strategies (Figures 7 and 10 of the paper) need
    /// to know the data characteristics — or even try out every format — for
    /// every intermediate; capturing one reference execution provides them.
    pub fn enable_capture(&mut self) {
        self.capture = true;
    }

    /// The captured intermediate columns (empty unless
    /// [`ExecutionContext::enable_capture`] was called before execution).
    pub fn captured_columns(&self) -> &HashMap<String, Column> {
        &self.captured
    }

    /// The format assigned to `column`, defaulting to uncompressed.
    pub fn format_for(&self, column: &str) -> Format {
        self.formats.format_for(column, Format::Uncompressed)
    }

    /// Whether intermediate capture is enabled (see
    /// [`ExecutionContext::enable_capture`]).
    pub fn capture_enabled(&self) -> bool {
        self.capture
    }

    /// Merge the records of one executed plan node into the context.
    ///
    /// The scheduler calls this once per node **in topological (node-list)
    /// order**, which makes the merged footprint and timing sequences
    /// independent of the actual (possibly parallel) execution schedule.
    /// Base-column records deduplicate: the footprint of a base column is
    /// counted once per query.
    pub fn merge_node_records(&mut self, node: NodeRecords) {
        for record in node.records {
            if record.is_base
                && self
                    .records
                    .iter()
                    .any(|r| r.is_base && r.name == record.name)
            {
                continue;
            }
            self.records.push(record);
        }
        self.timings.extend(node.timings);
        if self.capture {
            self.captured.extend(node.captured);
        }
        self.cache_hits += node.cache_hits;
    }

    /// Number of plan nodes this execution served from the plan-level cache
    /// (0 without a cache).  Footprint and timing records are identical for
    /// hit and executed nodes; this counter is the explicit hit flag.
    pub fn cache_hit_count(&self) -> usize {
        self.cache_hits
    }

    /// All recorded columns.
    pub fn records(&self) -> &[ColumnRecord] {
        &self.records
    }

    /// All recorded operator timings, in execution order.
    pub fn timings(&self) -> &[(String, Duration)] {
        &self.timings
    }

    /// Total physical size of all recorded columns (bytes).
    pub fn total_footprint_bytes(&self) -> usize {
        self.records.iter().map(|r| r.bytes).sum()
    }

    /// Total physical size of the recorded base columns (bytes).
    pub fn base_footprint_bytes(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.is_base)
            .map(|r| r.bytes)
            .sum()
    }

    /// Total physical size of the recorded intermediates (bytes).
    pub fn intermediate_footprint_bytes(&self) -> usize {
        self.records
            .iter()
            .filter(|r| !r.is_base)
            .map(|r| r.bytes)
            .sum()
    }

    /// Sum of all recorded operator durations.
    pub fn total_runtime(&self) -> Duration {
        self.timings.iter().map(|(_, d)| *d).sum()
    }

    /// Number of recorded intermediates.
    pub fn intermediate_count(&self) -> usize {
        self.records.iter().filter(|r| !r.is_base).count()
    }

    /// Note `regions` executed fused regions whose interior columns summed
    /// to `bytes` physical bytes — bytes that were recorded (footprints
    /// stay byte-identical) but *not retained*: the columns were dropped
    /// instead of entering the slot table.
    pub(crate) fn add_fused(&mut self, regions: usize, bytes: u64) {
        self.fused_regions += regions;
        self.fused_bytes_avoided += bytes;
    }

    /// Number of fused regions this execution ran as single-pass pipelines
    /// (0 with fusion disabled).
    pub fn fused_region_count(&self) -> usize {
        self.fused_regions
    }

    /// Physical bytes of interior columns that fused pipelines recorded
    /// but never retained — the per-query materialisation saving of
    /// operator fusion (0 with fusion disabled).
    pub fn intermediate_bytes_avoided(&self) -> u64 {
        self.fused_bytes_avoided
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degree_labels_and_default() {
        assert_eq!(IntegrationDegree::all().len(), 4);
        assert_eq!(
            IntegrationDegree::default(),
            IntegrationDegree::OnTheFlyDeRecompression
        );
        let labels: std::collections::HashSet<&str> =
            IntegrationDegree::all().iter().map(|d| d.label()).collect();
        assert_eq!(labels.len(), 4);
    }

    #[test]
    fn exec_settings_presets() {
        let scalar = ExecSettings::scalar_uncompressed();
        assert_eq!(scalar.style, ProcessingStyle::Scalar);
        assert_eq!(scalar.degree, IntegrationDegree::PurelyUncompressed);
        let compressed = ExecSettings::vectorized_compressed();
        assert_eq!(compressed.style, ProcessingStyle::Vectorized);
        assert_eq!(
            compressed.degree,
            IntegrationDegree::OnTheFlyDeRecompression
        );
        assert_eq!(
            ExecSettings::vectorized_uncompressed().degree,
            IntegrationDegree::PurelyUncompressed
        );
    }

    #[test]
    fn format_config_lookup_precedence() {
        let config = FormatConfig::with_default(Format::DynBp).set("x", Format::Rle);
        assert_eq!(config.format_for("x", Format::Uncompressed), Format::Rle);
        assert_eq!(config.format_for("y", Format::Uncompressed), Format::DynBp);
        let empty = FormatConfig::default();
        assert_eq!(
            empty.format_for("z", Format::StaticBp(7)),
            Format::StaticBp(7)
        );
        assert_eq!(empty.default_format(), None);
        assert_eq!(
            FormatConfig::uncompressed().format_for("q", Format::Rle),
            Format::Uncompressed
        );
    }

    #[test]
    fn format_config_insert_and_iterate() {
        let mut config = FormatConfig::uncompressed();
        config.insert("a", Format::Rle);
        config.insert("b", Format::DynBp);
        let mut columns: Vec<&str> = config.explicit_columns().collect();
        columns.sort_unstable();
        assert_eq!(columns, vec!["a", "b"]);
    }

    #[test]
    fn execution_context_accounts_footprints() {
        let mut ctx = ExecutionContext::new(ExecSettings::default(), FormatConfig::uncompressed());
        let base = Column::from_slice(&[1, 2, 3, 4]);
        let inter = Column::compress(&(0..1000u64).collect::<Vec<_>>(), &Format::StaticBp(10));
        let mut node = NodeRecords::new(false);
        node.record_base("base", &base);
        node.record_intermediate("inter", &inter);
        ctx.merge_node_records(node);
        // A second node touching the same base column: counted once.
        let mut again = NodeRecords::new(false);
        again.record_base("base", &base);
        ctx.merge_node_records(again);
        assert_eq!(ctx.base_footprint_bytes(), 32);
        assert_eq!(ctx.intermediate_footprint_bytes(), inter.size_used_bytes());
        assert_eq!(ctx.total_footprint_bytes(), 32 + inter.size_used_bytes());
        assert_eq!(ctx.records().len(), 2);
        assert_eq!(ctx.intermediate_count(), 1);
    }

    #[test]
    fn execution_context_times_operators() {
        let mut ctx = ExecutionContext::default();
        let mut node = NodeRecords::new(false);
        node.push_timing("op1", Duration::from_millis(2));
        node.push_timing("op2", Duration::from_millis(1));
        assert_eq!(node.last_duration(), Duration::from_millis(1));
        ctx.merge_node_records(node);
        assert_eq!(ctx.timings().len(), 2);
        assert_eq!(ctx.total_runtime(), Duration::from_millis(3));
        assert_eq!(ctx.timings()[0].0, "op1");
    }
}
