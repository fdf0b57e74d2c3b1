//! # morphstore-engine
//!
//! Query operators and the holistic compression-enabled processing model of
//! MorphStore-rs.
//!
//! The engine follows the operator-at-a-time model of MonetDB (design
//! principle DP1): every operator consumes one or more columns and fully
//! materialises its output column(s) before the next operator runs.  The
//! difference to MonetDB — and the paper's core contribution — is that every
//! input *and* output column can be held in a lightweight integer compression
//! format, chosen independently per column (DP2), and that no operator ever
//! materialises a whole column uncompressed (DP3).
//!
//! ## Degrees of integration (Figure 2 of the paper)
//!
//! Every operator can be executed at one of four [`IntegrationDegree`]s:
//!
//! 1. **Purely uncompressed** — the baseline: uncompressed input, output and
//!    internal processing.
//! 2. **On-the-fly de/re-compression** — the workhorse degree: inputs are
//!    decompressed one cache-resident block (or vector register) at a time
//!    and fed to the operator core, whose uncompressed output values are
//!    gathered in a 16 KiB cache-resident buffer and recompressed into the
//!    output format whenever it fills up (the three-layer architecture of
//!    Figure 4: column layer / buffer layer / vector-register layer).
//! 3. **Specialized operators** — process the compressed representation
//!    directly (e.g. run-value comparisons on RLE data, per-block shortcuts
//!    on FOR data) for specific format combinations.
//! 4. **On-the-fly morphing** — inputs/outputs are *morphed* between
//!    compressed formats so that specialized operators can be used even when
//!    the intermediates carry different formats.
//!
//! ## Operators
//!
//! The operator set mirrors the one the paper needs for the Star Schema
//! Benchmark (Section 4.2): [`select`], [`project`], [`join`], [`semi_join`],
//! [`intersect_sorted`], [`merge_sorted`], [`group_by`], [`group_by_refine`],
//! [`agg_sum`], [`agg_sum_grouped`] and [`calc_binary`], plus the
//! column-level [`morph`] operator that re-encodes a column in another
//! format.  One [`select`] evaluates every single-column [`Predicate`] — a
//! comparison, an inclusive range or an `IN` list — through one chunk
//! step, one chunk-range kernel and one integration-degree dispatch, and
//! [`join`] is the N:1 foreign-key join that checks every probe row finds
//! exactly one build row.
//!
//! ## Query plans
//!
//! Operators compose into a declarative DAG via the [`plan`] module: a
//! [`plan::PlanBuilder`] offers one constructor per operator and returns
//! typed handles, and a [`plan::PlanExecutor`] runs the finished
//! [`plan::QueryPlan`] in topological order, resolving each edge's
//! compression format from the [`exec::FormatConfig`] and recording
//! footprints and timings in the [`ExecutionContext`].  Because DP1
//! materialises every intermediate, the plan is an explicit dependency
//! graph, and one ready-queue scheduler ([`parallel`]) runs it: inline on
//! the calling thread for [`plan::PlanExecutor`], on several workers for
//! the [`parallel::ParallelExecutor`], with identical bookkeeping.  With
//! [`ExecSettings::morsel_threshold`] set, several workers additionally
//! split single large operators (and fused regions) into chunk-range
//! morsels over the columns' seekable chunk directories
//! ([`ops::partitioned`]), spliced back byte-identically.  With an
//! [`ExecSettings::cache`] handle set, the scheduler additionally consults
//! the cross-query plan-level [`QueryCache`] (`morph-cache`): every
//! non-scan node is keyed by a
//! canonical fingerprint of the subplan rooted at it, a hit completes the
//! node without running the operator — with footprint and timing records
//! identical to an execution — and a miss inserts the result for the next
//! query.  With an [`ExecSettings::tracer`] attached, the scheduler
//! additionally reads one span per plan node off the same node records it
//! merges — wall time, rows, compressed vs. logical bytes, cache hits,
//! morsel fan-out ([`trace`]) — which [`plan::QueryPlan::explain_analyze`]
//! renders as a per-node profile; results, footprint records and
//! timing-label sequences stay byte-identical with tracing on.  See
//! DESIGN.md for how the plan layer sits on top of the single read path
//! (format cursor → column cursor → chunk step → column builder).
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod exec;
pub mod faults;
pub mod fusion;
pub mod govern;
pub mod ops;
pub mod parallel;
pub mod plan;
pub mod specialized;
pub mod trace;
pub mod verify;

pub use exec::{ExecSettings, ExecutionContext, IntegrationDegree};
pub use fusion::{FusedRegionSummary, FusionPlan};
pub use govern::{ExecError, GovernorScope, QueryGovernor};
pub use morph_cache::{CacheKey, CacheStats, QueryCache};
pub use morph_telemetry::{Counter, Histogram, MetricsRegistry};
pub use morph_vector::kernels::BinaryOp;
pub use morph_vector::ProcessingStyle;
pub use ops::agg::{agg_max, agg_sum, agg_sum_grouped};
pub use ops::calc::calc_binary;
pub use ops::group::{group_by, group_by_refine, GroupResult};
pub use ops::join::{join, semi_join};
pub use ops::merge::{intersect_sorted, merge_sorted};
pub use ops::morph_op::morph;
pub use ops::project::project;
pub use ops::select::{select, Predicate};
pub use ops::transient;
pub use parallel::ParallelExecutor;
pub use plan::{ColRef, ColumnSource, GroupRef, PlanBuilder, PlanExecutor, QueryPlan, ScalarRef};
pub use trace::{NodeSpan, PlanTrace, QueryTracer};
pub use verify::PlanError;

/// Comparison predicate of the [`select`] operator (re-exported from the
/// vector crate, where the SIMD comparison kernels live).
pub type CmpOp = morph_vector::VecCmp;
