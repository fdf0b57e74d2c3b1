//! Per-query traces: a view of one execution's node records.
//!
//! The scheduler ([`crate::parallel`]) already keeps one record of what
//! every plan node did — its [`NodeRecords`](crate::exec::NodeRecords):
//! footprint records, timings, the cache-hit flag and the morsel fan-out
//! degree — and merges them into the
//! [`ExecutionContext`](crate::ExecutionContext) in node-list order once
//! the run completed.  With a [`QueryTracer`] attached
//! ([`ExecSettings::with_tracer`](crate::ExecSettings::with_tracer)), that
//! same final loop also reads one [`NodeSpan`] off each node's records and
//! hands the finished [`PlanTrace`] to the tracer.  Nothing is recorded
//! while the workers run, so every schedule — serial, parallel, morsel,
//! fused — traces through the same path, and a failed run publishes
//! nothing.  [`QueryPlan::explain_analyze`](crate::plan::QueryPlan::explain_analyze)
//! renders a trace as a per-node profile.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use morph_cache::CacheKey;
use morph_compression::Format;

use crate::fusion::FusionPlan;

/// What one plan node did, read off its node records after the run.
#[derive(Debug, Clone)]
pub struct NodeSpan {
    pub(crate) recorded: bool,
    pub(crate) elapsed: Duration,
    pub(crate) rows: u64,
    pub(crate) bytes: u64,
    /// The materialised format of the last footprint record (`None` for a
    /// scalar aggregation, which records no column).
    pub(crate) format: Option<Format>,
    pub(crate) cache_hit: bool,
    pub(crate) morsel_parts: u64,
}

impl NodeSpan {
    /// Whether the node's execution was recorded.
    pub fn is_recorded(&self) -> bool {
        self.recorded
    }

    /// Recorded wall time of the node's operator (the cache-lookup time for
    /// a cache hit; zero for scans, which only bind a base column).
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }

    /// Logical rows of the node's output column.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Physical (compressed) bytes of the node's output.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Logical (uncompressed, 8 bytes per element) size of the output.
    pub fn logical_bytes(&self) -> u64 {
        self.rows * 8
    }

    /// Whether the node was served from the plan-level cache.
    pub fn cache_hit(&self) -> bool {
        self.cache_hit
    }

    /// Morsel fan-out degree (0 when the node ran unpartitioned).
    pub fn morsel_parts(&self) -> u64 {
        self.morsel_parts
    }
}

/// The trace of one completed plan execution: one span per plan node, in
/// node-list order, plus the fusion analysis the run executed.
#[derive(Debug)]
pub struct PlanTrace {
    /// The executed plan's structural fingerprint, which flags a trace
    /// rendered against another plan.
    pub(crate) fingerprint: CacheKey,
    pub(crate) spans: Vec<NodeSpan>,
    pub(crate) fusion: FusionPlan,
    pub(crate) total: Duration,
}

impl PlanTrace {
    /// Number of node spans (== plan nodes).
    pub fn node_count(&self) -> usize {
        self.spans.len()
    }

    /// The span of node `index`.
    pub fn node(&self, index: usize) -> &NodeSpan {
        &self.spans[index]
    }

    /// Total wall time of the execution.
    pub fn total(&self) -> Duration {
        self.total
    }
}

/// The trace sink attached to the engine's execution settings.
///
/// One tracer can observe many executions; [`QueryTracer::last_trace`]
/// returns the most recently completed one (what `EXPLAIN ANALYZE`
/// renders).
#[derive(Debug, Default)]
pub struct QueryTracer {
    last: Mutex<Option<Arc<PlanTrace>>>,
}

impl QueryTracer {
    /// Create a tracer with no recorded trace.
    pub fn new() -> QueryTracer {
        QueryTracer::default()
    }

    /// Publish the trace of a completed execution.
    pub(crate) fn publish(&self, trace: PlanTrace) {
        *self.last.lock().expect("tracer lock") = Some(Arc::new(trace));
    }

    /// The most recently completed trace, if any execution completed under
    /// this tracer.
    pub fn last_trace(&self) -> Option<Arc<PlanTrace>> {
        self.last.lock().expect("tracer lock").clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{ExecSettings, ExecutionContext, FormatConfig, NodeRecords};
    use crate::plan::{PlanBuilder, QueryPlan};
    use crate::CmpOp;
    use morph_storage::Column;
    use std::collections::HashMap;

    /// `select`s chained `steps` times over `x`, summed.
    fn chain(steps: usize) -> QueryPlan {
        let mut b = PlanBuilder::new("t");
        let mut current = b.scan("x");
        for step in 0..steps {
            current = b.select(&format!("s{step}"), current, CmpOp::Lt, 90 - step as u64);
        }
        let total = b.agg_sum("total", current);
        b.finish_scalar(total)
    }

    /// The trace of a fused run of `plan`.
    fn traced(plan: &QueryPlan) -> Arc<PlanTrace> {
        let source = HashMap::from([(
            "x".to_string(),
            Column::from_vec((0..1000u64).map(|i| i % 97).collect()),
        )]);
        let tracer = Arc::new(QueryTracer::new());
        let settings = (ExecSettings::default().with_fusion()).with_tracer(Arc::clone(&tracer));
        let mut ctx = ExecutionContext::new(settings, FormatConfig::uncompressed());
        plan.execute(&source, &mut ctx);
        tracer.last_trace().expect("the run published a trace")
    }

    #[test]
    fn trace_records_and_publishes() {
        let column = Column::from_slice(&[1, 2, 3]);
        let mut records = NodeRecords::new(false);
        records.push_timing("op", Duration::from_micros(5));
        records.record_intermediate("t/op", &column);
        records.note_morsel_parts(4);
        let span = records.span();
        assert!(span.is_recorded());
        assert_eq!(span.elapsed(), Duration::from_micros(5));
        assert_eq!(span.rows(), 3);
        assert_eq!(span.bytes(), column.size_used_bytes() as u64);
        assert_eq!(span.logical_bytes(), 24);
        assert_eq!(span.morsel_parts(), 4);
        assert!(!span.cache_hit());
        // A node that records no column (a scalar sum) reports nothing.
        let sum = NodeRecords::new(false).span();
        assert_eq!((sum.rows(), sum.bytes(), sum.format), (0, 0, None));

        let plan = chain(1);
        let trace = traced(&plan);
        assert_eq!(trace.node_count(), plan.node_count());
        assert!((0..trace.node_count()).all(|i| trace.node(i).is_recorded()));
        assert!(trace.node(0).elapsed().is_zero(), "a scan only binds");
        assert_eq!(trace.node(0).rows(), 1000);
    }

    #[test]
    fn explain_analyze_flags_a_trace_of_another_plan() {
        let plan = chain(2);
        let profile = plan.explain_analyze(&traced(&plan));
        assert!(!profile.contains("different plan"), "{profile}");
        assert!(!profile.contains("(not executed)"), "{profile}");
        assert!(profile.contains("fused pipelines:"), "{profile}");
        // Fewer and more nodes than `plan`: flagged, never indexed past.
        for other in [chain(1), chain(4)] {
            let stale = plan.explain_analyze(&traced(&other));
            let header = stale.lines().next().expect("a header");
            assert!(
                header.contains("[trace is from a different plan]"),
                "{stale}"
            );
            assert_eq!(stale.lines().count(), 1 + plan.node_count(), "{stale}");
        }
    }
}
