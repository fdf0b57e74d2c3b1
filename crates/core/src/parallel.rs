//! Parallel plan execution: schedule independent plan subtrees — and
//! chunk-range *morsels* of single large operators — on a worker pool.
//!
//! The operator-at-a-time model (DP1) materialises every intermediate as a
//! real named column, which makes a [`QueryPlan`] an *explicit* dependency
//! graph — exactly what a scheduler needs.  MonetDB, the materialising
//! engine the paper benchmarks against (Figure 9), exploits the same
//! inter-operator parallelism; the multi-join SSB plans are the showcase:
//! their dimension-table subtrees (select → project → semi-join per
//! dimension) are mutually independent and can run concurrently.
//!
//! ## Scheduling
//!
//! [`ParallelExecutor`] computes each node's in-degree from
//! [`QueryPlan::dependencies`], seeds a shared task queue with the
//! zero-in-degree nodes (the scans), and lets `threads` scoped workers
//! (`std::thread::scope` — no external dependencies) pull tasks from
//! the queue, parking on a `Condvar` while it is empty (idle workers burn
//! no cycles while one long operator runs).  A worker executes a node via
//! the same [`execute_node`] core the serial executor uses, publishes the
//! result in a per-node `OnceLock` cell, decrements the in-degree of every
//! dependent and enqueues those that become ready.  Workers exit when all
//! nodes have completed.
//!
//! ## Intra-operator parallelism (morsels)
//!
//! Inter-operator parallelism alone leaves the Q1.x SSB plans serial: they
//! are one chain of huge fact-table operators.  When
//! [`crate::ExecSettings::morsel_threshold`] is set and a ready node's
//! partitioned input (see [`QueryPlan::morsel_op`]) reaches the threshold,
//! the worker that pops the node does not execute it; instead it builds the
//! operator's shared state once (a semi-join build set),
//! splits the input's seekable chunk directory into `k` contiguous ranges
//! ([`Column::partition_chunks`]) and publishes a [`MorselJob`].  Every
//! worker — including the one that published — then claims parts from the
//! job; the worker completing the *last* part splices the partials back in
//! range order ([`partitioned::concat_partials`]) and completes the node
//! exactly like the single-task path.  Chunk-range decoding never replays a
//! prefix (each chunk is an independently decodable block), so parts cost
//! what their share of the column costs.
//!
//! ## Determinism
//!
//! Results are bit-identical to serial execution because every operator is a
//! pure function of its input columns and the format assignment — and
//! because the morsel merge reconstructs the serial builder's byte stream
//! (see [`partitioned`]).  Footprint and timing **records** are kept
//! identical too: each node records into its own [`NodeRecords`], and after
//! the pool drains, the per-node records are merged into the
//! [`ExecutionContext`] in topological (node-list) order — the exact order
//! the serial executor produces
//! ([`ExecutionContext::merge_node_records`]).  Only the measured durations
//! differ; names, formats, sizes and label sequences do not.
//!
//! ## `threads = 1`
//!
//! A single-threaded `ParallelExecutor` delegates to the serial
//! [`PlanExecutor`] outright — no queue, no cells, no thread spawn — so the
//! documented fast path degenerates to today's executor; the only extra
//! work is the worker-count clamp.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

use morph_compression::Format;
use morph_storage::Column;
use morph_vector::keys::KeySet;

use crate::exec::{ExecSettings, ExecutionContext, FormatConfig, NodeRecords};
use crate::fusion::{FusedPartial, FusedRegion, FusionPlan, RegionOutcome, StageKind};
use crate::ops::partitioned;
use crate::plan::{
    cached_from_slot, execute_node, plan_cache_info, ColumnSource, MorselOp, NodeCacheInfo,
    PlanExecutor, PlanOutput, QueryPlan, Slot,
};

/// The result of one plan node, published for dependent nodes and the final
/// record merge.
struct NodeResult<'a> {
    slot: Slot<'a>,
    records: NodeRecords,
}

/// Operator state built once by the fanning-out worker and shared by all
/// parts of a morsel job.
enum MorselAux {
    /// No shared state (selects, calcs, sums, projects, intersections).
    None,
    /// The semi-join build set.
    Set(KeySet),
}

/// The partial result of one morsel part.
enum MorselPartial {
    /// A partial output column (select, project, semi-join).
    Col(Column),
    /// A partial wrapping sum (agg_sum).
    Sum(u64),
}

/// One fanned-out operator: `parts` contiguous chunk ranges of the
/// partitioned input, claimed by workers one at a time.
struct MorselJob {
    /// The plan node this job executes.
    node: usize,
    /// Contiguous chunk ranges, covering the input in order.
    parts: Vec<Range<usize>>,
    /// Next unclaimed part (claims happen under the queue lock).
    next: AtomicUsize,
    /// Completed parts; the worker completing the last one merges.
    done: AtomicUsize,
    /// Partial results, indexed like `parts`.
    partials: Vec<OnceLock<MorselPartial>>,
    /// Shared operator state (the semi-join build set).
    aux: MorselAux,
    /// Format the partials and the merged column are materialised in.
    out_format: Format,
    /// Fan-out time: the node's recorded duration spans shared-state
    /// construction through merge, like the serial operator timing.
    started: Instant,
}

/// One fanned-out fused region: `parts` contiguous chunk ranges of the
/// region's *driver* column, each processed as a full pipeline pass that
/// yields one partial per stage.
struct FusedJob {
    /// Index of the region in the execution's [`FusionPlan`].
    region_index: usize,
    /// Contiguous driver chunk ranges, covering the driver in order.
    parts: Vec<Range<usize>>,
    /// Next unclaimed part (claims happen under the queue lock).
    next: AtomicUsize,
    /// Completed parts; the worker completing the last one merges.
    done: AtomicUsize,
    /// Per part, one partial per stage (in stage order).
    partials: Vec<OnceLock<Vec<FusedPartial>>>,
    /// Fan-out time: every member's recorded duration spans fan-out
    /// through merge, like the unfused morsel timing.
    started: Instant,
}

/// A fanned-out job in the morsel queue: a single-operator morsel job or a
/// whole fused region.
enum QueuedJob {
    Op(Arc<MorselJob>),
    Fused(Arc<FusedJob>),
}

impl QueuedJob {
    fn next(&self) -> &AtomicUsize {
        match self {
            QueuedJob::Op(job) => &job.next,
            QueuedJob::Fused(job) => &job.next,
        }
    }

    fn part_count(&self) -> usize {
        match self {
            QueuedJob::Op(job) => job.parts.len(),
            QueuedJob::Fused(job) => job.parts.len(),
        }
    }
}

/// A unit of work pulled from the task queue.
enum Task {
    /// Execute (or fan out) one plan node or fused region root.
    Node(usize),
    /// Process part `1` of morsel job `0`.
    Morsel(Arc<MorselJob>, usize),
    /// Process driver chunk-range part `1` of fused-region job `0`.
    FusedPart(Arc<FusedJob>, usize),
}

/// The queue proper, guarded by one mutex so Condvar parking covers both
/// task kinds without lost wakeups.
struct TaskQueue {
    /// Node indices whose dependencies have all completed.
    nodes: VecDeque<usize>,
    /// Fanned-out jobs with unclaimed parts, oldest first.
    morsels: VecDeque<QueuedJob>,
}

/// Shared scheduler state of one parallel plan execution.
struct Scheduler {
    queue: Mutex<TaskQueue>,
    /// Signalled whenever the queue gains entries or `done` flips.
    wakeup: Condvar,
    /// Per node, the number of dependencies that have not completed yet.
    remaining: Vec<AtomicUsize>,
    /// Number of completed nodes.
    completed: AtomicUsize,
    /// All nodes completed (or a worker panicked): workers must exit.
    done: AtomicBool,
}

impl Scheduler {
    /// Block until a task is available; `None` once the execution is done.
    ///
    /// Morsel parts are claimed before whole nodes: finishing an in-flight
    /// fan-out unblocks its dependents soonest, and the job was only created
    /// because its operator dominates the plan.
    fn next_task(&self) -> Option<Task> {
        let mut queue = self.queue.lock().expect("scheduler lock");
        loop {
            // `done` first: on normal completion the queue is empty anyway,
            // and after a sibling's panic the survivors must stop instead of
            // draining the rest of the plan before the panic propagates.
            if self.done.load(Ordering::Acquire) {
                return None;
            }
            while let Some(job) = queue.morsels.front() {
                // Claims happen under the queue lock, so `next` never skips.
                let part = job.next().fetch_add(1, Ordering::Relaxed);
                if part < job.part_count() {
                    let last = part + 1 == job.part_count();
                    let task = match job {
                        QueuedJob::Op(job) => Task::Morsel(Arc::clone(job), part),
                        QueuedJob::Fused(job) => Task::FusedPart(Arc::clone(job), part),
                    };
                    if last {
                        queue.morsels.pop_front();
                    }
                    return Some(task);
                }
                queue.morsels.pop_front();
            }
            if let Some(idx) = queue.nodes.pop_front() {
                return Some(Task::Node(idx));
            }
            queue = self.wakeup.wait(queue).expect("scheduler lock");
        }
    }

    /// Publish newly-ready nodes and wake waiting workers.  A single new
    /// node needs a single worker; `finished` and multi-node batches wake
    /// everyone.
    fn enqueue_ready(&self, nodes: Vec<usize>, finished: bool) {
        if nodes.is_empty() && !finished {
            return;
        }
        let single = nodes.len() == 1 && !finished;
        let mut queue = self.queue.lock().expect("scheduler lock");
        queue.nodes.extend(nodes);
        drop(queue);
        if single {
            self.wakeup.notify_one();
        } else {
            self.wakeup.notify_all();
        }
    }

    /// Publish a fanned-out job and wake all parked workers to claim parts.
    fn publish_morsels(&self, job: QueuedJob) {
        let mut queue = self.queue.lock().expect("scheduler lock");
        queue.morsels.push_back(job);
        drop(queue);
        self.wakeup.notify_all();
    }
}

/// Unblocks the sibling workers when a worker thread panics (an operator
/// assertion, an unknown column), so `std::thread::scope` can join all
/// threads and propagate the panic instead of deadlocking on the condvar.
struct PanicRelease<'s>(&'s Scheduler);

impl Drop for PanicRelease<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // Flip `done` while holding the queue mutex: a sibling that has
            // checked `done` under the lock is either already waiting (and
            // gets the notification) or has not checked yet (and will see
            // the flag).  Without the lock the notify could land in the
            // check-to-wait window and be lost, leaving the sibling — and
            // the scope join — blocked forever.  `into_inner` instead of
            // `unwrap`: panicking inside a drop during unwind would abort.
            let _guard = self
                .0
                .queue
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            self.0.done.store(true, Ordering::Release);
            self.0.wakeup.notify_all();
        }
    }
}

/// Executes a [`QueryPlan`] with a pool of `threads` scoped workers,
/// dispatching every node whose dependencies have completed — and, when
/// [`ExecSettings::morsel_threshold`] is set, splitting single large
/// operators into chunk-range morsels across the same pool.
///
/// Drop-in alternative to the serial [`PlanExecutor`]: identical results,
/// identical footprint records and identical timing-label sequences (see the
/// [module docs](self) for why).  The column source must be [`Sync`] because
/// the workers scan base columns concurrently.
#[derive(Debug, Clone, Copy)]
pub struct ParallelExecutor {
    threads: usize,
}

impl ParallelExecutor {
    /// Create an executor with a pool of `threads` workers (clamped to at
    /// least 1; `threads = 1` delegates to the serial [`PlanExecutor`]).
    pub fn new(threads: usize) -> ParallelExecutor {
        ParallelExecutor {
            threads: threads.max(1),
        }
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Execute `plan` against `source`, recording footprints and timings in
    /// `ctx` exactly like the serial executor would.
    pub fn execute(
        &self,
        plan: &QueryPlan,
        source: &(dyn ColumnSource + Sync),
        ctx: &mut ExecutionContext,
    ) -> PlanOutput {
        // Debug builds statically verify every plan before touching data
        // (mirroring the serial executor, which also covers the
        // single-worker delegation below).
        #[cfg(debug_assertions)]
        crate::verify::assert_verified(plan);
        let node_count = plan.node_count();
        // Without morsels, more workers than nodes can never be utilised;
        // with morsels, extra workers process parts of fanned-out nodes.  A
        // single worker is the serial executor with queue overhead, so skip
        // the machinery.
        let workers = if ctx.settings.morsel_threshold.is_some() {
            self.threads
        } else {
            self.threads.min(node_count)
        };
        if workers <= 1 || node_count == 0 {
            return PlanExecutor.execute(plan, source, ctx);
        }

        let settings = ctx.settings.clone();
        let formats = &ctx.formats;
        let capture = ctx.capture_enabled();
        // Subplan cache keys are a pure function of the plan, the format
        // assignment and the base columns — computed once here, before the
        // pool starts, and shared read-only by all workers.
        let cache_info = settings
            .cache
            .as_deref()
            .map(|cache| plan_cache_info(plan, source, formats, &settings, cache));
        // Fusion analysis (empty when disabled or inapplicable): a fused
        // region is scheduled through its *root* node — the root's
        // dependencies become the region's externals, and interiors never
        // enter the queue (their cells are published by the region
        // completion instead).
        let fusion = FusionPlan::for_execution(plan, &settings, cache_info.as_deref());
        #[cfg(debug_assertions)]
        crate::verify::assert_fusion_verified(plan, &fusion);
        // Tracing mirrors the serial executor: spans are recorded next to
        // the ordinary bookkeeping by whichever worker completes a node,
        // with relaxed atomic stores only (see `morph_telemetry::trace`).
        let trace = settings
            .tracer
            .as_ref()
            .map(|t| t.begin(plan.topology(&fusion, formats)));
        let interior = |idx: usize| fusion.region_of(idx).is_some() && !fusion.is_region_root(idx);

        let mut dependencies = plan.dependencies();
        for region in fusion.regions() {
            dependencies[region.root] = region.externals.clone();
        }
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); node_count];
        let mut seeds = Vec::new();
        for (idx, deps) in dependencies.iter().enumerate() {
            if interior(idx) {
                continue;
            }
            for &dep in deps {
                dependents[dep].push(idx);
            }
            if deps.is_empty() {
                seeds.push(idx);
            }
        }

        let scheduler = Scheduler {
            queue: Mutex::new(TaskQueue {
                nodes: seeds.into_iter().collect(),
                morsels: VecDeque::new(),
            }),
            wakeup: Condvar::new(),
            remaining: dependencies
                .iter()
                .enumerate()
                .map(|(idx, deps)| {
                    // `usize::MAX` keeps interiors out of the queue even if
                    // a stray decrement were ever to reach them.
                    AtomicUsize::new(if interior(idx) {
                        usize::MAX
                    } else {
                        deps.len()
                    })
                })
                .collect(),
            completed: AtomicUsize::new(0),
            done: AtomicBool::new(false),
        };
        let cells: Vec<OnceLock<NodeResult<'_>>> =
            (0..node_count).map(|_| OnceLock::new()).collect();
        // Per-execution fused metrics, folded into the context after the
        // pool drains (workers only hold `&mut`-free shared state).
        let fused_regions_run = AtomicUsize::new(0);
        let fused_bytes_avoided = AtomicU64::new(0);

        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let scheduler = &scheduler;
                    let cells = &cells;
                    let dependents = &dependents;
                    let settings = &settings;
                    let cache_info = &cache_info;
                    let fusion = &fusion;
                    let trace = &trace;
                    let fused_regions_run = &fused_regions_run;
                    let fused_bytes_avoided = &fused_bytes_avoided;
                    scope.spawn(move || {
                        let _release = PanicRelease(scheduler);
                        // Register the query's governor on this worker so
                        // node/chunk checkpoints (and morsel parts) observe
                        // cancellation, deadline and memory limits; a trip
                        // unwinds the worker and `PanicRelease` drains the
                        // siblings.
                        let _governed =
                            crate::govern::GovernorScope::enter(settings.governor.clone());
                        // `OnceLock::get` pairs its acquire load with the
                        // publishing `set`, so a dependent worker sees the
                        // dependency's slot fully initialised.
                        let slot_of =
                            |i: usize| &cells[i].get().expect("dependency completed").slot;
                        while let Some(task) = scheduler.next_task() {
                            match task {
                                Task::Node(idx) => {
                                    if let Some(region_index) = fusion.region_of(idx) {
                                        let region = fusion.region(region_index);
                                        debug_assert_eq!(
                                            region.root, idx,
                                            "only region roots are scheduled"
                                        );
                                        if let Some(job) = plan_fused_job(
                                            region_index,
                                            region,
                                            &slot_of,
                                            settings,
                                            workers,
                                        ) {
                                            if let Some(trace) = trace {
                                                for &member in &region.members {
                                                    trace.note_fan_out(
                                                        member,
                                                        job.parts.len() as u64,
                                                    );
                                                }
                                            }
                                            scheduler
                                                .publish_morsels(QueuedJob::Fused(Arc::new(job)));
                                            continue;
                                        }
                                        let outcome = crate::fusion::execute_region(
                                            plan,
                                            region,
                                            &slot_of,
                                            settings,
                                            formats,
                                            cache_info.as_deref(),
                                            capture,
                                        );
                                        fused_regions_run.fetch_add(1, Ordering::Relaxed);
                                        fused_bytes_avoided
                                            .fetch_add(outcome.interior_bytes, Ordering::Relaxed);
                                        if let Some(trace) = trace {
                                            for node in &outcome.nodes {
                                                node.records.record_span(trace, node.node);
                                            }
                                        }
                                        complete_region(
                                            scheduler, cells, dependents, node_count, region,
                                            outcome,
                                        );
                                        continue;
                                    }
                                    let info = cache_info.as_ref().map(|infos| &infos[idx]);
                                    // A cached node never fans out: the hit
                                    // inside `execute_node` completes it
                                    // immediately, so building morsel state
                                    // (build sets) would be wasted.
                                    let cached = settings
                                        .cache
                                        .as_deref()
                                        .zip(info.and_then(|i| i.key))
                                        .is_some_and(|(cache, key)| cache.contains(&key));
                                    if !cached {
                                        if let Some(job) = plan_morsel_job(
                                            plan, idx, &slot_of, settings, formats, workers,
                                        ) {
                                            if let Some(trace) = trace {
                                                trace.note_fan_out(idx, job.parts.len() as u64);
                                            }
                                            scheduler.publish_morsels(QueuedJob::Op(Arc::new(job)));
                                            continue;
                                        }
                                    }
                                    let mut records = NodeRecords::new(capture);
                                    records.set_node(idx);
                                    let slot = execute_node(
                                        plan,
                                        idx,
                                        slot_of,
                                        source,
                                        settings,
                                        formats,
                                        info,
                                        &mut records,
                                    );
                                    if let Some(trace) = trace {
                                        records.record_span(trace, idx);
                                    }
                                    complete_node(
                                        scheduler, cells, dependents, node_count, idx, slot,
                                        records,
                                    );
                                }
                                Task::Morsel(job, part) => {
                                    let partial =
                                        run_morsel_part(plan, &job, part, &slot_of, settings);
                                    if job.partials[part].set(partial).is_err() {
                                        unreachable!("morsel part {part} executed twice");
                                    }
                                    let finished_parts =
                                        job.done.fetch_add(1, Ordering::AcqRel) + 1;
                                    if finished_parts == job.parts.len() {
                                        let info =
                                            cache_info.as_ref().map(|infos| &infos[job.node]);
                                        let (slot, records) =
                                            merge_morsel_job(plan, &job, capture, settings, info);
                                        if let Some(trace) = trace {
                                            records.record_span(trace, job.node);
                                        }
                                        complete_node(
                                            scheduler, cells, dependents, node_count, job.node,
                                            slot, records,
                                        );
                                    }
                                }
                                Task::FusedPart(job, part) => {
                                    let region = fusion.region(job.region_index);
                                    let (partial, _) = crate::fusion::run_region_part(
                                        plan,
                                        region,
                                        job.parts[part].clone(),
                                        &slot_of,
                                        settings,
                                        formats,
                                    );
                                    if job.partials[part].set(partial).is_err() {
                                        unreachable!("fused part {part} executed twice");
                                    }
                                    let finished_parts =
                                        job.done.fetch_add(1, Ordering::AcqRel) + 1;
                                    if finished_parts == job.parts.len() {
                                        let outcome = merge_fused_job(
                                            plan,
                                            region,
                                            &job,
                                            capture,
                                            settings,
                                            formats,
                                            cache_info.as_deref(),
                                        );
                                        fused_regions_run.fetch_add(1, Ordering::Relaxed);
                                        fused_bytes_avoided
                                            .fetch_add(outcome.interior_bytes, Ordering::Relaxed);
                                        if let Some(trace) = trace {
                                            for node in &outcome.nodes {
                                                node.records.record_span(trace, node.node);
                                            }
                                        }
                                        complete_region(
                                            scheduler, cells, dependents, node_count, region,
                                            outcome,
                                        );
                                    }
                                }
                            }
                        }
                    })
                })
                .collect();
            // Re-raise a worker's original panic payload (scope itself would
            // replace it with a generic "a scoped thread panicked").  The
            // `PanicRelease` guard has already unblocked the siblings.
            for handle in handles {
                if let Err(payload) = handle.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });

        ctx.add_fused(
            fused_regions_run.into_inner(),
            fused_bytes_avoided.into_inner(),
        );
        // Merge per-node records in topological (node-list) order — this is
        // what keeps the context byte-identical to serial execution — and
        // collect the slots for output assembly.
        let mut slots = Vec::with_capacity(node_count);
        for cell in cells {
            let result = cell
                .into_inner()
                .expect("all plan nodes completed before the pool drained");
            ctx.merge_node_records(result.records);
            slots.push(result.slot);
        }
        let output = plan.collect_output(|i| &slots[i]);
        if let (Some(tracer), Some(trace)) = (&settings.tracer, trace) {
            tracer.finish(trace);
        }
        output
    }

    /// Fallible counterpart of [`ParallelExecutor::execute`]: runs the plan
    /// under the settings' [`QueryGovernor`](crate::govern::QueryGovernor)
    /// (when one is attached) and converts a governance or decode unwind —
    /// re-raised from whichever worker tripped first — into a structured
    /// [`ExecError`](crate::govern::ExecError).  Any other panic resumes
    /// unchanged.  The scheduler's `PanicRelease` guard has already
    /// unblocked the sibling workers and the pool has fully drained by the
    /// time this returns, so the pool is never poisoned.
    pub fn try_execute(
        &self,
        plan: &QueryPlan,
        source: &(dyn ColumnSource + Sync),
        ctx: &mut ExecutionContext,
    ) -> Result<PlanOutput, crate::govern::ExecError> {
        crate::govern::run_governed(|| self.execute(plan, source, ctx))
    }
}

/// Publish one completed node: store its slot and records, release its
/// dependents and flip `done` when it was the last node.  Shared by the
/// single-task path and the morsel merge.
fn complete_node<'a>(
    scheduler: &Scheduler,
    cells: &[OnceLock<NodeResult<'a>>],
    dependents: &[Vec<usize>],
    node_count: usize,
    idx: usize,
    slot: Slot<'a>,
    records: NodeRecords,
) {
    if cells[idx].set(NodeResult { slot, records }).is_err() {
        unreachable!("plan node {idx} executed twice");
    }
    let mut newly_ready = Vec::new();
    for &dependent in &dependents[idx] {
        let left = scheduler.remaining[dependent].fetch_sub(1, Ordering::AcqRel);
        debug_assert!(left > 0, "in-degree underflow");
        if left == 1 {
            newly_ready.push(dependent);
        }
    }
    let finished = scheduler.completed.fetch_add(1, Ordering::AcqRel) + 1 == node_count;
    if finished {
        scheduler.done.store(true, Ordering::Release);
    }
    scheduler.enqueue_ready(newly_ready, finished);
}

/// Publish a completed fused region: interior cells first (they have no
/// dependents in the rewritten graph — their single consumer is a member
/// of the same region), then the root through the regular completion path,
/// which releases the root's dependents and detects plan completion (the
/// counter already includes the interiors published here).
fn complete_region<'a>(
    scheduler: &Scheduler,
    cells: &[OnceLock<NodeResult<'a>>],
    dependents: &[Vec<usize>],
    node_count: usize,
    region: &FusedRegion,
    outcome: RegionOutcome,
) {
    let mut root_result = None;
    for node in outcome.nodes {
        if node.node == region.root {
            root_result = Some((node.slot, node.records));
            continue;
        }
        if cells[node.node]
            .set(NodeResult {
                slot: node.slot,
                records: node.records,
            })
            .is_err()
        {
            unreachable!("fused interior {} completed twice", node.node);
        }
        scheduler.completed.fetch_add(1, Ordering::AcqRel);
    }
    let (slot, records) = root_result.expect("region outcome includes its root");
    complete_node(
        scheduler,
        cells,
        dependents,
        node_count,
        region.root,
        slot,
        records,
    );
}

/// Decide whether a fused region fans out across the pool and, if so,
/// build the job: the region must be prefix-independent (every select
/// reads the driver directly), and the driver must reach the morsel
/// threshold and split into at least two chunk ranges.  The job carries no
/// shared operator state: each part opens its own project readers.
fn plan_fused_job<'a, 's, F>(
    region_index: usize,
    region: &FusedRegion,
    slots: &F,
    settings: &ExecSettings,
    workers: usize,
) -> Option<FusedJob>
where
    'a: 's,
    F: Fn(usize) -> &'s Slot<'a>,
{
    let threshold = settings.morsel_threshold?;
    if !region.prefix_independent {
        return None;
    }
    let col = |r: crate::plan::ColRef| slots(r.node).column(r.port);
    let driver = col(region.driver);
    if driver.logical_len() < threshold.max(1) || driver.chunk_count() < 2 {
        return None;
    }
    let parts_wanted = workers
        .min(driver.chunk_count())
        .min((driver.logical_len() / threshold.max(1)).max(2));
    let parts = driver.partition_chunks(parts_wanted);
    if parts.len() < 2 {
        return None;
    }
    let started = Instant::now();
    let partials = (0..parts.len()).map(|_| OnceLock::new()).collect();
    Some(FusedJob {
        region_index,
        parts,
        next: AtomicUsize::new(0),
        done: AtomicUsize::new(0),
        partials,
        started,
    })
}

/// Merge the partials of a fully processed fused job — per stage, in range
/// order — into per-member outcomes, byte-identical to a whole-column
/// fused pass (and hence to the serial operators).
fn merge_fused_job(
    plan: &QueryPlan,
    region: &FusedRegion,
    job: &FusedJob,
    capture: bool,
    settings: &ExecSettings,
    formats: &FormatConfig,
    cache_info: Option<&[NodeCacheInfo]>,
) -> RegionOutcome {
    let parts: Vec<&Vec<FusedPartial>> = job
        .partials
        .iter()
        .map(|cell| cell.get().expect("all parts completed"))
        .collect();
    let mut outcome = RegionOutcome {
        nodes: Vec::with_capacity(region.stages.len()),
        interior_bytes: 0,
    };
    for (i, stage) in region.stages.iter().enumerate() {
        let value = match stage.kind {
            StageKind::AggSum { .. } => {
                FusedPartial::Sum(parts.iter().fold(0u64, |acc, part| match &part[i] {
                    FusedPartial::Sum(sum) => acc.wrapping_add(*sum),
                    FusedPartial::Col(_) => unreachable!("sum stage with column partial"),
                }))
            }
            _ => {
                let format = crate::fusion::fused_part_format(plan, stage.node, settings, formats);
                let columns = parts.iter().map(|part| match &part[i] {
                    FusedPartial::Col(column) => column,
                    FusedPartial::Sum(_) => unreachable!("column stage with sum partial"),
                });
                FusedPartial::Col(partitioned::concat_partials(&format, columns))
            }
        };
        outcome.nodes.push(crate::fusion::fused_node_outcome(
            plan,
            region,
            stage.node,
            value,
            job.started.elapsed(),
            settings,
            cache_info,
            capture,
            &mut outcome.interior_bytes,
        ));
    }
    outcome
}

/// Decide whether node `idx` is fanned out and, if so, build the job: the
/// input must have a partitioned kernel ([`QueryPlan::morsel_op`]), reach
/// the morsel threshold and split into at least two chunk ranges.  Shared
/// operator state (the semi-join build set) is built here, once.
fn plan_morsel_job<'a, 's, F>(
    plan: &QueryPlan,
    idx: usize,
    slots: &F,
    settings: &ExecSettings,
    formats: &FormatConfig,
    workers: usize,
) -> Option<MorselJob>
where
    'a: 's,
    F: Fn(usize) -> &'s Slot<'a>,
{
    let threshold = settings.morsel_threshold?;
    let op = plan.morsel_op(idx)?;
    let input_ref = op.partitioned_input();
    let input = slots(input_ref.node).column(input_ref.port);
    if input.logical_len() < threshold.max(1) || input.chunk_count() < 2 {
        return None;
    }
    // Enough parts that each carries roughly a threshold's worth of work,
    // but never more than the pool could process concurrently.
    let parts_wanted = workers
        .min(input.chunk_count())
        .min((input.logical_len() / threshold.max(1)).max(2));
    let parts = input.partition_chunks(parts_wanted);
    if parts.len() < 2 {
        return None;
    }
    // Timing starts before the shared state is built: the serial operator
    // includes set construction in its measurement.
    let started = Instant::now();
    let aux = match op {
        MorselOp::SemiJoin { build, .. } => {
            let build = slots(build.node).column(build.port);
            MorselAux::Set(partitioned::build_semi_join_set(build, input.logical_len()))
        }
        // Projects and sorted intersections share no state: each part opens
        // its own reader or chunk cursor over the second input.
        _ => MorselAux::None,
    };
    let out_format = partitioned::effective_output_format(
        &formats.format_for(&plan.node_full_name(idx), Format::Uncompressed),
        settings,
    );
    let partials = (0..parts.len()).map(|_| OnceLock::new()).collect();
    Some(MorselJob {
        node: idx,
        parts,
        next: AtomicUsize::new(0),
        done: AtomicUsize::new(0),
        partials,
        aux,
        out_format,
        started,
    })
}

/// Process one claimed part of a morsel job with the matching partitioned
/// kernel from [`partitioned`].
fn run_morsel_part<'a, 's, F>(
    plan: &QueryPlan,
    job: &MorselJob,
    part: usize,
    slots: &F,
    settings: &ExecSettings,
) -> MorselPartial
where
    'a: 's,
    F: Fn(usize) -> &'s Slot<'a>,
{
    let range = job.parts[part].clone();
    let op = plan.morsel_op(job.node).expect("morsel node");
    let col = |r: crate::plan::ColRef| slots(r.node).column(r.port);
    match op {
        MorselOp::Select {
            input,
            op,
            constant,
        } => MorselPartial::Col(partitioned::select_part(
            op,
            col(input),
            constant,
            range,
            &job.out_format,
            settings.style,
        )),
        MorselOp::SelectBetween { input, low, high } => MorselPartial::Col(
            partitioned::select_between_part(col(input), low, high, range, &job.out_format),
        ),
        MorselOp::Project { data, positions } => MorselPartial::Col(partitioned::project_part(
            col(data),
            col(positions),
            range,
            &job.out_format,
        )),
        MorselOp::SemiJoin { probe, .. } => {
            let set = match &job.aux {
                MorselAux::Set(set) => set,
                _ => unreachable!("semi-join job without a build set"),
            };
            MorselPartial::Col(partitioned::semi_join_part(
                col(probe),
                set,
                range,
                &job.out_format,
            ))
        }
        MorselOp::CalcBinary { op, lhs, rhs } => MorselPartial::Col(partitioned::calc_binary_part(
            op,
            col(lhs),
            col(rhs),
            range,
            &job.out_format,
            settings.style,
        )),
        MorselOp::IntersectSorted { a, b } => MorselPartial::Col(
            partitioned::intersect_sorted_part(col(a), col(b), range, &job.out_format),
        ),
        MorselOp::AggSum { values } => MorselPartial::Sum(partitioned::agg_sum_part(
            col(values),
            range,
            settings.style,
        )),
    }
}

/// Merge the partials of a fully processed morsel job — in range order —
/// into the node's slot and records, byte-identical to the serial operator,
/// and insert the merged result into the plan cache (when one is attached):
/// because the splice reconstructs the serial byte stream, morsel-produced
/// entries are interchangeable with serially produced ones.
fn merge_morsel_job(
    plan: &QueryPlan,
    job: &MorselJob,
    capture: bool,
    settings: &ExecSettings,
    cache_info: Option<&NodeCacheInfo>,
) -> (Slot<'static>, NodeRecords) {
    let mut records = NodeRecords::new(capture);
    records.set_node(job.node);
    let partials = job
        .partials
        .iter()
        .map(|cell| cell.get().expect("all parts completed"));
    let slot = match plan.morsel_op(job.node).expect("morsel node") {
        MorselOp::AggSum { .. } => {
            let total = partials.fold(0u64, |acc, partial| match partial {
                MorselPartial::Sum(sum) => acc.wrapping_add(*sum),
                MorselPartial::Col(_) => unreachable!("sum job with column partial"),
            });
            Slot::Scalar(total)
        }
        _ => {
            let columns = partials.map(|partial| match partial {
                MorselPartial::Col(column) => column,
                MorselPartial::Sum(_) => unreachable!("column job with sum partial"),
            });
            let merged = partitioned::concat_partials(&job.out_format, columns);
            records.record_intermediate(&plan.node_full_name(job.node), &merged);
            Slot::Col(Arc::new(merged))
        }
    };
    records.push_timing(&plan.node_timing_label(job.node), job.started.elapsed());
    if let Some((cache, key)) = settings
        .cache
        .as_deref()
        .zip(cache_info.and_then(|info| info.key))
    {
        if let Some(value) = cached_from_slot(&slot) {
            let deps = cache_info.map(|info| info.deps.as_slice()).unwrap_or(&[]);
            cache.insert(key, value, records.last_duration(), deps);
        }
    }
    (slot, records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{ExecSettings, FormatConfig};
    use crate::plan::PlanBuilder;
    use crate::CmpOp;
    use morph_compression::Format;
    use morph_storage::Column;
    use std::collections::HashMap;

    fn source() -> HashMap<String, Column> {
        let mut columns = HashMap::new();
        columns.insert(
            "a".to_string(),
            Column::from_vec((0..4000u64).map(|i| i % 97).collect()),
        );
        columns.insert(
            "b".to_string(),
            Column::from_vec((0..4000u64).map(|i| (i * 7) % 113).collect()),
        );
        columns
    }

    /// Two independent select subtrees intersected — minimal parallelism.
    fn diamond_plan() -> crate::plan::QueryPlan {
        let mut p = PlanBuilder::new("par");
        let a = p.scan("a");
        let b = p.scan("b");
        let left = p.select("left", a, CmpOp::Lt, 50);
        let right = p.select("right", b, CmpOp::Lt, 60);
        let both = p.intersect_sorted("both", left, right);
        let total = p.agg_sum("total", both);
        p.finish_scalar(total)
    }

    #[test]
    fn dependencies_point_backwards_and_ready_sets_cover_all_nodes() {
        let plan = diamond_plan();
        let deps = plan.dependencies();
        assert_eq!(deps.len(), plan.node_count());
        for (idx, d) in deps.iter().enumerate() {
            assert!(d.iter().all(|&dep| dep < idx), "node {idx} deps {d:?}");
        }
        // scans ; selects ; intersect ; agg
        let levels = plan.ready_sets();
        assert_eq!(levels.len(), 4);
        assert_eq!(levels[0], vec![0, 1]);
        assert_eq!(levels[1], vec![2, 3]);
        let covered: usize = levels.iter().map(|l| l.len()).sum();
        assert_eq!(covered, plan.node_count());
    }

    #[test]
    fn parallel_matches_serial_for_all_thread_counts() {
        let source = source();
        let plan = diamond_plan();
        for formats in [
            FormatConfig::uncompressed(),
            FormatConfig::with_default(Format::DynBp).set("par/left", Format::DeltaDynBp),
        ] {
            let mut serial_ctx =
                ExecutionContext::new(ExecSettings::vectorized_compressed(), formats.clone());
            let serial = PlanExecutor.execute(&plan, &source, &mut serial_ctx);
            for threads in [1, 2, 4, 64] {
                let mut ctx =
                    ExecutionContext::new(ExecSettings::vectorized_compressed(), formats.clone());
                let parallel = ParallelExecutor::new(threads).execute(&plan, &source, &mut ctx);
                assert_eq!(parallel, serial, "threads {threads}");
                assert_eq!(ctx.records(), serial_ctx.records(), "threads {threads}");
                let labels: Vec<&str> = ctx.timings().iter().map(|(n, _)| n.as_str()).collect();
                let serial_labels: Vec<&str> = serial_ctx
                    .timings()
                    .iter()
                    .map(|(n, _)| n.as_str())
                    .collect();
                assert_eq!(labels, serial_labels, "threads {threads}");
            }
        }
    }

    #[test]
    fn morsel_fanout_matches_serial_bookkeeping_exactly() {
        let source = source();
        let plan = diamond_plan();
        for formats in [
            FormatConfig::uncompressed(),
            FormatConfig::with_default(Format::DynBp).set("par/left", Format::DeltaDynBp),
            FormatConfig::with_default(Format::Rle),
        ] {
            // Threshold far below the 4000-element inputs: every select (and
            // the final agg over "both") fans out where possible.
            let settings = ExecSettings::vectorized_compressed().with_morsel_threshold(256);
            let mut serial_ctx = ExecutionContext::new(settings.clone(), formats.clone());
            let serial = PlanExecutor.execute(&plan, &source, &mut serial_ctx);
            for threads in [2, 3, 8] {
                let mut ctx = ExecutionContext::new(settings.clone(), formats.clone());
                let parallel = ParallelExecutor::new(threads).execute(&plan, &source, &mut ctx);
                assert_eq!(parallel, serial, "threads {threads}");
                assert_eq!(ctx.records(), serial_ctx.records(), "threads {threads}");
                let labels: Vec<&str> = ctx.timings().iter().map(|(n, _)| n.as_str()).collect();
                let serial_labels: Vec<&str> = serial_ctx
                    .timings()
                    .iter()
                    .map(|(n, _)| n.as_str())
                    .collect();
                assert_eq!(labels, serial_labels, "threads {threads}");
            }
        }
    }

    #[test]
    fn morsel_fanout_covers_project_and_semi_join() {
        // A plan whose hot nodes are a project and a semi-join, with a
        // non-random-access data column (read forward by every part).
        let mut columns = HashMap::new();
        columns.insert(
            "keys".to_string(),
            Column::compress(
                &(0..6000u64).map(|i| i % 211).collect::<Vec<_>>(),
                &Format::DynBp,
            ),
        );
        columns.insert(
            "values".to_string(),
            Column::compress(
                &(0..6000u64).map(|i| (i * 13) % 1000).collect::<Vec<_>>(),
                &Format::DynBp,
            ),
        );
        columns.insert("dim".to_string(), Column::from_vec((0..100u64).collect()));
        let mut p = PlanBuilder::new("psj");
        let keys = p.scan("keys");
        let values = p.scan("values");
        let dim = p.scan("dim");
        let pos = p.semi_join("pos", keys, dim);
        let projected = p.project("projected", values, pos);
        let total = p.agg_sum("total", projected);
        let plan = p.finish_scalar(total);

        let settings = ExecSettings::vectorized_compressed().with_morsel_threshold(512);
        let formats = FormatConfig::with_default(Format::DynBp);
        let mut serial_ctx = ExecutionContext::new(settings.clone(), formats.clone());
        let serial = PlanExecutor.execute(&plan, &columns, &mut serial_ctx);
        for threads in [2, 4] {
            let mut ctx = ExecutionContext::new(settings.clone(), formats.clone());
            let parallel = ParallelExecutor::new(threads).execute(&plan, &columns, &mut ctx);
            assert_eq!(parallel, serial, "threads {threads}");
            assert_eq!(ctx.records(), serial_ctx.records(), "threads {threads}");
        }
    }

    #[test]
    fn parallel_capture_matches_serial_capture() {
        let source = source();
        let plan = diamond_plan();
        let mut serial_ctx =
            ExecutionContext::new(ExecSettings::default(), FormatConfig::uncompressed());
        serial_ctx.enable_capture();
        PlanExecutor.execute(&plan, &source, &mut serial_ctx);
        for settings in [
            ExecSettings::default(),
            ExecSettings::default().with_morsel_threshold(128),
        ] {
            let mut parallel_ctx =
                ExecutionContext::new(settings.clone(), FormatConfig::uncompressed());
            parallel_ctx.enable_capture();
            ParallelExecutor::new(3).execute(&plan, &source, &mut parallel_ctx);
            assert_eq!(
                parallel_ctx.captured_columns(),
                serial_ctx.captured_columns()
            );
        }
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(ParallelExecutor::new(0).threads(), 1);
    }

    #[test]
    fn serial_and_parallel_executors_share_one_cache() {
        use morph_cache::QueryCache;

        let source = source();
        let plan = diamond_plan();
        let cache = Arc::new(QueryCache::unbounded());
        let formats = FormatConfig::with_default(Format::DynBp);
        // Morsels on: the cold parallel run inserts morsel-merged columns,
        // which must be byte-identical to what the serial executor would
        // have produced — so the serial warm run below can hit on them.
        let settings = ExecSettings::vectorized_compressed()
            .with_morsel_threshold(256)
            .with_cache(Arc::clone(&cache));

        let mut reference_ctx =
            ExecutionContext::new(ExecSettings::vectorized_compressed(), formats.clone());
        let reference = PlanExecutor.execute(&plan, &source, &mut reference_ctx);

        let mut cold_ctx = ExecutionContext::new(settings.clone(), formats.clone());
        let cold = ParallelExecutor::new(3).execute(&plan, &source, &mut cold_ctx);
        assert_eq!(cold, reference);
        assert_eq!(cold_ctx.cache_hit_count(), 0);

        // Warm serial run: every non-scan node (2 selects, intersect, agg)
        // is served from entries the parallel run inserted.
        let mut warm_serial_ctx = ExecutionContext::new(settings.clone(), formats.clone());
        let warm_serial = PlanExecutor.execute(&plan, &source, &mut warm_serial_ctx);
        assert_eq!(warm_serial, reference);
        assert_eq!(warm_serial_ctx.records(), reference_ctx.records());
        assert_eq!(warm_serial_ctx.cache_hit_count(), 4);

        // Warm parallel runs at several widths hit the same entries.
        for threads in [2, 8] {
            let mut ctx = ExecutionContext::new(settings.clone(), formats.clone());
            let warm = ParallelExecutor::new(threads).execute(&plan, &source, &mut ctx);
            assert_eq!(warm, reference, "threads {threads}");
            assert_eq!(ctx.records(), reference_ctx.records(), "threads {threads}");
            assert_eq!(ctx.cache_hit_count(), 4, "threads {threads}");
        }
    }

    #[test]
    fn fused_parallel_and_morsels_match_serial_unfused() {
        // A pure chain select → project → agg: one fused region driven by
        // the scanned base column, large enough to fan out as morsels.
        let mut columns = HashMap::new();
        columns.insert(
            "a".to_string(),
            Column::from_vec((0..6000u64).map(|i| i % 97).collect()),
        );
        columns.insert(
            "b".to_string(),
            Column::from_vec((0..6000u64).map(|i| (i * 13) % 1009).collect()),
        );
        let mut p = PlanBuilder::new("fp");
        let a = p.scan("a");
        let b = p.scan("b");
        let pos = p.select("pos", a, CmpOp::Lt, 40);
        let bv = p.project("b_at", b, pos);
        let total = p.agg_sum("total", bv);
        let plan = p.finish_scalar(total);

        for formats in [
            FormatConfig::uncompressed(),
            FormatConfig::with_default(Format::DynBp),
            FormatConfig::with_default(Format::DeltaDynBp),
        ] {
            let mut serial_ctx =
                ExecutionContext::new(ExecSettings::vectorized_compressed(), formats.clone());
            let serial = PlanExecutor.execute(&plan, &columns, &mut serial_ctx);
            let fused = ExecSettings::vectorized_compressed().with_fusion();
            for (threads, settings) in [
                (2, fused.clone()),
                (4, fused.clone()),
                (2, fused.clone().with_morsel_threshold(512)),
                (4, fused.clone().with_morsel_threshold(512)),
            ] {
                let mut ctx = ExecutionContext::new(settings, formats.clone());
                let parallel = ParallelExecutor::new(threads).execute(&plan, &columns, &mut ctx);
                assert_eq!(parallel, serial, "threads {threads}");
                assert_eq!(ctx.records(), serial_ctx.records(), "threads {threads}");
                let labels: Vec<&str> = ctx.timings().iter().map(|(n, _)| n.as_str()).collect();
                let serial_labels: Vec<&str> = serial_ctx
                    .timings()
                    .iter()
                    .map(|(n, _)| n.as_str())
                    .collect();
                assert_eq!(labels, serial_labels, "threads {threads}");
                assert_eq!(ctx.fused_region_count(), 1, "threads {threads}");
                assert!(ctx.intermediate_bytes_avoided() > 0, "threads {threads}");
            }
        }
    }

    #[test]
    fn fused_parallel_shares_cache_with_unfused_serial() {
        use morph_cache::QueryCache;

        let source = source();
        let mut p = PlanBuilder::new("fc");
        let a = p.scan("a");
        let b = p.scan("b");
        let pos = p.select("pos", a, CmpOp::Lt, 50);
        let bv = p.project("b_at", b, pos);
        let total = p.agg_sum("total", bv);
        let plan = p.finish_scalar(total);
        let formats = FormatConfig::with_default(Format::DynBp);

        // Cold fused parallel run (with morsels) inserts every member under
        // its unfused key...
        let cache = Arc::new(QueryCache::unbounded());
        let settings = ExecSettings::vectorized_compressed()
            .with_fusion()
            .with_morsel_threshold(256)
            .with_cache(Arc::clone(&cache));
        let mut cold_ctx = ExecutionContext::new(settings.clone(), formats.clone());
        let cold = ParallelExecutor::new(3).execute(&plan, &source, &mut cold_ctx);
        assert_eq!(cold_ctx.fused_region_count(), 1);

        // ...so a warm unfused serial run hits all three non-scan nodes,
        // and a warm fused run demotes the fully cached region and hits
        // the same entries.
        let unfused = ExecSettings::vectorized_compressed().with_cache(Arc::clone(&cache));
        let mut warm_ctx = ExecutionContext::new(unfused, formats.clone());
        let warm = PlanExecutor.execute(&plan, &source, &mut warm_ctx);
        assert_eq!(warm, cold);
        assert_eq!(warm_ctx.cache_hit_count(), 3);
        let mut warm_fused_ctx = ExecutionContext::new(settings.clone(), formats.clone());
        let warm_fused = ParallelExecutor::new(3).execute(&plan, &source, &mut warm_fused_ctx);
        assert_eq!(warm_fused, cold);
        assert_eq!(warm_fused_ctx.cache_hit_count(), 3);
        assert_eq!(warm_fused_ctx.fused_region_count(), 0);
    }

    #[test]
    #[should_panic(expected = "unknown base column")]
    fn worker_panics_propagate() {
        let source = source();
        let mut p = PlanBuilder::new("bad");
        let a = p.scan("a");
        let missing = p.scan("no_such_column");
        let left = p.select("left", a, CmpOp::Lt, 10);
        let right = p.select("right", missing, CmpOp::Lt, 10);
        let both = p.intersect_sorted("both", left, right);
        let total = p.agg_sum("total", both);
        let plan = p.finish_scalar(total);
        let mut ctx = ExecutionContext::new(ExecSettings::default(), FormatConfig::uncompressed());
        ParallelExecutor::new(2).execute(&plan, &source, &mut ctx);
    }
}
