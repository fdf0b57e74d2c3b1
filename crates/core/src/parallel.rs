//! Plan execution: one ready-queue scheduler for serial, parallel, morsel
//! and fused execution.
//!
//! The operator-at-a-time model (DP1) materialises every intermediate as a
//! real named column, which makes a [`QueryPlan`] an *explicit* dependency
//! graph — exactly what a scheduler needs.  MonetDB, the materialising
//! engine the paper benchmarks against (Figure 9), exploits the same
//! inter-operator parallelism; the multi-join SSB plans are the showcase:
//! their dimension-table subtrees (select → project → semi-join per
//! dimension) are mutually independent and can run concurrently.  In
//! Rozenberg et al.'s model of analytic column stores, serial, morsel and
//! fused execution are different schedules of the same position-list
//! operators — so there is one scheduler, here.
//!
//! ## Units and parts
//!
//! The scheduler runs *units*: a single plan node, or a fused region
//! ([`crate::fusion`]) collapsed to its root, which inherits the region's
//! external inputs (interiors are never scheduled).  A unit runs as one or
//! more chunk-range *parts*:
//!
//! * One part is the whole unit.  A node runs its whole-column operator
//!   (`run_node_op`, which keeps the `Specialized` / `OnTheFlyMorphing`
//!   kernel dispatch); a region runs one pass over its whole driver.
//! * With [`ExecSettings::morsel_threshold`] set and more than one worker, a
//!   unit whose partitioned input — a node's `PlanOp::partitioned_input`,
//!   a prefix-independent region's driver — reaches the threshold splits
//!   into k = min(workers, chunks, len / threshold) ≥ 2 contiguous chunk
//!   ranges ([`Column::partition_chunks`]).  Shared state (a semi-join build
//!   set) is built once, each part runs the chunk-range kernel (`run_part`,
//!   `fusion::run_region_part`), and the worker finishing the last
//!   part splices every member's partials in range order
//!   ([`partitioned::concat_partials`]; sums fold wrapping) — byte-identical
//!   to the one-part run.  Chunk-range decoding never replays a prefix, so
//!   a part costs what its share of the column costs.
//!
//! Either way each member completes through one function (`Run::finish`):
//! push the timing, record the output, insert it into the plan cache, and
//! drop a fused interior's column.
//!
//! ## The loop
//!
//! Ready unit roots wait in one queue under one mutex, and idle workers park
//! on a `Condvar`.  A worker takes a claimable part of a fanned-out unit
//! first (finishing an in-flight fan-out unblocks its dependents soonest),
//! else the ready unit with the **lowest root index** (`Queue::pop`).  One
//! worker therefore runs the units in node-list order, and never splits one:
//! [`PlanExecutor`](crate::plan::PlanExecutor) is this loop with one
//! worker, inline on the calling thread (its source need not be `Sync`),
//! and [`ParallelExecutor`] runs it on the calling thread plus
//! `threads - 1` scoped workers.  Every unit
//! passes one governance node checkpoint per member when it starts, whatever
//! its shape.
//!
//! ## Determinism
//!
//! Results are bit-identical across schedules because every operator is a
//! pure function of its input columns and the format assignment, and the
//! splice reconstructs the one-part byte stream (see [`partitioned`]).
//! Footprint and timing **records** are identical too: each node records
//! into its own [`NodeRecords`], and once the loop ends the per-node records
//! are merged into the [`ExecutionContext`] in node-list order
//! ([`ExecutionContext::merge_node_records`]).  Only the measured durations
//! differ.  An execution that fails merges nothing.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use morph_cache::{CacheKey, QueryCache};
use morph_storage::Column;
use morph_vector::keys::KeySet;

use crate::exec::{ExecSettings, ExecutionContext, FormatConfig, NodeRecords};
use crate::fusion::{run_region_part, FusionPlan};
use crate::govern::GovernorScope;
use crate::ops::partitioned;
use crate::plan::{
    cached_from_slot, plan_cache_info, run_node_op, run_part, slot_from_cached, ColRef,
    ColumnSource, NodeCacheInfo, Partial, PlanOp, PlanOutput, QueryPlan, Slot,
};
use crate::trace::PlanTrace;

/// The unit graph of one execution: [`QueryPlan::dependencies`] with every
/// fused region collapsed to its root.
struct Graph {
    /// Per node, the members of the unit it roots, in node order: the node
    /// itself, or a region's members for its root.  Empty for region
    /// interiors, which are never scheduled.
    members: Vec<Vec<usize>>,
    /// Per node, the number of inputs its unit waits for.
    inputs: Vec<usize>,
    /// Per node, the unit roots that consume it.
    dependents: Vec<Vec<usize>>,
}

impl Graph {
    fn new(plan: &QueryPlan, fusion: &FusionPlan) -> Graph {
        let mut deps = plan.dependencies();
        let mut members: Vec<Vec<usize>> = (0..deps.len()).map(|idx| vec![idx]).collect();
        for region in fusion.regions() {
            for &member in &region.members {
                members[member].clear();
            }
            members[region.root] = region.members.clone();
            deps[region.root] = region.externals.clone();
        }
        let mut dependents = vec![Vec::new(); deps.len()];
        for (idx, inputs) in deps.iter().enumerate() {
            if !members[idx].is_empty() {
                for &input in inputs {
                    dependents[input].push(idx);
                }
            }
        }
        Graph {
            members,
            inputs: deps.iter().map(Vec::len).collect(),
            dependents,
        }
    }
}

/// What a worker runs next.
#[derive(Debug, PartialEq, Eq)]
enum Task {
    /// Start the unit rooted at this node.
    Unit(usize),
    /// Run part `part` of the fanned-out unit rooted at `root`.
    Part { root: usize, part: usize },
}

/// The ready queue: plain data, advanced under the run's mutex.
struct Queue {
    /// Unit roots whose inputs have all completed.
    ready: BTreeSet<usize>,
    /// Per fanned-out unit root, its parts not yet claimed.
    parts: BTreeMap<usize, Range<usize>>,
    /// Per node, the inputs its unit still waits for.
    waiting: Vec<usize>,
    /// Nodes not yet completed.
    pending: usize,
    /// Every node completed, or a worker panicked: workers exit.
    done: bool,
}

impl Queue {
    fn new(graph: &Graph) -> Queue {
        let units = 0..graph.inputs.len();
        Queue {
            ready: units
                .filter(|&idx| !graph.members[idx].is_empty() && graph.inputs[idx] == 0)
                .collect(),
            parts: BTreeMap::new(),
            waiting: graph.inputs.clone(),
            pending: graph.inputs.len(),
            done: graph.inputs.is_empty(),
        }
    }

    /// The pop policy: a claimable part first — of the lowest fanned-out
    /// root — else the ready unit with the lowest root index.  With one
    /// worker nothing fans out, so the pops are node-list order.
    fn pop(&mut self) -> Option<Task> {
        if let Some(mut entry) = self.parts.first_entry() {
            let root = *entry.key();
            let part = entry
                .get_mut()
                .next()
                .expect("drained part ranges are removed");
            if entry.get().is_empty() {
                entry.remove();
            }
            return Some(Task::Part { root, part });
        }
        self.ready.pop_first().map(Task::Unit)
    }

    /// Complete the unit rooted at `root`; returns how many units became
    /// ready.
    fn complete(&mut self, graph: &Graph, root: usize) -> usize {
        self.pending -= graph.members[root].len();
        if self.pending == 0 {
            self.done = true;
        }
        let mut released = 0;
        for &dependent in &graph.dependents[root] {
            self.waiting[dependent] -= 1;
            if self.waiting[dependent] == 0 {
                self.ready.insert(dependent);
                released += 1;
            }
        }
        released
    }
}

/// A unit fanned out into k ≥ 2 chunk-range parts.
struct Job {
    /// Contiguous chunk ranges of the unit's partitioned input, in order.
    parts: Vec<Range<usize>>,
    /// Per part, one partial per member.
    partials: Vec<OnceLock<Vec<Partial>>>,
    /// Completed parts; the worker completing the last one merges.
    done: AtomicUsize,
    /// The semi-join build set, built once for all parts.
    keys: Option<KeySet>,
    /// Fan-out time: every member's recorded duration spans fan-out
    /// through merge, shared-state construction included (as in the
    /// whole-column operator).
    started: Instant,
}

/// A completed node, published for its consumers and the final merge.
struct NodeResult<'a> {
    slot: Slot<'a>,
    records: NodeRecords,
}

/// One execution of one plan: the state the workers of the loop share.
pub(crate) struct Run<'r, 'a> {
    plan: &'r QueryPlan,
    settings: &'r ExecSettings,
    formats: &'r FormatConfig,
    capture: bool,
    workers: usize,
    cache_info: Option<Vec<NodeCacheInfo>>,
    fusion: FusionPlan,
    graph: Graph,
    queue: Mutex<Queue>,
    /// Signalled whenever the queue gains work or `done` flips.
    wakeup: Condvar,
    /// Per node, its result once completed.
    cells: Vec<OnceLock<NodeResult<'a>>>,
    /// Per unit root, its job once fanned out.
    jobs: Vec<OnceLock<Job>>,
}

/// Run `plan` with `workers` workers — the one function behind every plan
/// execution.  `drive` runs the loop ([`Run::work`]): inline on the
/// calling thread, or there and on spawned workers.  Records are merged
/// into `ctx` only once every node completed; with a tracer attached, the
/// same loop reads each node's span off its records and publishes the
/// trace.
pub(crate) fn run_plan<'a>(
    plan: &QueryPlan,
    source: &'a dyn ColumnSource,
    ctx: &mut ExecutionContext,
    workers: usize,
    drive: impl FnOnce(&Run<'_, 'a>),
) -> PlanOutput {
    let started = Instant::now();
    // Debug builds statically verify every plan before touching data, so
    // the determinism suites double as verifier suites.
    #[cfg(debug_assertions)]
    crate::verify::assert_verified(plan);
    let _governed = GovernorScope::enter(ctx.settings.governor.clone());
    let settings = &ctx.settings;
    // Subplan cache keys are a pure function of the plan, the format
    // assignment and the base columns: computed once, before the loop.
    let cache_info = settings
        .cache
        .as_deref()
        .map(|cache| plan_cache_info(plan, source, &ctx.formats, settings, cache));
    let fusion = FusionPlan::for_execution(plan, settings, cache_info.as_deref());
    #[cfg(debug_assertions)]
    crate::verify::assert_fusion_verified(plan, &fusion);
    let graph = Graph::new(plan, &fusion);
    let node_count = plan.node_count();
    let run = Run {
        plan,
        settings,
        formats: &ctx.formats,
        capture: ctx.capture_enabled(),
        workers,
        cache_info,
        fusion,
        queue: Mutex::new(Queue::new(&graph)),
        graph,
        wakeup: Condvar::new(),
        cells: (0..node_count).map(|_| OnceLock::new()).collect(),
        jobs: (0..node_count).map(|_| OnceLock::new()).collect(),
    };
    drive(&run);
    let Run { cells, fusion, .. } = run;
    let mut spans = ctx
        .settings
        .tracer
        .is_some()
        .then(|| Vec::with_capacity(node_count));
    let mut slots = Vec::with_capacity(node_count);
    let mut bytes_avoided = 0;
    for cell in cells {
        let result = cell
            .into_inner()
            .expect("every node completed before the loop ended");
        if let Some(spans) = &mut spans {
            spans.push(result.records.span());
        }
        ctx.merge_node_records(result.records);
        if let Slot::Fused(size) = result.slot {
            bytes_avoided += size.bytes as u64;
        }
        slots.push(result.slot);
    }
    ctx.add_fused(fusion.region_count(), bytes_avoided);
    let output = plan.collect_output(|i| &slots[i]);
    if let (Some(tracer), Some(spans)) = (&ctx.settings.tracer, spans) {
        tracer.publish(PlanTrace {
            fingerprint: plan.structural_fingerprint(),
            spans,
            fusion,
            total: started.elapsed(),
        });
    }
    output
}

impl<'a> Run<'_, 'a> {
    /// The worker loop: run tasks until every node completed or a worker
    /// panicked.
    pub(crate) fn work(&self, source: &'a dyn ColumnSource) {
        let _release = PanicRelease(self);
        while let Some(task) = self.next_task() {
            match task {
                Task::Unit(root) => self.start_unit(root, source),
                Task::Part { root, part } => self.run_job_part(root, part),
            }
        }
    }

    /// Block until a task is available; `None` once the execution is done.
    fn next_task(&self) -> Option<Task> {
        let mut queue = self.queue.lock().expect("scheduler lock");
        loop {
            // `done` first: after a sibling's panic the survivors stop
            // instead of draining the rest of the plan before the panic
            // propagates.
            if queue.done {
                return None;
            }
            if let Some(task) = queue.pop() {
                return Some(task);
            }
            queue = self.wakeup.wait(queue).expect("scheduler lock");
        }
    }

    /// The slot of a completed node.  `OnceLock::get` pairs its acquire
    /// load with the publishing `set`, so a consumer sees its input fully
    /// initialised.
    fn slot(&self, idx: usize) -> &Slot<'a> {
        &self.cells[idx]
            .get()
            .expect("a unit starts after its inputs completed")
            .slot
    }

    fn column(&self, r: ColRef) -> &Column {
        self.slot(r.node).column(r.port)
    }

    /// Start the unit rooted at `root`: one node checkpoint per member,
    /// then fan it out, or run it whole.
    fn start_unit(&self, root: usize, source: &'a dyn ColumnSource) {
        for _ in &self.graph.members[root] {
            crate::govern::checkpoint_node();
        }
        if let Some(parts) = self.plan_parts(root) {
            self.fan_out(root, parts);
            return;
        }
        match self.fusion.region_of(root) {
            None => {
                let (slot, records) = self.execute_node(root, source);
                self.publish(root, slot, records);
                self.complete(root);
            }
            Some(index) => {
                let region = self.fusion.region(index);
                let chunks = 0..self.column(region.driver).chunk_count();
                let slots = |i: usize| self.slot(i);
                // A one-part run sizes the interiors nothing reads: no plan
                // cache keeps them and no capture copies them.
                let size_interiors = !self.capture && self.settings.cache.is_none();
                let (partials, elapsed) = run_region_part(
                    self.plan,
                    region,
                    chunks,
                    &slots,
                    self.settings,
                    self.formats,
                    size_interiors,
                );
                self.complete_unit(root, 0, partials.into_iter().zip(elapsed));
            }
        }
    }

    /// The chunk ranges unit `root` splits into, or `None` when it runs
    /// whole.  It needs more than one worker, a partitioned input (a
    /// node's [`PlanOp::partitioned_input`], a prefix-independent region's
    /// driver) that reaches the morsel threshold, and at least two chunk
    /// ranges.  A cached node never splits: the hit completes it at once.
    fn plan_parts(&self, root: usize) -> Option<Vec<Range<usize>>> {
        let threshold = self.settings.morsel_threshold?.max(1);
        if self.workers < 2 {
            return None;
        }
        let input = match self.fusion.region_of(root) {
            Some(index) => {
                let region = self.fusion.region(index);
                region.prefix_independent.then_some(region.driver)?
            }
            None => {
                let input = self.plan.nodes[root].op.partitioned_input()?;
                let cached = self
                    .cache_entry(root)
                    .is_some_and(|(cache, key, _)| cache.contains(&key));
                if cached {
                    return None;
                }
                input
            }
        };
        let input = self.column(input);
        if input.logical_len() < threshold || input.chunk_count() < 2 {
            return None;
        }
        // Enough parts that each carries roughly a threshold's worth of
        // work, but never more than the pool could process concurrently.
        let wanted = self
            .workers
            .min(input.chunk_count())
            .min((input.logical_len() / threshold).max(2));
        let parts = input.partition_chunks(wanted);
        (parts.len() >= 2).then_some(parts)
    }

    /// Fan unit `root` out: build its shared state once, publish its job
    /// and offer the parts to every worker.
    fn fan_out(&self, root: usize, parts: Vec<Range<usize>>) {
        let started = Instant::now();
        let keys = match self.plan.nodes[root].op {
            PlanOp::SemiJoin { probe, build } => Some(partitioned::build_semi_join_set(
                self.column(build),
                self.column(probe).logical_len(),
            )),
            _ => None,
        };
        let count = parts.len();
        let job = Job {
            partials: (0..count).map(|_| OnceLock::new()).collect(),
            parts,
            done: AtomicUsize::new(0),
            keys,
            started,
        };
        if self.jobs[root].set(job).is_err() {
            unreachable!("unit {root} fanned out twice");
        }
        let mut queue = self.queue.lock().expect("scheduler lock");
        queue.parts.insert(root, 0..count);
        drop(queue);
        self.wakeup.notify_all();
    }

    /// Run part `part` of the fanned-out unit `root`.  The worker finishing
    /// the last part merges every member's partials in range order and
    /// completes the unit.
    fn run_job_part(&self, root: usize, part: usize) {
        let job = self.jobs[root]
            .get()
            .expect("a unit's job is published before its parts");
        let chunks = job.parts[part].clone();
        let slots = |i: usize| self.slot(i);
        let (settings, formats) = (self.settings, self.formats);
        let partials = match self.fusion.region_of(root) {
            Some(index) => {
                let region = self.fusion.region(index);
                // Parts encode every stage: their partials splice.
                run_region_part(self.plan, region, chunks, &slots, settings, formats, false).0
            }
            None => {
                let keys = job.keys.as_ref();
                let partial = run_part(self.plan, root, chunks, &slots, settings, formats, keys);
                vec![partial]
            }
        };
        if job.partials[part].set(partials).is_err() {
            unreachable!("part {part} of unit {root} ran twice");
        }
        if job.done.fetch_add(1, Ordering::AcqRel) + 1 < job.parts.len() {
            return;
        }
        let parts: Vec<&Vec<Partial>> = job
            .partials
            .iter()
            .map(|cell| cell.get().expect("every part completed"))
            .collect();
        let elapsed = job.started.elapsed();
        let members = self.graph.members[root].iter().enumerate();
        let merged = members.map(|(stage, &member)| {
            let value = if matches!(self.plan.nodes[member].op, PlanOp::AggSum { .. }) {
                let sums = parts.iter().map(|part| match part[stage] {
                    Partial::Sum(sum) => sum,
                    _ => unreachable!("sum stage with a column partial"),
                });
                Partial::Sum(sums.fold(0, u64::wrapping_add))
            } else {
                let columns = parts.iter().map(|part| match &part[stage] {
                    Partial::Col(column) => column,
                    _ => unreachable!("column stage without a column partial"),
                });
                let format = self.plan.part_format(member, settings, formats);
                Partial::Col(partitioned::concat_partials(&format, columns))
            };
            (value, elapsed)
        });
        self.complete_unit(root, job.parts.len(), merged);
    }

    /// Run node `idx` whole.  A scan resolves to its base column; with a
    /// plan cache attached, a hit replays the node's records under the
    /// identical names and timing label (the lookup time as duration); a
    /// miss runs the operator and finishes the node.
    fn execute_node(&self, idx: usize, source: &'a dyn ColumnSource) -> (Slot<'a>, NodeRecords) {
        let mut records = NodeRecords::new(self.capture);
        if let PlanOp::Scan { column } = &self.plan.nodes[idx].op {
            let base = source.column(column);
            records.record_base(column, base);
            return (Slot::Base(base), records);
        }
        if let Some((cache, key, _)) = self.cache_entry(idx) {
            let lookup_started = Instant::now();
            if let Some(value) = cache.lookup(&key) {
                // A value of the wrong shape (a key collision) is a miss.
                if let Some(slot) = slot_from_cached(self.plan, idx, value, &mut records) {
                    records.note_cache_hit();
                    let label = self.plan.node_timing_label(idx);
                    records.push_timing(&label, lookup_started.elapsed());
                    return (slot, records);
                }
            }
        }
        let started = Instant::now();
        let slots = |i: usize| self.slot(i);
        let slot = run_node_op(self.plan, idx, &slots, self.settings, self.formats);
        let slot = self.finish(idx, slot, started.elapsed(), &mut records);
        (slot, records)
    }

    /// Finish, publish and complete every member of unit `root` from its
    /// value and measured duration; `parts` is the unit's fan-out degree (0
    /// when it ran whole).  A one-part unit's partials move into place.
    fn complete_unit(
        &self,
        root: usize,
        parts: usize,
        values: impl Iterator<Item = (Partial, Duration)>,
    ) {
        for (&member, (value, elapsed)) in self.graph.members[root].iter().zip(values) {
            let slot = match value {
                Partial::Col(column) => Slot::Col(Arc::new(column)),
                Partial::Sum(total) => Slot::Scalar(total),
                Partial::Sized(size) => Slot::Fused(size),
            };
            let mut records = NodeRecords::new(self.capture);
            records.note_morsel_parts(parts);
            let slot = self.finish(member, slot, elapsed, &mut records);
            self.publish(member, slot, records);
        }
        self.complete(root);
    }

    /// Complete node `idx` from its output — the one completion path of a
    /// whole-column node, a merged fan-out and every fused member: push the
    /// timing, record the output, insert it into the plan cache (its
    /// runtime is the eviction benefit) and decide the slot.  An encoded
    /// fused interior is recorded and cached, then dropped; a sized one is
    /// recorded from its size.
    fn finish(
        &self,
        idx: usize,
        slot: Slot<'static>,
        elapsed: Duration,
        records: &mut NodeRecords,
    ) -> Slot<'static> {
        records.push_timing(&self.plan.node_timing_label(idx), elapsed);
        let full = self.plan.node_full_name(idx);
        match &slot {
            Slot::Col(column) => records.record_intermediate(&full, column),
            Slot::Fused(size) => records.record_size(&full, *size),
            Slot::Group(group) => {
                records.record_intermediate(&full, &group.group_ids);
                records.record_intermediate(&format!("{full}_reps"), &group.representatives);
            }
            _ => {}
        }
        if let Some((cache, key, deps)) = self.cache_entry(idx) {
            if let Some(value) = cached_from_slot(&slot) {
                cache.insert(key, value, elapsed, deps);
            }
        }
        match slot {
            Slot::Col(column) if self.graph.members[idx].is_empty() => Slot::Fused(column.size()),
            slot => slot,
        }
    }

    /// Node `idx`'s plan-cache entry: the cache, the node's key and its
    /// invalidation tags (`None` without a cache, and for scans).
    fn cache_entry(&self, idx: usize) -> Option<(&QueryCache, CacheKey, &[String])> {
        let cache = self.settings.cache.as_deref()?;
        let info = &self.cache_info.as_ref()?[idx];
        Some((cache, info.key?, &info.deps))
    }

    /// Publish node `idx`'s result for its consumers and the final merge.
    fn publish(&self, idx: usize, slot: Slot<'a>, records: NodeRecords) {
        if self.cells[idx].set(NodeResult { slot, records }).is_err() {
            unreachable!("plan node {idx} completed twice");
        }
    }

    /// Complete unit `root` and wake the workers its consumers need: a
    /// single ready unit needs a single worker; batches and the end of the
    /// plan wake everyone.
    fn complete(&self, root: usize) {
        let mut queue = self.queue.lock().expect("scheduler lock");
        let released = queue.complete(&self.graph, root);
        let done = queue.done;
        drop(queue);
        if done || released > 1 {
            self.wakeup.notify_all();
        } else if released == 1 {
            self.wakeup.notify_one();
        }
    }
}

/// Unblocks the sibling workers when a worker panics (an operator
/// assertion, an unknown column, a governance trip), so the scope can join
/// every thread and propagate the panic instead of deadlocking on the
/// condvar.
struct PanicRelease<'s, 'r, 'a>(&'s Run<'r, 'a>);

impl Drop for PanicRelease<'_, '_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // Flip `done` while holding the queue mutex: a sibling that has
            // checked `done` under the lock is either already waiting (and
            // gets the notification) or has not checked yet (and will see
            // the flag).  `into_inner` instead of `expect`: panicking inside
            // a drop during unwind would abort.
            let mut queue = self
                .0
                .queue
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            queue.done = true;
            self.0.wakeup.notify_all();
        }
    }
}

/// The order one worker starts the units of `plan` in — under the plan's
/// fusion analysis when `fused` — as the scheduler's pop policy yields it
/// over the plan's unit graph: node-list order, with each fused region at
/// its root's index and its interiors left out.  Exposed so tests can pin
/// the policy on real plans.
pub fn single_worker_order(plan: &QueryPlan, fused: bool) -> Vec<usize> {
    let fusion = if fused {
        FusionPlan::analyze(plan)
    } else {
        FusionPlan::empty(plan.node_count())
    };
    let graph = Graph::new(plan, &fusion);
    let mut queue = Queue::new(&graph);
    let mut order = Vec::new();
    while let Some(task) = queue.pop() {
        let Task::Unit(root) = task else {
            unreachable!("one worker never fans out")
        };
        order.push(root);
        queue.complete(&graph, root);
    }
    order
}

/// Executes a [`QueryPlan`] with `threads` workers: the calling thread and
/// `threads - 1` scoped workers run the scheduler's loop together,
/// dispatching every unit whose inputs have completed — and, when
/// [`ExecSettings::morsel_threshold`] is set, splitting large units into
/// chunk-range morsels across the same workers.
///
/// Drop-in alternative to [`PlanExecutor`](crate::plan::PlanExecutor):
/// identical results, identical footprint records and identical
/// timing-label sequences (see the [module docs](self) for why).  The
/// column source must be [`Sync`] because the workers scan base columns
/// concurrently.
#[derive(Debug, Clone, Copy)]
pub struct ParallelExecutor {
    threads: usize,
}

impl ParallelExecutor {
    /// Create an executor with `threads` workers (clamped to at least 1;
    /// one worker is [`PlanExecutor`](crate::plan::PlanExecutor)'s inline
    /// loop).
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
    /// `ctx` exactly like [`PlanExecutor`](crate::plan::PlanExecutor) would.
    pub fn execute(
        &self,
        plan: &QueryPlan,
        source: &(dyn ColumnSource + Sync),
        ctx: &mut ExecutionContext,
    ) -> PlanOutput {
        // Without morsels, more workers than nodes can never be utilised.
        let workers = if ctx.settings.morsel_threshold.is_some() {
            self.threads
        } else {
            self.threads.min(plan.node_count())
        };
        run_plan(plan, source, ctx, workers, |run| {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (1..workers)
                    .map(|_| {
                        scope.spawn(move || {
                            // Register the query's governor on this worker
                            // so its checkpoints observe cancellation,
                            // deadline and memory limits; a trip unwinds the
                            // worker and `PanicRelease` drains the siblings.
                            let _governed = GovernorScope::enter(run.settings.governor.clone());
                            run.work(source);
                        })
                    })
                    .collect();
                run.work(source);
                // Re-raise a worker's original panic payload (scope itself
                // would replace it with a generic "a scoped thread
                // panicked").
                for handle in handles {
                    if let Err(payload) = handle.join() {
                        std::panic::resume_unwind(payload);
                    }
                }
            })
        })
    }

    /// Fallible counterpart of [`ParallelExecutor::execute`]: runs the plan
    /// under the settings' [`QueryGovernor`](crate::govern::QueryGovernor)
    /// (when one is attached) and converts a governance or decode unwind —
    /// re-raised from whichever worker tripped first — into a structured
    /// [`ExecError`](crate::govern::ExecError).  Any other panic resumes
    /// unchanged.  The scheduler's `PanicRelease` guard has already
    /// unblocked the sibling workers and every worker has joined by the
    /// time this returns, so the executor is never poisoned; `ctx` holds no
    /// records.
    pub fn try_execute(
        &self,
        plan: &QueryPlan,
        source: &(dyn ColumnSource + Sync),
        ctx: &mut ExecutionContext,
    ) -> Result<PlanOutput, crate::govern::ExecError> {
        crate::govern::run_governed(|| self.execute(plan, source, ctx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{ExecSettings, FormatConfig};
    use crate::plan::{PlanBuilder, PlanExecutor};
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
    fn pop_takes_parts_first_then_the_lowest_ready_root() {
        let mut queue = Queue {
            ready: BTreeSet::from([4, 1, 3]),
            parts: BTreeMap::from([(6, 0..2), (2, 1..2)]),
            waiting: Vec::new(),
            pending: 9,
            done: false,
        };
        let pops: Vec<Task> = std::iter::from_fn(|| queue.pop()).collect();
        assert_eq!(
            pops,
            vec![
                Task::Part { root: 2, part: 1 },
                Task::Part { root: 6, part: 0 },
                Task::Part { root: 6, part: 1 },
                Task::Unit(1),
                Task::Unit(3),
                Task::Unit(4),
            ]
        );
    }

    #[test]
    fn one_worker_pops_node_list_order_with_regions_at_their_roots() {
        let diamond = diamond_plan();
        assert_eq!(single_worker_order(&diamond, false), vec![0, 1, 2, 3, 4, 5]);
        // 0 a, 1 b, 2 pos, 3 b_at, 4 total: one region {2, 3, 4}.
        let mut p = PlanBuilder::new("chain");
        let a = p.scan("a");
        let b = p.scan("b");
        let pos = p.select("pos", a, CmpOp::Lt, 40);
        let at = p.project("b_at", b, pos);
        let total = p.agg_sum("total", at);
        let chain = p.finish_scalar(total);
        assert_eq!(single_worker_order(&chain, false), vec![0, 1, 2, 3, 4]);
        assert_eq!(single_worker_order(&chain, true), vec![0, 1, 4]);
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
