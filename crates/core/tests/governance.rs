//! Governance and fault-injection tests through the public executor API.
//!
//! Covers the full lifecycle contract end to end on real multi-node plans:
//! cancellation, deadlines and memory budgets surface as structured
//! [`ExecError`]s from `try_execute` on both executors (serial, parallel and
//! morsel-parallel); injected decode faults surface structurally while
//! injected plain panics resume as panics without poisoning anything; a
//! failed run leaves no records in its context on any path; a
//! cooperative cancel returns well inside the 50 ms bound; and — the cache
//! consistency property — *any* cancel/deadline interleaving mid-plan
//! leaves a shared [`QueryCache`] consistent: no partially computed subplan
//! is ever admitted, and an identical re-query recomputes byte-identical
//! results.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use morph_compression::{DecodeError, Format};
use morph_storage::Column;
use morphstore_engine::exec::FormatConfig;
use morphstore_engine::faults::{FaultKind, FaultPlan, FaultSite};
use morphstore_engine::plan::{PlanBuilder, PlanOutput, QueryPlan};
use morphstore_engine::{
    CmpOp, ExecError, ExecSettings, ExecutionContext, ParallelExecutor, QueryCache, QueryGovernor,
};
use proptest::prelude::*;

/// A five-operator plan over two scans: enough nodes and chunks that every
/// checkpoint family fires several times per execution.
fn build_plan() -> QueryPlan {
    let mut b = PlanBuilder::new("gov");
    let x = b.scan("x");
    let y = b.scan("y");
    let left = b.select("left", x, CmpOp::Lt, 80);
    let right = b.select_between("right", y, 10, 90);
    let both = b.intersect_sorted("both", left, right);
    let projected = b.project("projected", y, both);
    let total = b.agg_sum("total", projected);
    b.finish_scalar(total)
}

fn source() -> HashMap<String, Column> {
    let mut columns = HashMap::new();
    columns.insert(
        "x".to_string(),
        Column::from_vec((0..20_000u64).map(|i| i % 97).collect()),
    );
    columns.insert(
        "y".to_string(),
        Column::from_vec((0..20_000u64).map(|i| (i * 7) % 113).collect()),
    );
    columns
}

fn formats() -> FormatConfig {
    FormatConfig::with_default(Format::DynBp)
}

/// One footprint record, flattened for byte-identical comparison.
type RecordRow = (String, Format, usize, usize);

fn rows(ctx: &ExecutionContext) -> Vec<RecordRow> {
    ctx.records()
        .iter()
        .map(|r| (r.name.clone(), r.format, r.len, r.bytes))
        .collect()
}

/// Serial `try_execute` under `settings` against the shared plan/source.
fn run(settings: ExecSettings) -> (Result<PlanOutput, ExecError>, Vec<RecordRow>) {
    let mut ctx = ExecutionContext::new(settings, formats());
    let result = build_plan().try_execute(&source(), &mut ctx);
    let records = rows(&ctx);
    (result, records)
}

fn governed(governor: &Arc<QueryGovernor>) -> ExecSettings {
    ExecSettings::vectorized_compressed().with_governor(Arc::clone(governor))
}

/// Arm one targeted fault and hand it to a fresh governor.
fn governor_with_fault(site: FaultSite, at: u64, kind: FaultKind) -> Arc<QueryGovernor> {
    let plan = FaultPlan::targeted();
    plan.inject("gov", site, at, kind);
    Arc::new(QueryGovernor::new().with_fault(plan.arm("gov")))
}

#[test]
fn ungoverned_and_governed_runs_are_byte_identical() {
    let (reference, reference_records) = run(ExecSettings::vectorized_compressed());
    let governor = Arc::new(QueryGovernor::new());
    let (governed_out, governed_records) = run(governed(&governor));
    assert_eq!(governed_out, reference);
    assert_eq!(governed_records, reference_records);
    // The checkpoints actually fired — governance was live, not bypassed.
    assert!(governor.chunk_checkpoints() > 10, "chunk checkpoints fired");
    assert_eq!(governor.node_checkpoints(), 7, "one per plan node");
    assert!(governor.used_bytes() > 0, "intermediates were charged");

    // One node checkpoint per plan node on every path: two workers, a
    // morsel-fanned node, and a fused region fanned out as morsels.
    let paths: [fn(ExecSettings) -> ExecSettings; 3] = [
        |settings| settings,
        |settings| settings.with_morsel_threshold(1024),
        |settings| settings.with_fusion().with_morsel_threshold(1024),
    ];
    for (path, settings) in paths.into_iter().enumerate() {
        let governor = Arc::new(QueryGovernor::new());
        let mut ctx = ExecutionContext::new(settings(governed(&governor)), formats());
        let output = ParallelExecutor::new(2).try_execute(&build_plan(), &source(), &mut ctx);
        assert_eq!(output, reference, "path {path}");
        assert_eq!(rows(&ctx), reference_records, "path {path}");
        assert_eq!(
            governor.node_checkpoints(),
            7,
            "path {path}: one per plan node"
        );
    }
}

#[test]
fn failed_runs_leave_no_records_on_any_path() {
    // Warm every node, then invalidate the subplans over `y`: `left` still
    // hits, the rest recompute, and the fused region is not demoted.
    let cache = Arc::new(QueryCache::unbounded());
    run_cached(&cache, None).0.expect("warm-up run succeeds");
    cache.bump_generation("y");
    for threads in [1, 2] {
        for fused in [false, true] {
            let governor = governor_with_fault(FaultSite::Node, 4, FaultKind::Decode);
            let mut settings = governed(&governor).with_cache(Arc::clone(&cache));
            if fused {
                settings = settings.with_fusion();
            }
            let mut ctx = ExecutionContext::new(settings, formats());
            let result = match threads {
                1 => build_plan().try_execute(&source(), &mut ctx),
                n => ParallelExecutor::new(n).try_execute(&build_plan(), &source(), &mut ctx),
            };
            let case = format!("threads {threads}, fused {fused}");
            assert!(
                matches!(result, Err(ExecError::Decode(_))),
                "{case}: {result:?}"
            );
            assert!(ctx.records().is_empty(), "{case}: {:?}", ctx.records());
            assert_eq!(ctx.cache_hit_count(), 0, "{case}");
        }
    }
}

#[test]
fn pre_cancelled_governor_fails_before_any_work() {
    let governor = Arc::new(QueryGovernor::new());
    governor.cancel();
    let (result, records) = run(governed(&governor));
    assert_eq!(result, Err(ExecError::Cancelled));
    assert!(records.is_empty(), "no node completed: {records:?}");
}

#[test]
fn cancel_fault_mid_plan_returns_cancelled() {
    let governor = governor_with_fault(FaultSite::Chunk, 4, FaultKind::Cancel);
    let (result, _) = run(governed(&governor));
    assert_eq!(result, Err(ExecError::Cancelled));
    assert!(governor.is_cancelled());
}

#[test]
fn deadline_trips_after_injected_delay() {
    let governor = Arc::new(
        QueryGovernor::new()
            .with_deadline(Duration::from_millis(1))
            .with_fault(Some(morphstore_engine::faults::ArmedFault {
                site: FaultSite::Chunk,
                at: 2,
                kind: FaultKind::Delay(Duration::from_millis(10)),
                query: "gov".to_string(),
            })),
    );
    let (result, _) = run(governed(&governor));
    match result {
        Err(ExecError::DeadlineExceeded { deadline, elapsed }) => {
            assert_eq!(deadline, Duration::from_millis(1));
            assert!(elapsed >= Duration::from_millis(1));
        }
        other => panic!("expected deadline violation, got {other:?}"),
    }
}

#[test]
fn memory_budget_trips_with_structured_accounting() {
    let governor = Arc::new(QueryGovernor::new().with_memory_budget(64));
    let (result, _) = run(governed(&governor));
    match result {
        Err(ExecError::MemoryExceeded {
            used_bytes,
            budget_bytes,
        }) => {
            assert!(used_bytes > budget_bytes);
            assert_eq!(budget_bytes, 64);
        }
        other => panic!("expected memory violation, got {other:?}"),
    }
}

/// A star-join shaped plan whose build sides are random 64-bit keys, so both
/// key tables take their sparse representation and dwarf the intermediates.
fn key_table_plan() -> QueryPlan {
    let mut b = PlanBuilder::new("keys");
    let fk = b.scan("fk");
    let dim = b.scan("dim_key");
    let wanted = b.scan("wanted");
    let hits = b.semi_join("hits", fk, wanted);
    let matched = b.project("matched", fk, hits);
    let dim_pos = b.join("dim_pos", matched, dim);
    let total = b.agg_sum("total", dim_pos);
    b.finish_scalar(total)
}

fn key_table_source() -> HashMap<String, Column> {
    let dim: Vec<u64> = (0..4000u64)
        .map(|i| (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let wanted: Vec<u64> = dim.iter().copied().step_by(4).collect();
    let fk: Vec<u64> = (0..40_000usize).map(|i| dim[(i * 7) % dim.len()]).collect();
    let mut columns = HashMap::new();
    columns.insert("fk".to_string(), Column::from_vec(fk));
    columns.insert("dim_key".to_string(), Column::from_vec(dim));
    columns.insert("wanted".to_string(), Column::from_vec(wanted));
    columns
}

#[test]
fn join_key_tables_are_charged_to_the_memory_budget() {
    let plan = key_table_plan();
    let source = key_table_source();
    let run = |governor: &Arc<QueryGovernor>, executor: Option<&ParallelExecutor>| {
        let mut settings = governed(governor);
        if executor.is_some() {
            settings = settings.with_morsel_threshold(1024);
        }
        let mut ctx = ExecutionContext::new(settings, formats());
        match executor {
            Some(executor) => executor.try_execute(&plan, &source, &mut ctx),
            None => plan.try_execute(&source, &mut ctx),
        }
    };

    // Unlimited: the tables show up as the query's transient peak — the
    // join index (8192 slots, as many offsets, 4000 positions) is the
    // larger of the two.
    let unlimited = Arc::new(QueryGovernor::new());
    let reference = run(&unlimited, None).expect("unlimited run succeeds");
    let table_bytes = unlimited.transient_peak_bytes();
    assert!(table_bytes >= (8192 + 8192 + 4000) * 8, "{table_bytes}");
    let materialized = unlimited.used_bytes() - table_bytes;
    assert!(materialized < table_bytes, "tables dominate this plan");

    let executor = ParallelExecutor::new(4);
    for executor in [None, Some(&executor)] {
        // A budget that covers every intermediate but not the tables.
        let tight = Arc::new(QueryGovernor::new().with_memory_budget(materialized + 1024));
        match run(&tight, executor) {
            Err(ExecError::MemoryExceeded {
                used_bytes,
                budget_bytes,
            }) => {
                assert_eq!(budget_bytes, materialized + 1024);
                assert!(used_bytes > budget_bytes);
            }
            other => panic!("expected memory violation, got {other:?}"),
        }
        // The same executor (and its pool) then serves a query whose budget
        // does cover the tables, byte-identical to the reference.
        let roomy = Arc::new(QueryGovernor::new().with_memory_budget(materialized + table_bytes));
        assert_eq!(run(&roomy, executor), Ok(reference.clone()));
        assert_eq!(roomy.transient_peak_bytes(), table_bytes);
    }
}

/// Rows of the grouping plans below.
const GROUP_ROWS: usize = 20_000;

/// `GROUP BY k` summing `v` — or, with `refine`, `GROUP BY c, k` through a
/// coarse grouping on the three-valued `c`.  `k` holds a distinct value per
/// row, so the final grouping's working set (an id and a representative per
/// row, plus one key-table entry per row) dwarfs the bit-packed outputs.
fn group_plan(refine: bool) -> QueryPlan {
    let mut b = PlanBuilder::new("grp");
    let k = b.scan("k");
    let v = b.scan("v");
    let group = if refine {
        let c = b.scan("c");
        let coarse = b.group_by("coarse", c);
        b.group_by_refine("fine", coarse, k)
    } else {
        b.group_by("fine", k)
    };
    let sums = b.agg_sum_grouped("sums", group, v);
    let keys = b.project("keys", k, group.representatives());
    b.finish_grouped(vec![keys], sums)
}

fn group_source() -> HashMap<String, Column> {
    let n = GROUP_ROWS as u64;
    // 7919 is prime and coprime to n, so `k` is a permutation of 0..n.
    let column = |f: &dyn Fn(u64) -> u64| Column::from_vec((0..n).map(f).collect());
    HashMap::from([
        ("c".to_string(), column(&|i| i % 3)),
        ("k".to_string(), column(&|i| (i * 7919) % n)),
        ("v".to_string(), column(&|i| i % 100)),
    ])
}

/// The final grouping's working set is the query's transient peak, and a
/// budget that covers every intermediate plus 16 bytes per row — more than
/// the coarse grouping's working set or any pairwise carry, less than the
/// final grouping's — trips on the serial and the parallel executor alike.
fn assert_grouping_is_charged(refine: bool) {
    let plan = group_plan(refine);
    let source = group_source();
    let run = |governor: &Arc<QueryGovernor>, executor: Option<&ParallelExecutor>| {
        let mut settings = governed(governor);
        if executor.is_some() {
            settings = settings.with_morsel_threshold(1024);
        }
        let mut ctx = ExecutionContext::new(settings, formats());
        match executor {
            Some(executor) => executor.try_execute(&plan, &source, &mut ctx),
            None => plan.try_execute(&source, &mut ctx),
        }
    };

    let unlimited = Arc::new(QueryGovernor::new());
    let reference = run(&unlimited, None).expect("unlimited run succeeds");
    assert_eq!(reference.values.len(), GROUP_ROWS);
    // Ids and representatives take 8 bytes a row each, and the key table
    // holds at least one entry of at least 17 bytes per row.
    let working_set = unlimited.transient_peak_bytes();
    assert!(working_set >= 33 * GROUP_ROWS, "{working_set}");
    let materialized = unlimited.used_bytes() - working_set;

    let executor = ParallelExecutor::new(4);
    for executor in [None, Some(&executor)] {
        let budget = materialized + 16 * GROUP_ROWS;
        let tight = Arc::new(QueryGovernor::new().with_memory_budget(budget));
        match run(&tight, executor) {
            Err(ExecError::MemoryExceeded {
                used_bytes,
                budget_bytes,
            }) => {
                assert_eq!(budget_bytes, budget);
                assert!(used_bytes > budget_bytes);
            }
            other => panic!("expected memory violation, got {other:?}"),
        }
        let roomy = Arc::new(QueryGovernor::new().with_memory_budget(materialized + working_set));
        assert_eq!(run(&roomy, executor), Ok(reference.clone()));
        assert_eq!(roomy.transient_peak_bytes(), working_set);
    }
}

#[test]
fn group_by_working_sets_are_charged_to_the_memory_budget() {
    assert_grouping_is_charged(false);
}

#[test]
fn group_by_refine_working_sets_are_charged_to_the_memory_budget() {
    assert_grouping_is_charged(true);
}

/// A project of a DELTA-compressed data column at a base-column position
/// list, summed: `positions` names the sorted or the shuffled list.
fn gather_plan(positions: &str) -> QueryPlan {
    let mut b = PlanBuilder::new("gather");
    let data = b.scan("data");
    let positions = b.scan(positions);
    let at = b.project("at", data, positions);
    let total = b.agg_sum("total", at);
    b.finish_scalar(total)
}

/// 200 000 data values (a 20-bit static-BP copy is ≈ 500 KB, the DELTA
/// column a few KB) and the same 4000 positions in ascending and in
/// scrambled order.
fn gather_source() -> (HashMap<String, Column>, usize) {
    let data: Vec<u64> = (0..200_000u64).map(|i| i * 3).collect();
    let morph_bytes =
        Column::compress(&data, &Format::static_bp_for_max(599_997)).size_used_bytes();
    let sorted: Vec<u64> = (0..4000u64).map(|i| i * 50).collect();
    let shuffled: Vec<u64> = (0..4000u64).map(|i| (i * 1237) % 4000 * 50).collect();
    let mut columns = HashMap::new();
    columns.insert(
        "data".to_string(),
        Column::compress(&data, &Format::DeltaDynBp),
    );
    columns.insert("sorted".to_string(), Column::from_vec(sorted));
    columns.insert("shuffled".to_string(), Column::from_vec(shuffled));
    (columns, morph_bytes)
}

#[test]
fn project_random_access_copy_is_charged_to_the_memory_budget() {
    let (source, morph_bytes) = gather_source();
    let run =
        |positions: &str, governor: &Arc<QueryGovernor>, executor: Option<&ParallelExecutor>| {
            let mut settings = governed(governor);
            if executor.is_some() {
                settings = settings.with_morsel_threshold(1024);
            }
            let mut ctx = ExecutionContext::new(settings, formats());
            let plan = gather_plan(positions);
            match executor {
                Some(executor) => executor.try_execute(&plan, &source, &mut ctx),
                None => plan.try_execute(&source, &mut ctx),
            }
        };
    let unlimited = Arc::new(QueryGovernor::new());
    let reference = run("sorted", &unlimited, None).expect("unlimited run succeeds");
    assert_eq!(unlimited.transient_peak_bytes(), 0, "sorted: no copy");
    assert!(unlimited.used_bytes() < morph_bytes / 10);
    assert_eq!(run("shuffled", &unlimited, None), Ok(reference.clone()));

    let budget = morph_bytes / 2;
    let executor = ParallelExecutor::new(2);
    for executor in [None, Some(&executor)] {
        // Ascending positions read the DELTA column forward: nothing
        // O(column) is allocated, so a budget below the copy's size holds.
        let tight = Arc::new(QueryGovernor::new().with_memory_budget(budget));
        assert_eq!(run("sorted", &tight, executor), Ok(reference.clone()));
        // Scrambled positions need the static-BP copy, which is charged.
        let tight = Arc::new(QueryGovernor::new().with_memory_budget(budget));
        match run("shuffled", &tight, executor) {
            Err(ExecError::MemoryExceeded {
                used_bytes,
                budget_bytes,
            }) => {
                assert_eq!(budget_bytes, budget);
                assert!(used_bytes >= morph_bytes, "{used_bytes} < {morph_bytes}");
            }
            other => panic!("expected memory violation, got {other:?}"),
        }
        // The same executor (and its pool) keeps serving.
        let roomy = Arc::new(QueryGovernor::new().with_memory_budget(2 * morph_bytes));
        assert_eq!(run("shuffled", &roomy, executor), Ok(reference.clone()));
        assert_eq!(roomy.transient_peak_bytes(), morph_bytes);
    }
}

#[test]
fn decode_fault_surfaces_structured_error() {
    let governor = governor_with_fault(FaultSite::Node, 3, FaultKind::Decode);
    let (result, _) = run(governed(&governor));
    match result {
        Err(ExecError::Decode(DecodeError::CorruptHeader { format, detail })) => {
            assert_eq!(format, "fault-injection");
            assert!(detail.contains("gov"), "{detail}");
        }
        other => panic!("expected decode fault, got {other:?}"),
    }
}

#[test]
fn panic_fault_resumes_as_a_genuine_panic() {
    let governor = governor_with_fault(FaultSite::Chunk, 1, FaultKind::Panic);
    let payload = std::panic::catch_unwind(|| run(governed(&governor)))
        .expect_err("injected panic must escape try_execute");
    let message = payload
        .downcast_ref::<String>()
        .expect("plain panic payload");
    assert!(message.contains("injected panic"), "{message}");
}

#[test]
fn parallel_executors_observe_the_same_governance() {
    let (reference, _) = run(ExecSettings::vectorized_compressed());
    let reference = reference.expect("ungoverned run succeeds");
    let executor = ParallelExecutor::new(4);
    for morsels in [None, Some(1024)] {
        let settings = |governor: &Arc<QueryGovernor>| {
            let mut s = governed(governor);
            if let Some(threshold) = morsels {
                s = s.with_morsel_threshold(threshold);
            }
            s
        };

        // A cancel fault trips, and the pool drains without poisoning.
        let governor = governor_with_fault(FaultSite::Chunk, 4, FaultKind::Cancel);
        let mut ctx = ExecutionContext::new(settings(&governor), formats());
        let result = executor.try_execute(&build_plan(), &source(), &mut ctx);
        assert_eq!(result, Err(ExecError::Cancelled), "morsels={morsels:?}");

        // A decode fault surfaces structurally on the same executor.
        let governor = governor_with_fault(FaultSite::Chunk, 2, FaultKind::Decode);
        let mut ctx = ExecutionContext::new(settings(&governor), formats());
        let result = executor.try_execute(&build_plan(), &source(), &mut ctx);
        assert!(
            matches!(result, Err(ExecError::Decode(_))),
            "morsels={morsels:?}: {result:?}"
        );

        // The very same executor then completes a clean governed run,
        // byte-identical to the serial reference.
        let governor = Arc::new(QueryGovernor::new());
        let mut ctx = ExecutionContext::new(settings(&governor), formats());
        let output = executor
            .try_execute(&build_plan(), &source(), &mut ctx)
            .expect("clean run succeeds after faults");
        assert_eq!(output, reference, "morsels={morsels:?}");
    }
}

#[test]
fn cross_thread_cancel_is_observed_within_the_latency_bound() {
    // Slow the query down with an injected mid-plan delay, cancel from
    // another thread while it sleeps, and verify the cooperative unwind
    // completes within 50 ms of the trigger.  The margins are generous:
    // the delay (200 ms) dwarfs the cancel point (20 ms in).
    let plan = FaultPlan::targeted();
    plan.inject(
        "gov",
        FaultSite::Chunk,
        2,
        FaultKind::Delay(Duration::from_millis(200)),
    );
    let governor = Arc::new(QueryGovernor::new().with_fault(plan.arm("gov")));
    let canceller = {
        let governor = Arc::clone(&governor);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            governor.cancel();
            Instant::now()
        })
    };
    let (result, _) = run(governed(&governor));
    let returned = Instant::now();
    let triggered = canceller.join().expect("canceller thread");
    assert_eq!(result, Err(ExecError::Cancelled));
    let latency = returned.duration_since(triggered);
    assert!(
        latency < Duration::from_millis(50),
        "cancel took {latency:?} to surface"
    );
}

/// Run the shared plan with `cache` attached and, optionally, a governor.
fn run_cached(
    cache: &Arc<QueryCache>,
    governor: Option<Arc<QueryGovernor>>,
) -> (Result<PlanOutput, ExecError>, Vec<RecordRow>, usize) {
    let mut settings = ExecSettings::vectorized_compressed().with_cache(Arc::clone(cache));
    if let Some(governor) = governor {
        settings = settings.with_governor(governor);
    }
    let mut ctx = ExecutionContext::new(settings, formats());
    let result = build_plan().try_execute(&source(), &mut ctx);
    let hits = ctx.cache_hit_count();
    let records = rows(&ctx);
    (result, records, hits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Satellite: any cancel/deadline interleaving mid-plan leaves the
    // query cache consistent.  A fault (cancel or delay-past-deadline) is
    // armed at an arbitrary checkpoint; whatever happens, an identical
    // ungoverned re-query against the *same* cache must reproduce the
    // cache-free reference byte for byte — a partially computed subplan
    // admitted to the cache would surface here as a divergent record or
    // output.
    #[test]
    fn interrupted_queries_never_corrupt_the_cache(
        site_pick in 0usize..2,
        at in 1u64..80,
        kind_pick in 0usize..2,
    ) {
        let site = [FaultSite::Chunk, FaultSite::Node][site_pick];
        let (reference, reference_records) = run(ExecSettings::vectorized_compressed());
        let reference = reference.expect("reference run succeeds");

        let cache = Arc::new(QueryCache::unbounded());
        let governor = if kind_pick == 0 {
            governor_with_fault(site, at, FaultKind::Cancel)
        } else {
            let plan = FaultPlan::targeted();
            plan.inject("gov", site, at, FaultKind::Delay(Duration::from_millis(5)));
            Arc::new(
                QueryGovernor::new()
                    .with_deadline(Duration::from_millis(1))
                    .with_fault(plan.arm("gov")),
            )
        };

        // The governed run either completes identically (fault point past
        // the plan's checkpoints) or stops with the structured error.
        let (interrupted, _, _) = run_cached(&cache, Some(governor));
        match &interrupted {
            Ok(output) => prop_assert_eq!(output, &reference),
            Err(ExecError::Cancelled) | Err(ExecError::DeadlineExceeded { .. }) => {}
            Err(other) => prop_assert!(false, "unexpected error {:?}", other),
        }

        // Identical ungoverned re-query on the same cache: byte-identical
        // to the cache-free reference, wherever the interruption landed.
        let (requery, requery_records, _) = run_cached(&cache, None);
        prop_assert_eq!(requery.expect("re-query succeeds"), reference.clone());
        prop_assert_eq!(&requery_records, &reference_records);

        // And the now-warm cache replays the same bytes again.
        let (warm, warm_records, warm_hits) = run_cached(&cache, None);
        prop_assert_eq!(warm.expect("warm run succeeds"), reference);
        prop_assert_eq!(&warm_records, &reference_records);
        prop_assert_eq!(warm_hits, 5, "all non-scan nodes hit");
    }
}
