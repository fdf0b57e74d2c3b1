//! Chaos test of the governance layer: a seeded
//! deterministic fault plan injects decode failures, engine panics and
//! delays into ~10% of query executions across two tenants hammering all
//! 13 SSB queries on a 4-worker server.  The contract under fire:
//!
//! * **zero escaped panics** — every submission gets a reply; faulted
//!   queries fail with *structured* errors (decode faults carry the
//!   injected `DecodeError`, injected panics are contained at the worker
//!   boundary);
//! * **blast-radius isolation** — every query that succeeds is
//!   byte-identical to the fault-free serial reference, co-tenant faults
//!   notwithstanding (shared worker pool, private cache shards);
//! * **accounting** — [`Server::stats`] reconciles: every admitted query
//!   lands in exactly one outcome bucket, and the failure count matches
//!   what the clients observed;
//! * **responsiveness** — cancelling an executing query, or a deadline
//!   expiring mid-execution, surfaces within 50 ms of the trigger even
//!   while the query sits in an injected delay;
//! * **fusion neutrality** — faults are armed per query occurrence, so a
//!   fusion-enabled pass sees the same seeded schedule, the same outcome
//!   sequence, and byte-identical successful results as the unfused run.

use std::sync::Arc;
use std::time::{Duration, Instant};

use morph_compression::{DecodeError, Format};
use morph_server::{Server, ServerConfig, ServerError, TenantLimits};
use morph_ssb::{dbgen, ssb_catalog, SsbData, SsbQuery};
use morphstore_engine::exec::FormatConfig;
use morphstore_engine::faults::{FaultKind, FaultPlan, FaultSite};
use morphstore_engine::{ExecSettings, ExecutionContext};

const SCALE: f64 = 0.01;
const SEED: u64 = 42;
const FAULT_RATE_PERCENT: u64 = 10;
const PASSES: usize = 3;

fn reference_results(data: &SsbData) -> Vec<(SsbQuery, Vec<Vec<u64>>, Vec<u64>)> {
    SsbQuery::all()
        .iter()
        .map(|&query| {
            let mut ctx = ExecutionContext::new(
                ExecSettings::scalar_uncompressed(),
                FormatConfig::uncompressed(),
            );
            let result = query.execute(data, &mut ctx);
            (query, result.group_keys, result.values)
        })
        .collect()
}

fn server_with(
    data: Arc<SsbData>,
    fault_plan: Option<Arc<FaultPlan>>,
    settings: ExecSettings,
) -> Server {
    Server::new(
        ssb_catalog(),
        data,
        ServerConfig {
            workers: 4,
            threads_per_query: 1,
            queue_capacity: 64,
            settings,
            formats: FormatConfig::with_default(Format::DeltaDynBp),
            fault_plan,
            ..ServerConfig::default()
        },
    )
}

fn server_over(data: Arc<SsbData>, fault_plan: Option<Arc<FaultPlan>>) -> Server {
    server_with(data, fault_plan, ExecSettings::vectorized_compressed())
}

/// Whether `error` is one of the failures the fault plan can legitimately
/// inject (anything else would be an escaped or mangled panic).
fn is_injected(error: &ServerError) -> bool {
    match error {
        ServerError::Execution { message, decode } => match decode {
            Some(DecodeError::CorruptHeader { format, .. }) => *format == "fault-injection",
            Some(_) => false,
            None => message.contains("injected panic"),
        },
        _ => false,
    }
}

#[test]
fn seeded_faults_are_contained_and_counted() {
    let data = Arc::new(dbgen::generate(SCALE, SEED));
    let expected = Arc::new(reference_results(&data));
    let fault_plan = Arc::new(FaultPlan::seeded(SEED, FAULT_RATE_PERCENT));
    let server = Arc::new(server_over(
        Arc::clone(&data),
        Some(Arc::clone(&fault_plan)),
    ));

    // Two tenants submit all 13 SSB queries for several passes, each from
    // its own thread.  Per-tenant submission is sequential and query names
    // are tenant-qualified, so the fault schedule is deterministic no
    // matter how the 4 workers interleave.
    let mut handles = Vec::new();
    for tenant in ["alpha", "beta"] {
        let server = Arc::clone(&server);
        let expected = Arc::clone(&expected);
        handles.push(std::thread::spawn(move || {
            let session = server.session(tenant).unwrap();
            let (mut ok, mut injected) = (0u64, 0u64);
            for pass in 0..PASSES {
                for (query, group_keys, values) in expected.iter() {
                    match session.submit(query.sql()) {
                        Ok(output) => {
                            // Unaffected queries are byte-identical to the
                            // fault-free serial reference — a co-tenant's
                            // fault must never bleed into this result.
                            assert_eq!(
                                &output.group_keys, group_keys,
                                "{tenant}/{query}: keys diverge (pass {pass})"
                            );
                            assert_eq!(
                                &output.values, values,
                                "{tenant}/{query}: values diverge (pass {pass})"
                            );
                            ok += 1;
                        }
                        Err(error) => {
                            assert!(
                                is_injected(&error),
                                "{tenant}/{query}: unexpected failure {error:?}"
                            );
                            injected += 1;
                        }
                    }
                }
            }
            (ok, injected)
        }));
    }
    let mut client_ok = 0u64;
    let mut client_injected = 0u64;
    for handle in handles {
        let (ok, injected) = handle.join().expect("client thread must not panic");
        client_ok += ok;
        client_injected += injected;
    }

    let submitted = (2 * PASSES * SsbQuery::all().len()) as u64;
    assert_eq!(client_ok + client_injected, submitted);
    // The 10% plan actually bit — this run is exercising the fault paths,
    // not silently running clean — while most queries still succeed.
    assert!(client_injected > 0, "no faults fired");
    assert!(client_ok > submitted / 2, "only {client_ok} succeeded");
    assert!(fault_plan.armed_count() >= client_injected);

    // Server-side accounting reconciles with what the clients saw: every
    // admitted query is in exactly one bucket (delays are not failures).
    let stats = server.stats();
    assert_eq!(stats.served, submitted);
    assert_eq!(stats.outcomes.ok, client_ok);
    assert_eq!(stats.outcomes.failed, client_injected);
    assert_eq!(stats.outcomes.total(), submitted);
    assert_eq!(stats.queue_depth, 0);
    for tenant in &stats.tenants {
        assert_eq!(tenant.in_flight, 0, "{tenant:?}");
        assert_eq!(
            tenant.outcomes.total(),
            (PASSES * SsbQuery::all().len()) as u64,
            "{tenant:?}"
        );
    }

    // The metrics registry was fed at the same sites as the outcome
    // buckets, so its counters reconcile exactly — even after a chaos run.
    let metrics = server.metrics();
    assert_eq!(
        metrics.counter_total("morph_queries_total"),
        stats.outcomes.total()
    );
    for tenant in &stats.tenants {
        for (outcome, expected) in [
            ("ok", tenant.outcomes.ok),
            ("failed", tenant.outcomes.failed),
            ("cancelled", tenant.outcomes.cancelled),
            ("deadline_exceeded", tenant.outcomes.deadline_exceeded),
            ("memory_exceeded", tenant.outcomes.memory_exceeded),
            ("shed", tenant.outcomes.shed),
        ] {
            assert_eq!(
                metrics
                    .counter_value(
                        "morph_queries_total",
                        &[("tenant", tenant.tenant.as_str()), ("outcome", outcome)],
                    )
                    .unwrap_or(0),
                expected,
                "{}/{outcome} diverges from OutcomeCounts",
                tenant.tenant
            );
        }
    }
    let text = server.metrics_text();
    assert!(
        text.contains(&format!("morph_latency_ns_count {submitted}")),
        "latency histogram count != served: {text}"
    );
}

#[test]
fn determinism_of_the_seeded_schedule_across_runs() {
    // The same seed over the same submission order arms the same number of
    // faults and yields the same per-client outcome counts, run after run.
    let data = Arc::new(dbgen::generate(SCALE, SEED));
    let mut signatures = Vec::new();
    for _ in 0..2 {
        let fault_plan = Arc::new(FaultPlan::seeded(SEED, FAULT_RATE_PERCENT));
        let server = server_over(Arc::clone(&data), Some(Arc::clone(&fault_plan)));
        let session = server.session("alpha").unwrap();
        let mut outcomes = Vec::new();
        for _ in 0..2 {
            for query in SsbQuery::all() {
                outcomes.push(session.submit(query.sql()).is_ok());
            }
        }
        signatures.push((outcomes, fault_plan.armed_count()));
    }
    assert_eq!(signatures[0], signatures[1]);
}

#[test]
fn fusion_does_not_change_the_fault_schedule_or_the_results() {
    // Faults are armed per *query occurrence* — a pure hash of
    // (seed, tenant-qualified name, occurrence) decided before execution —
    // so enabling operator fusion must not move a single fault: the same
    // outcome sequence and the same armed count as the unfused run, and
    // every successful query stays byte-identical to the fault-free
    // reference even when its plan executes as fused pipelines under
    // injected chunk-checkpoint faults.
    let data = Arc::new(dbgen::generate(SCALE, SEED));
    let expected = reference_results(&data);
    let mut signatures = Vec::new();
    for fused in [false, true] {
        let settings = if fused {
            ExecSettings::vectorized_compressed().with_fusion()
        } else {
            ExecSettings::vectorized_compressed()
        };
        let fault_plan = Arc::new(FaultPlan::seeded(SEED, FAULT_RATE_PERCENT));
        let server = server_with(Arc::clone(&data), Some(Arc::clone(&fault_plan)), settings);
        let session = server.session("alpha").unwrap();
        let mut outcomes = Vec::new();
        for pass in 0..PASSES {
            for (query, group_keys, values) in expected.iter() {
                match session.submit(query.sql()) {
                    Ok(output) => {
                        assert_eq!(
                            &output.group_keys, group_keys,
                            "fused={fused} {query}: keys diverge (pass {pass})"
                        );
                        assert_eq!(
                            &output.values, values,
                            "fused={fused} {query}: values diverge (pass {pass})"
                        );
                        outcomes.push(true);
                    }
                    Err(error) => {
                        assert!(
                            is_injected(&error),
                            "fused={fused} {query}: unexpected failure {error:?}"
                        );
                        outcomes.push(false);
                    }
                }
            }
        }
        assert!(
            outcomes.iter().any(|ok| !ok),
            "fused={fused}: no faults fired"
        );
        signatures.push((outcomes, fault_plan.armed_count()));
    }
    assert_eq!(
        signatures[0], signatures[1],
        "fusion changed the seeded fault schedule"
    );
}

#[test]
fn cancel_mid_delay_returns_within_latency_bound() {
    let data = Arc::new(dbgen::generate(SCALE, SEED));
    // Pin a long (sliced) delay onto one query so it is reliably executing
    // when the client cancels.
    let query = SsbQuery::all()[0];
    let fault_plan = Arc::new(FaultPlan::targeted());
    fault_plan.inject(
        &format!("alpha:{}", query.sql()),
        FaultSite::Chunk,
        2,
        FaultKind::Delay(Duration::from_secs(2)),
    );
    let server = server_over(Arc::clone(&data), Some(fault_plan));
    let session = server.session("alpha").unwrap();
    let pending = session.enqueue(query.sql()).unwrap();
    // Let the worker pick it up and enter the injected delay.
    std::thread::sleep(Duration::from_millis(50));
    pending.cancel();
    let triggered = Instant::now();
    let result = pending.wait();
    let latency = triggered.elapsed();
    assert_eq!(result, Err(ServerError::Cancelled));
    assert!(
        latency < Duration::from_millis(50),
        "cancel took {latency:?} to surface"
    );
    assert_eq!(server.stats().outcomes.cancelled, 1);
}

#[test]
fn deadline_mid_delay_returns_within_latency_bound() {
    let data = Arc::new(dbgen::generate(SCALE, SEED));
    let query = SsbQuery::all()[0];
    let deadline = Duration::from_millis(60);
    let fault_plan = Arc::new(FaultPlan::targeted());
    fault_plan.inject(
        &format!("strict:{}", query.sql()),
        FaultSite::Chunk,
        2,
        FaultKind::Delay(Duration::from_secs(2)),
    );
    let server = server_over(Arc::clone(&data), Some(fault_plan));
    let session = server
        .session_with_limits(
            "strict",
            TenantLimits {
                deadline: Some(deadline),
                ..TenantLimits::default()
            },
        )
        .unwrap();
    let enqueued = Instant::now();
    let result = session.submit(query.sql());
    let elapsed = enqueued.elapsed();
    match result {
        Err(ServerError::DeadlineExceeded {
            deadline: reported, ..
        }) => assert_eq!(reported, deadline),
        other => panic!("unexpected {other:?}"),
    }
    // The deadline fired at most one delay slice plus scheduling slack
    // past its expiry, well inside the 50 ms responsiveness bound.
    assert!(
        elapsed < deadline + Duration::from_millis(50),
        "deadline surfaced {elapsed:?} after admission (deadline {deadline:?})"
    );
    assert_eq!(server.stats().outcomes.deadline_exceeded, 1);
}
