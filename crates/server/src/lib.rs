//! # morph-server
//!
//! A concurrent, multi-tenant query server over the MorphStore engine: SQL
//! in, decompressed result columns out.
//!
//! ## Model
//!
//! A [`Server`] owns a worker pool and a shared, immutable column store
//! (any [`ColumnSource`]).  Clients open a [`Session`] for a named
//! *tenant* and call [`Session::submit`] from as many threads as they
//! like; submissions are multiplexed onto the workers through per-tenant
//! bounded admission queues:
//!
//! * **Admission** — each tenant has its own FIFO queue of at most
//!   [`ServerConfig::queue_capacity`] waiting queries.  A full queue
//!   rejects immediately with [`ServerError::QueueFull`] (structured
//!   back-pressure, never a panic or a silent drop).
//! * **Fairness** — workers pick the next query round-robin across
//!   tenants, so a tenant flooding its queue cannot starve the others:
//!   with k active tenants each gets ~1/k of the workers' attention.
//! * **Isolation** — every tenant gets a private [`QueryCache`] shard
//!   carved out of [`ServerConfig::cache_budget_bytes`] (budget divided
//!   evenly across [`ServerConfig::max_tenants`]).  Shards are separate
//!   cache instances: one tenant's queries can never hit — or evict —
//!   another tenant's entries, structurally.
//! * **Failure containment** — compilation failures are returned as
//!   structured [`ServerError`]s with positions and did-you-mean
//!   suggestions; engine panics during execution are caught at the worker
//!   boundary and returned as [`ServerError::Execution`].
//! * **Observability** — a process-wide [`MetricsRegistry`] counts every
//!   admission outcome at the same sites as [`OutcomeCounts`] (so the two
//!   reconcile exactly) and observes queue-wait, execution and end-to-end
//!   latency histograms, rendered as Prometheus text by
//!   [`Server::metrics_text`].  Queries prefixed `EXPLAIN ANALYZE` execute
//!   under a tracer and carry their per-node profile in
//!   [`QueryResponse::profile`]; with
//!   [`ServerConfig::slow_query_threshold`] set, every query is traced and
//!   those whose service time crosses the threshold land in a bounded
//!   slow-query log ([`Server::slow_queries`]) with the profile attached.
//!
//! Results are *deterministic*: the same SQL over the same data returns
//! byte-identical [`PlanOutput`]s regardless of worker count, concurrency
//! or cache state (the `server_determinism` test drives 1/2/4/8-client
//! sessions against serial, uncompressed `SsbQuery::execute`).
#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod error;
mod stats;

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use morph_cache::{CacheConfig, QueryCache};
use morph_sql::{Catalog, CompiledQuery};
use morphstore_engine::exec::FormatConfig;
use morphstore_engine::plan::{ColumnSource, PlanOutput};
use morphstore_engine::{ExecSettings, ExecutionContext, Histogram, QueryGovernor, QueryTracer};

pub use error::ServerError;
pub use morphstore_engine::MetricsRegistry;
pub use stats::{OutcomeCounts, ServerStats, TenantStats};

/// Per-tenant query-lifecycle limits, applied to every query the tenant
/// submits (the governance contract of the server: every limit surfaces as
/// a structured [`ServerError`], never a panic or a hung worker).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantLimits {
    /// Wall-clock deadline per query, measured from admission — queue wait
    /// counts against it, which is what makes load shedding sound.
    pub deadline: Option<Duration>,
    /// Per-query memory budget in bytes (materialised intermediates plus
    /// peak transient carry).
    pub memory_budget_bytes: Option<usize>,
    /// Maximum queries this tenant may have admitted (queued or executing)
    /// at once.
    pub max_in_flight: Option<usize>,
}

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing queries (0 accepts submissions but never
    /// completes them — useful only for tests).
    pub workers: usize,
    /// Intra-query parallelism: worker threads each query's plan executor
    /// uses (1 = serial execution per query).
    pub threads_per_query: usize,
    /// Maximum queued (admitted but not yet executing) queries per tenant.
    pub queue_capacity: usize,
    /// Total cache budget in bytes, divided evenly into per-tenant shards.
    pub cache_budget_bytes: usize,
    /// Maximum number of distinct tenants; the budget division uses this
    /// as the denominator, so it is fixed up front.
    pub max_tenants: usize,
    /// Admission thresholds applied to every tenant's cache shard.
    pub cache_admission: CacheConfig,
    /// Engine settings queries execute under (any cache handle in here is
    /// replaced by the tenant's shard).
    pub settings: ExecSettings,
    /// Per-column format assignment for intermediates.
    pub formats: FormatConfig,
    /// Lifecycle limits applied to tenants that do not override them via
    /// [`Server::session_with_limits`].
    pub default_limits: TenantLimits,
    /// When set, every query executes under a tracer and queries whose
    /// worker service time reaches the threshold are recorded — with their
    /// per-node profile — in the slow-query log ([`Server::slow_queries`]).
    pub slow_query_threshold: Option<Duration>,
    /// Deterministic fault schedule consulted once per admitted query
    /// (fault-injection harness; test builds only).  Queries are named
    /// `"<tenant>:<sql>"`, so co-tenant schedules are independent.
    #[cfg(feature = "faults")]
    pub fault_plan: Option<Arc<morphstore_engine::faults::FaultPlan>>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 2,
            threads_per_query: 1,
            queue_capacity: 64,
            cache_budget_bytes: 64 << 20,
            max_tenants: 8,
            cache_admission: CacheConfig::default(),
            settings: ExecSettings::vectorized_compressed(),
            formats: FormatConfig::default(),
            default_limits: TenantLimits::default(),
            slow_query_threshold: None,
            #[cfg(feature = "faults")]
            fault_plan: None,
        }
    }
}

/// A query result with its observability side-channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryResponse {
    /// The decompressed result columns.
    pub output: PlanOutput,
    /// The rendered per-node profile, present when the query was submitted
    /// as `EXPLAIN ANALYZE SELECT ...`.
    pub profile: Option<String>,
}

/// One entry of the slow-query log ([`Server::slow_queries`]).
#[derive(Debug, Clone)]
pub struct SlowQuery {
    /// The tenant that submitted the query.
    pub tenant: String,
    /// The SQL text as submitted.
    pub sql: String,
    /// Worker service time (execution only, excluding queue wait).
    pub service: Duration,
    /// End-to-end latency (enqueue → reply).
    pub latency: Duration,
    /// The per-node EXPLAIN ANALYZE profile captured for the run, when the
    /// query executed far enough to produce a trace.
    pub profile: Option<String>,
}

/// Entries kept in the slow-query log before the oldest is dropped.
const SLOW_QUERY_LOG_CAPACITY: usize = 64;

/// One queued query.
struct Job {
    tenant: usize,
    sql: String,
    enqueued_at: Instant,
    reply: Arc<ReplySlot>,
    governor: Arc<QueryGovernor>,
}

/// The rendezvous a [`PendingQuery`] waits on.
struct ReplySlot {
    result: Mutex<Option<Result<QueryResponse, ServerError>>>,
    ready: Condvar,
}

impl ReplySlot {
    fn new() -> Arc<ReplySlot> {
        Arc::new(ReplySlot {
            result: Mutex::new(None),
            ready: Condvar::new(),
        })
    }

    /// First write wins: a cancellation racing the worker (or shutdown)
    /// cannot overwrite an already-delivered result.
    fn fill(&self, result: Result<QueryResponse, ServerError>) {
        let mut slot = self.result.lock().unwrap();
        if slot.is_none() {
            *slot = Some(result);
            self.ready.notify_all();
        }
    }

    fn wait(&self) -> Result<QueryResponse, ServerError> {
        let mut slot = self.result.lock().unwrap();
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self.ready.wait(slot).unwrap();
        }
    }
}

/// Per-tenant server-side state.
struct TenantState {
    name: String,
    cache: Arc<QueryCache>,
    queue: VecDeque<Job>,
    limits: TenantLimits,
    /// Admitted queries not yet replied to (queued or executing).
    in_flight: usize,
    served: u64,
    rejected: u64,
    outcomes: OutcomeCounts,
}

/// State behind the scheduler lock.
struct Inner {
    tenants: Vec<TenantState>,
    /// Round-robin position: the tenant index to try first.
    cursor: usize,
    shutdown: bool,
    /// End-to-end latency histogram (enqueue → reply), shared with the
    /// metrics registry — `stats()` and `metrics_text()` read one source.
    latency: Arc<Histogram>,
    /// Most recent queries over the slow-query threshold, oldest first.
    slow_queries: VecDeque<SlowQuery>,
    /// Running sum/count of worker service times, for the admission-time
    /// queue-wait estimate behind load shedding and `retry_after` hints.
    service_total_ns: u64,
    service_samples: u64,
}

impl Inner {
    /// Mean worker service time observed so far, `None` until a query has
    /// completed (no shedding before the server has evidence).
    fn avg_service(&self) -> Option<Duration> {
        (self.service_samples > 0)
            .then(|| Duration::from_nanos(self.service_total_ns / self.service_samples))
    }

    /// Estimated wait before a query admitted now starts executing:
    /// today's total backlog drained by `workers` at the observed mean
    /// service time.
    fn estimated_queue_wait(&self, workers: usize) -> Option<Duration> {
        let queued: usize = self.tenants.iter().map(|t| t.queue.len()).sum();
        let queued = u32::try_from(queued).unwrap_or(u32::MAX);
        let avg = self.avg_service()?;
        (workers > 0).then(|| avg.saturating_mul(queued) / workers as u32)
    }
}

/// Pick the tenant to serve next: the first tenant with a non-empty queue
/// at or after `cursor`, wrapping around.  Pure so fairness is unit-testable.
fn next_tenant(queue_lens: &[usize], cursor: usize) -> Option<usize> {
    let n = queue_lens.len();
    (0..n)
        .map(|offset| (cursor + offset) % n)
        .find(|&index| queue_lens[index] > 0)
}

struct Shared {
    inner: Mutex<Inner>,
    work: Condvar,
    catalog: Catalog,
    source: Arc<dyn ColumnSource + Send + Sync>,
    config: ServerConfig,
    metrics: MetricsRegistry,
}

/// Counter of admitted-query outcomes; mirrors [`OutcomeCounts`] exactly.
const QUERIES_TOTAL: &str = "morph_queries_total";
/// Counter of admission rejections (queue full, in-flight limit, shed).
const REJECTED_TOTAL: &str = "morph_rejected_total";

/// The metrics `outcome` label a finished query's result maps to — one
/// value per [`OutcomeCounts`] bucket a worker can produce.
fn outcome_label(result: &Result<QueryResponse, ServerError>) -> &'static str {
    match result {
        Ok(_) => "ok",
        Err(ServerError::Cancelled) => "cancelled",
        Err(ServerError::DeadlineExceeded { .. }) => "deadline_exceeded",
        Err(ServerError::MemoryExceeded { .. }) => "memory_exceeded",
        Err(_) => "failed",
    }
}

/// What [`Shared::run_job`] hands back to the worker loop: the client
/// reply plus the observability side-channel of the run.
struct JobRun {
    result: Result<QueryResponse, ServerError>,
    /// Rendered per-node profile, whenever a tracer captured a trace
    /// (`EXPLAIN ANALYZE` queries and slow-query-log candidates).
    profile: Option<String>,
    /// Plan nodes completed from the tenant's cache shard.
    cache_hits: u64,
    /// Intermediate bytes never materialised thanks to operator fusion.
    bytes_avoided: u64,
}

impl Shared {
    fn take_job(&self) -> Option<Job> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if inner.shutdown {
                return None;
            }
            let lens: Vec<usize> = inner.tenants.iter().map(|t| t.queue.len()).collect();
            if let Some(index) = next_tenant(&lens, inner.cursor) {
                inner.cursor = (index + 1) % inner.tenants.len();
                let job = inner.tenants[index].queue.pop_front().expect("non-empty");
                return Some(job);
            }
            inner = self.work.wait(inner).unwrap();
        }
    }

    fn run_job(&self, job: &Job) -> JobRun {
        let cache = {
            let inner = self.inner.lock().unwrap();
            Arc::clone(&inner.tenants[job.tenant].cache)
        };
        let compiled: CompiledQuery = match morph_sql::compile(&job.sql, &self.catalog) {
            Ok(compiled) => compiled,
            Err(error) => {
                return JobRun {
                    result: Err(error.into()),
                    profile: None,
                    cache_hits: 0,
                    bytes_avoided: 0,
                }
            }
        };
        let mut settings = self
            .config
            .settings
            .clone()
            .with_cache(cache)
            .with_governor(Arc::clone(&job.governor));
        // EXPLAIN ANALYZE always traces; a configured slow-query threshold
        // traces every query so the log can attach a profile after the fact.
        let explain = compiled.is_explain_analyze();
        let tracer = (explain || self.config.slow_query_threshold.is_some())
            .then(|| Arc::new(QueryTracer::new()));
        if let Some(tracer) = &tracer {
            settings = settings.with_tracer(Arc::clone(tracer));
        }
        let formats = self.config.formats.clone();
        let source = Arc::clone(&self.source);
        let threads = self.config.threads_per_query;
        // Two containment layers: `try_execute*` converts governance trips
        // and decode failures into structured `ExecError`s, and the outer
        // `catch_unwind` contains any *other* engine panic (a genuine bug,
        // or an injected one) so the worker survives either way.
        let run = catch_unwind(AssertUnwindSafe(|| {
            let mut ctx = ExecutionContext::new(settings, formats);
            let result = if threads > 1 {
                compiled.try_execute_parallel(source.as_ref(), &mut ctx, threads)
            } else {
                compiled.try_execute(source.as_ref(), &mut ctx)
            };
            (
                result,
                ctx.cache_hit_count() as u64,
                ctx.intermediate_bytes_avoided(),
            )
        }));
        let (result, cache_hits, bytes_avoided) = match run {
            Ok((result, hits, avoided)) => (result.map_err(ServerError::from), hits, avoided),
            Err(panic) => (Err(error::execution_error(panic)), 0, 0),
        };
        let profile = tracer
            .and_then(|tracer| tracer.last_trace())
            .map(|trace| compiled.plan().explain_analyze(&trace));
        let result = result.map(|output| QueryResponse {
            output,
            profile: if explain { profile.clone() } else { None },
        });
        JobRun {
            result,
            profile,
            cache_hits,
            bytes_avoided,
        }
    }

    /// Count one query outcome for `tenant` — the metrics mirror of the
    /// [`OutcomeCounts`] bucket the caller just incremented, so
    /// `metrics_text()` reconciles exactly with `stats()`.
    fn count_outcome(&self, tenant: &str, outcome: &str) {
        self.metrics
            .counter(
                QUERIES_TOTAL,
                "Admitted queries by final outcome (reconciles with OutcomeCounts)",
                &[("tenant", tenant), ("outcome", outcome)],
            )
            .inc();
    }

    /// Count one admission rejection for `tenant`.
    fn count_rejected(&self, tenant: &str) {
        self.metrics
            .counter(
                REJECTED_TOTAL,
                "Admission rejections (queue full, in-flight limit, load shed)",
                &[("tenant", tenant)],
            )
            .inc();
    }

    fn worker_loop(&self) {
        while let Some(job) = self.take_job() {
            let started = Instant::now();
            let queue_wait = started.duration_since(job.enqueued_at);
            let run = self.run_job(&job);
            let service = started.elapsed();
            let latency = job.enqueued_at.elapsed();
            let outcome = outcome_label(&run.result);
            let tenant_name = {
                let mut inner = self.inner.lock().unwrap();
                inner.latency.observe(latency.as_nanos() as u64);
                inner.service_total_ns += service.as_nanos() as u64;
                inner.service_samples += 1;
                let tenant = &mut inner.tenants[job.tenant];
                tenant.served += 1;
                tenant.in_flight = tenant.in_flight.saturating_sub(1);
                match outcome {
                    "ok" => tenant.outcomes.ok += 1,
                    "cancelled" => tenant.outcomes.cancelled += 1,
                    "deadline_exceeded" => tenant.outcomes.deadline_exceeded += 1,
                    "memory_exceeded" => tenant.outcomes.memory_exceeded += 1,
                    _ => tenant.outcomes.failed += 1,
                }
                let name = tenant.name.clone();
                if let Some(threshold) = self.config.slow_query_threshold {
                    if service >= threshold {
                        if inner.slow_queries.len() == SLOW_QUERY_LOG_CAPACITY {
                            inner.slow_queries.pop_front();
                        }
                        inner.slow_queries.push_back(SlowQuery {
                            tenant: name.clone(),
                            sql: job.sql.clone(),
                            service,
                            latency,
                            profile: run.profile.clone(),
                        });
                    }
                }
                name
            };
            self.count_outcome(&tenant_name, outcome);
            let labels = [("tenant", tenant_name.as_str())];
            self.metrics
                .histogram(
                    "morph_queue_wait_ns",
                    "Admission-to-start wait per query",
                    &labels,
                )
                .observe(queue_wait.as_nanos() as u64);
            self.metrics
                .histogram(
                    "morph_execution_ns",
                    "Worker service time per query",
                    &labels,
                )
                .observe(service.as_nanos() as u64);
            if run.cache_hits > 0 {
                self.metrics
                    .counter(
                        "morph_cache_hit_nodes_total",
                        "Plan nodes completed from the tenant's cache shard",
                        &labels,
                    )
                    .add(run.cache_hits);
            }
            if run.bytes_avoided > 0 {
                self.metrics
                    .counter(
                        "morph_intermediate_bytes_avoided_total",
                        "Intermediate bytes never materialised thanks to operator fusion",
                        &labels,
                    )
                    .add(run.bytes_avoided);
            }
            job.reply.fill(run.result);
        }
    }
}

/// A multi-tenant SQL query server over a shared column store.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Start a server over `source`, resolving queries against `catalog`,
    /// with `config.workers` worker threads.
    pub fn new(
        catalog: Catalog,
        source: Arc<dyn ColumnSource + Send + Sync>,
        config: ServerConfig,
    ) -> Server {
        let metrics = MetricsRegistry::new();
        let latency = metrics.histogram(
            "morph_latency_ns",
            "End-to-end query latency (enqueue to reply)",
            &[],
        );
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                tenants: Vec::new(),
                cursor: 0,
                shutdown: false,
                latency,
                slow_queries: VecDeque::new(),
                service_total_ns: 0,
                service_samples: 0,
            }),
            work: Condvar::new(),
            catalog,
            source,
            config: config.clone(),
            metrics,
        });
        let workers = (0..config.workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("morph-server-worker-{index}"))
                    .spawn(move || shared.worker_loop())
                    .expect("spawn worker")
            })
            .collect();
        Server { shared, workers }
    }

    /// Open a session for `tenant`, registering the tenant (and carving out
    /// its cache shard) on first use.
    ///
    /// Returns [`ServerError::TenantLimit`] if the tenant is new and the
    /// server already serves [`ServerConfig::max_tenants`] tenants, and
    /// [`ServerError::Shutdown`] after [`Server::shutdown`].
    pub fn session(&self, tenant: &str) -> Result<Session, ServerError> {
        self.open_session(tenant, None)
    }

    /// Like [`Server::session`], but install `limits` as the tenant's
    /// lifecycle limits (replacing the config default, and any limits a
    /// previous session installed).
    pub fn session_with_limits(
        &self,
        tenant: &str,
        limits: TenantLimits,
    ) -> Result<Session, ServerError> {
        self.open_session(tenant, Some(limits))
    }

    fn open_session(
        &self,
        tenant: &str,
        limits: Option<TenantLimits>,
    ) -> Result<Session, ServerError> {
        let config = &self.shared.config;
        let mut inner = self.shared.inner.lock().unwrap();
        if inner.shutdown {
            return Err(ServerError::Shutdown);
        }
        let index = match inner.tenants.iter().position(|t| t.name == tenant) {
            Some(index) => index,
            None => {
                if inner.tenants.len() >= config.max_tenants {
                    return Err(ServerError::TenantLimit {
                        max_tenants: config.max_tenants,
                    });
                }
                let shard_budget = config.cache_budget_bytes / config.max_tenants.max(1);
                inner.tenants.push(TenantState {
                    name: tenant.to_string(),
                    cache: Arc::new(QueryCache::with_config(
                        shard_budget,
                        config.cache_admission,
                    )),
                    queue: VecDeque::new(),
                    limits: config.default_limits.clone(),
                    in_flight: 0,
                    served: 0,
                    rejected: 0,
                    outcomes: OutcomeCounts::default(),
                });
                inner.tenants.len() - 1
            }
        };
        if let Some(limits) = limits {
            inner.tenants[index].limits = limits;
        }
        Ok(Session {
            shared: Arc::clone(&self.shared),
            tenant: index,
            tenant_name: tenant.to_string(),
            submitted: Arc::new(AtomicU64::new(0)),
            completed: Arc::new(AtomicU64::new(0)),
        })
    }

    /// Server-wide statistics (queries served, rejections, queue depth and
    /// end-to-end latency percentiles) with a per-tenant breakdown.
    pub fn stats(&self) -> ServerStats {
        let inner = self.shared.inner.lock().unwrap();
        let tenants: Vec<TenantStats> = inner
            .tenants
            .iter()
            .map(|t| TenantStats {
                tenant: t.name.clone(),
                served: t.served,
                rejected: t.rejected,
                queue_depth: t.queue.len(),
                in_flight: t.in_flight,
                outcomes: t.outcomes,
                cache: t.cache.stats(),
            })
            .collect();
        let mut outcomes = OutcomeCounts::default();
        for tenant in &tenants {
            outcomes.add(&tenant.outcomes);
        }
        ServerStats {
            served: tenants.iter().map(|t| t.served).sum(),
            rejected: tenants.iter().map(|t| t.rejected).sum(),
            queue_depth: tenants.iter().map(|t| t.queue_depth).sum(),
            outcomes,
            p50_latency_ns: inner.latency.value_at_quantile(0.50),
            p95_latency_ns: inner.latency.value_at_quantile(0.95),
            p99_latency_ns: inner.latency.value_at_quantile(0.99),
            max_latency_ns: inner.latency.max(),
            tenants,
        }
    }

    /// Render the server's metrics in the Prometheus text exposition
    /// format.
    ///
    /// Counters (`morph_queries_total`, `morph_rejected_total`, cache and
    /// fusion byte counters) are incremented at the same sites as the
    /// [`OutcomeCounts`] they mirror, so the rendered totals reconcile
    /// exactly with [`Server::stats`].  Point-in-time gauges (queue depth,
    /// in-flight queries, cache shard state) are refreshed on every call.
    pub fn metrics_text(&self) -> String {
        let metrics = &self.shared.metrics;
        {
            let inner = self.shared.inner.lock().unwrap();
            metrics
                .gauge("morph_tenants", "Registered tenants", &[])
                .set(inner.tenants.len() as u64);
            for tenant in &inner.tenants {
                let labels = [("tenant", tenant.name.as_str())];
                metrics
                    .gauge(
                        "morph_queue_depth",
                        "Queries waiting in the tenant's admission queue",
                        &labels,
                    )
                    .set(tenant.queue.len() as u64);
                metrics
                    .gauge(
                        "morph_in_flight",
                        "Queries admitted (queued or executing)",
                        &labels,
                    )
                    .set(tenant.in_flight as u64);
                let cache = tenant.cache.stats();
                metrics
                    .gauge("morph_cache_hits", "Cache shard lookups that hit", &labels)
                    .set(cache.hits);
                metrics
                    .gauge(
                        "morph_cache_misses",
                        "Cache shard lookups that missed",
                        &labels,
                    )
                    .set(cache.misses);
                metrics
                    .gauge(
                        "morph_cache_bytes_used",
                        "Physical bytes held by the cache shard",
                        &labels,
                    )
                    .set(cache.bytes_used as u64);
            }
        }
        metrics.render()
    }

    /// Direct access to the server's metrics registry, for embedding extra
    /// metrics or reconciling counters in tests.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.shared.metrics
    }

    /// The slow-query log: the most recent queries whose worker service
    /// time reached [`ServerConfig::slow_query_threshold`] (always empty
    /// when unset), oldest first, each with its per-node profile.  Bounded
    /// at 64 entries.
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        let inner = self.shared.inner.lock().unwrap();
        inner.slow_queries.iter().cloned().collect()
    }

    /// Stop accepting work, fail every queued query with
    /// [`ServerError::Shutdown`], and join the workers.  Idempotent; also
    /// runs on drop.
    pub fn shutdown(&mut self) {
        {
            let mut inner = self.shared.inner.lock().unwrap();
            inner.shutdown = true;
            let mut pending: Vec<Job> = Vec::new();
            for tenant in inner.tenants.iter_mut() {
                let drained: Vec<Job> = tenant.queue.drain(..).collect();
                tenant.in_flight = tenant.in_flight.saturating_sub(drained.len());
                pending.extend(drained);
            }
            drop(inner);
            for job in pending {
                job.reply.fill(Err(ServerError::Shutdown));
            }
        }
        self.shared.work.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A client handle bound to one tenant.  Cheap to clone; safe to share
/// across client threads (submissions from any number of threads are
/// multiplexed onto the server's workers).
#[derive(Clone)]
pub struct Session {
    shared: Arc<Shared>,
    tenant: usize,
    tenant_name: String,
    submitted: Arc<AtomicU64>,
    completed: Arc<AtomicU64>,
}

/// An admitted query waiting for its result.
pub struct PendingQuery {
    shared: Arc<Shared>,
    tenant: usize,
    reply: Arc<ReplySlot>,
    governor: Arc<QueryGovernor>,
    completed: Arc<AtomicU64>,
}

impl std::fmt::Debug for PendingQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PendingQuery").finish_non_exhaustive()
    }
}

impl PendingQuery {
    /// Block until the query finishes and return its result columns.
    pub fn wait(self) -> Result<PlanOutput, ServerError> {
        self.wait_response().map(|response| response.output)
    }

    /// Block until the query finishes and return the full response —
    /// including the per-node profile when the query was submitted as
    /// `EXPLAIN ANALYZE SELECT ...`.
    pub fn wait_response(self) -> Result<QueryResponse, ServerError> {
        let result = self.reply.wait();
        self.completed.fetch_add(1, Ordering::Relaxed);
        result
    }

    /// Cancel the query.  A still-queued query is removed and replied to
    /// with [`ServerError::Cancelled`] immediately; an executing query's
    /// governor token is flipped, and the worker unwinds cooperatively at
    /// its next chunk or node checkpoint.  A query that already completed
    /// is unaffected.  Idempotent; [`PendingQuery::wait`] never hangs.
    pub fn cancel(&self) {
        self.governor.cancel();
        let removed = {
            let mut inner = self.shared.inner.lock().unwrap();
            let tenant = &mut inner.tenants[self.tenant];
            match tenant
                .queue
                .iter()
                .position(|job| Arc::ptr_eq(&job.reply, &self.reply))
            {
                Some(position) => {
                    tenant.queue.remove(position);
                    tenant.in_flight = tenant.in_flight.saturating_sub(1);
                    tenant.outcomes.cancelled += 1;
                    Some(tenant.name.clone())
                }
                None => None,
            }
        };
        if let Some(tenant) = removed {
            self.shared.count_outcome(&tenant, "cancelled");
            self.reply.fill(Err(ServerError::Cancelled));
        }
    }
}

/// Per-session counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionStats {
    /// Queries this session successfully enqueued.
    pub submitted: u64,
    /// Queries this session has collected results for.
    pub completed: u64,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("tenant", &self.tenant_name)
            .finish_non_exhaustive()
    }
}

impl Session {
    /// The tenant this session belongs to.
    pub fn tenant(&self) -> &str {
        &self.tenant_name
    }

    /// Enqueue `sql` without waiting.  Fails fast with
    /// [`ServerError::QueueFull`] when the tenant's queue is at capacity
    /// — or when the estimated queue wait already exceeds the tenant's
    /// deadline (load shedding; both carry a `retry_after` hint) —
    /// [`ServerError::InFlightLimit`] at the tenant's in-flight maximum,
    /// and [`ServerError::Shutdown`] when the server is stopping.
    pub fn enqueue(&self, sql: &str) -> Result<PendingQuery, ServerError> {
        let (reply, governor) = {
            let mut inner = self.shared.inner.lock().unwrap();
            if inner.shutdown {
                return Err(ServerError::Shutdown);
            }
            let capacity = self.shared.config.queue_capacity;
            let workers = self.shared.config.workers;
            let estimated_wait = inner.estimated_queue_wait(workers);
            let tenant = &mut inner.tenants[self.tenant];
            if let Some(max_in_flight) = tenant.limits.max_in_flight {
                if tenant.in_flight >= max_in_flight {
                    tenant.rejected += 1;
                    self.shared.count_rejected(&tenant.name);
                    return Err(ServerError::InFlightLimit {
                        tenant: tenant.name.clone(),
                        max_in_flight,
                    });
                }
            }
            if tenant.queue.len() >= capacity {
                tenant.rejected += 1;
                self.shared.count_rejected(&tenant.name);
                return Err(ServerError::QueueFull {
                    tenant: tenant.name.clone(),
                    capacity,
                    retry_after: estimated_wait,
                });
            }
            // Deadline-aware load shedding: when the backlog alone is
            // estimated to outlast the query's deadline, admitting it
            // would only burn a worker slot on a query doomed to time
            // out — reject now, hinting when the backlog should have
            // drained below the deadline.
            if let (Some(deadline), Some(wait)) = (tenant.limits.deadline, estimated_wait) {
                if wait > deadline {
                    tenant.rejected += 1;
                    tenant.outcomes.shed += 1;
                    self.shared.count_rejected(&tenant.name);
                    self.shared.count_outcome(&tenant.name, "shed");
                    return Err(ServerError::QueueFull {
                        tenant: tenant.name.clone(),
                        capacity,
                        retry_after: Some(wait - deadline),
                    });
                }
            }
            let mut governor = QueryGovernor::new();
            if let Some(deadline) = tenant.limits.deadline {
                governor = governor.with_deadline(deadline);
            }
            if let Some(budget) = tenant.limits.memory_budget_bytes {
                governor = governor.with_memory_budget(budget);
            }
            #[cfg(feature = "faults")]
            if let Some(plan) = &self.shared.config.fault_plan {
                governor = governor.with_fault(plan.arm(&format!("{}:{sql}", tenant.name)));
            }
            let governor = Arc::new(governor);
            let reply = ReplySlot::new();
            tenant.in_flight += 1;
            tenant.queue.push_back(Job {
                tenant: self.tenant,
                sql: sql.to_string(),
                enqueued_at: Instant::now(),
                reply: Arc::clone(&reply),
                governor: Arc::clone(&governor),
            });
            (reply, governor)
        };
        self.shared.work.notify_one();
        self.submitted.fetch_add(1, Ordering::Relaxed);
        Ok(PendingQuery {
            shared: Arc::clone(&self.shared),
            tenant: self.tenant,
            reply,
            governor,
            completed: Arc::clone(&self.completed),
        })
    }

    /// Submit `sql` and block until its result: enqueue, wait, return the
    /// decompressed output columns.
    pub fn submit(&self, sql: &str) -> Result<PlanOutput, ServerError> {
        self.enqueue(sql)?.wait()
    }

    /// Submit `sql` and block until the full [`QueryResponse`] — like
    /// [`Session::submit`], but carrying the per-node profile when the
    /// query was prefixed `EXPLAIN ANALYZE`.
    pub fn submit_full(&self, sql: &str) -> Result<QueryResponse, ServerError> {
        self.enqueue(sql)?.wait_response()
    }

    /// This session's submission counters.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morph_sql::TableDef;
    use morph_storage::Column;
    use std::collections::HashMap;

    fn catalog() -> Catalog {
        Catalog::new().with_table(
            TableDef::new("t")
                .with_column("x")
                .with_column("y")
                .with_column("ghost"),
        )
    }

    fn source() -> Arc<dyn ColumnSource + Send + Sync> {
        let mut columns: HashMap<String, Column> = HashMap::new();
        columns.insert("x".to_string(), Column::from_vec(vec![1, 2, 3, 1, 2, 1]));
        columns.insert(
            "y".to_string(),
            Column::from_vec(vec![10, 20, 30, 40, 50, 60]),
        );
        // "ghost" is declared in the catalog but absent from the store, so
        // executing a query over it panics inside the engine — which the
        // server must catch and convert.
        Arc::new(columns)
    }

    fn server(config: ServerConfig) -> Server {
        Server::new(catalog(), source(), config)
    }

    #[test]
    fn round_robin_is_fair_and_live() {
        // Pure scheduler: starts at the cursor, wraps, skips empty queues.
        assert_eq!(next_tenant(&[], 0), None);
        assert_eq!(next_tenant(&[0, 0], 1), None);
        assert_eq!(next_tenant(&[1, 1, 1], 0), Some(0));
        assert_eq!(next_tenant(&[1, 1, 1], 2), Some(2));
        assert_eq!(next_tenant(&[0, 5, 0], 2), Some(1));
        // A tenant with a huge backlog cannot shadow later tenants: after
        // serving tenant 0 the cursor moves past it.
        assert_eq!(next_tenant(&[100, 1], 1), Some(1));
    }

    #[test]
    fn submit_executes_and_returns_rows() {
        let server = server(ServerConfig::default());
        let session = server.session("acme").unwrap();
        let output = session.submit("SELECT SUM(y) FROM t WHERE x = 1").unwrap();
        assert!(output.group_keys.is_empty());
        assert_eq!(output.values, vec![10 + 40 + 60]);
        assert_eq!(session.stats().submitted, 1);
        assert_eq!(session.stats().completed, 1);
    }

    #[test]
    fn compile_errors_are_structured() {
        let server = server(ServerConfig::default());
        let session = server.session("acme").unwrap();
        match session.submit("SELECT SUM(y) FROM tt WHERE x = 1") {
            Err(ServerError::UnknownTable { name, did_you_mean }) => {
                assert_eq!(name, "tt");
                assert_eq!(did_you_mean.as_deref(), Some("t"));
            }
            other => panic!("unexpected {other:?}"),
        }
        match session.submit("SELECT SUM(y FROM t") {
            Err(ServerError::Parse { line, .. }) => assert_eq!(line, 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn execution_panics_become_errors_and_workers_survive() {
        let server = server(ServerConfig::default());
        let session = server.session("acme").unwrap();
        match session.submit("SELECT SUM(ghost) FROM t WHERE x = 1") {
            Err(ServerError::Execution { message, .. }) => {
                assert!(!message.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
        // The worker that caught the panic keeps serving.
        let output = session.submit("SELECT SUM(y) FROM t WHERE x = 2").unwrap();
        assert_eq!(output.values, vec![20 + 50]);
    }

    #[test]
    fn full_queue_rejects_with_queue_full() {
        // No workers: nothing drains the queue.
        let server = server(ServerConfig {
            workers: 0,
            queue_capacity: 2,
            ..ServerConfig::default()
        });
        let session = server.session("acme").unwrap();
        let _a = session.enqueue("SELECT SUM(y) FROM t WHERE x = 1").unwrap();
        let _b = session.enqueue("SELECT SUM(y) FROM t WHERE x = 1").unwrap();
        match session.enqueue("SELECT SUM(y) FROM t WHERE x = 1") {
            Err(ServerError::QueueFull {
                tenant, capacity, ..
            }) => {
                assert_eq!(tenant, "acme");
                assert_eq!(capacity, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(server.stats().rejected, 1);
        assert_eq!(server.stats().queue_depth, 2);
    }

    /// A source whose every column lookup sleeps: the deterministic way to
    /// keep a query in flight while the test acts on the server.
    struct SlowSource {
        inner: HashMap<String, Column>,
        delay: Duration,
    }

    impl ColumnSource for SlowSource {
        fn column(&self, name: &str) -> &Column {
            std::thread::sleep(self.delay);
            self.inner.column(name)
        }
    }

    fn slow_source(delay: Duration) -> Arc<dyn ColumnSource + Send + Sync> {
        let mut columns: HashMap<String, Column> = HashMap::new();
        columns.insert("x".to_string(), Column::from_vec(vec![1, 2, 3, 1, 2, 1]));
        columns.insert(
            "y".to_string(),
            Column::from_vec(vec![10, 20, 30, 40, 50, 60]),
        );
        Arc::new(SlowSource {
            inner: columns,
            delay,
        })
    }

    #[test]
    fn cancel_of_queued_query_replies_immediately() {
        // No workers: the query stays queued until cancelled.
        let server = server(ServerConfig {
            workers: 0,
            ..ServerConfig::default()
        });
        let session = server.session("acme").unwrap();
        let pending = session.enqueue("SELECT SUM(y) FROM t WHERE x = 1").unwrap();
        assert_eq!(server.stats().queue_depth, 1);
        pending.cancel();
        assert_eq!(server.stats().queue_depth, 0);
        // Idempotent, and wait() does not hang.
        pending.cancel();
        assert_eq!(pending.wait(), Err(ServerError::Cancelled));
        let stats = server.stats();
        assert_eq!(stats.outcomes.cancelled, 1);
        assert_eq!(stats.tenants[0].in_flight, 0);
    }

    #[test]
    fn in_flight_limit_is_enforced_per_tenant() {
        let server = server(ServerConfig {
            workers: 0,
            ..ServerConfig::default()
        });
        let limited = server
            .session_with_limits(
                "limited",
                TenantLimits {
                    max_in_flight: Some(1),
                    ..TenantLimits::default()
                },
            )
            .unwrap();
        let other = server.session("other").unwrap();
        let _held = limited.enqueue("SELECT SUM(y) FROM t WHERE x = 1").unwrap();
        match limited.enqueue("SELECT SUM(y) FROM t WHERE x = 1") {
            Err(ServerError::InFlightLimit {
                tenant,
                max_in_flight,
            }) => {
                assert_eq!(tenant, "limited");
                assert_eq!(max_in_flight, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        // The limit is per tenant, not server-wide.
        other.enqueue("SELECT SUM(y) FROM t WHERE x = 1").unwrap();
    }

    #[test]
    fn deadline_and_memory_limits_surface_structurally() {
        let server = server(ServerConfig::default());
        let deadline = server
            .session_with_limits(
                "deadline",
                TenantLimits {
                    deadline: Some(Duration::ZERO),
                    ..TenantLimits::default()
                },
            )
            .unwrap();
        match deadline.submit("SELECT SUM(y) FROM t WHERE x = 1") {
            Err(ServerError::DeadlineExceeded { deadline, .. }) => {
                assert_eq!(deadline, Duration::ZERO);
            }
            other => panic!("unexpected {other:?}"),
        }
        let memory = server
            .session_with_limits(
                "memory",
                TenantLimits {
                    memory_budget_bytes: Some(1),
                    ..TenantLimits::default()
                },
            )
            .unwrap();
        match memory.submit("SELECT SUM(y) FROM t WHERE x = 1") {
            Err(ServerError::MemoryExceeded { budget_bytes, .. }) => {
                assert_eq!(budget_bytes, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        // The workers survived both trips, and an unlimited tenant is
        // unaffected.
        let free = server.session("free").unwrap();
        let output = free.submit("SELECT SUM(y) FROM t WHERE x = 1").unwrap();
        assert_eq!(output.values, vec![110]);
        let stats = server.stats();
        assert_eq!(stats.outcomes.deadline_exceeded, 1);
        assert_eq!(stats.outcomes.memory_exceeded, 1);
        assert_eq!(stats.outcomes.ok, 1);
    }

    #[test]
    fn cancel_of_executing_query_unwinds_cooperatively() {
        let server = Server::new(
            catalog(),
            slow_source(Duration::from_millis(40)),
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
        );
        let session = server.session("acme").unwrap();
        let pending = session.enqueue("SELECT SUM(y) FROM t WHERE x = 1").unwrap();
        // Give the worker time to take the job (the queue drains, but the
        // slow source keeps the query executing).
        let deadline = Instant::now() + Duration::from_secs(2);
        while server.stats().queue_depth > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        pending.cancel();
        let cancelled_at = Instant::now();
        let result = pending.wait();
        let latency = cancelled_at.elapsed();
        assert_eq!(result, Err(ServerError::Cancelled));
        assert!(latency < Duration::from_millis(200), "took {latency:?}");
        // The worker survives and keeps serving.
        let output = session.submit("SELECT SUM(y) FROM t WHERE x = 2").unwrap();
        assert_eq!(output.values, vec![70]);
        assert_eq!(server.stats().outcomes.cancelled, 1);
    }

    #[test]
    fn backlogged_queries_are_shed_against_their_deadline() {
        let server = Server::new(
            catalog(),
            slow_source(Duration::from_millis(50)),
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
        );
        // Hand the estimator its evidence directly: a 200 ms mean service
        // time, so one queued query predicts a 200 ms wait.
        {
            let mut inner = server.shared.inner.lock().unwrap();
            inner.service_total_ns = 200_000_000;
            inner.service_samples = 1;
        }
        let slow = server.session("slow").unwrap();
        let strict = server
            .session_with_limits(
                "strict",
                TenantLimits {
                    deadline: Some(Duration::from_millis(10)),
                    ..TenantLimits::default()
                },
            )
            .unwrap();
        // Occupy the only worker, then build a backlog of one.
        let running = slow.enqueue("SELECT SUM(y) FROM t WHERE x = 1").unwrap();
        let deadline = Instant::now() + Duration::from_secs(2);
        while server.stats().queue_depth > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let queued = slow.enqueue("SELECT SUM(y) FROM t WHERE x = 1").unwrap();
        // 200 ms estimated wait > 10 ms deadline: shed at admission with a
        // drain hint, without ever burning a worker slot.
        match strict.enqueue("SELECT SUM(y) FROM t WHERE x = 1") {
            Err(ServerError::QueueFull {
                tenant,
                retry_after: Some(retry_after),
                ..
            }) => {
                assert_eq!(tenant, "strict");
                assert_eq!(retry_after, Duration::from_millis(190));
            }
            other => panic!("unexpected {other:?}"),
        }
        let stats = server.stats();
        assert_eq!(stats.tenants[1].outcomes.shed, 1);
        assert_eq!(stats.tenants[1].rejected, 1);
        running.wait().unwrap();
        queued.wait().unwrap();
    }

    /// Satellite: shutdown lets in-flight queries run to completion while
    /// queued ones fail fast, and nothing hangs.
    #[test]
    fn shutdown_completes_in_flight_and_fails_queued() {
        let mut server = Server::new(
            catalog(),
            slow_source(Duration::from_millis(40)),
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
        );
        let session = server.session("acme").unwrap();
        let executing = session.enqueue("SELECT SUM(y) FROM t WHERE x = 1").unwrap();
        let deadline = Instant::now() + Duration::from_secs(2);
        while server.stats().queue_depth > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let queued = session.enqueue("SELECT SUM(y) FROM t WHERE x = 2").unwrap();
        server.shutdown();
        // The in-flight query completed normally; the queued one was
        // failed structurally; neither wait() hangs.
        assert_eq!(executing.wait().unwrap().values, vec![110]);
        assert_eq!(queued.wait(), Err(ServerError::Shutdown));
        let stats = server.stats();
        assert_eq!(stats.outcomes.ok, 1);
        assert_eq!(stats.queue_depth, 0);
        assert_eq!(stats.tenants[0].in_flight, 0);
    }

    #[test]
    fn shutdown_fails_pending_queries() {
        let mut server = server(ServerConfig {
            workers: 0,
            ..ServerConfig::default()
        });
        let session = server.session("acme").unwrap();
        let pending = session.enqueue("SELECT SUM(y) FROM t WHERE x = 1").unwrap();
        server.shutdown();
        assert_eq!(pending.wait(), Err(ServerError::Shutdown));
        match session.enqueue("SELECT SUM(y) FROM t WHERE x = 1") {
            Err(ServerError::Shutdown) => {}
            _ => panic!("enqueue after shutdown must fail"),
        }
    }

    #[test]
    fn tenant_limit_is_enforced() {
        let server = server(ServerConfig {
            max_tenants: 2,
            ..ServerConfig::default()
        });
        server.session("a").unwrap();
        server.session("b").unwrap();
        // Existing tenants reopen fine; a third is rejected.
        server.session("a").unwrap();
        match server.session("c") {
            Err(ServerError::TenantLimit { max_tenants }) => assert_eq!(max_tenants, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn tenant_caches_are_isolated_shards() {
        let server = server(ServerConfig {
            workers: 1,
            cache_budget_bytes: 1 << 20,
            max_tenants: 4,
            ..ServerConfig::default()
        });
        let a = server.session("a").unwrap();
        let b = server.session("b").unwrap();
        let sql = "SELECT SUM(y) FROM t WHERE x = 1";
        // Warm tenant a twice: the second run hits a's shard.
        a.submit(sql).unwrap();
        a.submit(sql).unwrap();
        let stats = server.stats();
        let shard_a = &stats.tenants[0];
        assert_eq!(shard_a.tenant, "a");
        assert!(shard_a.cache.hits > 0, "warm rerun should hit: {shard_a:?}");
        // Tenant b runs the same SQL but must not see a's entries.
        b.submit(sql).unwrap();
        let stats = server.stats();
        let shard_b = &stats.tenants[1];
        assert_eq!(shard_b.tenant, "b");
        assert_eq!(shard_b.cache.hits, 0, "cross-tenant leak: {shard_b:?}");
        // Shard budgets partition the configured total.
        let per_shard = (1 << 20) / 4;
        let inner = server.shared.inner.lock().unwrap();
        for tenant in &inner.tenants {
            assert_eq!(tenant.cache.budget_bytes(), per_shard);
        }
    }

    #[test]
    fn admission_config_reaches_tenant_shards() {
        let server = server(ServerConfig {
            workers: 1,
            cache_admission: CacheConfig::new(u64::MAX, usize::MAX),
            ..ServerConfig::default()
        });
        let session = server.session("acme").unwrap();
        let sql = "SELECT SUM(y) FROM t WHERE x = 1";
        session.submit(sql).unwrap();
        session.submit(sql).unwrap();
        let stats = server.stats();
        let shard = &stats.tenants[0];
        // Impossible thresholds: every subplan result is skipped, so the
        // warm rerun cannot hit (format decisions may still be cached).
        assert!(
            shard.cache.admission_skipped > 0,
            "thresholds not applied: {shard:?}"
        );
    }

    #[test]
    fn concurrent_submissions_from_many_threads() {
        let server = Arc::new(server(ServerConfig {
            workers: 4,
            ..ServerConfig::default()
        }));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let server = Arc::clone(&server);
            handles.push(std::thread::spawn(move || {
                let session = server.session(&format!("tenant-{}", t % 4)).unwrap();
                for _ in 0..5 {
                    let output = session.submit("SELECT SUM(y) FROM t WHERE x = 1").unwrap();
                    assert_eq!(output.values, vec![110]);
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        let stats = server.stats();
        assert_eq!(stats.served, 40);
        assert!(stats.p50_latency_ns > 0);
        assert!(stats.p95_latency_ns >= stats.p50_latency_ns);
        assert!(stats.p99_latency_ns >= stats.p95_latency_ns);
        assert!(stats.max_latency_ns >= stats.p99_latency_ns);
    }

    #[test]
    fn explain_analyze_returns_a_profile() {
        let server = server(ServerConfig::default());
        let session = server.session("acme").unwrap();
        let response = session
            .submit_full("EXPLAIN ANALYZE SELECT SUM(y) FROM t WHERE x = 1")
            .unwrap();
        assert_eq!(response.output.values, vec![110]);
        let profile = response.profile.expect("EXPLAIN ANALYZE carries a profile");
        assert!(profile.starts_with("explain analyze"), "{profile}");
        assert!(profile.contains("rows"), "{profile}");
        // The profile is a side-channel: the result columns are identical
        // to the unprofiled run, and a plain SELECT has no profile.
        let plain = session
            .submit_full("SELECT SUM(y) FROM t WHERE x = 1")
            .unwrap();
        assert_eq!(plain.output, response.output);
        assert_eq!(plain.profile, None);
    }

    #[test]
    fn slow_query_log_captures_profiles() {
        let traced = server(ServerConfig {
            // Zero threshold: every query is "slow".
            slow_query_threshold: Some(Duration::ZERO),
            ..ServerConfig::default()
        });
        let session = traced.session("acme").unwrap();
        session.submit("SELECT SUM(y) FROM t WHERE x = 1").unwrap();
        let slow = traced.slow_queries();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].tenant, "acme");
        assert_eq!(slow[0].sql, "SELECT SUM(y) FROM t WHERE x = 1");
        assert!(slow[0].latency >= slow[0].service);
        let profile = slow[0].profile.as_deref().expect("threshold traces");
        assert!(profile.starts_with("explain analyze"), "{profile}");
        // Without a threshold nothing is logged (and nothing is traced).
        let untraced = server(ServerConfig::default());
        let session = untraced.session("acme").unwrap();
        session.submit("SELECT SUM(y) FROM t WHERE x = 1").unwrap();
        assert!(untraced.slow_queries().is_empty());
    }

    /// Every `OutcomeCounts` bucket equals its `morph_queries_total`
    /// counter cell — exercised over ok, failed, cancelled, deadline,
    /// memory and shed outcomes.
    #[test]
    fn metrics_reconcile_with_outcome_counts() {
        let server = server(ServerConfig::default());
        let ok = server.session("acme").unwrap();
        ok.submit("SELECT SUM(y) FROM t WHERE x = 1").unwrap();
        ok.submit("SELECT SUM(ghost) FROM t WHERE x = 1")
            .unwrap_err();
        let strict = server
            .session_with_limits(
                "strict",
                TenantLimits {
                    deadline: Some(Duration::ZERO),
                    memory_budget_bytes: None,
                    max_in_flight: None,
                },
            )
            .unwrap();
        strict
            .submit("SELECT SUM(y) FROM t WHERE x = 1")
            .unwrap_err();
        let tiny = server
            .session_with_limits(
                "tiny",
                TenantLimits {
                    memory_budget_bytes: Some(1),
                    ..TenantLimits::default()
                },
            )
            .unwrap();
        tiny.submit("SELECT SUM(y) FROM t WHERE x = 1").unwrap_err();

        let stats = server.stats();
        let metrics = server.metrics();
        let outcomes = [
            "ok",
            "failed",
            "cancelled",
            "deadline_exceeded",
            "memory_exceeded",
            "shed",
        ];
        for tenant in &stats.tenants {
            for outcome in outcomes {
                let counted = metrics
                    .counter_value(
                        QUERIES_TOTAL,
                        &[("tenant", tenant.tenant.as_str()), ("outcome", outcome)],
                    )
                    .unwrap_or(0);
                let expected = match outcome {
                    "ok" => tenant.outcomes.ok,
                    "failed" => tenant.outcomes.failed,
                    "cancelled" => tenant.outcomes.cancelled,
                    "deadline_exceeded" => tenant.outcomes.deadline_exceeded,
                    "memory_exceeded" => tenant.outcomes.memory_exceeded,
                    _ => tenant.outcomes.shed,
                };
                assert_eq!(counted, expected, "{}/{outcome}", tenant.tenant);
            }
        }
        assert_eq!(metrics.counter_total(QUERIES_TOTAL), stats.outcomes.total());
        assert_eq!(metrics.counter_total(REJECTED_TOTAL), stats.rejected);
        // The rendered text carries the same numbers.
        let text = server.metrics_text();
        assert!(
            text.contains("# TYPE morph_queries_total counter"),
            "{text}"
        );
        assert!(
            text.contains("morph_queries_total{outcome=\"ok\",tenant=\"acme\"} 1"),
            "{text}"
        );
        assert!(text.contains("morph_latency_ns_count 4"), "{text}");
    }
}
