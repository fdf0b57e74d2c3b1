//! `serve_zipf`: `morph-server` under a closed loop — two clients, one
//! tenant each, every client waiting for its reply before sending the next
//! statement of a seeded Zipf(1.1) sequence over a pool of 256 statements.
//! Each tenant's cache shard is smaller than the pool's result set, so the
//! median op is a cache hit (`sql` + `server` + `cache` reads) and the p90
//! op a miss (engine + cache inserts and evictions).

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use morph_compression::Format;
use morph_cost::strategy::cost_based_format;
use morph_cost::SelectionObjective;
use morph_server::{Server, ServerConfig, ServerStats, Session};
use morph_ssb::{dbgen, ssb_catalog, SsbData};
use morph_storage::Column;
use morphstore_engine::exec::FormatConfig;
use morphstore_engine::plan::PlanOutput;
use morphstore_engine::{ExecSettings, ExecutionContext};

use crate::harness::{
    finish_traced_pass, peak_rss_mib, repeat_set_up, FirstOutputs, LayerValues, Phase, Report,
    RunConfig, SpanRecorder, Timed,
};
use crate::layers::{sql_layers, static_layers, SetUpLayers};
use crate::stmts::{pool, ZipfSequence};

/// SSB scale factor of the full run: 120 k `lineorder` rows.
pub const SCALE_FACTOR: f64 = 0.02;
/// Scale factor of the `--smoke` path.
pub const SMOKE_SCALE_FACTOR: f64 = 0.005;
/// Generator seed of the database served.  `--seed` drives the traffic (the
/// per-client request sequences), not the data: at this scale the dimension
/// tables are so small that another data seed changes which statements are
/// expensive and how much of the pool fits the cache, and the cache turns
/// that into a 30 % swing in throughput.
pub const DATA_SEED: u64 = 42;
/// Closed-loop clients; each is its own tenant.
pub const CLIENTS: usize = 2;
/// Server worker threads (`threads_per_query` is 1).
pub const WORKERS: usize = 2;
/// Ops per client in one block.
pub const BLOCK_OPS: usize = 100;
/// Ops per client in the one block of the `--smoke` path.
pub const SMOKE_BLOCK_OPS: usize = 20;
/// Untimed blocks per client before timing, so each shard fills up.
const WARMUP_BLOCKS: usize = 5;
/// Cache bytes per tenant shard.  Calibrated once and frozen: the pool's
/// whole result set is 16.7 MB per tenant, so 14 MiB holds most of it.  The
/// median op is then a full hit (0.13 ms against 0.10 ms with everything
/// cached), the p90 op misses part of its plan (0.44 ms; a cold execution
/// takes 1.5–3 ms), 95 % of node lookups hit and the tail keeps evicting
/// (`cache.evictions` > 0).  Smaller shards put a percentile on the steep
/// part of the latency distribution, where it swings from run to run: the
/// median by 40 % at 8 MiB (0.15–0.23 ms), the p90 by 15 % at 12 MiB.
pub const SHARD_BYTES: usize = 14 << 20;

/// What set-up produces: a running server over compressed base data.
struct Service {
    data: Arc<SsbData>,
    server: Server,
    sessions: Vec<Session>,
    statements: Vec<String>,
    layers: SetUpLayers,
}

fn server_settings() -> ExecSettings {
    ExecSettings::vectorized_compressed()
}

/// Intermediates have no per-statement tuning behind the server (every
/// statement's plan is labelled `sql`), so they share one default.
fn server_formats() -> FormatConfig {
    FormatConfig::with_default(Format::DeltaDynBp)
}

fn start_server(data: &Arc<SsbData>, traced: bool) -> (Server, Vec<Session>) {
    let server = Server::new(
        ssb_catalog(),
        Arc::clone(data) as _,
        ServerConfig {
            workers: WORKERS,
            threads_per_query: 1,
            queue_capacity: 64,
            cache_budget_bytes: SHARD_BYTES * CLIENTS,
            max_tenants: CLIENTS,
            settings: server_settings(),
            formats: server_formats(),
            // A threshold no query reaches: every query executes under the
            // engine's tracer, none is logged.
            slow_query_threshold: traced.then_some(Duration::MAX),
            ..ServerConfig::default()
        },
    );
    let sessions = (0..CLIENTS)
        .map(|client| {
            server
                .session(&format!("tenant-{client}"))
                .expect("a fresh server admits its tenants")
        })
        .collect();
    (server, sessions)
}

fn set_up(scale_factor: f64) -> Service {
    let started = Instant::now();
    let raw = dbgen::generate(scale_factor, DATA_SEED);
    let dbgen_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let mut formats = FormatConfig::default();
    let mut distinct = std::collections::BTreeSet::new();
    for name in raw.column_names() {
        let format = cost_based_format(raw.column(name).stats(), SelectionObjective::Runtime);
        distinct.insert(format.to_string());
        formats.insert(name, format);
    }
    let tuning_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let data = Arc::new(raw.with_formats(&formats));
    let compress_s = started.elapsed().as_secs_f64();

    let statements = pool();
    let (server, sessions) = start_server(&data, false);
    Service {
        data,
        server,
        sessions,
        statements,
        layers: SetUpLayers {
            dbgen_s,
            tuning_s,
            tuning_count: formats.explicit_columns().count(),
            compress_s,
            distinct_formats: distinct.len(),
        },
    }
}

/// What one client measured.
struct ClientRun {
    timed: Timed,
    first: FirstOutputs<PlanOutput>,
    /// Σ latency of every op sent, warm-up included (seconds).
    total_latency_s: f64,
    recorder: SpanRecorder,
}

/// The traffic of one phase: what every client replays, and for how long.
#[derive(Clone, Copy)]
struct Traffic<'a> {
    statements: &'a [String],
    seed: u64,
    phase: Phase,
    /// Ops per client in one block.
    block_ops: usize,
}

/// One client's closed loop: send, wait for the reply, check it, repeat.
fn client_loop(
    client: usize,
    session: &Session,
    traffic: Traffic<'_>,
    barrier: &Barrier,
    mut recorder: SpanRecorder,
) -> ClientRun {
    let Traffic {
        statements,
        seed,
        phase,
        block_ops,
    } = traffic;
    let mut sequence = ZipfSequence::new(seed, client, statements.len());
    let mut first = FirstOutputs::new(statements.len());
    let mut timed = Timed::default();
    let mut total_latency_s = 0.0;
    let mut op_id = (client as u64) << 32;
    let mut one_op = |recorder: &mut SpanRecorder, first: &mut FirstOutputs<PlanOutput>| {
        let index = sequence.next().expect("the sequence is endless");
        op_id += 1;
        recorder.span("op", op_id, |rec| {
            let started = Instant::now();
            let reply = rec.span("server.submit", op_id, |_| {
                session.submit(&statements[index])
            });
            let latency_s = started.elapsed().as_secs_f64();
            let ok = rec.span("harness.verify", op_id, |_| match reply {
                Ok(output) => first.consistent(index, output),
                Err(e) => {
                    eprintln!("morphbench: client {client}: {e}");
                    false
                }
            });
            (latency_s, ok)
        })
    };

    barrier.wait();
    for _ in 0..phase.warmup_sweeps * block_ops {
        total_latency_s += one_op(&mut recorder, &mut first).0;
    }
    barrier.wait();
    let started = Instant::now();
    loop {
        timed.block(|timed| {
            for _ in 0..block_ops {
                let (latency_s, ok) = one_op(&mut recorder, &mut first);
                total_latency_s += latency_s;
                timed.record(ok.then_some(latency_s * 1e3));
            }
        });
        let enough = timed.latencies_ms.len() * CLIENTS >= phase.min_samples;
        if phase.budget_s == 0.0 || (started.elapsed().as_secs_f64() >= phase.budget_s && enough) {
            break;
        }
    }
    ClientRun {
        timed,
        first,
        total_latency_s,
        recorder,
    }
}

/// Drive one client thread per session through `traffic`; each records its
/// spans into a child of `recorder`.
fn drive(sessions: &[Session], traffic: Traffic<'_>, recorder: &SpanRecorder) -> Vec<ClientRun> {
    let barrier = Barrier::new(sessions.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .iter()
            .enumerate()
            .map(|(client, session)| {
                let (barrier, recorder) = (&barrier, recorder.child());
                scope.spawn(move || client_loop(client, session, traffic, barrier, recorder))
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("a client thread panicked"))
            .collect()
    })
}

fn pooled(runs: &[ClientRun]) -> Timed {
    let mut timed = Timed::default();
    for run in runs {
        timed.latencies_ms.extend(&run.timed.latencies_ms);
        timed.block_s.extend(&run.timed.block_s);
        timed.attempted += run.timed.attempted;
        timed.failed += run.timed.failed;
    }
    timed
}

pub fn run(config: &RunConfig) -> Report {
    let scale_factor = if config.smoke {
        SMOKE_SCALE_FACTOR
    } else {
        SCALE_FACTOR
    };
    let (mut service, setup_s) = repeat_set_up(config, || set_up(scale_factor));
    // Timed phase: the server traces nothing, the harness records no span.
    let traffic = Traffic {
        statements: &service.statements,
        seed: config.seed,
        phase: Phase {
            warmup_sweeps: if config.smoke { 0 } else { WARMUP_BLOCKS },
            ..config.timed_phase()
        },
        block_ops: if config.smoke {
            SMOKE_BLOCK_OPS
        } else {
            BLOCK_OPS
        },
    };
    let mut report = Report {
        setup_s,
        ops_per_block: traffic.block_ops * CLIENTS,
        ..Report::default()
    };
    let runs = drive(&service.sessions, traffic, &SpanRecorder::new(false));
    report.timed = pooled(&runs);
    report.peak_rss_mib = peak_rss_mib();
    service.server.shutdown();

    // Reference check and footprint, outside set-up and the timed phase:
    // every statement a client sent is executed once uncached, scalar and
    // uncompressed over freshly generated data, and once in the server's
    // own configuration for its footprint.
    let started = Instant::now();
    let raw = dbgen::generate(scale_factor, DATA_SEED);
    let catalog = ssb_catalog();
    for (index, sql) in service.statements.iter().enumerate() {
        let seen: Vec<&PlanOutput> = runs.iter().filter_map(|r| r.first.get(index)).collect();
        if seen.is_empty() {
            continue;
        }
        let compiled = morph_sql::compile(sql, &catalog)
            .unwrap_or_else(|e| panic!("pool statement does not compile: {sql}: {e}"));
        let mut reference_ctx = ExecutionContext::new(
            ExecSettings::scalar_uncompressed(),
            FormatConfig::uncompressed(),
        );
        let expected = compiled.execute(&raw, &mut reference_ctx);
        if seen.iter().any(|output| **output != expected) {
            eprintln!("morphbench: the server's reply disagrees with the reference: {sql}");
            report.timed.failed += 1;
        }
        let mut ctx = ExecutionContext::new(server_settings(), server_formats());
        compiled.execute(service.data.as_ref(), &mut ctx);
        report.footprint_bytes += ctx.total_footprint_bytes();
    }
    report.verify_s = started.elapsed().as_secs_f64();

    if config.trace {
        traced_pass(config, &service, &runs, traffic, &mut report);
    }
    report
}

/// The traced pass: a second server over the same data with the engine's
/// tracer on for every query, harness spans around every submit, and the
/// server's own counters read out at the end.
fn traced_pass(
    config: &RunConfig,
    service: &Service,
    untraced: &[ClientRun],
    traffic: Traffic<'_>,
    report: &mut Report,
) {
    let mut recorder = SpanRecorder::new(true);

    // What the server spends in `sql` per statement, measured out of band:
    // the harness cannot record spans inside the server.
    let catalog = ssb_catalog();
    let mut plan_nodes = 0u64;
    for sql in &service.statements {
        // Op id 0: these spans belong to no request.
        recorder.span("sql.parse", 0, |_| morph_sql::parse(sql).is_ok());
        let compiled = recorder.span("sql.compile", 0, |_| morph_sql::compile(sql, &catalog));
        plan_nodes += compiled.map_or(0, |c| c.plan().node_count() as u64);
    }

    let (mut server, sessions) = start_server(&service.data, true);
    let traffic = Traffic {
        phase: Phase {
            min_samples: 0,
            ..traffic.phase
        },
        ..traffic
    };
    let runs = drive(&sessions, traffic, &recorder);
    let stats = server.stats();
    let queue_wait_s = histogram_sum_s(
        &server,
        "morph_queue_wait_ns",
        "Admission-to-start wait per query",
    );
    let exec_s = histogram_sum_s(
        &server,
        "morph_execution_ns",
        "Worker service time per query",
    );
    server.shutdown();

    let traced = pooled(&runs);
    let client_latency_s: f64 = runs.iter().map(|r| r.total_latency_s).sum();
    // The first outputs of the traced pass must agree with the (already
    // verified) ones of the timed phase.
    let mut disagreements = 0;
    for index in 0..service.statements.len() {
        let reference = untraced.iter().find_map(|r| r.first.get(index));
        for run in &runs {
            if let (Some(a), Some(b)) = (reference, run.first.get(index)) {
                disagreements += u64::from(a != b);
            }
        }
    }
    report.timed.failed += disagreements;
    for run in runs {
        recorder.absorb(run.recorder);
    }

    let layers = &mut report.layers;
    let spans = recorder.spans();
    sql_layers(spans, plan_nodes, layers);
    server_layers(&stats, queue_wait_s, exec_s, client_latency_s, layers);
    let names = service.data.column_names();
    let base: Vec<&Column> = names.iter().map(|n| service.data.column(n)).collect();
    static_layers(&service.layers, &base, config.smoke, layers);

    finish_traced_pass(config, report, &traced, recorder.spans(), 0);
}

/// Σ of a per-tenant server histogram over all tenants, in seconds.
fn histogram_sum_s(server: &Server, name: &str, help: &str) -> f64 {
    (0..CLIENTS)
        .map(|client| {
            let tenant = format!("tenant-{client}");
            server
                .metrics()
                .histogram(name, help, &[("tenant", &tenant)])
                .sum() as f64
                / 1e9
        })
        .sum()
}

fn server_layers(
    stats: &ServerStats,
    queue_wait_s: f64,
    exec_s: f64,
    client_latency_s: f64,
    layers: &mut LayerValues,
) {
    let mut cache = morph_cache::CacheStats::default();
    for tenant in &stats.tenants {
        cache.hits += tenant.cache.hits;
        cache.misses += tenant.cache.misses;
        cache.insertions += tenant.cache.insertions;
        cache.evictions += tenant.cache.evictions;
        cache.admission_skipped += tenant.cache.admission_skipped;
        cache.bytes_used += tenant.cache.bytes_used;
    }
    layers.insert("cache.hits".into(), cache.hits as f64);
    layers.insert("cache.misses".into(), cache.misses as f64);
    layers.insert("cache.hit_rate".into(), cache.hit_rate());
    layers.insert("cache.insertions".into(), cache.insertions as f64);
    layers.insert("cache.evictions".into(), cache.evictions as f64);
    layers.insert(
        "cache.admission_skipped".into(),
        cache.admission_skipped as f64,
    );
    layers.insert("cache.bytes_used".into(), cache.bytes_used as f64);
    layers.insert("server.queue_wait_s".into(), queue_wait_s);
    layers.insert("server.exec_s".into(), exec_s);
    layers.insert(
        "server.overhead_s".into(),
        client_latency_s - queue_wait_s - exec_s,
    );
    layers.insert("server.served".into(), stats.served as f64);
    layers.insert("server.rejected".into(), stats.rejected as f64);
    layers.insert("server.shed".into(), stats.outcomes.shed as f64);
    layers.insert(
        "server.latency_ms_p99".into(),
        stats.p99_latency_ns as f64 / 1e6,
    );
}
