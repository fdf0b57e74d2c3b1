//! Serve SQL over the Star Schema Benchmark with the multi-tenant query
//! server: two tenants submit queries concurrently from several client
//! threads, results stream back deterministically, and the per-tenant
//! cache shards, admission queues and latency percentiles are reported.
//!
//! Run with: `cargo run --release --example sql_server [-- <scale factor>]`

use std::sync::Arc;

use morphstore::engine::exec::FormatConfig;
use morphstore::prelude::*;
use morphstore::server::ServerConfig;
use morphstore::ssb::{dbgen, ssb_catalog, SsbQuery};

fn main() {
    let scale_factor: f64 = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.02);
    println!("generating SSB data at scale factor {scale_factor}…");
    let data = Arc::new(dbgen::generate(scale_factor, 42));

    // A server over the shared store: 4 workers, per-tenant cache shards
    // carved from a 256 MiB budget, vectorized compressed processing.
    let server = Arc::new(morphstore::server::Server::new(
        ssb_catalog(),
        data,
        ServerConfig {
            workers: 4,
            cache_budget_bytes: 256 << 20,
            settings: ExecSettings::vectorized_compressed(),
            formats: FormatConfig::with_default(Format::DeltaDynBp),
            ..ServerConfig::default()
        },
    ));

    // Ad-hoc SQL from one session.
    let sql = "SELECT SUM(lo_extendedprice * lo_discount) AS revenue \
               FROM lineorder, date \
               WHERE lo_orderdate = d_datekey AND d_year = 1993 \
               AND lo_discount BETWEEN 1 AND 3 AND lo_quantity < 25";
    let adhoc = server.session("adhoc").unwrap();
    let output = adhoc.submit(sql).unwrap();
    println!("Q1.1 revenue: {}", output.values[0]);

    // EXPLAIN through the SQL path: the compiled plan plus its fused
    // pipelines as bracketed groups — what the fusion pass will run as one
    // chunk-at-a-time pass when the server's settings enable it.
    let compiled = compile(sql, &ssb_catalog()).unwrap();
    println!(
        "\nEXPLAIN:\n{}",
        compiled
            .plan()
            .describe_with_fusion(&FormatConfig::with_default(Format::DeltaDynBp))
    );

    // EXPLAIN ANALYZE through the SQL path: prefix the same query and the
    // server executes it under a tracer, returning the per-node profile —
    // wall time, rows, compressed vs. logical bytes, cache hits — alongside
    // the (byte-identical) result.
    let response = adhoc
        .submit_full(&format!("EXPLAIN ANALYZE {sql}"))
        .unwrap();
    assert_eq!(response.output.values, output.values);
    println!(
        "\nEXPLAIN ANALYZE:\n{}",
        response.profile.expect("EXPLAIN ANALYZE carries a profile")
    );

    // Structured errors instead of panics: typos come back with positions
    // and suggestions, so a client can render them.
    match adhoc.submit("SELECT SUM(lo_revenu) FROM lineorder WHERE lo_discount = 1") {
        Err(error) => println!("as expected: {error}"),
        Ok(_) => unreachable!(),
    }

    // Two tenants × two client threads each, all 13 SSB queries twice —
    // the second pass is served from each tenant's own warm shard.
    let mut handles = Vec::new();
    for tenant in ["blue", "green"] {
        for _ in 0..2 {
            let server = Arc::clone(&server);
            handles.push(std::thread::spawn(move || {
                let session = server.session(tenant).unwrap();
                for _ in 0..2 {
                    for query in SsbQuery::all() {
                        session.submit(query.sql()).unwrap();
                    }
                }
            }));
        }
    }
    for handle in handles {
        handle.join().unwrap();
    }

    let stats = server.stats();
    println!(
        "\nserved {} queries, p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms, max {:.3} ms",
        stats.served,
        stats.p50_latency_ns as f64 / 1e6,
        stats.p95_latency_ns as f64 / 1e6,
        stats.p99_latency_ns as f64 / 1e6,
        stats.max_latency_ns as f64 / 1e6
    );
    for tenant in &stats.tenants {
        println!(
            "tenant {:>5}: {} served, cache hit rate {:.1}% in its own shard",
            tenant.tenant,
            tenant.served,
            100.0 * tenant.cache_hit_rate()
        );
    }

    // The same numbers as a Prometheus scrape: the stats above are read
    // from these outcome counters, histograms render as summaries.
    let metrics = server.metrics_text();
    println!("\nmetrics excerpt:");
    for line in metrics
        .lines()
        .filter(|l| l.starts_with("morph_queries_total") || l.starts_with("morph_latency_ns"))
    {
        println!("  {line}");
    }
}
