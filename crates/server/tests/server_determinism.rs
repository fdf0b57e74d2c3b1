//! Serving determinism: the same SQL over the same data returns
//! byte-identical results regardless of how many client threads hammer the
//! server, how the round-robin scheduler interleaves tenants, or whether
//! the per-tenant cache shards are cold or warm.  The reference is serial
//! [`SsbQuery::execute`] under scalar, uncompressed processing: the same
//! SQL-compiled plans, run without the server, compression or concurrency.

use std::sync::Arc;

use morph_compression::Format;
use morph_server::{Server, ServerConfig};
use morph_ssb::{dbgen, ssb_catalog, SsbData, SsbQuery};
use morphstore_engine::exec::FormatConfig;
use morphstore_engine::{ExecSettings, ExecutionContext};

const SCALE: f64 = 0.01;
const SEED: u64 = 42;

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

fn server_over(data: Arc<SsbData>, workers: usize) -> Server {
    Server::new(
        ssb_catalog(),
        data,
        ServerConfig {
            workers,
            threads_per_query: 1,
            queue_capacity: 64,
            cache_budget_bytes: 64 << 20,
            max_tenants: 8,
            settings: ExecSettings::vectorized_compressed(),
            formats: FormatConfig::with_default(Format::DeltaDynBp),
            ..ServerConfig::default()
        },
    )
}

#[test]
fn concurrent_sessions_match_the_serial_hand_built_plans() {
    let data = Arc::new(dbgen::generate(SCALE, SEED));
    let expected = Arc::new(reference_results(&data));

    for clients in [1usize, 2, 4, 8] {
        let server = Arc::new(server_over(Arc::clone(&data), 4));
        let mut handles = Vec::new();
        for client in 0..clients {
            let server = Arc::clone(&server);
            let expected = Arc::clone(&expected);
            handles.push(std::thread::spawn(move || {
                // One tenant per client: the scheduler interleaves them.
                let session = server.session(&format!("tenant-{client}")).unwrap();
                // Two passes: cold shard, then warm shard — results must
                // not depend on cache state.
                for pass in 0..2 {
                    for (query, group_keys, values) in expected.iter() {
                        let output = session
                            .submit(query.sql())
                            .unwrap_or_else(|e| panic!("{query}: {e}"));
                        assert_eq!(
                            &output.group_keys, group_keys,
                            "{query}: group keys diverge ({clients} clients, pass {pass})"
                        );
                        assert_eq!(
                            &output.values, values,
                            "{query}: aggregates diverge ({clients} clients, pass {pass})"
                        );
                    }
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }

        let stats = server.stats();
        assert_eq!(stats.served as usize, clients * 2 * SsbQuery::all().len());
        assert_eq!(stats.queue_depth, 0);
        // The warm second pass must have hit each tenant's own shard.
        for tenant in &stats.tenants {
            assert!(
                tenant.cache.hits > 0,
                "warm pass missed entirely for {}: {:?}",
                tenant.tenant,
                tenant.cache
            );
        }
    }
}

#[test]
fn tenant_shards_never_leak_across_tenants() {
    let data = Arc::new(dbgen::generate(SCALE, SEED));
    let server = server_over(data, 2);

    // Tenant a warms its shard with every SSB query.
    let a = server.session("a").unwrap();
    for query in SsbQuery::all() {
        a.submit(query.sql()).unwrap();
    }
    let warm = server.stats();
    let shard_a = warm.tenants[0].cache;
    assert!(shard_a.insertions > 0);

    // Tenant b runs the identical workload.  The 13 queries share subplans
    // among themselves, so b hits its *own* shard as it goes — but an
    // isolated shard running the identical workload from cold must land on
    // exactly the counters a's cold run produced.  Leakage from a's warm
    // shard would inflate b's hits (with a shared cache the whole run
    // would hit).
    let b = server.session("b").unwrap();
    for query in SsbQuery::all() {
        b.submit(query.sql()).unwrap();
    }
    let stats = server.stats();
    let shard_b = &stats.tenants[1];
    assert_eq!(shard_b.tenant, "b");
    assert_eq!(
        (
            shard_b.cache.hits,
            shard_b.cache.misses,
            shard_b.cache.insertions
        ),
        (shard_a.hits, shard_a.misses, shard_a.insertions),
        "tenant b's cold run diverges from tenant a's cold run — cross-tenant leakage"
    );
    // And b's traffic did not disturb a's counters.
    assert_eq!(stats.tenants[0].cache.hits, shard_a.hits);
}
