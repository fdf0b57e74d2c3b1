//! Criterion micro-benchmark of the semi-join probe kernel: a 600 k-row
//! probe (SSB `lineorder` at SF 0.1) against build sides shaped like the
//! SSB dimension keys — 200 / 3 000 / 20 000 dense keys — and against a
//! 20 000-key sparse build of random 64-bit keys.
//!
//! `KeySet` is measured next to a `std::collections::HashSet` (SipHash)
//! probed one value at a time, the table the join kernels used before; the
//! std table exists only here, as the baseline.

use std::collections::HashSet;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use morph_compression::CACHE_BUFFER_ELEMENTS;
use morph_vector::keys::KeySet;

const PROBE_ROWS: usize = 600_000;

/// A cheap deterministic 64-bit mixer (splitmix64 finaliser).
fn mix(i: u64) -> u64 {
    let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn bench_join_probe(c: &mut Criterion) {
    let mut group = c.benchmark_group("join_probe");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(1));
    group.throughput(Throughput::Elements(PROBE_ROWS as u64));

    // (label, build keys, probe values): every second key of the domain is
    // in the build side, and the probe draws uniformly from the domain, so
    // about half the probes hit.
    let mut cases: Vec<(String, Vec<u64>, Vec<u64>)> = Vec::new();
    for domain in [400u64, 6_000, 40_000] {
        let build: Vec<u64> = (0..domain).step_by(2).map(|k| k + 1).collect();
        let probe: Vec<u64> = (0..PROBE_ROWS as u64)
            .map(|i| mix(i) % domain + 1)
            .collect();
        cases.push((format!("dense_{}", build.len()), build, probe));
    }
    let sparse_domain: Vec<u64> = (0..40_000u64).map(|k| mix(k ^ 0xABCD)).collect();
    let build: Vec<u64> = sparse_domain.iter().copied().step_by(2).collect();
    let probe: Vec<u64> = (0..PROBE_ROWS as u64)
        .map(|i| sparse_domain[(mix(i) % 40_000) as usize])
        .collect();
    cases.push((format!("sparse_{}", build.len()), build, probe));

    for (label, build, probe) in &cases {
        let set = KeySet::from_keys(build, probe.len());
        assert_eq!(set.is_dense(), label.starts_with("dense"), "{label}");
        let std_set: HashSet<u64> = build.iter().copied().collect();
        let expected = probe.iter().filter(|v| std_set.contains(v)).count();

        group.bench_with_input(BenchmarkId::new("key_set", label), probe, |b, probe| {
            let mut scratch: Vec<u64> = Vec::new();
            b.iter(|| {
                let mut hits = 0usize;
                let mut base = 0u64;
                for chunk in probe.chunks(CACHE_BUFFER_ELEMENTS) {
                    scratch.clear();
                    set.probe_positions(black_box(chunk), base, &mut scratch);
                    hits += black_box(&scratch).len();
                    base += chunk.len() as u64;
                }
                assert_eq!(hits, expected);
                hits
            })
        });
        group.bench_with_input(
            BenchmarkId::new("std_hash_set", label),
            probe,
            |b, probe| {
                let mut scratch: Vec<u64> = Vec::new();
                b.iter(|| {
                    let mut hits = 0usize;
                    let mut base = 0u64;
                    for chunk in probe.chunks(CACHE_BUFFER_ELEMENTS) {
                        scratch.clear();
                        for (i, value) in black_box(chunk).iter().enumerate() {
                            if std_set.contains(value) {
                                scratch.push(base + i as u64);
                            }
                        }
                        hits += black_box(&scratch).len();
                        base += chunk.len() as u64;
                    }
                    assert_eq!(hits, expected);
                    hits
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_join_probe);
criterion_main!(benches);
