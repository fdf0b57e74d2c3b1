//! Criterion micro-benchmarks of the compression substrate: compression and
//! decompression throughput of every format on the synthetic columns of
//! Table 1, and the bit-unpack under every bit-packed cursor across widths.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use morph_compression::{bitpack, compress_main_part, decompress_into, Format};
use morph_storage::datagen::SyntheticColumn;

const ELEMENTS: usize = 256 * 1024;

fn bench_compression(c: &mut Criterion) {
    let mut group = c.benchmark_group("compress");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(1));
    group.throughput(Throughput::Bytes((ELEMENTS * 8) as u64));
    for column in SyntheticColumn::all() {
        let values = column.generate(ELEMENTS, 42);
        let max = values.iter().copied().max().unwrap_or(0);
        for format in Format::all_formats(max) {
            group.bench_with_input(
                BenchmarkId::new(format.to_string(), column.label()),
                &values,
                |b, values| b.iter(|| compress_main_part(&format, values)),
            );
        }
    }
    group.finish();
}

fn bench_decompression(c: &mut Criterion) {
    let mut group = c.benchmark_group("decompress");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(1));
    group.throughput(Throughput::Bytes((ELEMENTS * 8) as u64));
    for column in SyntheticColumn::all() {
        let values = column.generate(ELEMENTS, 42);
        let max = values.iter().copied().max().unwrap_or(0);
        for format in Format::all_formats(max) {
            let (bytes, main_len) = compress_main_part(&format, &values);
            group.bench_with_input(
                BenchmarkId::new(format.to_string(), column.label()),
                &bytes,
                |b, bytes| {
                    b.iter(|| {
                        let mut out = Vec::with_capacity(main_len);
                        decompress_into(&format, bytes, main_len, &mut out);
                        out
                    })
                },
            );
        }
    }
    group.finish();
}

/// `bitpack::unpack_into` over one cache-resident chunk of 2048 values:
/// widths up to 57 take the AVX2 prefix where the CPU has it, 58 and 64 are
/// the scalar walker alone.
fn bench_unpack(c: &mut Criterion) {
    const VALUES: usize = 2048;
    let mut group = c.benchmark_group("unpack");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(1));
    group.throughput(Throughput::Elements(VALUES as u64));
    for width in [1u8, 6, 7, 17, 23, 48, 57, 58, 64] {
        let mask = bitpack::max_value_for_width(width);
        let values: Vec<u64> = (0..VALUES as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask)
            .collect();
        let mut packed = Vec::new();
        bitpack::pack_into(&values, width, &mut packed);
        let mut out = Vec::with_capacity(VALUES);
        group.bench_with_input(BenchmarkId::new("width", width), &packed, |b, packed| {
            b.iter(|| {
                out.clear();
                bitpack::unpack_into(packed, width, VALUES, &mut out);
                out.len()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_compression,
    bench_decompression,
    bench_unpack
);
criterion_main!(benches);
