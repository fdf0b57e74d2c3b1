//! Criterion micro-benchmarks of the select operator across integration
//! degrees, its filter kernel across selectivities, and the project operator
//! that consumes select's positions, across data formats and position
//! densities.  Figure 5's format combinations are `repro fig5`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use morph_compression::Format;
use morph_storage::Column;
use morph_vector::emu::V512;
use morph_vector::kernels;
use morph_vector::scalar::Scalar;
use morphstore_engine::{
    project, select, CmpOp, ExecSettings, IntegrationDegree, Predicate, ProcessingStyle,
};

const ELEMENTS: usize = 256 * 1024;

fn bench_select_degrees(c: &mut Criterion) {
    let mut group = c.benchmark_group("select_degrees");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(1));
    let values = morph_storage::datagen::with_runs(ELEMENTS, 8, 64, 42);
    let rle = Column::compress(&values, &Format::Rle);
    for degree in IntegrationDegree::all() {
        let settings = ExecSettings {
            style: ProcessingStyle::Vectorized,
            degree,
            ..ExecSettings::default()
        };
        group.bench_with_input(
            BenchmarkId::new("rle_input", degree.label()),
            &rle,
            |b, input| {
                b.iter(|| {
                    select(
                        input,
                        &Predicate::Cmp(CmpOp::Eq, 3),
                        &Format::DeltaDynBp,
                        &settings,
                    )
                })
            },
        );
    }
    group.finish();
}

/// The select chunk kernel (`kernels::filter_positions`) over 1 Mi
/// uncompressed values at 10, 50 and 90 % selectivity, for both processing
/// styles: the branch-free compaction (scalar, and any backend without
/// AVX2) and the AVX2 lookup-table compaction (vectorised).
fn bench_filter(c: &mut Criterion) {
    const VALUES: usize = 1 << 20;
    let mut group = c.benchmark_group("filter");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(1));
    group.throughput(Throughput::Elements(VALUES as u64));
    // Pseudo-random values in 0..100 (no pattern a branch predictor could
    // learn): `value < s` selects s %.
    let mut state = 42u64;
    let values: Vec<u64> = (0..VALUES)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % 100
        })
        .collect();
    let mut out = Vec::with_capacity(VALUES);
    for selectivity in [10u64, 50, 90] {
        for style in [ProcessingStyle::Scalar, ProcessingStyle::Vectorized] {
            group.bench_with_input(
                BenchmarkId::new(format!("{selectivity} %"), style.label()),
                &values,
                |b, values| {
                    b.iter(|| {
                        out.clear();
                        match style {
                            ProcessingStyle::Scalar => kernels::filter_positions::<Scalar>(
                                CmpOp::Lt,
                                values,
                                selectivity,
                                0,
                                &mut out,
                            ),
                            ProcessingStyle::Vectorized => kernels::filter_positions::<V512>(
                                CmpOp::Lt,
                                values,
                                selectivity,
                                0,
                                &mut out,
                            ),
                        }
                        out.len()
                    })
                },
            );
        }
    }
    group.finish();
}

/// Project over 1 Mi data values with ascending positions (select output)
/// at densities 1 down to 1/1000: uncompressed data is read per value,
/// static BP forward through its chunk cursor at densities 1 and 1/2 and
/// per value below, every other format forward.
fn bench_project_formats(c: &mut Criterion) {
    const VALUES: usize = 1 << 20;
    let mut group = c.benchmark_group("project");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(1));
    let values = morph_storage::datagen::with_runs(VALUES, 64, 32, 42);
    let plain = Column::from_slice(&values);
    let settings = ExecSettings::vectorized_compressed();
    for stride in [1usize, 2, 10, 100, 1000] {
        let position_values: Vec<u64> = (0..VALUES as u64).step_by(stride).collect();
        let positions = Column::compress(&position_values, &Format::DeltaDynBp);
        group.throughput(Throughput::Elements(position_values.len() as u64));
        for format in [
            Format::Uncompressed,
            Format::StaticBp(6),
            Format::DynBp,
            Format::DeltaDynBp,
            Format::ForDynBp,
            Format::Rle,
        ] {
            let data = plain.to_format(&format);
            group.bench_with_input(
                BenchmarkId::new(format!("density 1/{stride}"), format),
                &data,
                |b, data| b.iter(|| project(data, &positions, &Format::Uncompressed, &settings)),
            );
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_select_degrees,
    bench_filter,
    bench_project_formats
);
criterion_main!(benches);
