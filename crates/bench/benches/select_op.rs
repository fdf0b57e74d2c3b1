//! Criterion micro-benchmark backing Figure 5: the select operator across
//! representative input/output format combinations and integration degrees,
//! and the project operator that consumes select's positions, across data
//! formats and position densities.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use morph_compression::Format;
use morph_storage::datagen::SyntheticColumn;
use morph_storage::Column;
use morphstore_engine::{project, select, CmpOp, ExecSettings, IntegrationDegree, ProcessingStyle};

const ELEMENTS: usize = 256 * 1024;

fn bench_select_formats(c: &mut Criterion) {
    let mut group = c.benchmark_group("select_formats");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(1));
    group.throughput(Throughput::Elements(ELEMENTS as u64));
    let (values, constant) = SyntheticColumn::C1.generate_select_input(ELEMENTS, 42);
    let uncompressed = Column::from_slice(&values);
    let combos = [
        (Format::Uncompressed, Format::Uncompressed),
        (Format::StaticBp(6), Format::Uncompressed),
        (Format::StaticBp(6), Format::DeltaDynBp),
        (Format::DynBp, Format::DeltaDynBp),
        (Format::Rle, Format::DeltaDynBp),
    ];
    for (input_format, output_format) in combos {
        let input = uncompressed.to_format(&input_format);
        let label = format!("{input_format} -> {output_format}");
        group.bench_with_input(
            BenchmarkId::new("de_recompress", label),
            &input,
            |b, input| {
                b.iter(|| {
                    select(
                        CmpOp::Eq,
                        input,
                        constant,
                        &output_format,
                        &ExecSettings::vectorized_compressed(),
                    )
                })
            },
        );
    }
    group.finish();
}

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
            |b, input| b.iter(|| select(CmpOp::Eq, input, 3, &Format::DeltaDynBp, &settings)),
        );
    }
    group.finish();
}

/// Project over 1 Mi data values with ascending positions (select output)
/// at densities 1 down to 1/1000: random-access formats are read per value,
/// every other format forward through its chunk cursor.
fn bench_project_formats(c: &mut Criterion) {
    const VALUES: usize = 1 << 20;
    let mut group = c.benchmark_group("project");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(1));
    let values = morph_storage::datagen::with_runs(VALUES, 64, 32, 42);
    let plain = Column::from_slice(&values);
    let settings = ExecSettings::vectorized_compressed();
    for stride in [1usize, 10, 100, 1000] {
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
    bench_select_formats,
    bench_select_degrees,
    bench_project_formats
);
criterion_main!(benches);
