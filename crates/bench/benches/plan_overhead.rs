//! Overhead of the plan layer: building a `QueryPlan` DAG must cost (far)
//! less than 1 % of executing it.
//!
//! Two measurements on SSB Q1.1:
//!
//! * `plan` — plan construction + `PlanExecutor` walk (`SsbQuery::execute`),
//! * `plan_construction` — building the DAG alone (no execution), showing
//!   the absolute cost of the abstraction (microseconds, versus
//!   milliseconds of query work).

use criterion::{criterion_group, criterion_main, Criterion};
use morph_compression::Format;
use morph_ssb::{dbgen, SsbQuery};
use morphstore_engine::exec::FormatConfig;
use morphstore_engine::{ExecSettings, ExecutionContext};

fn bench_plan_overhead(c: &mut Criterion) {
    let raw = dbgen::generate(0.02, 42);
    let data = raw.with_uniform_format(&Format::DynBp);
    let settings = ExecSettings::vectorized_compressed();
    let formats = FormatConfig::with_default(Format::DynBp);
    let query = SsbQuery::Q1_1;

    let mut group = c.benchmark_group("plan_overhead");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));

    group.bench_function("plan", |b| {
        b.iter(|| {
            let mut ctx = ExecutionContext::new(settings.clone(), formats.clone());
            query.execute(&data, &mut ctx)
        })
    });
    group.bench_function("plan_construction", |b| b.iter(|| query.plan()));
    group.finish();
}

criterion_group!(benches, bench_plan_overhead);
criterion_main!(benches);
