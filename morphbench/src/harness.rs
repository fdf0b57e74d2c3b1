//! Measurement plumbing shared by the workloads: order statistics, the
//! harness's own span recorder, the metric tables that `BENCHMARK.json`
//! mirrors, and process-memory probes.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// How a run is sized.  `smoke` shrinks every input so all five workloads
/// finish in a few seconds under the debug profile.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// Set-ups per full run, at least; `setup_s` is their median.
const MIN_SETUP_REPEATS: usize = 3;
/// A cheap set-up (tens of milliseconds) repeats until this much time has
/// gone into set-ups, so that its median is as steady as an expensive one's.
const CHEAP_SETUP_BUDGET_S: f64 = 1.0;
/// Set-ups per run, at most.
const MAX_SETUP_REPEATS: usize = 21;
/// Untimed sweeps before the timed ones, so caches fill and lazy set-up
/// finishes before timing.
const WARMUP_SWEEPS: usize = 2;

/// How long a measured phase runs.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub warmup_sweeps: usize,
    pub min_samples: usize,
    /// Seconds to measure for; 0 means exactly one sweep (the smoke path).
    pub budget_s: f64,
}

impl RunConfig {
    /// The untraced timed phase.  A traced run splits `--seconds` evenly
    /// between it (the base of the tracing-overhead figure) and the traced
    /// pass, and reports no percentile, so it needs no sample floor.
    pub fn timed_phase(&self) -> Phase {
        if self.smoke {
            Phase {
                warmup_sweeps: 0,
                min_samples: 0,
                budget_s: 0.0,
            }
        } else if self.trace {
            Phase {
                warmup_sweeps: WARMUP_SWEEPS,
                min_samples: 0,
                budget_s: self.seconds / 2.0,
            }
        } else {
            Phase {
                warmup_sweeps: WARMUP_SWEEPS,
                min_samples: MIN_SAMPLES,
                budget_s: self.seconds,
            }
        }
    }

    /// The traced pass: as long as the untraced one, already warm.
    pub fn traced_phase(&self) -> Phase {
        Phase {
            warmup_sweeps: 0,
            min_samples: 0,
            ..self.timed_phase()
        }
    }
}

/// Samples below which `latency_ms_p90` is not a supported percentile; a
/// timed phase keeps going past `--seconds` until it has this many.
pub const MIN_SAMPLES: usize = 100;

// ---------------------------------------------------------------------------
// Metric tables
// ---------------------------------------------------------------------------

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Regression bound as a share of the parent's median (end-to-end only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

/// One per-layer metric (no bound: layer numbers explain, they do not gate).
#[derive(Debug, Clone)]
pub struct LayerDef {
    pub name: String,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

fn layer(name: impl Into<String>, unit: &'static str, higher: bool) -> LayerDef {
    LayerDef {
        name: name.into(),
        unit,
        higher_is_better: higher,
    }
}

/// The end-to-end metrics, in report order.  `ok_share` is 1 − the share of
/// ops that errored, were refused or failed verification.
pub const END_TO_END: [MetricDef; 7] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("throughput_qps", "1/s", true, 0.20),
    e2e("latency_ms_p50", "ms", false, 0.25),
    e2e("latency_ms_p90", "ms", false, 0.25),
    e2e("footprint_mib", "MiB", false, 0.02),
    e2e("peak_rss_mib", "MiB", false, 0.25),
    e2e("ok_share", "share", true, 0.001),
];

/// The operator kinds `engine.op.<kind>.*` is grouped by: the mnemonics of
/// the engine's timing labels (`"<label>/<mnemonic>:<step>"`).
pub const OP_KINDS: [&str; 10] = [
    "select",
    "project",
    "semijoin",
    "join",
    "intersect",
    "merge",
    "group",
    "agg",
    "calc",
    "morph",
];

/// The per-layer metrics of a traced run, in report order.
pub fn per_layer() -> Vec<LayerDef> {
    let mut defs = vec![
        layer("sql.parse.busy_s", "s", false),
        layer("sql.compile.busy_s", "s", false),
        layer("sql.compile.count", "count", false),
        layer("sql.plan.nodes", "count", false),
        layer("cost.tuning.busy_s", "s", false),
        layer("cost.tuning.count", "count", false),
        layer("cost.formats.distinct", "count", true),
        layer("ssb.dbgen.busy_s", "s", false),
        layer("storage.compress_base.busy_s", "s", false),
        layer("storage.base_bytes", "B", false),
        layer("storage.base_bytes_per_value", "B/value", false),
        layer("compression.decode.busy_s", "s", false),
        layer("compression.decode.gvalues_per_s", "Gvalues/s", true),
        layer("compression.encode.busy_s", "s", false),
        layer("compression.encode.gvalues_per_s", "Gvalues/s", true),
        layer("compression.cursor.chunks", "count", false),
        layer("vector.filter.gvalues_per_s", "Gvalues/s", true),
        layer("vector.sum.gvalues_per_s", "Gvalues/s", true),
    ];
    for kind in OP_KINDS {
        defs.push(layer(format!("engine.op.{kind}.busy_s"), "s", false));
        defs.push(layer(format!("engine.op.{kind}.count"), "count", false));
    }
    defs.extend([
        layer("engine.execute.busy_s", "s", false),
        layer("engine.plan_overhead_s", "s", false),
        layer("engine.rows_out", "count", false),
        layer("engine.bytes_out", "B", false),
        layer("engine.logical_bytes_out", "B", false),
        layer("engine.intermediates.count", "count", false),
        layer("engine.fusion.regions", "count", true),
        layer("engine.fusion.bytes_avoided", "B", true),
        layer("engine.parallel.efficiency", "share", true),
        layer("engine.parallel.morsel_parts", "count", true),
        layer("cache.hits", "count", true),
        layer("cache.misses", "count", false),
        layer("cache.hit_rate", "share", true),
        layer("cache.insertions", "count", false),
        layer("cache.evictions", "count", false),
        layer("cache.admission_skipped", "count", false),
        layer("cache.bytes_used", "B", false),
        layer("server.queue_wait_s", "s", false),
        layer("server.exec_s", "s", false),
        layer("server.overhead_s", "s", false),
        layer("server.served", "count", true),
        layer("server.rejected", "count", false),
        layer("server.shed", "count", false),
        layer("server.latency_ms_p99", "ms", false),
        layer("telemetry.trace_overhead_pct", "%", false),
        layer("telemetry.spans", "count", false),
        layer("harness.verify_s", "s", false),
        layer("harness.samples", "count", true),
    ]);
    defs
}

/// The charset `BENCHMARK.json` allows in a metric or workload name.
#[cfg(test)]
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Named per-layer values of one run; absent names report 0 (the layer did
/// not run in this workload).
pub type LayerValues = BTreeMap<String, f64>;

// ---------------------------------------------------------------------------
// What a workload hands back
// ---------------------------------------------------------------------------

/// Latency samples and block wall times of one measured phase.
#[derive(Debug, Default, Clone)]
pub struct Timed {
    /// Per-op latency in milliseconds, as the caller measured it; a failed
    /// op contributes `f64::MAX`, so it misses every percentile.
    pub latencies_ms: Vec<f64>,
    /// Wall time of each block (one sweep of the op list, or 100 ops per
    /// client for `serve_zipf`) in seconds.
    pub block_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

impl Timed {
    /// Time one block of ops.
    pub fn block(&mut self, ops: impl FnOnce(&mut Timed)) {
        let started = Instant::now();
        ops(self);
        self.block_s.push(started.elapsed().as_secs_f64());
    }

    /// Count one op: its latency in milliseconds, or `None` if it failed.
    pub fn record(&mut self, latency_ms: Option<f64>) {
        self.attempted += 1;
        if latency_ms.is_none() {
            self.failed += 1;
        }
        self.latencies_ms.push(latency_ms.unwrap_or(f64::MAX));
    }
}

/// Everything one workload run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// One set-up time per repeat.
    pub setup_s: Vec<f64>,
    /// Ops in one block, over all clients.
    pub ops_per_block: usize,
    /// The untraced timed phase.
    pub timed: Timed,
    /// Σ over the workload's distinct queries of base + intermediate bytes.
    pub footprint_bytes: usize,
    /// `VmHWM` after the timed phase, before the harness builds references.
    pub peak_rss_mib: f64,
    /// Seconds spent computing references and checking first outputs.
    pub verify_s: f64,
    /// Per-layer values (traced runs only).
    pub layers: LayerValues,
}

/// Set up three times, or once on the smoke path, and go on while set-ups
/// are cheap; each state is dropped before the next is built (so peak
/// memory is one set-up's).  Returns the last state with the wall time of
/// every repeat.
pub fn repeat_set_up<T>(config: &RunConfig, mut set_up: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::new();
    let mut state = None;
    loop {
        drop(state.take());
        let started = Instant::now();
        let built = set_up();
        times.push(started.elapsed().as_secs_f64());
        let spent: f64 = times.iter().sum();
        let cheap = spent < CHEAP_SETUP_BUDGET_S && times.len() < MAX_SETUP_REPEATS;
        if config.smoke || (times.len() >= MIN_SETUP_REPEATS && !cheap) {
            return (built, times);
        }
        state = Some(built);
    }
}

/// The first output seen per distinct query: kept for the reference check
/// after the timed phase; every later output of the query must equal it.
#[derive(Debug)]
pub struct FirstOutputs<T>(Vec<Option<T>>);

impl<T: PartialEq> FirstOutputs<T> {
    pub fn new(queries: usize) -> FirstOutputs<T> {
        FirstOutputs((0..queries).map(|_| None).collect())
    }

    /// Whether `output` agrees with what query `index` returned before
    /// (trivially so the first time, when it is recorded).
    pub fn consistent(&mut self, index: usize, output: T) -> bool {
        match &self.0[index] {
            Some(first) => *first == output,
            None => {
                self.0[index] = Some(output);
                true
            }
        }
    }

    pub fn get(&self, index: usize) -> Option<&T> {
        self.0[index].as_ref()
    }
}

/// Run `op` over `0..ops_per_sweep` in whole sweeps: the phase's untimed
/// warm-up sweeps, then timed sweeps until its budget has passed *and* its
/// sample floor is met.  `op` returns its latency in milliseconds, or
/// `None` when the op failed.
pub fn run_sweeps(
    phase: Phase,
    ops_per_sweep: usize,
    mut op: impl FnMut(usize) -> Option<f64>,
) -> Timed {
    let Phase {
        warmup_sweeps,
        min_samples,
        budget_s,
    } = phase;
    for _ in 0..warmup_sweeps {
        for index in 0..ops_per_sweep {
            op(index);
        }
    }
    let mut timed = Timed::default();
    let started = Instant::now();
    loop {
        timed.block(|timed| {
            for index in 0..ops_per_sweep {
                timed.record(op(index));
            }
        });
        let enough = timed.latencies_ms.len() >= min_samples;
        if budget_s == 0.0 || (started.elapsed().as_secs_f64() >= budget_s && enough) {
            return timed;
        }
    }
}

// ---------------------------------------------------------------------------
// Order statistics
// ---------------------------------------------------------------------------

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`pct` in 0..=100) of `values`; 0 when empty.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile of the ladder that still has at least ten samples
/// beyond it at `samples` samples (`None` below 20 samples, where not even
/// the median has).  p90 needs 100 samples, p95 200, p99 1000.
pub fn highest_supported_percentile(samples: usize) -> Option<u32> {
    [99u32, 95, 90, 75, 50]
        .into_iter()
        .find(|pct| samples * (100 - *pct as usize) / 100 >= 10)
}

// ---------------------------------------------------------------------------
// The harness's span recorder
// ---------------------------------------------------------------------------

/// One span recorded by the harness around a call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// The op (request) the span belongs to; spans of one op share it.
    pub op_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder: spans nest by begin/end order on one thread and
/// are written out when the benchmark ends.  A disabled recorder (the timed
/// phase) records nothing and reads no clock.
#[derive(Debug)]
pub struct SpanRecorder {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanRecorder {
    pub fn new(enabled: bool) -> SpanRecorder {
        SpanRecorder {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// An empty recorder for another thread, on this one's time axis and
    /// enabled like it; `absorb` brings its spans back.
    pub fn child(&self) -> SpanRecorder {
        SpanRecorder {
            epoch: self.epoch,
            enabled: self.enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` belonging to op `op_id`.
    pub fn span<R>(&mut self, name: &'static str, op_id: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op_id,
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        result
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append another recorder's spans (a client thread's), re-basing their
    /// parent indices.
    pub fn absorb(&mut self, other: SpanRecorder) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
    }
}

/// Self time per span: its duration minus the part its direct children
/// cover (children of one span never overlap: they nest on one thread).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            covered[parent] += span.duration_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(span, children)| span.duration_ns().saturating_sub(children))
        .collect()
}

/// Total duration (seconds) and count of the spans named `name`.
pub fn busy(spans: &[Span], name: &str) -> (f64, u64) {
    let mut total_ns = 0u64;
    let mut count = 0u64;
    for span in spans.iter().filter(|s| s.name == name) {
        total_ns += span.duration_ns();
        count += 1;
    }
    (total_ns as f64 / 1e9, count)
}

/// Write the spans as JSON lines (`name, start_ns, end_ns, parent, op_id,
/// self_ns`; `parent` is the line index of the enclosing span or null).
fn write_trace(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (span, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \
             \"op_id\": {}, \"self_ns\": {}}}",
            span.name, span.start_ns, span.end_ns, parent, span.op_id, self_ns
        )?;
    }
    out.flush()
}

/// Close a traced pass: record how it compares with the untraced phase
/// (`telemetry.*`), count its failures, and write the spans out.
/// `engine_spans` is the number of spans the engine's own tracer published.
pub fn finish_traced_pass(
    config: &RunConfig,
    report: &mut Report,
    traced: &Timed,
    spans: &[Span],
    engine_spans: u64,
) {
    let untraced = median(&report.timed.block_s);
    let overhead_pct = if untraced > 0.0 {
        (median(&traced.block_s) / untraced - 1.0) * 100.0
    } else {
        0.0
    };
    report
        .layers
        .insert("telemetry.trace_overhead_pct".into(), overhead_pct);
    report.layers.insert(
        "telemetry.spans".into(),
        (spans.len() as u64 + engine_spans) as f64,
    );
    report.timed.attempted += traced.attempted;
    report.timed.failed += traced.failed;
    let path = trace_path(&config.workload);
    match write_trace(&path, spans) {
        Ok(()) => eprintln!(
            "morphbench: wrote {} spans to {}",
            spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("morphbench: could not write {}: {e}", path.display()),
    }
}

/// Where the trace of `workload` goes: `<target dir>/morphbench/`, next to
/// the profile directory the running executable was built into.
fn trace_path(workload: &str) -> std::path::PathBuf {
    let target = std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.to_path_buf()))
        .unwrap_or_else(|| std::path::PathBuf::from("target"));
    target
        .join("morphbench")
        .join(format!("{workload}.trace.jsonl"))
}

// ---------------------------------------------------------------------------
// Process probes and small utilities
// ---------------------------------------------------------------------------

/// Peak resident set size (`VmHWM`) of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(0.0)
}

pub fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Deterministic 64-bit generator (splitmix64) for the benchmark's own
/// inputs: the statement pool and the Zipf request sequences.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `low..=high`.
    pub fn range(&mut self, low: u64, high: u64) -> u64 {
        low + self.next_u64() % (high - low + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_support_obeys_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50));
        assert_eq!(highest_supported_percentile(99), Some(75));
        assert_eq!(highest_supported_percentile(100), Some(90));
        assert_eq!(highest_supported_percentile(199), Some(90));
        assert_eq!(highest_supported_percentile(200), Some(95));
        assert_eq!(highest_supported_percentile(1000), Some(99));
        // The floor every timed phase runs to is exactly what p90 needs.
        assert_eq!(highest_supported_percentile(MIN_SAMPLES), Some(90));
        assert!(highest_supported_percentile(MIN_SAMPLES - 1) < Some(90));
    }

    #[test]
    fn percentile_and_median_are_nearest_rank() {
        let values: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), 50.0);
        assert_eq!(percentile(&values, 90.0), 90.0);
        assert_eq!(percentile(&values, 100.0), 100.0);
        assert_eq!(percentile(&values, 0.0), 1.0);
        assert_eq!(median(&values), 50.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(percentile(&[], 90.0), 0.0);
    }

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 7,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("op", 0, 100, None),
            span("sql.compile", 10, 30, Some(0)),
            span("engine.execute", 30, 90, Some(0)),
            span("engine.inner", 40, 50, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 20, 50, 10]);
        assert_eq!(busy(&spans, "sql.compile"), (20e-9, 1));
        assert_eq!(busy(&spans, "absent"), (0.0, 0));
    }

    #[test]
    fn recorder_nests_and_a_disabled_one_records_nothing() {
        let mut recorder = SpanRecorder::new(true);
        let answer = recorder.span("op", 3, |r| r.span("child", 3, |_| 42));
        assert_eq!(answer, 42);
        let spans = recorder.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(spans.iter().all(|s| s.op_id == 3));

        let mut other = recorder.child();
        other.span("op", 4, |r| r.span("child", 4, |_| ()));
        recorder.absorb(other);
        assert_eq!(recorder.spans()[3].parent, Some(2));

        let mut off = SpanRecorder::new(false).child();
        assert_eq!(off.span("op", 0, |_| 1), 1);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn every_metric_name_fits_the_benchmark_charset() {
        let layers = per_layer();
        assert!(layers.len() <= 128);
        let mut seen = std::collections::HashSet::new();
        let all = END_TO_END
            .iter()
            .map(|d| (d.name, d.unit))
            .chain(layers.iter().map(|d| (d.name.as_str(), d.unit)));
        for (name, unit) in all {
            assert!(valid_metric_name(name), "{name}");
            assert!(seen.insert(name), "duplicate {name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-')));
        }
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name(".leading"));
        assert!(!valid_metric_name("has space"));
        assert!(!valid_metric_name("slash/name"));
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
    }

    #[test]
    fn splitmix_is_deterministic_and_in_range() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let mut c = SplitMix64::new(43);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..8).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..8).map(|_| c.next_u64()).collect::<Vec<_>>());
        for _ in 0..1000 {
            assert!((3..=9).contains(&a.range(3, 9)));
            assert!((0.0..1.0).contains(&a.unit()));
        }
    }
}
