//! Per-layer numbers of a traced run that do not come from harness spans:
//! the engine's own bookkeeping (`ExecutionContext::timings`, `QueryTracer`
//! node spans), and timed probes of the codec and vector kernels over the
//! workload's own base columns.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use morph_compression::ChunkCursor;
use morph_storage::Column;
use morph_vector::emu::V512;
use morph_vector::{kernels, VecCmp};
use morphstore_engine::{ExecutionContext, PlanTrace};

use crate::harness::{busy, median, LayerValues, Span, OP_KINDS};

/// Engine-side totals accumulated over the traced ops of a workload.
#[derive(Debug, Default)]
pub struct EngineCounters {
    /// Busy nanoseconds and node count per operator kind.
    ops: BTreeMap<String, (u128, u64)>,
    rows_out: u64,
    bytes_out: u64,
    logical_bytes_out: u64,
    morsel_parts: u64,
    intermediates: u64,
    fused_regions: u64,
    bytes_avoided: u64,
    /// Engine node spans seen (for `telemetry.spans`).
    pub node_spans: u64,
}

/// The operator kind of an engine timing label
/// (`"<label>/<mnemonic>:<step>"`).
fn kind_of(label: &str) -> &str {
    let after_label = label.split_once('/').map_or(label, |(_, rest)| rest);
    after_label.split_once(':').map_or(after_label, |(k, _)| k)
}

impl EngineCounters {
    /// Fold in one executed query: its context's timings and counters, and
    /// the node spans its tracer published.
    pub fn absorb(&mut self, ctx: &ExecutionContext, trace: Option<&PlanTrace>) {
        for (label, elapsed) in ctx.timings() {
            let entry = self.ops.entry(kind_of(label).to_string()).or_default();
            entry.0 += elapsed.as_nanos();
            entry.1 += 1;
        }
        self.intermediates += ctx.intermediate_count() as u64;
        self.fused_regions += ctx.fused_region_count() as u64;
        self.bytes_avoided += ctx.intermediate_bytes_avoided();
        if let Some(trace) = trace {
            for index in 0..trace.node_count() {
                let node = trace.node(index);
                if node.is_recorded() {
                    self.node_spans += 1;
                    self.rows_out += node.rows();
                    self.bytes_out += node.bytes();
                    self.logical_bytes_out += node.logical_bytes();
                    self.morsel_parts += node.morsel_parts();
                }
            }
        }
    }

    /// Σ operator busy seconds over every kind the engine reported.
    pub fn op_busy_s(&self) -> f64 {
        self.ops.values().map(|(ns, _)| *ns as f64 / 1e9).sum()
    }

    /// Write the `engine.*` metrics.  `execute_s` is the wall time of the
    /// harness's `engine.execute` spans, `threads` the workers per query.
    pub fn export(&self, execute_s: f64, threads: usize, layers: &mut LayerValues) {
        for kind in OP_KINDS {
            let (ns, count) = self.ops.get(kind).copied().unwrap_or_default();
            layers.insert(format!("engine.op.{kind}.busy_s"), ns as f64 / 1e9);
            layers.insert(format!("engine.op.{kind}.count"), count as f64);
        }
        for kind in self.ops.keys().filter(|k| !OP_KINDS.contains(&k.as_str())) {
            eprintln!(
                "morphbench: operator kind `{kind}` has no engine.op.* metric; \
                 its time shows as plan overhead"
            );
        }
        let known_busy: f64 = OP_KINDS
            .iter()
            .filter_map(|kind| self.ops.get(*kind))
            .map(|(ns, _)| *ns as f64 / 1e9)
            .sum();
        layers.insert("engine.execute.busy_s".into(), execute_s);
        layers.insert("engine.plan_overhead_s".into(), execute_s - known_busy);
        layers.insert("engine.rows_out".into(), self.rows_out as f64);
        layers.insert("engine.bytes_out".into(), self.bytes_out as f64);
        layers.insert(
            "engine.logical_bytes_out".into(),
            self.logical_bytes_out as f64,
        );
        layers.insert(
            "engine.intermediates.count".into(),
            self.intermediates as f64,
        );
        layers.insert("engine.fusion.regions".into(), self.fused_regions as f64);
        layers.insert(
            "engine.fusion.bytes_avoided".into(),
            self.bytes_avoided as f64,
        );
        let efficiency = if execute_s > 0.0 {
            self.op_busy_s() / (execute_s * threads as f64)
        } else {
            0.0
        };
        layers.insert("engine.parallel.efficiency".into(), efficiency);
        layers.insert(
            "engine.parallel.morsel_parts".into(),
            self.morsel_parts as f64,
        );
    }
}

/// What the set-up layers did, from the last set-up of the run.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetUpLayers {
    pub dbgen_s: f64,
    pub tuning_s: f64,
    /// Format/tuning decisions taken (one per query, case or column).
    pub tuning_count: usize,
    pub compress_s: f64,
    /// Distinct formats among everything the cost model assigned.
    pub distinct_formats: usize,
}

/// Write the layers that do not depend on the ops run: what set-up did,
/// the size of the base columns `base` as stored, and the codec and vector
/// probes over them.
pub fn static_layers(
    set_up: &SetUpLayers,
    base: &[&Column],
    smoke: bool,
    layers: &mut LayerValues,
) {
    let base_bytes: usize = base.iter().map(|c| c.size_used_bytes()).sum();
    let base_values: usize = base.iter().map(|c| c.logical_len()).sum();
    layers.insert("ssb.dbgen.busy_s".into(), set_up.dbgen_s);
    layers.insert("cost.tuning.busy_s".into(), set_up.tuning_s);
    layers.insert("cost.tuning.count".into(), set_up.tuning_count as f64);
    layers.insert(
        "cost.formats.distinct".into(),
        set_up.distinct_formats as f64,
    );
    layers.insert("storage.compress_base.busy_s".into(), set_up.compress_s);
    layers.insert("storage.base_bytes".into(), base_bytes as f64);
    layers.insert(
        "storage.base_bytes_per_value".into(),
        base_bytes as f64 / base_values.max(1) as f64,
    );
    codec_probes(base, layers);
    vector_probes(if smoke { 1 << 16 } else { 1 << 20 }, layers);
}

/// Billions of values per second; 0 when no time was measured.
fn gvalues_per_s(values: usize, seconds: f64) -> f64 {
    if seconds > 0.0 {
        values as f64 / seconds / 1e9
    } else {
        0.0
    }
}

/// Write the `sql.*` metrics from the harness's `sql.parse` / `sql.compile`
/// spans and the node count of the plans compiled.
pub fn sql_layers(spans: &[Span], plan_nodes: u64, layers: &mut LayerValues) {
    let (parse_s, _) = busy(spans, "sql.parse");
    let (compile_s, compiles) = busy(spans, "sql.compile");
    layers.insert("sql.parse.busy_s".into(), parse_s);
    layers.insert("sql.compile.busy_s".into(), compile_s);
    layers.insert("sql.compile.count".into(), compiles as f64);
    layers.insert("sql.plan.nodes".into(), plan_nodes as f64);
}

/// Time `Column::decompress`, a full `Column::cursor` walk and
/// `Column::compress` over `columns` in the formats they are stored in.
fn codec_probes(columns: &[&Column], layers: &mut LayerValues) {
    let mut decode_s = 0.0;
    let mut encode_s = 0.0;
    let mut values = 0usize;
    let mut chunks = 0u64;
    for column in columns {
        let started = Instant::now();
        let decoded = black_box(column.decompress());
        decode_s += started.elapsed().as_secs_f64();

        let mut cursor = column.cursor();
        while let Some(chunk) = cursor.next_chunk() {
            black_box(chunk);
            chunks += 1;
        }

        let started = Instant::now();
        black_box(Column::compress(&decoded, column.format()));
        encode_s += started.elapsed().as_secs_f64();
        values += decoded.len();
    }
    layers.insert("compression.decode.busy_s".into(), decode_s);
    layers.insert(
        "compression.decode.gvalues_per_s".into(),
        gvalues_per_s(values, decode_s),
    );
    layers.insert("compression.encode.busy_s".into(), encode_s);
    layers.insert(
        "compression.encode.gvalues_per_s".into(),
        gvalues_per_s(values, encode_s),
    );
    layers.insert("compression.cursor.chunks".into(), chunks as f64);
}

/// Time the two vector kernels under every scan — `filter_positions` and
/// `sum` — on `len` values with the backend the vectorised operators use.
fn vector_probes(len: usize, layers: &mut LayerValues) {
    const REPEATS: usize = 9;
    let data: Vec<u64> = (0..len as u64).map(|i| i % 64).collect();
    let mut filter_s = Vec::with_capacity(REPEATS);
    let mut sum_s = Vec::with_capacity(REPEATS);
    let mut positions = Vec::with_capacity(len);
    for _ in 0..REPEATS {
        positions.clear();
        let started = Instant::now();
        kernels::filter_positions::<V512>(VecCmp::Lt, black_box(&data), 58, 0, &mut positions);
        filter_s.push(started.elapsed().as_secs_f64());
        black_box(&positions);

        let started = Instant::now();
        black_box(kernels::sum::<V512>(black_box(&data)));
        sum_s.push(started.elapsed().as_secs_f64());
    }
    layers.insert(
        "vector.filter.gvalues_per_s".into(),
        gvalues_per_s(len, median(&filter_s)),
    );
    layers.insert(
        "vector.sum.gvalues_per_s".into(),
        gvalues_per_s(len, median(&sum_s)),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_labels_group_by_mnemonic() {
        assert_eq!(kind_of("1.1/select:lo_pos"), "select");
        assert_eq!(kind_of("sql/semijoin:d_join"), "semijoin");
        assert_eq!(kind_of("case1/agg:sum"), "agg");
        assert_eq!(kind_of("bare"), "bare");
    }

    #[test]
    fn probes_fill_every_codec_and_vector_metric() {
        let values: Vec<u64> = (0..5000).map(|i| i % 100).collect();
        let column = Column::compress(&values, &morph_compression::Format::DynBp);
        let mut layers = LayerValues::new();
        codec_probes(&[&column], &mut layers);
        vector_probes(4096, &mut layers);
        assert!(layers["compression.cursor.chunks"] >= 1.0);
        assert!(layers["compression.decode.gvalues_per_s"] > 0.0);
        assert!(layers["compression.encode.gvalues_per_s"] > 0.0);
        assert!(layers["vector.filter.gvalues_per_s"] > 0.0);
        assert!(layers["vector.sum.gvalues_per_s"] > 0.0);
    }
}
