//! Format-selection strategies: turn per-column information into a
//! [`FormatConfig`] assigning one compression format to every base column and
//! intermediate of a query.
//!
//! These are the strategies the paper's evaluation compares (Figures 7–10):
//! all-uncompressed, static BP everywhere, the cost-based selection of \[19\],
//! the exhaustive best/worst combination with respect to the memory
//! footprint, and a greedy search that fixes one column at a time with
//! respect to a measured objective (the paper uses this greedy strategy for
//! the best/worst *runtime* combinations).

use std::collections::HashMap;
use std::time::Duration;

use morph_compression::Format;
use morph_storage::{Column, ColumnStats};
use morphstore_engine::exec::FormatConfig;
use morphstore_engine::plan::QueryPlan;
use morphstore_engine::{FusedRegionSummary, FusionPlan};

use crate::model::{estimate_compressed_bytes, exact_compressed_bytes};

/// What a format selection optimises for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SelectionObjective {
    /// Minimise the physical size of the columns.
    #[default]
    Footprint,
    /// Minimise the query runtime (penalises formats with expensive access
    /// paths even when they are small).
    Runtime,
}

/// A named selection strategy, applied uniformly to every column of a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FormatSelectionStrategy {
    /// Every column uncompressed (the baseline of Figures 7–9).
    AllUncompressed,
    /// Static bit packing with the column's own maximum bit width for every
    /// column ("static BP" in Figures 7 and 10).
    AllStaticBp,
    /// Cost-based selection from data characteristics (Figure 10,
    /// "cost-based").
    CostBased,
    /// Exhaustively try every format per column and keep the smallest
    /// (Figure 7/10, "best combination" w.r.t. footprint).
    ExhaustiveBestFootprint,
    /// Exhaustively try every format per column and keep the largest
    /// (Figure 7, "worst combination" w.r.t. footprint).
    ExhaustiveWorstFootprint,
}

impl FormatSelectionStrategy {
    /// All strategies, in the order the harness reports them.
    pub fn all() -> [FormatSelectionStrategy; 5] {
        [
            FormatSelectionStrategy::AllUncompressed,
            FormatSelectionStrategy::AllStaticBp,
            FormatSelectionStrategy::CostBased,
            FormatSelectionStrategy::ExhaustiveBestFootprint,
            FormatSelectionStrategy::ExhaustiveWorstFootprint,
        ]
    }

    /// Label used by the benchmark harness.
    pub fn label(&self) -> &'static str {
        match self {
            FormatSelectionStrategy::AllUncompressed => "uncompressed",
            FormatSelectionStrategy::AllStaticBp => "static BP",
            FormatSelectionStrategy::CostBased => "cost-based",
            FormatSelectionStrategy::ExhaustiveBestFootprint => "best combination",
            FormatSelectionStrategy::ExhaustiveWorstFootprint => "worst combination",
        }
    }

    /// Build a [`FormatConfig`] for the given captured columns.
    pub fn build_config(&self, columns: &HashMap<String, Column>) -> FormatConfig {
        match self {
            FormatSelectionStrategy::AllUncompressed => {
                FormatConfig::with_default(Format::Uncompressed)
            }
            FormatSelectionStrategy::AllStaticBp => static_bp_config(columns),
            FormatSelectionStrategy::CostBased => {
                let stats = columns
                    .iter()
                    .map(|(name, column)| (name.clone(), ColumnStats::from_column(column)))
                    .collect();
                cost_based_config(&stats, SelectionObjective::Footprint)
            }
            FormatSelectionStrategy::ExhaustiveBestFootprint => exhaustive_config(columns, true),
            FormatSelectionStrategy::ExhaustiveWorstFootprint => exhaustive_config(columns, false),
        }
    }

    /// Build a [`FormatConfig`] for a query plan: the assignable columns are
    /// the plan's *edges* — its base columns and named intermediates — not a
    /// hard-coded per-query list.  `columns` supplies the data (or a
    /// captured reference execution's data) per edge name; edges without
    /// data are left to the config's default.
    pub fn build_config_for_plan(
        &self,
        plan: &QueryPlan,
        columns: &HashMap<String, Column>,
    ) -> FormatConfig {
        let edge_names: std::collections::HashSet<String> =
            plan.edges().into_iter().map(|edge| edge.name).collect();
        // The common caller already passes a map scoped to the plan's edges;
        // only fall back to a filtered copy when foreign columns are present.
        if columns.keys().all(|name| edge_names.contains(name)) {
            return self.build_config(columns);
        }
        let relevant: HashMap<String, Column> = columns
            .iter()
            .filter(|(name, _)| edge_names.contains(*name))
            .map(|(name, column)| (name.clone(), column.clone()))
            .collect();
        self.build_config(&relevant)
    }

    /// Build a format + fan-out tuning for `plan`: the formats are
    /// [`FormatSelectionStrategy::build_config_for_plan`]'s, and a
    /// `morsel_threshold` is derived from the fused drivers' (or the largest
    /// captured edge's) length and the host core count, so large
    /// single-region plans fan out across the pool.
    pub fn build_tuning_for_plan(
        &self,
        plan: &QueryPlan,
        columns: &HashMap<String, Column>,
    ) -> PlanTuning {
        let summaries = FusionPlan::analyze(plan).region_summaries(plan);
        PlanTuning {
            formats: self.build_config_for_plan(plan, columns),
            morsel_threshold: morsel_threshold_for(&summaries, columns),
        }
    }
}

/// A format + parallelism decision for one plan: the per-edge format
/// assignment and the morsel fan-out threshold (see
/// [`FormatSelectionStrategy::build_tuning_for_plan`]).
#[derive(Debug, Clone)]
pub struct PlanTuning {
    /// The per-edge format assignment.
    pub formats: FormatConfig,
    /// The morsel fan-out threshold (`None` leaves fan-out off).
    pub morsel_threshold: Option<usize>,
}

/// Rows below which a morsel part is not worth its merge.
const MIN_MORSEL_ROWS: usize = 4096;

/// The fan-out threshold a tuning picks: sized so the biggest fan-out
/// column — a fused region's driver when one can fan out, the largest
/// captured edge otherwise — splits into about two parts per host core,
/// but never below [`MIN_MORSEL_ROWS`].  `None` when nothing is big enough
/// to amortise a fan-out.
fn morsel_threshold_for(
    summaries: &[FusedRegionSummary],
    columns: &HashMap<String, Column>,
) -> Option<usize> {
    let fan_out_len = summaries
        .iter()
        .filter(|summary| summary.prefix_independent)
        .filter_map(|summary| columns.get(&summary.driver))
        .map(|column| column.logical_len())
        .max()
        .or_else(|| columns.values().map(|column| column.logical_len()).max())?;
    if fan_out_len < 2 * MIN_MORSEL_ROWS {
        return None;
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    Some((fan_out_len / (2 * cores)).max(MIN_MORSEL_ROWS))
}

/// Static BP with each column's own maximum bit width.
pub fn static_bp_config(columns: &HashMap<String, Column>) -> FormatConfig {
    let mut config = FormatConfig::with_default(Format::StaticBp(64));
    for (name, column) in columns {
        let stats = ColumnStats::from_column(column);
        config.insert(name, Format::StaticBp(stats.max_bit_width()));
    }
    config
}

/// Cost-based selection: pick, per column, the format with the smallest
/// estimated size (footprint objective) or the smallest estimated size among
/// the formats with cheap sequential access (runtime objective).
pub fn cost_based_config(
    stats_by_column: &HashMap<String, ColumnStats>,
    objective: SelectionObjective,
) -> FormatConfig {
    let mut config = FormatConfig::with_default(Format::StaticBp(64));
    for (name, stats) in stats_by_column {
        config.insert(name, cost_based_format(stats, objective));
    }
    config
}

/// Cost-based selection for a single column.
pub fn cost_based_format(stats: &ColumnStats, objective: SelectionObjective) -> Format {
    let mut candidates = Format::all_formats(stats.max);
    if objective == SelectionObjective::Runtime {
        // RLE only pays off at runtime when runs are long enough to shortcut
        // whole vectors of work; otherwise prefer bit-packed formats.
        if stats.avg_run_length() < 8.0 {
            candidates.retain(|f| f != &Format::Rle);
        }
    }
    candidates
        .into_iter()
        .min_by(|a, b| {
            estimate_compressed_bytes(a, stats).total_cmp(&estimate_compressed_bytes(b, stats))
        })
        .expect("candidate list is never empty")
}

/// Exhaustive per-column search by exact physical size.
pub fn exhaustive_config(columns: &HashMap<String, Column>, best: bool) -> FormatConfig {
    let mut config = FormatConfig::with_default(Format::Uncompressed);
    for (name, column) in columns {
        let stats = ColumnStats::from_column(column);
        let chosen = Format::all_formats(stats.max)
            .into_iter()
            .map(|format| (exact_compressed_bytes(&format, column), format))
            .reduce(|acc, item| {
                let better = if best { item.0 < acc.0 } else { item.0 > acc.0 };
                if better {
                    item
                } else {
                    acc
                }
            })
            .expect("candidate list is never empty");
        config.insert(name, chosen.1);
    }
    config
}

/// Greedy search over per-column formats with respect to a *measured*
/// objective, as the paper does for the best/worst runtime combinations:
/// "starting at the base data, \[consider\] one column at a time by trying all
/// available formats for that column, measuring the resulting query runtimes
/// and fixing the column's format to the one yielding the best runtime"
/// (Section 5.2).
///
/// `columns` maps each assignable column name to its maximum value (used to
/// derive the static BP candidate); `measure` runs the query under a given
/// configuration and returns the measured runtime; `minimize` selects whether
/// the best or the worst runtime is kept.
pub fn greedy_runtime_search(
    columns: &[(String, u64)],
    mut measure: impl FnMut(&FormatConfig) -> Duration,
    minimize: bool,
) -> FormatConfig {
    let mut config = FormatConfig::with_default(Format::Uncompressed);
    for (name, max_value) in columns {
        let mut best: Option<(Duration, Format)> = None;
        for format in Format::all_formats(*max_value) {
            let mut trial = config.clone();
            trial.insert(name, format);
            let runtime = measure(&trial);
            let better = match &best {
                None => true,
                Some((current, _)) => {
                    if minimize {
                        runtime < *current
                    } else {
                        runtime > *current
                    }
                }
            };
            if better {
                best = Some((runtime, format));
            }
        }
        let (_, chosen) = best.expect("at least one candidate format");
        config.insert(name, chosen);
    }
    config
}

#[cfg(test)]
mod tests {
    use super::*;
    use morph_storage::datagen::SyntheticColumn;

    fn captured_columns() -> HashMap<String, Column> {
        SyntheticColumn::all()
            .iter()
            .map(|c| {
                (
                    c.label().to_string(),
                    Column::from_slice(&c.generate(8192, 5)),
                )
            })
            .collect()
    }

    #[test]
    fn strategies_have_unique_labels() {
        let labels: std::collections::HashSet<&str> = FormatSelectionStrategy::all()
            .iter()
            .map(|s| s.label())
            .collect();
        assert_eq!(labels.len(), 5);
    }

    #[test]
    fn exhaustive_best_is_never_larger_than_any_other_strategy() {
        let columns = captured_columns();
        let footprint = |config: &FormatConfig| -> usize {
            columns
                .iter()
                .map(|(name, column)| {
                    let format = config.format_for(name, Format::Uncompressed);
                    exact_compressed_bytes(&format, column)
                })
                .sum()
        };
        let best = footprint(&exhaustive_config(&columns, true));
        let worst = footprint(&exhaustive_config(&columns, false));
        for strategy in FormatSelectionStrategy::all() {
            let size = footprint(&strategy.build_config(&columns));
            assert!(
                size >= best,
                "{} beat the exhaustive best",
                strategy.label()
            );
            assert!(
                size <= worst,
                "{} exceeded the exhaustive worst",
                strategy.label()
            );
        }
    }

    #[test]
    fn cost_based_is_close_to_exhaustive_best() {
        // The core claim of Figure 10: cost-based selection yields footprints
        // virtually equal to the actual optimum.
        let columns = captured_columns();
        let footprint = |config: &FormatConfig| -> usize {
            columns
                .iter()
                .map(|(name, column)| {
                    let format = config.format_for(name, Format::Uncompressed);
                    exact_compressed_bytes(&format, column)
                })
                .sum()
        };
        let best = footprint(&exhaustive_config(&columns, true)) as f64;
        let cost_based =
            footprint(&FormatSelectionStrategy::CostBased.build_config(&columns)) as f64;
        assert!(
            cost_based <= best * 1.15,
            "cost-based {cost_based} vs best {best}"
        );
    }

    #[test]
    fn static_bp_config_uses_per_column_widths() {
        let columns = captured_columns();
        let config = static_bp_config(&columns);
        assert_eq!(
            config.format_for("C1", Format::Uncompressed),
            Format::StaticBp(6)
        );
        assert_eq!(
            config.format_for("C4", Format::Uncompressed),
            Format::StaticBp(48)
        );
    }

    #[test]
    fn runtime_objective_avoids_rle_on_run_free_data() {
        let values: Vec<u64> = (0..10_000u64).map(|i| i % 977).collect();
        let stats = ColumnStats::from_values(&values);
        let footprint_choice = cost_based_format(&stats, SelectionObjective::Footprint);
        let runtime_choice = cost_based_format(&stats, SelectionObjective::Runtime);
        assert_ne!(runtime_choice, Format::Rle);
        // The footprint objective is free to pick anything, but on run-free
        // data RLE doubles the size, so neither objective should pick it.
        assert_ne!(footprint_choice, Format::Rle);
    }

    #[test]
    fn greedy_search_fixes_one_column_at_a_time() {
        // Synthetic measurement: DELTA on "a" is fastest, RLE on "b" is
        // slowest; the greedy search must find exactly that.
        let columns = vec![("a".to_string(), 1000u64), ("b".to_string(), 1000u64)];
        let fake_measure = |config: &FormatConfig| -> Duration {
            let mut cost = 100i64;
            if config.format_for("a", Format::Uncompressed) == Format::DeltaDynBp {
                cost -= 50;
            }
            if config.format_for("b", Format::Uncompressed) == Format::Rle {
                cost += 70;
            }
            Duration::from_millis(cost as u64)
        };
        let fastest = greedy_runtime_search(&columns, fake_measure, true);
        assert_eq!(
            fastest.format_for("a", Format::Uncompressed),
            Format::DeltaDynBp
        );
        assert_ne!(fastest.format_for("b", Format::Uncompressed), Format::Rle);
        let slowest = greedy_runtime_search(&columns, fake_measure, false);
        assert_eq!(slowest.format_for("b", Format::Uncompressed), Format::Rle);
    }

    #[test]
    fn plan_scoped_config_covers_exactly_the_plan_edges() {
        use morphstore_engine::plan::PlanBuilder;
        use morphstore_engine::CmpOp;
        let mut p = PlanBuilder::new("q");
        let x = p.scan("x");
        let pos = p.select("pos", x, CmpOp::Lt, 100);
        let total = p.agg_sum("total", pos);
        let plan = p.finish_scalar(total);
        let edge_names: Vec<String> = plan.edges().into_iter().map(|edge| edge.name).collect();
        assert_eq!(edge_names, vec!["x".to_string(), "q/pos".to_string()]);
        let mut columns = HashMap::new();
        columns.insert(
            "x".to_string(),
            Column::from_slice(&(0..5000u64).collect::<Vec<_>>()),
        );
        columns.insert(
            "q/pos".to_string(),
            Column::from_slice(&(0..100u64).collect::<Vec<_>>()),
        );
        // Captured data from another query must not leak into this plan's
        // configuration.
        columns.insert("unrelated".to_string(), Column::from_slice(&[1, 2, 3]));
        let config = FormatSelectionStrategy::CostBased.build_config_for_plan(&plan, &columns);
        let explicit: std::collections::HashSet<&str> = config.explicit_columns().collect();
        assert!(explicit.contains("x"));
        assert!(explicit.contains("q/pos"));
        assert!(!explicit.contains("unrelated"));
    }

    #[test]
    fn tuning_keeps_the_strategy_formats_and_fans_out_large_drivers() {
        use morphstore_engine::plan::PlanBuilder;
        use morphstore_engine::CmpOp;
        // scan → select → agg: the select is the fused interior, the scan
        // is the driver (a fusion boundary).
        let plan = {
            let mut p = PlanBuilder::new("q");
            let x = p.scan("x");
            let pos = p.select("pos", x, CmpOp::Lt, 100);
            let total = p.agg_sum("total", pos);
            p.finish_scalar(total)
        };
        let mut columns = HashMap::new();
        columns.insert(
            "x".to_string(),
            Column::from_slice(&(0..20_000u64).map(|i| i % 977).collect::<Vec<_>>()),
        );
        columns.insert(
            "q/pos".to_string(),
            Column::from_slice(&(0..2_000u64).map(|i| i * 10).collect::<Vec<_>>()),
        );
        for strategy in FormatSelectionStrategy::all() {
            let config = strategy.build_config_for_plan(&plan, &columns);
            let tuning = strategy.build_tuning_for_plan(&plan, &columns);
            for edge in plan.edges() {
                assert_eq!(
                    tuning.formats.format_for(&edge.name, Format::Uncompressed),
                    config.format_for(&edge.name, Format::Uncompressed),
                    "{} on {}",
                    strategy.label(),
                    edge.name
                );
            }
            // The 20k-row prefix-independent driver is big enough to fan out.
            let threshold = tuning.morsel_threshold.expect("fan-out priced in");
            assert!(threshold >= 4096);
            assert!(threshold <= 20_000);
        }
    }

    #[test]
    fn tuning_leaves_fan_out_off_for_small_data() {
        use morphstore_engine::plan::PlanBuilder;
        use morphstore_engine::CmpOp;
        let plan = {
            let mut p = PlanBuilder::new("q");
            let x = p.scan("x");
            let pos = p.select("pos", x, CmpOp::Lt, 100);
            let total = p.agg_sum("total", pos);
            p.finish_scalar(total)
        };
        let mut columns = HashMap::new();
        columns.insert(
            "x".to_string(),
            Column::from_slice(&(0..1000u64).collect::<Vec<_>>()),
        );
        let tuning = FormatSelectionStrategy::CostBased.build_tuning_for_plan(&plan, &columns);
        assert_eq!(tuning.morsel_threshold, None);
    }
}
