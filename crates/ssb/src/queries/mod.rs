//! The 13 SSB queries as declarative query plans against the engine.
//!
//! Every query follows the same star-join pattern MonetDB-style plans use
//! (and which the paper's MorphStore plans imitate, Section 5.2):
//!
//! 1. each filtered dimension table is reduced to the set of its qualifying
//!    primary keys (select + project),
//! 2. the fact table is restricted by one semi-join per qualifying dimension
//!    (producing sorted lineorder position lists) and the position lists are
//!    intersected,
//! 3. the group-by attributes are fetched by joining the restricted foreign
//!    keys back to the dimensions and projecting the attribute columns,
//! 4. grouping and grouped summation produce the result.
//!
//! Each flight module builds a [`QueryPlan`] via
//! [`morphstore_engine::plan::PlanBuilder`]; [`SsbQuery::execute`] hands the
//! plan to the [`PlanExecutor`], which resolves per-edge compression formats
//! from the [`ExecutionContext`]'s format assignment, auto-generates the
//! stable `"<query>/<step>"` intermediate names, and records every base
//! column and intermediate — so the format-selection strategies can assign
//! each one an individual format and the harness can account footprints
//! exactly like the paper does.

mod flight1;
mod flight2;
mod flight3;
mod flight4;

use morphstore_engine::plan::{ColRef, PlanBuilder, PlanExecutor, QueryPlan};
use morphstore_engine::{CmpOp, ExecutionContext, ParallelExecutor};

use crate::data::SsbData;

/// Identifier of one of the 13 SSB queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum SsbQuery {
    Q1_1,
    Q1_2,
    Q1_3,
    Q2_1,
    Q2_2,
    Q2_3,
    Q3_1,
    Q3_2,
    Q3_3,
    Q3_4,
    Q4_1,
    Q4_2,
    Q4_3,
}

impl SsbQuery {
    /// All 13 queries in benchmark order.
    pub fn all() -> [SsbQuery; 13] {
        use SsbQuery::*;
        [
            Q1_1, Q1_2, Q1_3, Q2_1, Q2_2, Q2_3, Q3_1, Q3_2, Q3_3, Q3_4, Q4_1, Q4_2, Q4_3,
        ]
    }

    /// The label used by the paper's figures ("1.1" … "4.3").
    pub fn label(&self) -> &'static str {
        use SsbQuery::*;
        match self {
            Q1_1 => "1.1",
            Q1_2 => "1.2",
            Q1_3 => "1.3",
            Q2_1 => "2.1",
            Q2_2 => "2.2",
            Q2_3 => "2.3",
            Q3_1 => "3.1",
            Q3_2 => "3.2",
            Q3_3 => "3.3",
            Q3_4 => "3.4",
            Q4_1 => "4.1",
            Q4_2 => "4.2",
            Q4_3 => "4.3",
        }
    }

    /// The query's logical operator DAG, labelled with the query label so
    /// every intermediate gets its stable `"<query>/<step>"` name.
    pub fn plan(&self) -> QueryPlan {
        use SsbQuery::*;
        match self {
            Q1_1 | Q1_2 | Q1_3 => flight1::plan(*self),
            Q2_1 | Q2_2 | Q2_3 => flight2::plan(*self),
            Q3_1 | Q3_2 | Q3_3 | Q3_4 => flight3::plan(*self),
            Q4_1 | Q4_2 | Q4_3 => flight4::plan(*self),
        }
    }

    /// The base columns the query touches, derived from its plan (used by
    /// the format-combination searches of Figures 7–10 to enumerate
    /// assignable columns).
    pub fn base_columns(&self) -> Vec<String> {
        self.plan().base_columns()
    }

    /// Execute the query on `data` by building its plan and walking it with
    /// the [`PlanExecutor`], recording footprints and timings in `ctx`.
    ///
    /// When the context's settings carry a plan-level cache handle
    /// (`ExecSettings::cache`), memoised subplan results are served instead
    /// of recomputed: warm runs return byte-identical results, footprint
    /// records and timing-label sequences, with
    /// `ExecutionContext::cache_hit_count` reporting how many nodes hit.
    pub fn execute(&self, data: &SsbData, ctx: &mut ExecutionContext) -> QueryResult {
        let output = PlanExecutor.execute(&self.plan(), data, ctx);
        QueryResult {
            group_keys: output.group_keys,
            values: output.values,
        }
    }

    /// Execute the query's plan on a pool of `threads` workers, scheduling
    /// independent plan subtrees concurrently (the per-dimension
    /// select → project → semi-join chains of the star joins are mutually
    /// independent).
    ///
    /// Results, footprint records and operator-timing label sequences are
    /// identical to [`SsbQuery::execute`] at every thread count — the
    /// scheduler merges per-node records back in topological order;
    /// `threads = 1` runs the same loop as [`SsbQuery::execute`], inline on
    /// the calling thread.  A plan
    /// cache attached via `ExecSettings::cache` is shared with the serial
    /// path: entries inserted by either executor (including morsel-merged
    /// columns, which are byte-identical to serial outputs) hit in both.
    pub fn execute_parallel(
        &self,
        data: &SsbData,
        ctx: &mut ExecutionContext,
        threads: usize,
    ) -> QueryResult {
        let output = ParallelExecutor::new(threads).execute(&self.plan(), data, ctx);
        QueryResult {
            group_keys: output.group_keys,
            values: output.values,
        }
    }
}

impl std::fmt::Display for SsbQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Q{}", self.label())
    }
}

/// The result of an SSB query: zero or more group-key columns plus the
/// aggregated measure, row-aligned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryResult {
    /// One vector per `GROUP BY` attribute, in query order.
    pub group_keys: Vec<Vec<u64>>,
    /// The aggregated value per result row (a single element for the
    /// ungrouped flight-1 queries).
    pub values: Vec<u64>,
}

impl QueryResult {
    /// The single aggregate of an ungrouped query (flight 1).
    pub fn single(&self) -> u64 {
        assert!(self.group_keys.is_empty() && self.values.len() == 1);
        self.values[0]
    }

    /// Number of result rows.
    pub fn row_count(&self) -> usize {
        self.values.len()
    }

    /// Result rows `(group key tuple, aggregate)` sorted by key tuple, for
    /// order-insensitive comparisons.
    pub fn sorted_rows(&self) -> Vec<(Vec<u64>, u64)> {
        let mut rows: Vec<(Vec<u64>, u64)> = (0..self.values.len())
            .map(|i| {
                (
                    self.group_keys.iter().map(|col| col[i]).collect(),
                    self.values[i],
                )
            })
            .collect();
        rows.sort_unstable();
        rows
    }
}

/// A filter predicate on a dimension column, as needed by the SSB queries.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Pred {
    /// Equality with a constant.
    Eq(u64),
    /// Inclusive range.
    Between(u64, u64),
    /// Comparison with a constant.
    Cmp(CmpOp, u64),
    /// Equality with either of two constants (`IN (a, b)`).
    In2(u64, u64),
}

/// Append a selection for `pred` over `input` to the plan.
pub(crate) fn filter(p: &mut PlanBuilder, name: &str, input: ColRef, pred: Pred) -> ColRef {
    match pred {
        Pred::Eq(c) => p.select(name, input, CmpOp::Eq, c),
        Pred::Cmp(op, c) => p.select(name, input, op, c),
        Pred::Between(low, high) => p.select_between(name, input, low, high),
        Pred::In2(a, b) => p.select_in2(name, input, a, b),
    }
}

/// Shared tail of query flights 2–4: fetch a dimension attribute for every
/// restricted fact row by joining the projected foreign keys with the
/// dimension key column and projecting the attribute.
pub(crate) fn attribute_per_row(
    p: &mut PlanBuilder,
    name: &str,
    fact_fk_at_pos: ColRef,
    dim_key: ColRef,
    dim_attr: ColRef,
) -> ColRef {
    let dim_positions = p.join(&format!("{name}_dimpos"), fact_fk_at_pos, dim_key);
    p.project(&format!("{name}_per_row"), dim_attr, dim_positions)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_labels_and_enumeration() {
        assert_eq!(SsbQuery::all().len(), 13);
        let labels: std::collections::HashSet<&str> =
            SsbQuery::all().iter().map(|q| q.label()).collect();
        assert_eq!(labels.len(), 13);
        assert_eq!(SsbQuery::Q1_1.to_string(), "Q1.1");
        assert_eq!(SsbQuery::Q4_3.label(), "4.3");
    }

    #[test]
    fn base_columns_are_plausible() {
        for query in SsbQuery::all() {
            let columns = query.base_columns();
            assert!(columns.len() >= 6, "{query} lists too few base columns");
            assert!(columns.len() <= 16, "{query} lists too many base columns");
            // Every query reads at least one lineorder measure or key.
            assert!(columns.iter().any(|c| c.starts_with("lo_")));
        }
    }

    #[test]
    fn plans_have_labels_and_intermediates_in_paper_ballpark() {
        for query in SsbQuery::all() {
            let plan = query.plan();
            assert_eq!(plan.label(), query.label());
            let intermediates = plan.intermediate_names();
            // "between 15 and 56 intermediates" at scale factor 10; our
            // simplified plans stay within an order of magnitude.
            assert!(
                (8..=60).contains(&intermediates.len()),
                "{query} has {} intermediates",
                intermediates.len()
            );
            // Every intermediate name carries the query prefix.
            let prefix = format!("{}/", query.label());
            assert!(intermediates.iter().all(|n| n.starts_with(&prefix)));
        }
    }

    #[test]
    fn query_result_helpers() {
        let result = QueryResult {
            group_keys: vec![vec![1997, 1998], vec![5, 3]],
            values: vec![100, 200],
        };
        assert_eq!(result.row_count(), 2);
        let rows = result.sorted_rows();
        assert_eq!(rows[0], (vec![1997, 5], 100));
        assert_eq!(rows[1], (vec![1998, 3], 200));
        let single = QueryResult {
            group_keys: vec![],
            values: vec![42],
        };
        assert_eq!(single.single(), 42);
    }

    #[test]
    #[should_panic]
    fn single_panics_on_grouped_results() {
        let result = QueryResult {
            group_keys: vec![vec![1]],
            values: vec![1],
        };
        result.single();
    }
}
