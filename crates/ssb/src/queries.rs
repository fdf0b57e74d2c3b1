//! The 13 SSB queries and their plans.
//!
//! Each query's plan is what `morph-sql` compiles from its SQL text
//! ([`SsbQuery::sql`]) against [`ssb_catalog`]: the MonetDB-style star
//! join the paper's MorphStore plans imitate (Section 5.2).  Each
//! restricted dimension is reduced to its qualifying keys and semi-joined
//! into the fact table, the position lists are intersected, group
//! attributes are joined back, and a grouped sum produces the result.
//! [`SsbQuery::execute`] hands the plan to the [`PlanExecutor`], which
//! resolves per-edge compression formats from the [`ExecutionContext`]'s
//! format assignment and records every base column and every
//! `"<query>/<step>"` intermediate, so the format-selection strategies can
//! assign each one an individual format and the harness can account
//! footprints exactly like the paper does.

use std::sync::OnceLock;

use morph_sql::Catalog;
use morphstore_engine::plan::{PlanExecutor, QueryPlan};
use morphstore_engine::{ExecutionContext, ParallelExecutor};

use crate::data::SsbData;
use crate::sql::ssb_catalog;

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

    /// The query's logical operator DAG: its SQL text compiled by
    /// [`morph_sql::compile_with_label`], labelled with the query label so
    /// every intermediate gets its stable `"<query>/<step>"` name.
    pub fn plan(&self) -> QueryPlan {
        // Building the catalog's dictionaries costs several times more than
        // compiling a query, and the catalog never changes.
        static CATALOG: OnceLock<Catalog> = OnceLock::new();
        let catalog = CATALOG.get_or_init(ssb_catalog);
        morph_sql::compile_with_label(self.sql(), catalog, self.label())
            .unwrap_or_else(|e| panic!("{self} does not compile: {e}"))
            .plan()
            .clone()
    }

    /// The base columns the query touches, derived from its plan (used by
    /// the format-combination searches of Figures 7–10 to enumerate
    /// assignable columns).
    pub fn base_columns(&self) -> Vec<String> {
        self.plan().base_columns()
    }

    /// Execute the query on `data` by compiling its plan and walking it with
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
