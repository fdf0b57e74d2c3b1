//! Name resolution and lowering of parsed queries into [`QueryPlan`] DAGs.
//!
//! The lowering emits a MonetDB-style star join, the shape of the paper's
//! SSB plans (Section 5.2):
//!
//! 1. every `FROM` dimension with predicates is reduced to its qualifying
//!    primary keys (select per conjunct, intersect, project) and the fact
//!    table is restricted by one semi-join per such dimension;
//! 2. fact-local predicates become selections; all position lists are
//!    intersected (sorted position lists make the intersection
//!    order-insensitive, so the restricted set — and everything derived
//!    from it — is independent of construction details);
//! 3. `GROUP BY` attributes from dimensions are fetched per restricted fact
//!    row by an N:1 join back over the projected foreign keys (assuming
//!    foreign-key integrity, dimensions without predicates restrict
//!    nothing — SSB's foreign keys all hold);
//! 4. grouping applies `group_by` / `group_by_refine` in `GROUP BY` order
//!    and the single `SUM` aggregate becomes a `calc` tree over projected
//!    fact measures feeding a (grouped) summation.
//!
//! Group keys are emitted in `GROUP BY` order and rows in group-discovery
//! order, so execution is deterministic across executors; `ORDER BY` is
//! applied by [`CompiledQuery::execute`] as a permutation of the finished
//! rows.

use std::collections::HashMap;
use std::collections::HashSet;

use morphstore_engine::plan::{
    ColRef, ColumnSource, GroupRef, PlanBuilder, PlanExecutor, PlanOutput, QueryPlan,
};
use morphstore_engine::{BinaryOp, CmpOp, ExecutionContext, ParallelExecutor};

use crate::ast::{ColumnRef, Expr, Literal, Predicate, Query, SelectItem};
use crate::catalog::{Catalog, TableDef};
use crate::error::SqlError;
use crate::parser;

/// What an `ORDER BY` item sorts on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OrderTarget {
    /// The i-th group-key output column.
    Key(usize),
    /// The aggregate value column.
    Aggregate,
}

/// A compiled query: the engine plan plus the post-processing (`ORDER BY`)
/// the plan itself does not perform.
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    plan: QueryPlan,
    key_count: usize,
    order_by: Vec<(OrderTarget, bool)>,
    explain_analyze: bool,
}

impl CompiledQuery {
    /// The lowered engine plan (rows in group-discovery order, group keys in
    /// `GROUP BY` order).
    pub fn plan(&self) -> &QueryPlan {
        &self.plan
    }

    /// Whether the query was prefixed with `EXPLAIN ANALYZE`: the caller
    /// should execute under a tracer and render the per-node profile with
    /// [`QueryPlan::explain_analyze`] alongside the result.
    pub fn is_explain_analyze(&self) -> bool {
        self.explain_analyze
    }

    /// Number of group-key output columns (0 for a scalar aggregate).
    pub fn key_count(&self) -> usize {
        self.key_count
    }

    /// Whether the query is a bare aggregate without `GROUP BY`.
    pub fn is_scalar(&self) -> bool {
        self.key_count == 0
    }

    /// Whether an `ORDER BY` permutation is applied after execution.
    pub fn has_order_by(&self) -> bool {
        !self.order_by.is_empty()
    }

    /// Execute serially and apply `ORDER BY`.
    pub fn execute(&self, source: &dyn ColumnSource, ctx: &mut ExecutionContext) -> PlanOutput {
        self.ordered(PlanExecutor.execute(&self.plan, source, ctx))
    }

    /// Fallible counterpart of [`CompiledQuery::execute`]: a tripped
    /// [`QueryGovernor`](morphstore_engine::QueryGovernor) limit or a
    /// decode failure returns a structured
    /// [`ExecError`](morphstore_engine::ExecError) instead of unwinding.
    pub fn try_execute(
        &self,
        source: &dyn ColumnSource,
        ctx: &mut ExecutionContext,
    ) -> Result<PlanOutput, morphstore_engine::ExecError> {
        PlanExecutor
            .try_execute(&self.plan, source, ctx)
            .map(|output| self.ordered(output))
    }

    /// Fallible counterpart of [`CompiledQuery::execute_parallel`]
    /// (see [`CompiledQuery::try_execute`]).
    pub fn try_execute_parallel(
        &self,
        source: &(dyn ColumnSource + Sync),
        ctx: &mut ExecutionContext,
        threads: usize,
    ) -> Result<PlanOutput, morphstore_engine::ExecError> {
        ParallelExecutor::new(threads)
            .try_execute(&self.plan, source, ctx)
            .map(|output| self.ordered(output))
    }

    /// Execute on `threads` workers and apply `ORDER BY`.
    pub fn execute_parallel(
        &self,
        source: &(dyn ColumnSource + Sync),
        ctx: &mut ExecutionContext,
        threads: usize,
    ) -> PlanOutput {
        self.ordered(ParallelExecutor::new(threads).execute(&self.plan, source, ctx))
    }

    /// Apply the query's `ORDER BY` permutation to a raw plan output.
    pub fn ordered(&self, output: PlanOutput) -> PlanOutput {
        if self.order_by.is_empty() || output.values.len() <= 1 {
            return output;
        }
        let mut permutation: Vec<usize> = (0..output.values.len()).collect();
        permutation.sort_by(|&a, &b| {
            for &(target, desc) in &self.order_by {
                let (left, right) = match target {
                    OrderTarget::Key(k) => (output.group_keys[k][a], output.group_keys[k][b]),
                    OrderTarget::Aggregate => (output.values[a], output.values[b]),
                };
                let ordering = if desc {
                    right.cmp(&left)
                } else {
                    left.cmp(&right)
                };
                if ordering != std::cmp::Ordering::Equal {
                    return ordering;
                }
            }
            std::cmp::Ordering::Equal
        });
        PlanOutput {
            group_keys: output
                .group_keys
                .iter()
                .map(|column| permutation.iter().map(|&i| column[i]).collect())
                .collect(),
            values: permutation.iter().map(|&i| output.values[i]).collect(),
        }
    }
}

/// Compile `sql` against `catalog` with the default plan label `"sql"`.
pub fn compile(sql: &str, catalog: &Catalog) -> Result<CompiledQuery, SqlError> {
    compile_with_label(sql, catalog, "sql")
}

/// Compile `sql` against `catalog`, labelling the plan (and thereby its
/// `"<label>/<step>"` intermediate names) with `label`.
///
/// Labels do not affect results or subplan cache keys (those are structural),
/// only the names under which footprints and timings are recorded.
pub fn compile_with_label(
    sql: &str,
    catalog: &Catalog,
    label: &str,
) -> Result<CompiledQuery, SqlError> {
    let query = parser::parse(sql)?;
    let resolved = resolve(&query, catalog)?;
    let mut compiled = lower(&resolved, label);
    compiled.explain_analyze = query.explain_analyze;
    // Every compiled plan passes static verification before it reaches an
    // executor: a planner bug surfaces here as a structured error naming
    // the defective node, never as a panic mid-execution.
    morphstore_engine::verify::verify(&compiled.plan)
        .map_err(|error| SqlError::InvalidPlan { error })?;
    Ok(compiled)
}

// ---------------------------------------------------------------------------
// Resolution
// ---------------------------------------------------------------------------

/// A resolved single-table predicate.
#[derive(Debug, Clone)]
enum PredKind {
    Cmp(CmpOp, u64),
    Between(u64, u64),
    In(Vec<u64>),
}

#[derive(Debug, Clone)]
struct ResolvedPred {
    table: usize,
    column: String,
    kind: PredKind,
}

/// A dimension's equi-join to the fact table.
#[derive(Debug, Clone)]
struct DimJoin {
    /// FROM index of the dimension.
    table: usize,
    /// Fact foreign-key column name.
    fk: String,
    /// Dimension primary-key column name.
    pk: String,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ResolvedColumn {
    table: usize,
    column: String,
}

struct Resolved<'a> {
    tables: Vec<&'a TableDef>,
    fact: usize,
    dims: Vec<DimJoin>,
    predicates: Vec<ResolvedPred>,
    /// The single SUM expression, over fact columns only.
    sum: Expr,
    group_by: Vec<ResolvedColumn>,
    order_by: Vec<(OrderTarget, bool)>,
}

fn unsupported(message: impl Into<String>) -> SqlError {
    SqlError::Unsupported {
        message: message.into(),
    }
}

fn resolve<'a>(query: &Query, catalog: &'a Catalog) -> Result<Resolved<'a>, SqlError> {
    // FROM tables.
    let mut tables: Vec<&TableDef> = Vec::new();
    for name in &query.from {
        let table = catalog.table(name)?;
        if tables.iter().any(|t| t.name == table.name) {
            return Err(unsupported(format!("table `{name}` appears twice in FROM")));
        }
        tables.push(table);
    }

    let resolve_column = |column: &ColumnRef| -> Result<ResolvedColumn, SqlError> {
        if let Some(qualifier) = &column.table {
            let table = catalog.table(qualifier)?;
            let Some(index) = tables.iter().position(|t| t.name == table.name) else {
                return Err(unsupported(format!(
                    "table `{qualifier}` is not listed in FROM"
                )));
            };
            if table.column(&column.column).is_none() {
                return Err(catalog.unknown_column(&column.column, &[table]));
            }
            return Ok(ResolvedColumn {
                table: index,
                column: column.column.clone(),
            });
        }
        let matches: Vec<usize> = tables
            .iter()
            .enumerate()
            .filter(|(_, t)| t.column(&column.column).is_some())
            .map(|(i, _)| i)
            .collect();
        match matches.as_slice() {
            [index] => Ok(ResolvedColumn {
                table: *index,
                column: column.column.clone(),
            }),
            [] => Err(catalog.unknown_column(&column.column, &tables)),
            many => Err(unsupported(format!(
                "ambiguous column `{}` (in tables {})",
                column.column,
                many.iter()
                    .map(|&i| tables[i].name.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            ))),
        }
    };

    let resolve_literal =
        |table: &TableDef, column: &str, literal: &Literal| -> Result<u64, SqlError> {
            let def = table
                .column(column)
                .expect("column resolved before literal");
            match literal {
                Literal::Number(value) => Ok(*value),
                Literal::Str(text) => {
                    if !def.has_dictionary() {
                        return Err(unsupported(format!(
                            "column `{column}` is not a string column (no dictionary)"
                        )));
                    }
                    def.key_of(text).ok_or_else(|| {
                        unsupported(format!(
                            "string '{text}' is not in the dictionary of column `{column}`"
                        ))
                    })
                }
            }
        };

    // Classify WHERE conjuncts.
    let mut joins: Vec<(ResolvedColumn, ResolvedColumn)> = Vec::new();
    let mut raw_preds: Vec<(ResolvedColumn, PredKind)> = Vec::new();
    for predicate in &query.predicates {
        match predicate {
            Predicate::Join { left, right } => {
                joins.push((resolve_column(left)?, resolve_column(right)?));
            }
            Predicate::Compare { column, op, value } => {
                let col = resolve_column(column)?;
                let constant = resolve_literal(tables[col.table], &col.column, value)?;
                raw_preds.push((col, PredKind::Cmp(*op, constant)));
            }
            Predicate::Between { column, low, high } => {
                let col = resolve_column(column)?;
                let low = resolve_literal(tables[col.table], &col.column, low)?;
                let high = resolve_literal(tables[col.table], &col.column, high)?;
                raw_preds.push((col, PredKind::Between(low, high)));
            }
            Predicate::In { column, values } => {
                let col = resolve_column(column)?;
                let resolved: Result<Vec<u64>, SqlError> = values
                    .iter()
                    .map(|v| resolve_literal(tables[col.table], &col.column, v))
                    .collect();
                raw_preds.push((col, PredKind::In(resolved?)));
            }
        }
    }

    // Orient the joins: the declared-primary-key side is the dimension.
    let mut fact: Option<usize> = None;
    let mut dims: Vec<DimJoin> = Vec::new();
    for (left, right) in joins {
        let is_pk = |c: &ResolvedColumn| tables[c.table].primary_key.as_deref() == Some(&c.column);
        let (dim_side, fact_side) = match (is_pk(&left), is_pk(&right)) {
            (true, false) => (left, right),
            (false, true) => (right, left),
            (true, true) => {
                return Err(unsupported(format!(
                    "join `{} = {}` connects two primary keys; only dimension-to-fact \
                     equi-joins are supported",
                    left.column, right.column
                )))
            }
            (false, false) => {
                return Err(unsupported(format!(
                    "join `{} = {}` involves no declared primary key",
                    left.column, right.column
                )))
            }
        };
        if dim_side.table == fact_side.table {
            return Err(unsupported("self-joins are not supported"));
        }
        match fact {
            None => fact = Some(fact_side.table),
            Some(existing) if existing == fact_side.table => {}
            Some(existing) => {
                return Err(unsupported(format!(
                    "joins target two different fact tables (`{}` and `{}`)",
                    tables[existing].name, tables[fact_side.table].name
                )))
            }
        }
        if dims.iter().any(|d| d.table == dim_side.table) {
            return Err(unsupported(format!(
                "dimension `{}` is joined more than once",
                tables[dim_side.table].name
            )));
        }
        dims.push(DimJoin {
            table: dim_side.table,
            fk: fact_side.column,
            pk: dim_side.column,
        });
    }
    let fact = match fact {
        Some(fact) => fact,
        None if tables.len() == 1 => 0,
        None => {
            return Err(unsupported(
                "multiple FROM tables require equi-join predicates (cartesian products \
                 are not supported)",
            ))
        }
    };
    // Every non-fact table must be joined to the fact.
    for (index, table) in tables.iter().enumerate() {
        if index != fact && !dims.iter().any(|d| d.table == index) {
            return Err(unsupported(format!(
                "table `{}` is not joined to the fact table",
                table.name
            )));
        }
    }

    let predicates: Vec<ResolvedPred> = raw_preds
        .into_iter()
        .map(|(col, kind)| ResolvedPred {
            table: col.table,
            column: col.column,
            kind,
        })
        .collect();

    // The fact table must be restricted somehow: an unrestricted full scan
    // would materialise every position, which the engine's star-join shape
    // does not model.
    if predicates.is_empty() {
        return Err(unsupported(
            "the query restricts nothing; at least one WHERE predicate is required",
        ));
    }

    // SELECT list: exactly one SUM aggregate; every other item must be a
    // GROUP BY column.
    let mut sum: Option<Expr> = None;
    let mut sum_alias: Option<String> = None;
    let mut selected_columns: Vec<(ResolvedColumn, Option<String>)> = Vec::new();
    for item in &query.select {
        match item {
            SelectItem::Sum { expr, alias } => {
                if sum.is_some() {
                    return Err(unsupported("only a single SUM aggregate is supported"));
                }
                check_sum_expr(expr, fact, &tables, &resolve_column)?;
                sum = Some(expr.clone());
                sum_alias = alias.clone();
            }
            SelectItem::Column { column, alias } => {
                selected_columns.push((resolve_column(column)?, alias.clone()));
            }
        }
    }
    let Some(sum) = sum else {
        return Err(unsupported(
            "the SELECT list needs exactly one SUM aggregate",
        ));
    };

    // GROUP BY columns; selected plain columns must be exactly the GROUP BY
    // set (standard SQL would reject anything else anyway).
    let group_by: Vec<ResolvedColumn> = query
        .group_by
        .iter()
        .map(&resolve_column)
        .collect::<Result<_, _>>()?;
    let group_set: HashSet<&ResolvedColumn> = group_by.iter().collect();
    for (column, _) in &selected_columns {
        if !group_set.contains(column) {
            return Err(unsupported(format!(
                "selected column `{}` does not appear in GROUP BY",
                column.column
            )));
        }
    }
    // Dimension group attributes need a join to fetch them.
    for column in &group_by {
        if column.table != fact && !dims.iter().any(|d| d.table == column.table) {
            return Err(unsupported(format!(
                "GROUP BY column `{}` is from a table not joined to the fact",
                column.column
            )));
        }
    }

    // ORDER BY: the aggregate (by its alias) or a GROUP BY column (by name,
    // alias, or qualified reference).
    let mut order_by = Vec::new();
    for item in &query.order_by {
        let name = &item.column.column;
        let target = if item.column.table.is_none() && sum_alias.as_deref() == Some(name) {
            OrderTarget::Aggregate
        } else if let Some(position) = (item.column.table.is_none())
            .then(|| {
                selected_columns
                    .iter()
                    .position(|(_, alias)| alias.as_deref() == Some(name))
            })
            .flatten()
            .and_then(|i| {
                let column = &selected_columns[i].0;
                group_by.iter().position(|g| g == column)
            })
        {
            OrderTarget::Key(position)
        } else {
            let column = resolve_column(&item.column)?;
            match group_by.iter().position(|g| *g == column) {
                Some(position) => OrderTarget::Key(position),
                None => {
                    return Err(unsupported(format!(
                        "ORDER BY `{name}` is neither a GROUP BY column nor the aggregate"
                    )))
                }
            }
        };
        order_by.push((target, item.desc));
    }

    Ok(Resolved {
        tables,
        fact,
        dims,
        predicates,
        sum,
        group_by,
        order_by,
    })
}

/// SUM expressions range over fact columns combined with `+`/`-`/`*`.
fn check_sum_expr(
    expr: &Expr,
    fact: usize,
    tables: &[&TableDef],
    resolve_column: &impl Fn(&ColumnRef) -> Result<ResolvedColumn, SqlError>,
) -> Result<(), SqlError> {
    match expr {
        Expr::Column(column) => {
            let resolved = resolve_column(column)?;
            if resolved.table != fact {
                return Err(unsupported(format!(
                    "SUM argument `{}` must be a column of the fact table `{}`",
                    resolved.column, tables[fact].name
                )));
            }
            Ok(())
        }
        Expr::Literal(literal) => Err(unsupported(format!(
            "literal `{literal}` inside SUM is not supported (columns only)"
        ))),
        Expr::Binary { lhs, rhs, .. } => {
            check_sum_expr(lhs, fact, tables, resolve_column)?;
            check_sum_expr(rhs, fact, tables, resolve_column)
        }
    }
}

// ---------------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------------

/// Unique step-name generator (`PlanBuilder` requires unique step names).
struct Names {
    used: HashSet<String>,
}

impl Names {
    fn new() -> Names {
        Names {
            used: HashSet::new(),
        }
    }

    fn fresh(&mut self, base: &str) -> String {
        if self.used.insert(base.to_string()) {
            return base.to_string();
        }
        for suffix in 2.. {
            let candidate = format!("{base}_{suffix}");
            if self.used.insert(candidate.clone()) {
                return candidate;
            }
        }
        unreachable!()
    }
}

/// Append a selection for `kind` over the scan of `column`.
fn filter(
    p: &mut PlanBuilder,
    names: &mut Names,
    base: &str,
    column: &str,
    kind: &PredKind,
) -> ColRef {
    let input = p.scan(column);
    match kind {
        PredKind::Cmp(op, constant) => {
            let name = names.fresh(base);
            p.select(&name, input, *op, *constant)
        }
        PredKind::Between(low, high) => {
            let name = names.fresh(base);
            p.select_between(&name, input, *low, *high)
        }
        PredKind::In(values) => match values.as_slice() {
            [] => unreachable!("the grammar requires at least one IN value"),
            [single] => {
                let name = names.fresh(base);
                p.select(&name, input, CmpOp::Eq, *single)
            }
            [first, second] => {
                let name = names.fresh(base);
                p.select_in2(&name, input, *first, *second)
            }
            [first, second, rest @ ..] => {
                // IN with more than two values: a select_in2 seed merged
                // with one equality selection per further value (sorted
                // unions keep the position list sorted).
                let name = names.fresh(base);
                let mut positions = p.select_in2(&name, input, *first, *second);
                for value in rest {
                    let sel_name = names.fresh(base);
                    let sel = p.select(&sel_name, input, CmpOp::Eq, *value);
                    let merge_name = names.fresh(&format!("{base}_union"));
                    positions = p.merge_sorted(&merge_name, positions, sel);
                }
                positions
            }
        },
    }
}

/// Project `column` at the restricted fact positions, sharing one projection
/// per column (two group attributes of one dimension join back over the
/// same projected foreign key).
fn at_pos(
    p: &mut PlanBuilder,
    names: &mut Names,
    cache: &mut HashMap<String, ColRef>,
    column: &str,
    pos: ColRef,
) -> ColRef {
    if let Some(&found) = cache.get(column) {
        return found;
    }
    let scanned = p.scan(column);
    let name = names.fresh(&format!("{column}_at_pos"));
    let projected = p.project(&name, scanned, pos);
    cache.insert(column.to_string(), projected);
    projected
}

fn lower(resolved: &Resolved<'_>, label: &str) -> CompiledQuery {
    let mut p = PlanBuilder::new(label);
    let mut names = Names::new();

    // 1. Per-dimension restrictions (FROM order) → semi-join position lists.
    let mut pos_lists: Vec<ColRef> = Vec::new();
    for dim in &resolved.dims {
        let table = resolved.tables[dim.table];
        let preds: Vec<&ResolvedPred> = resolved
            .predicates
            .iter()
            .filter(|pred| pred.table == dim.table)
            .collect();
        if preds.is_empty() {
            // Unrestricted dimension: restricts nothing under foreign-key
            // integrity, so no semi-join is emitted.
            continue;
        }
        let mut dim_pos: Option<ColRef> = None;
        for pred in preds {
            let base = format!("{}_pos", table.name);
            let selected = filter(&mut p, &mut names, &base, &pred.column, &pred.kind);
            dim_pos = Some(match dim_pos {
                None => selected,
                Some(previous) => {
                    let name = names.fresh(&format!("{}_pos_all", table.name));
                    p.intersect_sorted(&name, previous, selected)
                }
            });
        }
        let pk = p.scan(&dim.pk);
        let keys_name = names.fresh(&format!("{}_keys", table.name));
        let keys = p.project(&keys_name, pk, dim_pos.expect("at least one predicate"));
        let fk = p.scan(&dim.fk);
        let pos_name = names.fresh(&format!("pos_{}", table.name));
        pos_lists.push(p.semi_join(&pos_name, fk, keys));
    }

    // 2. Fact-local predicates (WHERE order) → selection position lists.
    for pred in &resolved.predicates {
        if pred.table != resolved.fact {
            continue;
        }
        let base = format!("pos_{}", pred.column);
        pos_lists.push(filter(&mut p, &mut names, &base, &pred.column, &pred.kind));
    }

    // 3. One sorted intersection of everything.
    let mut iter = pos_lists.into_iter();
    let mut pos = iter.next().expect("resolution guarantees a restriction");
    for next in iter {
        let name = names.fresh("pos");
        pos = p.intersect_sorted(&name, pos, next);
    }

    // 4. Group-by attributes per restricted fact row, in GROUP BY order.
    let mut projections: HashMap<String, ColRef> = HashMap::new();
    let mut per_row_columns: Vec<ColRef> = Vec::new();
    for column in &resolved.group_by {
        if column.table == resolved.fact {
            per_row_columns.push(at_pos(
                &mut p,
                &mut names,
                &mut projections,
                &column.column,
                pos,
            ));
            continue;
        }
        let dim = resolved
            .dims
            .iter()
            .find(|d| d.table == column.table)
            .expect("resolution checked the join");
        let fk_at_pos = at_pos(&mut p, &mut names, &mut projections, &dim.fk, pos);
        let pk = p.scan(&dim.pk);
        let attr = p.scan(&column.column);
        let dimpos_name = names.fresh(&format!("{}_dimpos", column.column));
        let dim_positions = p.join(&dimpos_name, fk_at_pos, pk);
        let per_row_name = names.fresh(&format!("{}_per_row", column.column));
        per_row_columns.push(p.project(&per_row_name, attr, dim_positions));
    }

    // 5. Grouping in GROUP BY order.
    let mut group: Option<GroupRef> = None;
    for &per_row in &per_row_columns {
        group = Some(match group {
            None => {
                let name = names.fresh("group");
                p.group_by(&name, per_row)
            }
            Some(previous) => {
                let name = names.fresh("group_refine");
                p.group_by_refine(&name, previous, per_row)
            }
        });
    }

    // 6. The aggregate: a calc tree over projected fact measures.
    let values = lower_sum_expr(&resolved.sum, &mut p, &mut names, &mut projections, pos);

    let plan = match group {
        Some(group) => {
            let sum_name = names.fresh("sum");
            let sums = p.agg_sum_grouped(&sum_name, group, values);
            let keys: Vec<ColRef> = per_row_columns
                .iter()
                .enumerate()
                .map(|(i, &per_row)| {
                    let name = names.fresh(&format!("result_{i}"));
                    p.project(&name, per_row, group.representatives())
                })
                .collect();
            p.finish_grouped(keys, sums)
        }
        None => {
            let sum_name = names.fresh("sum");
            let total = p.agg_sum(&sum_name, values);
            p.finish_scalar(total)
        }
    };

    CompiledQuery {
        plan,
        key_count: resolved.group_by.len(),
        order_by: resolved.order_by.clone(),
        explain_analyze: false,
    }
}

fn lower_sum_expr(
    expr: &Expr,
    p: &mut PlanBuilder,
    names: &mut Names,
    projections: &mut HashMap<String, ColRef>,
    pos: ColRef,
) -> ColRef {
    match expr {
        Expr::Column(column) => at_pos(p, names, projections, &column.column, pos),
        Expr::Literal(_) => unreachable!("rejected during resolution"),
        Expr::Binary { op, lhs, rhs } => {
            let lhs = lower_sum_expr(lhs, p, names, projections, pos);
            let rhs = lower_sum_expr(rhs, p, names, projections, pos);
            let op = match op {
                crate::ast::ArithOp::Add => BinaryOp::Add,
                crate::ast::ArithOp::Sub => BinaryOp::Sub,
                crate::ast::ArithOp::Mul => BinaryOp::Mul,
            };
            let name = names.fresh("calc");
            p.calc_binary(&name, op, lhs, rhs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morph_storage::Column;
    use morphstore_engine::exec::FormatConfig;
    use morphstore_engine::ExecSettings;

    /// A two-table star: `fact(f_dim, f_a, f_b)` and `dim(d_key, d_attr,
    /// d_color)` with a color dictionary.
    fn catalog() -> Catalog {
        Catalog::new()
            .with_table(
                crate::TableDef::new("dim")
                    .with_primary_key("d_key")
                    .with_column("d_key")
                    .with_column("d_attr")
                    .with_dict_column(
                        "d_color",
                        [
                            ("RED".to_string(), 0),
                            ("GREEN".to_string(), 1),
                            ("BLUE".to_string(), 2),
                        ],
                    ),
            )
            .with_table(
                crate::TableDef::new("fact")
                    .with_column("f_dim")
                    .with_column("f_a")
                    .with_column("f_b"),
            )
    }

    fn source() -> std::collections::HashMap<String, Column> {
        let mut columns = std::collections::HashMap::new();
        // dim: keys 10,20,30 with attrs 7,8,9 and colors RED,GREEN,BLUE.
        columns.insert("d_key".to_string(), Column::from_vec(vec![10, 20, 30]));
        columns.insert("d_attr".to_string(), Column::from_vec(vec![7, 8, 9]));
        columns.insert("d_color".to_string(), Column::from_vec(vec![0, 1, 2]));
        // fact: 6 rows.
        columns.insert(
            "f_dim".to_string(),
            Column::from_vec(vec![10, 20, 10, 30, 20, 10]),
        );
        columns.insert("f_a".to_string(), Column::from_vec(vec![1, 2, 3, 4, 5, 6]));
        columns.insert(
            "f_b".to_string(),
            Column::from_vec(vec![10, 10, 10, 10, 10, 10]),
        );
        columns
    }

    fn run(sql: &str) -> PlanOutput {
        let compiled = compile(sql, &catalog()).unwrap();
        let mut ctx = ExecutionContext::new(
            ExecSettings::scalar_uncompressed(),
            FormatConfig::uncompressed(),
        );
        compiled.execute(&source(), &mut ctx)
    }

    #[test]
    fn scalar_aggregate_over_semi_join() {
        // Rows with GREEN or BLUE dims: f_dim in {20, 30} → f_a 2, 4, 5.
        let output = run("SELECT SUM(f_a) FROM fact, dim \
             WHERE f_dim = d_key AND d_color IN ('GREEN', 'BLUE')");
        assert!(output.group_keys.is_empty());
        assert_eq!(output.values, vec![11]);
    }

    #[test]
    fn grouped_aggregate_with_arithmetic_and_order() {
        // All rows; group by d_attr; SUM(f_a * f_b).
        let output = run("SELECT d_attr, SUM(f_a * f_b) AS total FROM fact, dim \
             WHERE f_dim = d_key AND f_a >= 1 \
             GROUP BY d_attr ORDER BY total DESC");
        // attr 7 (key 10): rows 1,3,6 → 100; attr 8 (key 20): 2,5 → 70;
        // attr 9 (key 30): 4 → 40.
        assert_eq!(output.group_keys, vec![vec![7, 8, 9]]);
        assert_eq!(output.values, vec![100, 70, 40]);
    }

    #[test]
    fn order_by_key_ascending_and_descending() {
        let ascending = run("SELECT d_attr, SUM(f_a) FROM fact, dim \
             WHERE f_dim = d_key AND f_a >= 1 GROUP BY d_attr ORDER BY d_attr");
        assert_eq!(ascending.group_keys, vec![vec![7, 8, 9]]);
        let descending = run("SELECT d_attr, SUM(f_a) FROM fact, dim \
             WHERE f_dim = d_key AND f_a >= 1 GROUP BY d_attr ORDER BY d_attr DESC");
        assert_eq!(descending.group_keys, vec![vec![9, 8, 7]]);
        assert_eq!(descending.values, vec![4, 7, 10]);
    }

    #[test]
    fn in_with_three_values_merges_selections() {
        let output = run("SELECT SUM(f_a) FROM fact, dim \
             WHERE f_dim = d_key AND d_color IN ('RED', 'GREEN', 'BLUE')");
        assert_eq!(output.values, vec![21]);
    }

    #[test]
    fn between_on_dictionary_strings() {
        let output = run("SELECT SUM(f_a) FROM fact, dim \
             WHERE f_dim = d_key AND d_color BETWEEN 'RED' AND 'GREEN'");
        // RED=0, GREEN=1 → keys 10, 20 → f_a 1+2+3+5+6.
        assert_eq!(output.values, vec![17]);
    }

    #[test]
    fn inverted_between_selects_nothing() {
        // SQL semantics: `x BETWEEN 7 AND 3` is an empty range, not an error.
        let scalar = run("SELECT SUM(f_a) FROM fact WHERE f_a BETWEEN 7 AND 3");
        assert_eq!(scalar.values, vec![0]);
        let grouped = run(
            "SELECT f_dim, SUM(f_a) FROM fact WHERE f_a BETWEEN 7 AND 3 \
             GROUP BY f_dim ORDER BY f_dim",
        );
        assert_eq!(grouped.group_keys, vec![Vec::<u64>::new()]);
        assert!(grouped.values.is_empty());
    }

    #[test]
    fn unknown_names_get_suggestions() {
        match compile("SELECT SUM(f_a) FROM factz WHERE f_a = 1", &catalog()) {
            Err(SqlError::UnknownTable { did_you_mean, .. }) => {
                assert_eq!(did_you_mean.as_deref(), Some("fact"));
            }
            other => panic!("unexpected {other:?}"),
        }
        match compile("SELECT SUM(f_aa) FROM fact WHERE f_aa = 1", &catalog()) {
            Err(SqlError::UnknownColumn { did_you_mean, .. }) => {
                assert_eq!(did_you_mean.as_deref(), Some("f_a"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unsupported_shapes_are_rejected() {
        let catalog = catalog();
        for (sql, needle) in [
            ("SELECT SUM(f_a) FROM fact, dim WHERE f_a = 1", "equi-join"),
            ("SELECT SUM(f_a) FROM fact", "restricts nothing"),
            ("SELECT f_a FROM fact WHERE f_a = 1", "SUM aggregate"),
            (
                "SELECT SUM(f_a), SUM(f_b) FROM fact WHERE f_a = 1",
                "single SUM",
            ),
            ("SELECT SUM(f_a * 2) FROM fact WHERE f_a = 1", "literal"),
            (
                "SELECT f_b, SUM(f_a) FROM fact WHERE f_a = 1 GROUP BY f_a",
                "GROUP BY",
            ),
            (
                "SELECT SUM(f_a) FROM fact WHERE f_a = 1 ORDER BY f_b",
                "ORDER BY",
            ),
            (
                "SELECT SUM(d_attr) FROM fact, dim WHERE f_dim = d_key AND f_a = 1",
                "fact table",
            ),
            (
                "SELECT SUM(f_a) FROM fact WHERE f_b = 'RED'",
                "not a string column",
            ),
            (
                "SELECT SUM(f_a) FROM fact, dim WHERE f_dim = d_key AND d_color = 'MAUVE'",
                "not in the dictionary",
            ),
        ] {
            match compile(sql, &catalog) {
                Err(SqlError::Unsupported { message }) => {
                    assert!(message.contains(needle), "{sql}: {message}");
                }
                other => panic!("{sql}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn group_by_fact_column_works() {
        let output = run(
            "SELECT f_dim, SUM(f_a) FROM fact WHERE f_a BETWEEN 1 AND 6 \
             GROUP BY f_dim ORDER BY f_dim",
        );
        assert_eq!(output.group_keys, vec![vec![10, 20, 30]]);
        assert_eq!(output.values, vec![10, 7, 4]);
    }

    #[test]
    fn parallel_execution_matches_serial() {
        let compiled = compile(
            "SELECT d_attr, SUM(f_a) FROM fact, dim \
             WHERE f_dim = d_key AND f_a >= 2 GROUP BY d_attr",
            &catalog(),
        )
        .unwrap();
        let source = source();
        let mut serial_ctx = ExecutionContext::new(
            ExecSettings::scalar_uncompressed(),
            FormatConfig::uncompressed(),
        );
        let serial = compiled.execute(&source, &mut serial_ctx);
        let mut parallel_ctx = ExecutionContext::new(
            ExecSettings::scalar_uncompressed(),
            FormatConfig::uncompressed(),
        );
        let parallel = compiled.execute_parallel(&source, &mut parallel_ctx, 4);
        assert_eq!(serial, parallel);
    }
}
