//! # morph-sql
//!
//! The SQL front-end of MorphStore-rs: a hand-written lexer, a
//! recursive-descent parser for the SQL subset the Star Schema Benchmark
//! needs, a typed AST, name resolution against a [`Catalog`] of loaded
//! tables, and a planner that lowers resolved queries into the engine's
//! [`QueryPlan`](morphstore_engine::plan::QueryPlan) DAGs.
//!
//! ## Grammar subset
//!
//! ```text
//! query      := [EXPLAIN ANALYZE]
//!               SELECT select_item ("," select_item)*
//!               FROM ident ("," ident)*
//!               [WHERE conjunct (AND conjunct)*]
//!               [GROUP BY column ("," column)*]
//!               [ORDER BY column [ASC|DESC] ("," column [ASC|DESC])*]
//!               [";"]
//! select_item := SUM "(" expr ")" [AS ident] | column [AS ident]
//! expr        := term (("+" | "-") term)*
//! term        := factor ("*" factor)*
//! factor      := column | literal | "(" expr ")"
//! conjunct    := column "=" column                 -- equi-join
//!              | column cmp literal                -- cmp: = <> < <= > >=
//!              | column BETWEEN literal AND literal
//!              | column IN "(" literal ("," literal)* ")"
//! column      := ident ["." ident]
//! literal     := integer | "'" chars "'"
//! ```
//!
//! Keywords are case-insensitive; identifiers are case-sensitive and must
//! not be reserved words.  String literals are resolved against the
//! order-preserving per-column dictionaries the [`Catalog`] declares (the
//! paper's Section 3.1 dictionary model), so `p_brand1 BETWEEN 'MFGR#2221'
//! AND 'MFGR#2228'` compiles to an integer range selection.
//!
//! ## Lowering
//!
//! [`compile`] resolves names, classifies the `WHERE` conjuncts into
//! equi-joins (one side a declared primary key — the dimension — and the
//! other the fact foreign key) and single-table predicates, and emits a
//! MonetDB-style star join: per restricted dimension a select →
//! project-keys → semi-join chain, fact-local selects, one sorted
//! intersection of all position lists, join-backs for the dimension group
//! attributes, `group_by`/`group_by_refine` in `GROUP BY` order, and a
//! grouped (or scalar) sum.  This planner is the only producer of the SSB
//! plans: `morph-ssb` compiles its 13 queries from their SQL text and checks
//! every result against a row-at-a-time reference interpreter.
//!
//! `ORDER BY` is applied as a post-processing permutation of the decompressed
//! result rows by [`CompiledQuery::execute`] — the engine's plans
//! deliberately produce group-discovery order.
#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ast;
pub mod catalog;
mod error;
pub mod lexer;
pub mod parser;
pub mod planner;

pub use catalog::{Catalog, ColumnDef, TableDef};
pub use error::SqlError;
pub use planner::{compile, compile_with_label, CompiledQuery};

/// Parse `sql` into the typed AST without resolving names.
pub fn parse(sql: &str) -> Result<ast::Query, SqlError> {
    parser::parse(sql)
}
