//! # MorphStore-rs
//!
//! A Rust reproduction of *MorphStore: Analytical Query Engine with a
//! Holistic Compression-Enabled Processing Model* (Damme et al., 2020).
//!
//! This facade crate re-exports the member crates of the workspace so that
//! applications can depend on a single crate:
//!
//! * [`vector`] — hardware-oblivious vector (SIMD) processing abstraction
//!   (the analogue of the paper's Template Vector Library).
//! * [`compression`] — lightweight integer compression formats (static bit
//!   packing, SIMD-BP-style dynamic bit packing, DELTA and FOR cascades,
//!   RLE) and direct morphing between them.
//! * [`storage`] — the column data structure (compressed main part +
//!   uncompressed remainder), statistics and synthetic data generators.
//! * [`engine`] — query operators and the four degrees of integrating
//!   compression into operators, plus the query execution context.
//! * [`ssb`] — the Star Schema Benchmark generator and all 13 queries.
//! * [`cost`] — the cost model and format-selection strategies.
//! * [`sql`] — a SQL front-end: lexer, parser, catalog-backed name
//!   resolution and a planner lowering the star-join subset into
//!   `QueryPlan` DAGs.
//! * [`server`] — a session-based, multi-tenant query server multiplexing
//!   concurrent SQL submissions onto a shared worker pool with per-tenant
//!   cache shards and bounded, fair admission.
//!
//! ## Quickstart
//!
//! ```
//! use morphstore::prelude::*;
//!
//! // Build a column of integers and compress it.
//! let values: Vec<u64> = (0..10_000).map(|i| i % 97).collect();
//! let uncompressed = Column::from_slice(&values);
//! let compressed = morph(&uncompressed, &Format::dyn_bp());
//! assert!(compressed.size_used_bytes() < uncompressed.size_used_bytes());
//!
//! // Run a select on the compressed column, materialising the (sorted)
//! // position list in a compressed format as well.
//! let positions = select(
//!     CmpOp::Lt,
//!     &compressed,
//!     10,
//!     &Format::delta_dyn_bp(),
//!     &ExecSettings::vectorized_compressed(),
//! );
//! assert_eq!(
//!     positions.logical_len(),
//!     values.iter().filter(|&&v| v < 10).count()
//! );
//! ```
pub use morph_cache as cache;
pub use morph_compression as compression;
pub use morph_cost as cost;
pub use morph_server as server;
pub use morph_sql as sql;
pub use morph_ssb as ssb;
pub use morph_storage as storage;
pub use morph_vector as vector;
pub use morphstore_engine as engine;

/// Convenience re-exports of the most frequently used items.
pub mod prelude {
    pub use morph_cache::{CacheKey, CacheStats, QueryCache};
    pub use morph_compression::Format;
    pub use morph_cost::{DataCharacteristics, FormatSelectionStrategy, SelectionObjective};
    pub use morph_server::{
        PendingQuery, QueryResponse, Server, ServerConfig, ServerError, Session, SlowQuery,
        TenantLimits,
    };
    pub use morph_sql::{compile, Catalog, CompiledQuery, TableDef};
    pub use morph_ssb::{SsbData, SsbQuery};
    pub use morph_storage::{Column, ColumnBuilder, ColumnStats};
    pub use morphstore_engine::exec::FormatConfig;
    pub use morphstore_engine::plan::{
        ColRef, ColumnSource, GroupRef, PlanBuilder, PlanExecutor, QueryPlan,
    };
    pub use morphstore_engine::{
        agg_sum, agg_sum_grouped, calc_binary, group_by, group_by_refine, intersect_sorted, join,
        merge_sorted, morph, project, select, select_between, semi_join, BinaryOp, CmpOp,
        ExecError, ExecSettings, ExecutionContext, FusedRegionSummary, FusionPlan,
        IntegrationDegree, MetricsRegistry, ParallelExecutor, PlanTrace, ProcessingStyle,
        QueryGovernor, QueryTracer,
    };
}
