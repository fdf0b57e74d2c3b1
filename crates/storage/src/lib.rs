//! # morph-storage
//!
//! Column storage for MorphStore-rs: the column data structure with its
//! compressed main part and uncompressed remainder (Figure 3 of the paper),
//! the compressing column builder used as the output-side buffer layer of the
//! on-the-fly de/re-compression wrapper (Figure 4), column statistics, and
//! the synthetic data generators of the evaluation (Table 1).
//!
//! Base data, intermediate results and query results are all represented as
//! [`Column`]s of unsigned 64-bit integers — they "are of exactly the same
//! nature" (Section 3.1), which is what allows compression to be applied
//! continuously throughout a query plan.
#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod builder;
mod column;
pub mod datagen;
mod stats;

pub use builder::ColumnBuilder;
pub use column::{Column, ColumnCursor, ColumnSize};
pub use morph_compression::ChunkCursor;
pub use stats::ColumnStats;
