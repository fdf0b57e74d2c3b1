//! # morph-cost
//!
//! The cost model and the compression-format selection strategies of
//! MorphStore-rs.
//!
//! The paper's evaluation (Section 5.2, "Determining a good format
//! combination") shows that a *gray-box* cost model — explicit modelling of
//! the functional properties of the compression algorithms, parameterised by
//! basic data characteristics such as the number of (distinct) data elements,
//! the bit-width histogram and the sort order — can select per-column formats
//! whose memory footprints are "virtually equal to the actual optimal ones"
//! (Figure 10).  This crate provides:
//!
//! * [`model`] — per-format size estimation from
//!   [`ColumnStats`](morph_storage::ColumnStats),
//! * [`strategy`] — selection strategies: uncompressed everywhere, static BP
//!   everywhere, cost-based selection, exhaustive best/worst by exact size
//!   and a greedy runtime search (the strategy used by the paper to find the
//!   best/worst runtime combinations of Figure 7).
#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod model;
pub mod strategy;

pub use model::{estimate_compressed_bytes, exact_compressed_bytes};
pub use strategy::{
    assignable_edge_names, cached_config_for_plan, cached_tuning_for_plan, cost_based_config,
    exhaustive_config, greedy_runtime_search, static_bp_config, FormatSelectionStrategy,
    PlanTuning, SelectionObjective,
};

/// The data characteristics consumed by the cost model (re-exported from the
/// storage crate, where they are computed).
pub type DataCharacteristics = morph_storage::ColumnStats;
