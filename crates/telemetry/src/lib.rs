//! # morph-telemetry
//!
//! Zero-dependency metrics for MorphStore-rs ([`metrics`]): a registry of
//! counters, gauges and log-bucketed histograms with Prometheus-style text
//! rendering.  Handles are `Arc`-shared atomics: registration takes a lock
//! once, every increment afterwards is a relaxed atomic add.
//!
//! The crate deliberately depends on nothing (not even the engine crates),
//! so the engine, the server, benches and tests share one histogram type.
//! Per-query traces live with the engine's own node records
//! (`morphstore_engine::trace`).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod metrics;

pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry};
