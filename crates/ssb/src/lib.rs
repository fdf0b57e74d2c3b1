//! # morph-ssb
//!
//! The Star Schema Benchmark (SSB) for MorphStore-rs: schema, deterministic
//! data generator, order-preserving dictionary encoding of the string
//! attributes, and all 13 queries as SQL text, compiled by `morph-sql` into
//! operator-at-a-time plans against the engine.
//!
//! The paper evaluates MorphStore with SSB at scale factor 10 (Section 5.2),
//! applying "an order-preserving dictionary encoding to all string columns in
//! the schema to obtain integer columns", so that "all 13 queries can be
//! executed on dictionary keys without looking up the string values".  This
//! crate does the same: the generator directly produces dictionary keys
//! (the [`dict`] module documents the mapping) and the SQL catalog
//! ([`ssb_catalog`]) translates the SSB predicate constants to keys.
//!
//! The QEPs of the queries "involve between 6 and 16 base columns and between
//! 15 and 56 intermediates"; every query is a declarative
//! [`morphstore_engine::plan::QueryPlan`] ([`SsbQuery::plan`]) whose *edges*
//! — base columns and named intermediates — are what the format-selection
//! strategies of `morph-cost` and the benchmark harness assign individual
//! compression formats to: the new degree of freedom the paper introduces.
#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod data;
pub mod dbgen;
pub mod dict;
pub mod queries;
pub mod reference;
pub mod sql;

pub use data::{SsbData, SsbTable};
pub use queries::{QueryResult, SsbQuery};
pub use sql::ssb_catalog;
