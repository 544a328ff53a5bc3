//! # flash-obs — workspace-wide observability layer
//!
//! A lightweight, dependency-free telemetry substrate for the flash
//! disk cache stack:
//!
//! * [`registry`] — named monotonic counters, gauges and latency
//!   histograms, exported at snapshot time from each component's cheap
//!   plain-struct stats;
//! * [`hist`] — the log-scaled [`LatencyHistogram`] (promoted from
//!   `flashcache-sim`);
//! * [`json`] — a serde-free JSON encoder/parser with deterministic
//!   output;
//! * [`snapshot`] — the versioned [`Snapshot`] document wrapping one
//!   registry.
//!
//! ## Determinism rule
//!
//! Instrumentation never reads wall-clock time. Metric names serialize
//! in sorted order and floats format via Rust's shortest-roundtrip
//! `Display`, so two runs of the same seeded simulation produce
//! byte-identical snapshots.
//!
//! ## Cost rule
//!
//! Telemetry is pulled, never pushed. Components count into their own
//! plain structs (`CacheStats`, `FlashStats`, and `HierarchyReport`'s
//! [`LatencyHistogram`]s) and build a [`Registry`] only when the caller
//! holding them asks for `export_metrics`. No component holds a handle
//! into this crate, and nothing here is process-global.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod hist;
pub mod json;
pub mod registry;
pub mod snapshot;

pub use hist::LatencyHistogram;
pub use json::{JsonError, JsonValue};
pub use registry::{Metric, Registry};
pub use snapshot::Snapshot;
