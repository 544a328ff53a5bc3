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

/// The storage tier that serviced (or must service) a request.
///
/// Shared by `flashcache-core::AccessOutcome` and
/// `flashcache-sim::RequestOutcome` so callers see one vocabulary for
/// "where did this request land" across the whole stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ServiceTier {
    /// Served from the DRAM primary disk cache.
    Dram,
    /// Served from the flash secondary disk cache.
    Flash,
    /// Had to reach the hard disk.
    #[default]
    Disk,
}

impl ServiceTier {
    /// The snake_case name used in metrics and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            ServiceTier::Dram => "dram",
            ServiceTier::Flash => "flash",
            ServiceTier::Disk => "disk",
        }
    }
}

impl std::fmt::Display for ServiceTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_names_and_default() {
        assert_eq!(ServiceTier::default(), ServiceTier::Disk);
        assert_eq!(ServiceTier::Dram.to_string(), "dram");
        assert_eq!(ServiceTier::Flash.name(), "flash");
    }
}
