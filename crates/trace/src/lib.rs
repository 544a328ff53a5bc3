//! Disk access traces and synthetic workload generators.
//!
//! Provides the benchmark suite of Table 4 in *Improving NAND Flash
//! Based Disk Caches* (ISCA 2008): micro-benchmarks drawing from
//! uniform, Zipf, and exponential page-popularity distributions over a
//! 512MB footprint, and synthesized macro workloads standing in for the
//! dbt2 (OLTP), SPECWeb99, UMass WebSearch and Financial traces, with
//! the working-set sizes and read/write mixes the paper reports.
//!
//! All generators are deterministic given a seed.
//!
//! # Examples
//!
//! ```
//! use disk_trace::{TraceStats, WorkloadSpec};
//!
//! let gen = WorkloadSpec::dbt2().scaled(16).generator(42);
//! let stats: TraceStats = gen.take(5_000).collect();
//! // OLTP is write-heavy.
//! assert!(stats.write_fraction() > 0.3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod popularity;
pub mod request;
pub mod spc;
pub mod workload;

pub use popularity::{Popularity, PopularitySampler, RankCdf};
pub use request::{DiskRequest, OpKind, TraceStats, PAGE_BYTES};
pub use spc::{SpcReader, SpcRecord};
pub use workload::{TraceGenerator, WorkloadKind, WorkloadSpec};
