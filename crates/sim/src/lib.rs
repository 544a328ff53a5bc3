//! Trace-driven simulator and experiment drivers reproducing the
//! evaluation of *Improving NAND Flash Based Disk Caches* (ISCA 2008).
//!
//! * [`hierarchy`] — the Figure 2 storage stack: DRAM primary disk
//!   cache → flash secondary disk cache → hard disk, with latency,
//!   traffic and power accounting (the paper's trace-based simulator);
//! * [`server`] — the closed-loop 8-core server throughput model that
//!   substitutes for the paper's M5 full-system runs (Figures 9/10);
//! * [`experiments`] — one driver per table/figure: GC overhead
//!   (Fig. 1b), split-vs-unified miss rate (Fig. 4), ECC latency and
//!   lifetime curves (Fig. 6), SLC/MLC partitioning (Fig. 7),
//!   power/bandwidth (Fig. 9), ECC-strength throughput (Fig. 10),
//!   reconfiguration breakdown (Fig. 11), and controller lifetime
//!   (Fig. 12).
//!
//! # Examples
//!
//! ```
//! use disk_trace::DiskRequest;
//! use flashcache_sim::hierarchy::{Hierarchy, HierarchyConfig};
//!
//! let mut h = Hierarchy::new(HierarchyConfig::default());
//! h.submit(DiskRequest::read(1));
//! assert_eq!(h.report().requests, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
pub mod hierarchy;
pub mod server;

pub use hierarchy::{Hierarchy, HierarchyConfig, HierarchyReport, RequestOutcome};
pub use server::{run_server, Bottleneck, ServerReport};
