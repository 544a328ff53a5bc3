//! NAND flash based secondary disk cache — the primary contribution of
//! *Improving NAND Flash Based Disk Caches* (Kgil, Roberts & Mudge,
//! ISCA 2008).
//!
//! The library implements the paper's full architecture:
//!
//! * the management tables — FCHT, FPST, FBST, FGST (§3, [`tables`]);
//! * read/write region splitting of the flash cache (§3.5, Figure 3/4);
//! * out-of-place writes with background garbage collection (Figure 8);
//! * the wear-level-aware replacement policy with newest-block
//!   migration (§3.6);
//! * the programmable flash memory controller policy: per-page variable
//!   ECC strength and MLC→SLC density switching driven by the Δtcs/Δtd
//!   heuristics and hot-page promotion (§4, §5.2);
//! * the DRAM primary disk cache fronting the flash ([`pdc`]).
//!
//! # Examples
//!
//! ```
//! use flashcache_core::{CacheOp, FlashCache, FlashCacheConfig};
//!
//! let mut cache = FlashCache::new(FlashCacheConfig::default()).unwrap();
//! // Miss, fill, hit.
//! assert!(cache.op(CacheOp::read(7)).access.needs_disk_read);
//! assert!(cache.op(CacheOp::read(7)).access.hit);
//! // Writes go to the write region out-of-place.
//! let w = cache.op(CacheOp::write(7));
//! assert!(w.access.hit);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod admission;
pub mod cache;
#[cfg(test)]
mod cache_tests;
pub mod config;
#[cfg(test)]
mod edge_tests;
mod error;
mod fxhash;
pub mod lru;
mod maint;
pub mod pdc;
mod reclaim;
pub mod snapshot;
pub mod stats;
pub mod tables;

pub use admission::FrequencySketch;
pub use cache::{AccessOutcome, CacheOp, CacheOpKind, CacheOutcome, FlashCache};
pub use config::{
    AdmissionPolicyConfig, ConfigError, ControllerPolicy, FlashCacheConfig,
    FlashCacheConfigBuilder, SplitPolicy,
};
pub use flash_obs::ServiceTier;
pub use pdc::PrimaryDiskCache;
pub use snapshot::{BlockSummary, CacheSnapshot, RegionSnapshot, WearSummary};
pub use stats::CacheStats;
pub use tables::RegionKind;
