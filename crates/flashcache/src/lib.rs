//! # flashcache
//!
//! A complete reproduction of **"Improving NAND Flash Based Disk
//! Caches"** (Taeho Kgil, David Roberts, Trevor Mudge — ISCA 2008) as a
//! Rust library suite. This facade crate re-exports the whole stack:
//!
//! | layer | crate | what it provides |
//! |---|---|---|
//! | coding | [`ecc`] | GF(2^m), variable-strength BCH, CRC32, accelerator timing |
//! | device | [`nand`] | dual-mode SLC/MLC NAND model with wear & bit errors |
//! | reliability | [`reliability`] | lifetime models behind Figure 6(b) |
//! | peers | [`storage`] | DDR2 DRAM and HDD timing/power models |
//! | workloads | [`trace`] | Table 4 micro/macro trace generators |
//! | **contribution** | [`core`] | the flash disk cache: split regions, GC, wear levelling, programmable controller |
//! | scaling | [`engine`] | sharded concurrent cache engine with batched submission |
//! | evaluation | [`sim`] | trace simulator, server model, per-figure experiment drivers |
//! | telemetry | [`obs`] | metrics registry, latency histograms, deterministic JSON snapshots |
//!
//! The most common entry points are re-exported at the top level.
//!
//! ## Quickstart
//!
//! ```
//! use flashcache::{CacheOp, FlashCache, FlashCacheConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = FlashCacheConfig::builder().build()?;
//! let mut cache = FlashCache::new(config)?;
//! // Cold miss fills the cache; the refetch is served from flash.
//! assert!(cache.op(CacheOp::read(7)).access.needs_disk_read);
//! assert!(cache.op(CacheOp::read(7)).access.hit);
//! println!("{}", cache.stats());
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for a full tour: `quickstart`, `web_server_cache`,
//! `oltp_wear_management`, and `controller_tuning`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use disk_trace as trace;
pub use flash_ecc as ecc;
pub use flash_obs as obs;
pub use flash_reliability as reliability;
pub use flashcache_core as core;
pub use flashcache_engine as engine;
pub use flashcache_sim as sim;
pub use nand_flash as nand;
pub use storage_model as storage;

pub use disk_trace::{DiskRequest, OpKind, WorkloadSpec};
pub use flash_obs::ServiceTier;
pub use flashcache_core::{
    AccessOutcome, AdmissionPolicyConfig, CacheOp, CacheOpKind, CacheOutcome, CacheSnapshot,
    CacheStats, ConfigError, ControllerPolicy, FlashCache, FlashCacheConfig,
    FlashCacheConfigBuilder, PrimaryDiskCache, SplitPolicy,
};
pub use flashcache_engine::{EngineConfig, EngineError, ShardedCache};
pub use flashcache_sim::{Hierarchy, HierarchyConfig};
