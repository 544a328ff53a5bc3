//! Sharded concurrent cache engine.
//!
//! The paper's evaluation targets server disk caches serving many
//! concurrent clients (§4.2's full-system server model), but a single
//! [`FlashCache`](flashcache_core::FlashCache) is an exclusively-owned
//! `&mut self` object: multi-tenant throughput is bounded by one flash
//! channel no matter how fast each operation is. Production flash
//! caches solve this by partitioning state so independent IOs never
//! contend. [`ShardedCache`] brings that shape to the simulator:
//!
//! * the disk-page address space is hash-partitioned across N
//!   independent `FlashCache` shards (device geometry split N ways, so
//!   total capacity is conserved);
//! * a batched submission API ([`ShardedCache::submit_ops`]) groups an
//!   op stream by owning shard and executes the groups as a fork-join:
//!   the submitting thread services its share of the shards while
//!   long-lived helper threads service theirs, each shard moved to its
//!   thread and back over a `std::sync::mpsc` channel (no helper
//!   when one worker resolves);
//! * results stay **paper-faithful and deterministic**: merged
//!   [`CacheStats`](flashcache_core::CacheStats) /
//!   [`Fgst`](flashcache_core::tables::Fgst) across shards, and
//!   identical outcomes for a fixed (seed, shard-count) pair regardless
//!   of how many worker threads execute the batch;
//! * N = 1 degenerates to exactly today's behaviour — bit-identical
//!   stats, snapshot and observability output to a bare `FlashCache`.
//!
//! Because each shard owns a disjoint slice of both the address space
//! and the device, garbage collection, wear levelling and controller
//! reconfiguration run per shard. The engine keeps no clock of its
//! own: modeled time is each shard device's per-channel and per-plane
//! free times, and [`ShardedCache::device_makespan_us`] reports the
//! largest of their maxima — the shards are concurrently operating
//! flash devices — so scaling results are machine-independent.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod runtime;
pub mod sharded;

pub use sharded::{EngineConfig, EngineError, ShardedCache};
