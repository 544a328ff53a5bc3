//! Hash-partitioned sharding of the flash disk cache.

use std::fmt;

use disk_trace::{DiskRequest, OpKind};
use flash_obs::{Metric, Registry, ServiceTier};
use flashcache_core::tables::Fgst;
use flashcache_core::{
    AccessOutcome, CacheOp, CacheOutcome, CacheStats, ConfigError, FlashCache, FlashCacheConfig,
};

use crate::runtime::{service, Group, Helper};

/// Golden-ratio increment decorrelating per-shard RNG seeds.
const SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Page operations below which a batch runs on the submitting
/// thread alone. Handing a shard to a sleeping helper and waiting for
/// it costs two thread wake-ups, tens of microseconds; a page operation
/// costs a fraction of one, so a batch this small cannot repay the
/// handoff however it splits (`flashcache simulate --shards 4`, which
/// submits one request per batch by default, ran 25x slower without
/// this floor). It is a floor, not an optimum: where forking starts to
/// win depends on the host, and the worker count is the knob for that.
pub(crate) const MIN_FORK_OPS: usize = 64;

/// Execution policy of a [`ShardedCache`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineConfig {
    /// Threads servicing a batch, counting the submitting thread: `1`
    /// runs every shard on the caller, `w` adds `w - 1` helper threads.
    /// `None` uses the machine's available parallelism; either way the
    /// count is capped by the shard count. Results never depend on it —
    /// only wall-clock time does.
    pub workers: Option<usize>,
}

/// A sharded-engine construction error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The per-shard cache configuration failed validation.
    Config(ConfigError),
    /// Shard count must be at least 1.
    InvalidShardCount {
        /// The rejected count.
        shards: usize,
    },
    /// The device's blocks cannot be divided evenly across the shards —
    /// an uneven split would silently change total capacity.
    IndivisibleBlocks {
        /// Blocks on the unsharded device.
        blocks: u32,
        /// Requested shard count.
        shards: usize,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Config(e) => write!(f, "{e}"),
            EngineError::InvalidShardCount { shards } => {
                write!(f, "shard count must be >= 1, got {shards}")
            }
            EngineError::IndivisibleBlocks { blocks, shards } => write!(
                f,
                "{blocks} flash blocks cannot be split evenly across {shards} shards"
            ),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for EngineError {
    fn from(e: ConfigError) -> Self {
        EngineError::Config(e)
    }
}

/// Folds a later page's outcome into a multi-page request's merged
/// outcome: latencies sum, `hit` requires every page to hit, and the
/// tier degrades to [`ServiceTier::Disk`] if any page needs the disk.
fn merge_outcome(mut slot: AccessOutcome, out: AccessOutcome) -> AccessOutcome {
    slot.hit &= out.hit;
    slot.latency_us += out.latency_us;
    slot.queue_wait_us += out.queue_wait_us;
    slot.background_us += out.background_us;
    slot.needs_disk_read |= out.needs_disk_read;
    slot.flushed_dirty += out.flushed_dirty;
    slot.uncorrectable |= out.uncorrectable;
    slot.bypassed |= out.bypassed;
    if out.tier == ServiceTier::Disk {
        slot.tier = ServiceTier::Disk;
    }
    slot
}

/// splitmix64 finalizer: uncorrelates disk-page numbers before the
/// modulo so striding access patterns spread across shards.
#[inline]
fn mix(page: u64) -> u64 {
    let mut z = page.wrapping_add(SEED_STRIDE);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The shard of `n` that owns `page`; one shard owns everything without
/// hashing.
#[inline]
fn route(page: u64, n: usize) -> usize {
    if n == 1 {
        0
    } else {
        (mix(page) % n as u64) as usize
    }
}

/// N independent [`FlashCache`] shards hash-partitioning the disk-page
/// address space, executed concurrently per batch.
///
/// The device geometry is split N ways (blocks / N per shard), so total
/// flash capacity is conserved; each shard runs the paper's full
/// machinery — GC, wear levelling, controller reconfiguration — over
/// its own slice of both the address space and the device. Shard 0
/// keeps the base configuration's RNG seed, so `shards = 1` constructs
/// a cache that behaves **bit-identically** to
/// `FlashCache::new(config)`.
///
/// # Determinism
///
/// For a fixed (configuration seed, shard count), every query — merged
/// stats, outcomes, device makespan — is reproducible regardless of the
/// worker-thread count: batches partition deterministically (splitmix64
/// of the page number, mod N), each shard consumes its slice in stream
/// order, and result slots are keyed by stream index.
///
/// # Examples
///
/// ```
/// use disk_trace::DiskRequest;
/// use flashcache_core::FlashCacheConfig;
/// use flashcache_engine::ShardedCache;
///
/// let config = FlashCacheConfig::builder().build().unwrap();
/// let mut engine = ShardedCache::new(config, 4).unwrap();
/// let batch: Vec<DiskRequest> = (0..64).map(DiskRequest::read).collect();
/// let outcomes = engine.submit(&batch);
/// assert_eq!(outcomes.len(), 64);
/// assert_eq!(engine.stats().reads, 64);
/// ```
#[derive(Debug)]
pub struct ShardedCache {
    /// The shards, in partition order. Shorter only inside `submit`,
    /// while the helpers' shards travel with their jobs.
    shards: Vec<FlashCache>,
    /// Per shard, in partition order: its slice of the current batch,
    /// the outcomes, and its panic state (buffers reused per batch).
    groups: Vec<Group>,
    /// Threads servicing a batch, the submitter included (capped by the
    /// shard count).
    workers: usize,
    /// Worker threads `1..`, each spawned by the first batch that
    /// sends it a shard.
    helpers: Vec<Helper>,
    /// Batches submitted.
    batches: u64,
}

impl ShardedCache {
    /// Builds `shards` independent caches, splitting the configured
    /// device's blocks evenly among them, with the default
    /// [`EngineConfig`] (workers auto-sized).
    ///
    /// Shard `i` derives its RNG seed as `base + i * stride` (shard 0 =
    /// base), so different shards sample independent error/quality
    /// streams while the whole ensemble stays reproducible.
    ///
    /// # Errors
    ///
    /// * [`EngineError::InvalidShardCount`] for `shards == 0`;
    /// * [`EngineError::IndivisibleBlocks`] if the block count does not
    ///   divide evenly;
    /// * [`EngineError::Config`] if the derived per-shard configuration
    ///   fails validation (e.g. fewer than 4 blocks per shard).
    pub fn new(config: FlashCacheConfig, shards: usize) -> Result<Self, EngineError> {
        Self::with_engine_config(config, shards, EngineConfig::default())
    }

    /// [`ShardedCache::new`] with an explicit execution policy.
    ///
    /// # Errors
    ///
    /// Same as [`ShardedCache::new`].
    pub fn with_engine_config(
        config: FlashCacheConfig,
        shards: usize,
        engine: EngineConfig,
    ) -> Result<Self, EngineError> {
        if shards == 0 {
            return Err(EngineError::InvalidShardCount { shards });
        }
        let blocks = config.flash.geometry.blocks;
        if !(blocks as usize).is_multiple_of(shards) {
            return Err(EngineError::IndivisibleBlocks { blocks, shards });
        }
        let mut built = Vec::with_capacity(shards);
        for i in 0..shards {
            let mut c = config.clone();
            c.flash.geometry.blocks = blocks / shards as u32;
            c.flash.seed = config
                .flash
                .seed
                .wrapping_add((i as u64).wrapping_mul(SEED_STRIDE));
            built.push(FlashCache::new(c)?);
        }
        let workers = engine
            .workers
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
            .clamp(1, shards);
        Ok(ShardedCache {
            shards: built,
            groups: (0..shards).map(|_| Group::default()).collect(),
            workers,
            helpers: Vec::new(),
            batches: 0,
        })
    }

    /// Threads a batch of at least [`MIN_FORK_OPS`] page operations is
    /// serviced on, the submitting thread included.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shards, in partition order.
    pub fn shards(&self) -> &[FlashCache] {
        &self.shards
    }

    /// Mutable access to the shards (e.g. to drive one shard directly
    /// in a test).
    pub fn shards_mut(&mut self) -> &mut [FlashCache] {
        &mut self.shards
    }

    /// The shard that owns `disk_page`.
    pub fn shard_of(&self, disk_page: u64) -> usize {
        route(disk_page, self.shards.len())
    }

    /// Submits a batch of requests and returns one merged
    /// [`AccessOutcome`] per request, in batch order.
    ///
    /// The requests' pages become one op stream, in batch and page
    /// order, run by [`submit_ops`](ShardedCache::submit_ops); a
    /// multi-page request then folds its pages' outcomes in page order:
    /// latencies sum, `hit` requires every page to hit, and the tier
    /// degrades to [`ServiceTier::Disk`] if any page needs the disk.
    pub fn submit(&mut self, batch: &[DiskRequest]) -> Vec<AccessOutcome> {
        let ops: Vec<CacheOp> = batch
            .iter()
            .flat_map(|req| {
                req.pages().map(move |page| match req.op {
                    OpKind::Read => CacheOp::read(page),
                    OpKind::Write => CacheOp::write(page),
                })
            })
            .collect();
        let mut outs = Vec::with_capacity(ops.len());
        self.submit_ops(&ops, &mut outs);
        let mut outs = outs.into_iter();
        batch
            .iter()
            .map(|req| {
                let mut pages = outs.by_ref().take(req.len as usize);
                let first = pages.next().unwrap_or_default();
                pages.fold(first, merge_outcome)
            })
            .collect()
    }

    /// Runs an op stream through the shards, executing them
    /// concurrently, and appends one [`AccessOutcome`] per op to `outs`,
    /// in stream order.
    ///
    /// Each shard runs its ops in stream order as one pipelined
    /// [`FlashCache::op_batch_into`], so the outcomes, and every shard's
    /// state afterwards, are exactly those of calling
    /// [`op`](ShardedCache::op) on each op in turn. Modeled time is not
    /// accounted here: each shard's device keeps its own clock, read
    /// through [`device_makespan_us`](ShardedCache::device_makespan_us).
    ///
    /// Execution is a fork-join. Each worker owns a contiguous run of
    /// `ceil(shards / workers)` shards; worker 0 is the calling thread
    /// and owns the first. Each other worker's shards are moved, with
    /// their groups, over a channel to that worker's long-lived thread;
    /// the caller services its own run in place meanwhile, then takes
    /// the others back in partition order. With one worker, or fewer
    /// than [`MIN_FORK_OPS`] ops in the stream, no shard moves at all. A
    /// shard whose group panics is poisoned: the rest of that group and
    /// every later one complete as disk bypasses, counted in
    /// `stats().internal_errors`.
    pub fn submit_ops(&mut self, ops: &[CacheOp], outs: &mut Vec<AccessOutcome>) {
        let n = self.shards.len();
        for g in &mut self.groups {
            g.ops.clear();
            g.owners.clear();
        }
        if n == 1 {
            self.groups[0].ops.extend_from_slice(ops);
        } else {
            for (i, &op) in ops.iter().enumerate() {
                let g = &mut self.groups[route(op.lba, n)];
                g.ops.push(op);
                g.owners.push(i as u32);
            }
        }
        let workers = if ops.len() < MIN_FORK_OPS {
            1
        } else {
            self.workers
        };
        // Shards per worker: the submitter keeps the first `share` in
        // place, helper `h` is sent the `h`-th run of `share` after it.
        let share = n.div_ceil(workers);
        let away = self.shards.drain(share..).zip(self.groups.drain(share..));
        for (i, job) in away.enumerate() {
            let h = i / share;
            if h == self.helpers.len() {
                self.helpers.push(Helper::spawn(h + 1));
            }
            self.helpers[h].send(job);
        }
        for (shard, group) in self.shards.iter_mut().zip(&mut self.groups) {
            service(shard, group);
        }
        // A helper returns its jobs in the order sent, so this restores
        // partition order.
        for i in 0..n - share {
            let (shard, group) = self.helpers[i / share].recv();
            self.shards.push(shard);
            self.groups.push(group);
        }
        if n == 1 {
            outs.extend(self.groups[0].outs.iter().map(|o| o.access));
        } else {
            let base = outs.len();
            outs.resize(base + ops.len(), AccessOutcome::default());
            for g in &self.groups {
                for (&i, o) in g.owners.iter().zip(&g.outs) {
                    outs[base + i as usize] = o.access;
                }
            }
        }
        self.batches += 1;
    }

    /// Services one typed operation through its owning shard.
    pub fn op(&mut self, op: CacheOp) -> CacheOutcome {
        let s = self.shard_of(op.lba);
        self.shards_mut()[s].op(op)
    }

    /// Marks every dirty page clean across all shards and returns the
    /// total disk writes owed (the periodic write-back flush of §5.1).
    pub fn flush_writes(&mut self) -> u64 {
        self.shards_mut().iter_mut().map(|s| s.flush_writes()).sum()
    }

    /// Merged statistics: the field-wise sum of every shard's counters,
    /// plus any operations a batch degraded after a shard panic
    /// (counted as `internal_errors`, since the poisoned shard itself
    /// can no longer account for them).
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for s in self.shards() {
            total.merge(&s.stats());
        }
        total.internal_errors += self.groups.iter().map(|g| g.degraded).sum::<u64>();
        total
    }

    /// Per-shard statistics, in partition order.
    pub fn shard_stats(&self) -> Vec<CacheStats> {
        self.shards().iter().map(|s| s.stats()).collect()
    }

    /// Merged flash global status table (traffic-weighted across
    /// shards; exactly shard 0's table when there is one shard).
    pub fn fgst(&self) -> Fgst {
        let parts: Vec<Fgst> = self.shards().iter().map(|s| s.fgst()).collect();
        Fgst::merged(&parts)
    }

    /// Pages cached across all shards.
    pub fn cached_pages(&self) -> u64 {
        self.shards().iter().map(|s| s.cached_pages()).sum()
    }

    /// Usable (non-retired) slots across all shards.
    pub fn usable_slots(&self) -> u64 {
        self.shards().iter().map(|s| s.usable_slots()).sum()
    }

    /// `true` once every shard's device is worn out.
    pub fn is_dead(&self) -> bool {
        self.shards().iter().all(|s| s.is_dead())
    }

    /// The engine's only modeled time: each shard device's makespan is
    /// the max over its per-channel and per-plane free times; returns
    /// the largest, µs — the shards are concurrently operating
    /// devices, so the busiest one bounds the run. Under a serial
    /// channel configuration that is the busiest shard's sum of service
    /// times; with more channels, overlap shows up as a shorter makespan
    /// for the same op mix.
    pub fn device_makespan_us(&mut self) -> f64 {
        let mut makespan: f64 = 0.0;
        for s in self.shards_mut() {
            makespan = makespan.max(s.device_mut().drain_timing());
        }
        makespan
    }

    /// Batches submitted so far.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Exports merged engine metrics: every shard's counters summed
    /// under the usual `flash.*` / `nand.*` names, gauges recomputed
    /// over the ensemble, and — when there is more than one shard — a
    /// per-shard copy under `flash.shard.<i>.*`.
    ///
    /// With one shard the output is identical to that shard's own
    /// [`FlashCache::export_metrics`], preserving the N = 1 degeneracy.
    pub fn export_metrics(&self) -> Registry {
        let parts: Vec<Registry> = self
            .shards()
            .iter()
            .map(FlashCache::export_metrics)
            .collect();
        let mut reg = Registry::new();
        for (i, part) in parts.iter().enumerate() {
            reg.merge(part);
            if parts.len() > 1 {
                reg.merge(&prefixed(i, part));
            }
        }
        if parts.len() > 1 {
            // Registry::merge overwrites gauges (last shard wins);
            // recompute them over the whole ensemble.
            reg.gauge_set("flash.cached_pages", self.cached_pages() as f64);
            reg.gauge_set("flash.usable_slots", self.usable_slots() as f64);
            let slc = self.shards().iter().map(|s| s.slc_fraction()).sum::<f64>()
                / self.shards.len() as f64;
            reg.gauge_set("flash.slc_fraction", slc);
            reg.gauge_set("flash.miss_rate", self.fgst().miss_rate);
            // High-water marks: the ensemble's is the largest shard's.
            for name in ["flash.admission.bar", "flash.fcht.max_probe_len"] {
                let high = parts
                    .iter()
                    .filter_map(|p| p.get(name).and_then(Metric::as_gauge))
                    .fold(0.0, f64::max);
                reg.gauge_set(name, high);
            }
        }
        reg
    }
}

impl Drop for ShardedCache {
    /// Joins the helper threads.
    fn drop(&mut self) {
        for helper in self.helpers.drain(..) {
            helper.join();
        }
    }
}

/// Re-keys a shard's registry under `flash.shard.<i>.`: the leading
/// `flash.` is stripped (`flash.reads` → `flash.shard.0.reads`); other
/// prefixes nest whole (`nand.reads` → `flash.shard.0.nand.reads`).
fn prefixed(i: usize, reg: &Registry) -> Registry {
    let mut out = Registry::new();
    for (name, metric) in reg.iter() {
        let suffix = name.strip_prefix("flash.").unwrap_or(name);
        let pname = format!("flash.shard.{i}.{suffix}");
        if let Some(v) = metric.as_counter() {
            out.counter_add(&pname, v);
        } else if let Some(v) = metric.as_gauge() {
            out.gauge_set(&pname, v);
        } else if let Some(h) = metric.as_histogram() {
            out.histogram_merge(&pname, h);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use disk_trace::OpKind;
    use flashcache_core::{AdmissionDecision, AdmissionPolicyConfig};
    use nand_flash::{FlashConfig, FlashGeometry};

    fn config(blocks: u32) -> FlashCacheConfig {
        FlashCacheConfig::builder()
            .flash(FlashConfig {
                geometry: FlashGeometry {
                    blocks,
                    pages_per_block: 8,
                },
                ..FlashConfig::default()
            })
            .build()
            .unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(matches!(
            ShardedCache::new(config(32), 0),
            Err(EngineError::InvalidShardCount { .. })
        ));
        assert!(matches!(
            ShardedCache::new(config(32), 3),
            Err(EngineError::IndivisibleBlocks { .. })
        ));
        // 32 blocks / 16 shards = 2 blocks per shard: below the core's
        // 4-block minimum.
        assert!(matches!(
            ShardedCache::new(config(32), 16),
            Err(EngineError::Config(_))
        ));
        let e = ShardedCache::new(config(32), 4).unwrap();
        assert_eq!(e.shard_count(), 4);
        assert_eq!(e.shards()[0].device().geometry().blocks, 8);
    }

    #[test]
    fn admission_config_reaches_every_shard() {
        // The paper's rule, asked for explicitly, reaches each shard: a
        // scan of three times the flash is never refused.
        let mut cfg = config(32);
        cfg.admission = AdmissionPolicyConfig::AdmitAll;
        cfg.hot_threshold = 5;
        let mut e = ShardedCache::new(cfg, 4).unwrap();
        for shard in e.shards() {
            assert_eq!(shard.config().admission, AdmissionPolicyConfig::AdmitAll);
            assert_eq!(shard.config().hot_threshold, 5);
        }
        for p in 0..1000 {
            e.op(CacheOp::read(p));
        }
        assert_eq!(e.stats().admission_rejected_fills, 0);

        // The default (ours): each shard runs its own frequency sketch
        // and takes its bar from its own evictions.
        let mut e = ShardedCache::new(config(32), 4).unwrap();
        for shard in e.shards() {
            assert_eq!(shard.config().admission, AdmissionPolicyConfig::ReReference);
        }
        // Before any eviction a cold page fills...
        assert_eq!(
            e.op(CacheOp::read(7)).admission,
            AdmissionDecision::Admitted
        );
        assert!(e.op(CacheOp::read(7)).access.hit);
        // ...and once a scan has made every shard evict once-read pages...
        for p in 1000..2000 {
            e.op(CacheOp::read(p));
        }
        let per_shard = e.shard_stats();
        assert!(per_shard.iter().all(|s| s.admission_rejected_fills > 0));
        let merged = e.stats();
        let sum = |f: fn(&CacheStats) -> u64| per_shard.iter().map(f).sum::<u64>();
        assert_eq!(
            merged.admission_rejected_fills,
            sum(|s| s.admission_rejected_fills)
        );
        assert!(e.shards().iter().all(|shard| shard.admission_bar() == 1));
        // ...the gate holds on the first touch of a cold page, and the
        // re-read earns flash space, wherever the page shards.
        let cold = e.op(CacheOp::read(5000));
        assert_eq!(cold.admission, AdmissionDecision::Rejected);
        assert!(cold.access.needs_disk_read && !cold.access.hit);
        assert_eq!(
            e.op(CacheOp::read(5000)).admission,
            AdmissionDecision::Admitted
        );
        assert!(e.op(CacheOp::read(5000)).access.hit);
        assert_eq!(
            e.stats().admission_rejected_fills,
            merged.admission_rejected_fills + 1
        );
        // Each shard ages on its own count of reads (10 x 128 slots).
        assert_eq!(e.stats().admission_sketch_halvings, 0);
        for p in 0..6000 {
            e.op(CacheOp::read(p));
        }
        let per_shard = e.shard_stats();
        assert!(per_shard.iter().all(|s| s.admission_sketch_halvings == 1));
        assert_eq!(e.stats().admission_sketch_halvings, 4);
    }

    #[test]
    fn routing_is_stable_and_total() {
        let e = ShardedCache::new(config(32), 4).unwrap();
        let mut seen = [false; 4];
        for p in 0..1000u64 {
            let s = e.shard_of(p);
            assert_eq!(s, e.shard_of(p));
            seen[s] = true;
        }
        assert!(seen.iter().all(|&s| s), "all shards receive traffic");
    }

    #[test]
    fn submit_merges_stats_and_outcomes() {
        let mut e = ShardedCache::new(config(32), 4).unwrap();
        let batch: Vec<DiskRequest> = (0..100).map(DiskRequest::read).collect();
        let first = e.submit(&batch);
        assert_eq!(first.len(), 100);
        assert!(first.iter().all(|o| o.needs_disk_read));
        let second = e.submit(&batch);
        assert!(second.iter().all(|o| o.hit), "refetch hits every shard");
        let st = e.stats();
        assert_eq!(st.reads, 200);
        assert_eq!(st.read_hits, 100);
        assert_eq!(e.batches(), 2);
    }

    #[test]
    fn multi_page_requests_merge_across_shards() {
        let mut e = ShardedCache::new(config(32), 4).unwrap();
        let req = DiskRequest::new(0, 16, OpKind::Read);
        let cold = e.submit(std::slice::from_ref(&req));
        assert_eq!(cold.len(), 1);
        assert!(!cold[0].hit);
        assert!(cold[0].needs_disk_read);
        let warm = e.submit(std::slice::from_ref(&req));
        assert!(warm[0].hit, "all 16 pages cached across shards");
        assert_eq!(e.stats().reads, 32);
    }

    #[test]
    fn determinism_across_thread_counts() {
        let run = |threads: usize| {
            let engine = EngineConfig {
                workers: Some(threads),
            };
            let mut e = ShardedCache::with_engine_config(config(32), 4, engine).unwrap();
            let batch: Vec<DiskRequest> = (0..300)
                .map(|i| {
                    if i % 3 == 0 {
                        DiskRequest::write(i % 97)
                    } else {
                        DiskRequest::read(i % 53)
                    }
                })
                .collect();
            let outs = e.submit(&batch);
            (outs, e.stats(), e.device_makespan_us())
        };
        let (o1, s1, m1) = run(1);
        let (o8, s8, m8) = run(8);
        assert_eq!(o1, o8);
        assert_eq!(s1, s8);
        assert_eq!(m1, m8);
    }

    #[test]
    fn single_shard_keeps_base_seed_and_no_prefixes() {
        let e = ShardedCache::new(config(32), 1).unwrap();
        assert_eq!(e.shards()[0].config().flash.seed, config(32).flash.seed);
        assert_eq!(e.shard_of(12345), 0);
        let reg = e.export_metrics();
        assert!(
            reg.iter().all(|(n, _)| !n.starts_with("flash.shard.")),
            "N=1 must not emit per-shard metrics"
        );
    }

    #[test]
    fn multi_shard_exports_prefixed_metrics() {
        let mut e = ShardedCache::new(config(32), 2).unwrap();
        let batch: Vec<DiskRequest> = (0..50).map(DiskRequest::read).collect();
        e.submit(&batch);
        let reg = e.export_metrics();
        let per_shard: u64 = (0..2)
            .map(|i| reg.counter(&format!("flash.shard.{i}.reads")))
            .sum();
        assert_eq!(per_shard, 50);
        assert_eq!(reg.counter("flash.reads"), 50);

        // Only shard 0 sees traffic, so the last shard's high-water marks
        // stay 0: the merged gauges must be shard 0's, not the last one's.
        let mut e = ShardedCache::new(config(32), 2).unwrap();
        let pages: Vec<u64> = (0..).filter(|&p| e.shard_of(p) == 0).take(1000).collect();
        for &p in &pages {
            e.op(CacheOp::read(p));
        }
        assert!(e.shards()[0].admission_bar() > 0);
        let reg = e.export_metrics();
        let gauge = |name: &str| reg.get(name).and_then(Metric::as_gauge).unwrap();
        for suffix in ["admission.bar", "fcht.max_probe_len"] {
            let merged = gauge(&format!("flash.{suffix}"));
            assert!(merged > 0.0, "{suffix}");
            assert_eq!(
                merged,
                gauge(&format!("flash.shard.0.{suffix}")),
                "{suffix}"
            );
            assert_eq!(gauge(&format!("flash.shard.1.{suffix}")), 0.0, "{suffix}");
        }
    }

    #[test]
    fn flush_writes_sums_shards() {
        let mut e = ShardedCache::new(config(32), 4).unwrap();
        let batch: Vec<DiskRequest> = (0..40).map(DiskRequest::write).collect();
        e.submit(&batch);
        assert!(e.flush_writes() > 0);
        assert_eq!(e.flush_writes(), 0, "second flush finds nothing dirty");
    }
}
