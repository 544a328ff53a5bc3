//! The simulated storage hierarchy of Figure 2: a DRAM primary disk
//! cache in front of an optional flash secondary disk cache in front of
//! a hard disk drive.
//!
//! This is the paper's "light weight trace based Flash disk cache
//! simulator" (§6.1): it replays a [`disk_trace::DiskRequest`] stream,
//! accounts per-device latency, busy time and traffic, and produces the
//! raw material for the power/throughput analyses of §7.

use disk_trace::{DiskRequest, OpKind, PAGE_BYTES};
use flash_obs::{Registry, ServiceTier, Snapshot};
use flashcache_core::{CacheOp, FlashCache, FlashCacheConfig, PrimaryDiskCache};
use flashcache_engine::{EngineConfig, EngineError, ShardedCache};
use storage_model::{ActivityTracker, DramModel, DramPowerBreakdown, HddModel};

use crate::metrics::LatencyHistogram;

/// Configuration of a [`Hierarchy`].
#[derive(Debug, Clone)]
pub struct HierarchyConfig {
    /// DRAM capacity holding the primary disk cache, bytes.
    pub dram_bytes: u64,
    /// Flash secondary cache configuration; `None` builds the DRAM-only
    /// baseline of Figure 9's left bars.
    pub flash: Option<FlashCacheConfig>,
    /// DRAM timing/power model.
    pub dram: DramModel,
    /// Disk timing/power model.
    pub hdd: HddModel,
    /// Requests between periodic dirty write-back flushes of the PDC.
    pub flush_interval: u64,
    /// Shards the flash cache is hash-partitioned into (1 = the
    /// unsharded baseline; see [`ShardedCache`]).
    pub flash_shards: usize,
    /// Execution configuration of the sharded engine: the worker
    /// thread count (results never depend on it).
    pub engine: EngineConfig,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig {
            dram_bytes: 256 << 20,
            flash: Some(FlashCacheConfig::default()),
            dram: DramModel::default(),
            hdd: HddModel::travelstar(),
            flush_interval: 1024,
            flash_shards: 1,
            engine: EngineConfig::default(),
        }
    }
}

/// Per-request result.
///
/// Shares its vocabulary with `flashcache_core::AccessOutcome`: both
/// report `hit`, `tier` ([`ServiceTier`]) and `latency_us`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RequestOutcome {
    /// Every page was served without touching the disk.
    pub hit: bool,
    /// The slowest tier the request touched ([`ServiceTier::Disk`] if
    /// any page missed both caches).
    pub tier: ServiceTier,
    /// Foreground latency of the request, µs.
    pub latency_us: f64,
    /// Pages served from DRAM.
    pub dram_hits: u32,
    /// Pages served from flash.
    pub flash_hits: u32,
    /// Pages fetched from disk.
    pub disk_pages: u32,
}

/// Aggregated measurements of a simulation run.
#[derive(Debug, Clone, Default)]
pub struct HierarchyReport {
    /// Requests replayed.
    pub requests: u64,
    /// Pages touched.
    pub pages: u64,
    /// Sum of request latencies, µs.
    pub total_latency_us: f64,
    /// Pages served by each level.
    pub dram_hit_pages: u64,
    /// Pages served from flash.
    pub flash_hit_pages: u64,
    /// Pages that reached the disk (reads).
    pub disk_read_pages: u64,
    /// Pages written to disk (flushes).
    pub disk_write_pages: u64,
    /// DRAM activity.
    pub dram: ActivityTracker,
    /// Disk activity.
    pub disk: ActivityTracker,
    /// Per-request latency distribution.
    pub latency: LatencyHistogram,
    /// Latency of page accesses served at DRAM (hits and absorbed
    /// writes).
    pub dram_latency: LatencyHistogram,
    /// Latency of page accesses served from flash.
    pub flash_latency: LatencyHistogram,
    /// Device queueing delay of flash-served page accesses — zero under
    /// the closed-form timing backend, real channel contention under
    /// the event-driven one. Recorded separately from service so the
    /// oracle path demonstrably reports wait = 0.
    pub flash_queue_wait: LatencyHistogram,
    /// Service component (probe + array + ECC, no queueing) of
    /// flash-served page accesses.
    pub flash_service: LatencyHistogram,
    /// Latency of batched disk accesses (one sample per request that
    /// reached the disk).
    pub disk_latency: LatencyHistogram,
}

impl HierarchyReport {
    /// Mean request latency, µs.
    pub fn avg_latency_us(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.total_latency_us / self.requests as f64
        }
    }

    /// Fraction of pages that had to come from disk.
    pub fn disk_read_fraction(&self) -> f64 {
        if self.pages == 0 {
            0.0
        } else {
            self.disk_read_pages as f64 / self.pages as f64
        }
    }
}

/// The two- (or one-) level disk cache hierarchy simulator.
///
/// # Examples
///
/// ```
/// use disk_trace::DiskRequest;
/// use flashcache_sim::hierarchy::{Hierarchy, HierarchyConfig};
///
/// let mut h = Hierarchy::new(HierarchyConfig::default());
/// let cold = h.submit(DiskRequest::read(10));
/// let warm = h.submit(DiskRequest::read(10));
/// assert!(warm.latency_us < cold.latency_us);
/// ```
#[derive(Debug)]
pub struct Hierarchy {
    config: HierarchyConfig,
    pdc: PrimaryDiskCache,
    flash: Option<ShardedCache>,
    report: HierarchyReport,
    since_flush: u64,
    /// `config.dram.access_latency_us(PAGE_BYTES)`, the cost of every
    /// PDC probe, and the same in seconds: computed once, `config` is
    /// immutable from here on.
    dram_page_us: f64,
    dram_page_s: f64,
    /// `submit_batch`'s staging buffers, reused across batches.
    staging: Staging,
}

/// What the staged (multi-shard) `submit_batch` collects per batch.
#[derive(Debug, Default)]
struct Staging {
    /// PDC-missed read pages, bound for the flash engine.
    flash_pages: Vec<DiskRequest>,
    /// Index of the request each of `flash_pages` belongs to.
    owners: Vec<u32>,
    /// Per request, the pages that missed flash too.
    disk_reads: Vec<u32>,
}

impl Hierarchy {
    /// Builds the hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if the flash configuration fails validation or cannot be
    /// sharded as requested; use [`Hierarchy::try_new`] for graceful
    /// errors.
    pub fn new(config: HierarchyConfig) -> Self {
        Hierarchy::try_new(config).expect("hierarchy config must be valid")
    }

    /// Builds the hierarchy, surfacing configuration problems as typed
    /// errors.
    ///
    /// # Errors
    ///
    /// [`EngineError`] if the flash configuration fails validation or
    /// its blocks cannot be split across `flash_shards`.
    pub fn try_new(config: HierarchyConfig) -> Result<Self, EngineError> {
        let pdc_pages = (config.dram_bytes / PAGE_BYTES).max(1) as usize;
        let flash = match config.flash.clone() {
            Some(c) => Some(ShardedCache::with_engine_config(
                c,
                config.flash_shards,
                config.engine.clone(),
            )?),
            None => None,
        };
        let dram_page_us = config.dram.access_latency_us(PAGE_BYTES);
        Ok(Hierarchy {
            pdc: PrimaryDiskCache::new(pdc_pages),
            flash,
            report: HierarchyReport::default(),
            since_flush: 0,
            dram_page_us,
            dram_page_s: dram_page_us / 1e6,
            staging: Staging::default(),
            config,
        })
    }

    /// Exports the hierarchy's per-tier counters and latency histograms
    /// as a metrics registry under the `hierarchy.*` prefix.
    pub fn export_metrics(&self) -> Registry {
        let mut reg = Registry::new();
        let r = &self.report;
        let counters: &[(&str, u64)] = &[
            ("hierarchy.requests", r.requests),
            ("hierarchy.pages", r.pages),
            ("hierarchy.dram_hit_pages", r.dram_hit_pages),
            ("hierarchy.flash_hit_pages", r.flash_hit_pages),
            ("hierarchy.disk_read_pages", r.disk_read_pages),
            ("hierarchy.disk_write_pages", r.disk_write_pages),
            (
                "hierarchy.total_latency_us",
                r.total_latency_us.round() as u64,
            ),
        ];
        for (name, v) in counters {
            reg.counter_add(name, *v);
        }
        reg.histogram_merge("hierarchy.request_latency", &r.latency);
        reg.histogram_merge("hierarchy.dram_latency", &r.dram_latency);
        reg.histogram_merge("hierarchy.flash_latency", &r.flash_latency);
        // Wait vs. service split of the flash tier, exported without the
        // hierarchy prefix as the canonical flash-obs contention metrics.
        reg.histogram_merge("flash.queue_wait_us", &r.flash_queue_wait);
        reg.histogram_merge("flash.service_us", &r.flash_service);
        reg.histogram_merge("hierarchy.disk_latency", &r.disk_latency);
        reg
    }

    /// A full telemetry snapshot: this hierarchy's metrics merged with
    /// its flash engine's.
    ///
    /// # Examples
    ///
    /// ```
    /// use disk_trace::DiskRequest;
    /// use flashcache_sim::hierarchy::{Hierarchy, HierarchyConfig};
    ///
    /// let mut h = Hierarchy::new(HierarchyConfig::default());
    /// h.submit(DiskRequest::read(10));
    /// let snap = h.obs_snapshot();
    /// assert_eq!(snap.registry.counter("hierarchy.requests"), 1);
    /// assert_eq!(snap.registry.counter("flash.reads"), 1);
    /// ```
    pub fn obs_snapshot(&self) -> Snapshot {
        let mut reg = self.export_metrics();
        if let Some(f) = &self.flash {
            reg.merge(&f.export_metrics());
        }
        Snapshot::new(reg)
    }

    /// The first flash shard, when flash is present. With the default
    /// `flash_shards: 1` this *is* the whole flash cache; with more
    /// shards prefer [`Hierarchy::flash_engine`] for merged views.
    pub fn flash(&self) -> Option<&FlashCache> {
        self.flash.as_ref().map(|f| &f.shards()[0])
    }

    /// The sharded flash engine, when flash is present.
    pub fn flash_engine(&self) -> Option<&ShardedCache> {
        self.flash.as_ref()
    }

    /// Modeled flash device time, µs: the busiest shard's makespan, the
    /// max over its per-channel and per-plane free times
    /// ([`ShardedCache::device_makespan_us`]). `None` without flash.
    pub fn device_makespan_us(&mut self) -> Option<f64> {
        self.flash.as_mut().map(ShardedCache::device_makespan_us)
    }

    /// The accumulated report.
    pub fn report(&self) -> &HierarchyReport {
        &self.report
    }

    /// Clears all measurements (report, flash statistics) while keeping
    /// cache contents and wear state — used to exclude warm-up from
    /// steady-state measurements.
    pub fn reset_measurements(&mut self) {
        self.report = HierarchyReport::default();
        if let Some(f) = &mut self.flash {
            for shard in f.shards_mut() {
                shard.reset_stats();
            }
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Replays one request, returning its foreground outcome.
    pub fn submit(&mut self, req: DiskRequest) -> RequestOutcome {
        let mut out = RequestOutcome::default();
        let mut disk_read_pages = 0u32;
        for page in req.pages() {
            match req.op {
                OpKind::Read => {
                    let (lat, wait, tier) = self.read_page(page);
                    out.latency_us += lat;
                    match tier {
                        ServiceTier::Dram => {
                            out.dram_hits += 1;
                            self.report.dram_latency.record(lat);
                        }
                        ServiceTier::Flash => {
                            out.flash_hits += 1;
                            self.record_flash_hit(lat, wait);
                        }
                        ServiceTier::Disk => disk_read_pages += 1,
                    }
                }
                OpKind::Write => {
                    let lat = self.write_page(page);
                    out.latency_us += lat;
                    self.report.dram_latency.record(lat);
                }
            }
        }
        self.close_out(&req, disk_read_pages, &mut out);
        self.since_flush += 1;
        if self.since_flush >= self.config.flush_interval {
            self.since_flush = 0;
            self.periodic_flush();
        }
        out
    }

    /// Replays an entire iterator of requests.
    pub fn run<I: IntoIterator<Item = DiskRequest>>(&mut self, reqs: I) {
        for r in reqs {
            self.submit(r);
        }
    }

    /// Replays a batch of requests, letting the flash shards service
    /// their partitions concurrently ([`ShardedCache::submit`]).
    ///
    /// With one shard (or no flash) this falls back to serial
    /// [`Hierarchy::submit`] per request and is outcome-identical to
    /// it. With multiple shards the batch is staged: every request
    /// probes the DRAM cache first, then all PDC-missed read pages go
    /// to the flash engine as one batch, then disk accesses and PDC
    /// installs are accounted per request in batch order. Within a
    /// batch, a request therefore does not observe cache fills caused
    /// by later requests of the same batch — the usual semantics of a
    /// queue of independent concurrent clients. The periodic PDC flush
    /// runs at batch boundaries once `flush_interval` requests have
    /// accumulated.
    pub fn submit_batch(&mut self, reqs: &[DiskRequest]) -> Vec<RequestOutcome> {
        let shard_count = self.flash.as_ref().map_or(0, |f| f.shard_count());
        if shard_count <= 1 {
            return reqs.iter().map(|r| self.submit(*r)).collect();
        }
        let mut outs = vec![RequestOutcome::default(); reqs.len()];
        let mut staging = std::mem::take(&mut self.staging);
        let Staging {
            flash_pages,
            owners,
            disk_reads,
        } = &mut staging;
        flash_pages.clear();
        owners.clear();
        disk_reads.clear();
        disk_reads.resize(reqs.len(), 0);
        // Phase 1: DRAM probes; collect the flash-bound read pages.
        for (ri, req) in reqs.iter().enumerate() {
            for page in req.pages() {
                match req.op {
                    OpKind::Read => {
                        let lat = self.dram_access(false);
                        outs[ri].latency_us += lat;
                        if self.pdc.access(page) {
                            outs[ri].dram_hits += 1;
                            self.report.dram_latency.record(lat);
                        } else {
                            flash_pages.push(DiskRequest::read(page));
                            owners.push(ri as u32);
                        }
                    }
                    OpKind::Write => {
                        let lat = self.write_page(page);
                        outs[ri].latency_us += lat;
                        self.report.dram_latency.record(lat);
                    }
                }
            }
        }
        // Phase 2: the shards service the missed pages concurrently.
        let flash_outs = self
            .flash
            .as_mut()
            .expect("batched path requires flash")
            .submit(flash_pages);
        // Phase 3: per-page accounting and PDC installs, batch order.
        for ((fo, page_req), &ri) in flash_outs.iter().zip(&*flash_pages).zip(&*owners) {
            let ri = ri as usize;
            outs[ri].latency_us += fo.latency_us;
            self.flush_to_disk(fo.flushed_dirty);
            if fo.tier == ServiceTier::Flash {
                outs[ri].flash_hits += 1;
                self.record_flash_hit(self.dram_page_us + fo.latency_us, fo.queue_wait_us);
            } else {
                disk_reads[ri] += 1;
            }
            self.install_in_pdc(page_req.page, false);
        }
        // Phase 4: close out each request — batched disk access, report.
        for ((req, &pages), out) in reqs.iter().zip(&*disk_reads).zip(&mut outs) {
            self.close_out(req, pages, out);
        }
        self.staging = staging;
        self.since_flush += reqs.len() as u64;
        if self.since_flush >= self.config.flush_interval {
            self.since_flush = 0;
            self.periodic_flush();
        }
        outs
    }

    /// Records a flash hit's latency and its split into queue wait and
    /// service.
    fn record_flash_hit(&mut self, lat: f64, wait: f64) {
        self.report.flash_latency.record(lat);
        self.report.flash_queue_wait.record(wait);
        self.report.flash_service.record(lat - wait);
    }

    /// Closes out one request: one disk access covers its
    /// `disk_read_pages` missed pages, then its tier is set and it is
    /// added to the report.
    fn close_out(&mut self, req: &DiskRequest, disk_read_pages: u32, out: &mut RequestOutcome) {
        if disk_read_pages > 0 {
            let bytes = disk_read_pages as u64 * PAGE_BYTES;
            let t = self.config.hdd.access_latency_us(bytes);
            out.latency_us += t;
            out.disk_pages = disk_read_pages;
            self.report.disk.record(t / 1e6, bytes, false);
            self.report.disk_latency.record(t);
            self.report.disk_read_pages += disk_read_pages as u64;
        }
        out.hit = out.disk_pages == 0;
        out.tier = if out.disk_pages > 0 {
            ServiceTier::Disk
        } else if out.flash_hits > 0 {
            ServiceTier::Flash
        } else {
            ServiceTier::Dram
        };
        self.report.requests += 1;
        self.report.pages += req.len as u64;
        self.report.total_latency_us += out.latency_us;
        self.report.latency.record(out.latency_us);
        self.report.dram_hit_pages += out.dram_hits as u64;
        self.report.flash_hit_pages += out.flash_hits as u64;
    }

    fn dram_access(&mut self, write: bool) -> f64 {
        self.report.dram.record(self.dram_page_s, PAGE_BYTES, write);
        self.dram_page_us
    }

    fn read_page(&mut self, page: u64) -> (f64, f64, ServiceTier) {
        let mut latency = self.dram_access(false);
        if self.pdc.access(page) {
            return (latency, 0.0, ServiceTier::Dram);
        }
        // A PDC miss always installs the page clean; only the hit tier
        // depends on where the data came from.
        let mut queue_wait = 0.0;
        let tier = if let Some(flash) = &mut self.flash {
            let out = flash.op(CacheOp::read(page)).access;
            latency += out.latency_us;
            queue_wait = out.queue_wait_us;
            self.flush_to_disk(out.flushed_dirty);
            out.tier
        } else {
            ServiceTier::Disk
        };
        self.install_in_pdc(page, false);
        (latency, queue_wait, tier)
    }

    fn write_page(&mut self, page: u64) -> f64 {
        let latency = self.dram_access(true);
        self.install_in_pdc(page, true);
        latency
    }

    /// Inserts into the PDC, routing any dirty eviction down a level.
    fn install_in_pdc(&mut self, page: u64, dirty: bool) {
        if let Some(ev) = self.pdc.insert(page, dirty) {
            if ev.dirty {
                self.write_back(ev.page);
            }
        }
    }

    /// Writes one dirty page to the next level (flash write cache, or
    /// disk when there is no flash).
    fn write_back(&mut self, page: u64) {
        if let Some(flash) = &mut self.flash {
            // A `bypassed` outcome covers both worn-out devices and
            // admission rejections: either way the dirty page goes to
            // disk instead of flash.
            let out = flash.op(CacheOp::write(page)).access;
            let flushed = out.flushed_dirty + u32::from(out.bypassed);
            self.flush_to_disk(flushed);
        } else {
            self.flush_to_disk(1);
        }
    }

    /// Accounts `pages` background disk writes (write-back traffic is
    /// scheduled in batches, so seeks amortize across a batch).
    fn flush_to_disk(&mut self, pages: u32) {
        if pages == 0 {
            return;
        }
        const WRITE_BATCH: f64 = 32.0;
        let bytes = pages as u64 * PAGE_BYTES;
        let t = pages as f64
            * (self.config.hdd.avg_access_latency_us / WRITE_BATCH
                + PAGE_BYTES as f64 / self.config.hdd.transfer_bytes_per_s * 1e6);
        self.report.disk.record(t / 1e6, bytes, true);
        self.report.disk_write_pages += pages as u64;
    }

    /// Periodic write-back: PDC dirty pages drain to the flash write
    /// cache (or disk), mirroring §5.1's periodic scheduling.
    fn periodic_flush(&mut self) {
        let dirty = self.pdc.flush_dirty();
        for page in dirty {
            self.write_back(page);
        }
    }

    /// Forces all dirty state (PDC and flash) down to disk.
    pub fn drain(&mut self) {
        self.periodic_flush();
        if let Some(flash) = &mut self.flash {
            let flushed = flash.flush_writes();
            let flushed = u32::try_from(flushed).unwrap_or(u32::MAX);
            self.flush_to_disk(flushed);
        }
    }

    /// DRAM power breakdown over `elapsed_s` of wall time.
    pub fn dram_power(&self, elapsed_s: f64) -> DramPowerBreakdown {
        self.config.dram.power_breakdown(
            self.config.dram_bytes,
            self.report.dram.read_bytes,
            self.report.dram.write_bytes,
            elapsed_s,
        )
    }

    /// Disk average power over `elapsed_s` of wall time.
    pub fn disk_power_w(&self, elapsed_s: f64) -> f64 {
        self.config
            .hdd
            .average_power_w(self.report.disk.busy_s, elapsed_s)
    }

    /// Flash average power over `elapsed_s` of wall time (op energy plus
    /// the idle floor).
    pub fn flash_power_w(&self, elapsed_s: f64) -> f64 {
        match &self.flash {
            None => 0.0,
            Some(f) => f
                .shards()
                .iter()
                .map(|shard| {
                    let stats = shard.device().stats();
                    let capacity = shard
                        .device()
                        .geometry()
                        .capacity_bytes(nand_flash::CellMode::Mlc);
                    stats.energy_mj / 1000.0 / elapsed_s
                        + shard.device().config().power.idle_w(capacity)
                })
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashcache_core::FlashCacheConfig;
    use nand_flash::{FlashConfig, FlashGeometry};

    fn small_flash() -> FlashCacheConfig {
        FlashCacheConfig {
            flash: FlashConfig {
                geometry: FlashGeometry {
                    blocks: 16,
                    pages_per_block: 8,
                    ..FlashGeometry::default()
                },
                ..FlashConfig::default()
            },
            ..FlashCacheConfig::default()
        }
    }

    fn small_hierarchy(flash: bool) -> Hierarchy {
        Hierarchy::new(HierarchyConfig {
            dram_bytes: 64 * 2048, // 64-page PDC
            flash: flash.then(small_flash),
            flush_interval: 64,
            ..HierarchyConfig::default()
        })
    }

    #[test]
    fn zero_flash_shards_is_rejected_not_rounded_up() {
        let config = HierarchyConfig {
            flash: Some(small_flash()),
            flash_shards: 0,
            ..HierarchyConfig::default()
        };
        assert_eq!(
            Hierarchy::try_new(config).err(),
            Some(EngineError::InvalidShardCount { shards: 0 })
        );
    }

    #[test]
    fn dram_hits_are_fast() {
        let mut h = small_hierarchy(true);
        let cold = h.submit(DiskRequest::read(1));
        assert_eq!(cold.disk_pages, 1);
        let warm = h.submit(DiskRequest::read(1));
        assert_eq!(warm.dram_hits, 1);
        assert!(
            warm.latency_us < 1.0,
            "DRAM hit is sub-µs: {}",
            warm.latency_us
        );
        assert!(cold.latency_us > 4000.0, "cold read pays the disk");
    }

    #[test]
    fn flash_serves_dram_evictions() {
        let mut h = small_hierarchy(true);
        // Fill beyond the 64-page PDC but within the flash read region;
        // early pages fall out of DRAM into flash.
        for p in 0..150u64 {
            h.submit(DiskRequest::read(p));
        }
        // Re-read an early page: PDC evicted it, flash still has it.
        let out = h.submit(DiskRequest::read(0));
        assert_eq!(out.flash_hits + out.dram_hits, 1);
        assert!(
            out.latency_us < 1000.0,
            "no disk access: {}",
            out.latency_us
        );
    }

    #[test]
    fn dram_only_baseline_goes_to_disk() {
        let mut h = small_hierarchy(false);
        for p in 0..400u64 {
            h.submit(DiskRequest::read(p));
        }
        let out = h.submit(DiskRequest::read(0));
        assert_eq!(out.disk_pages, 1);
        assert!(h.report().disk_read_pages >= 400);
    }

    #[test]
    fn writes_are_absorbed_and_flushed_on_drain() {
        let mut h = small_hierarchy(true);
        for p in 0..32u64 {
            h.submit(DiskRequest::write(p));
        }
        // Writes complete at DRAM speed.
        assert!(h.report().avg_latency_us() < 1.0);
        h.drain();
        assert!(
            h.report().disk_write_pages > 0,
            "drain must push dirty data to disk"
        );
    }

    #[test]
    fn multi_page_requests_batch_disk_access() {
        let mut h = small_hierarchy(true);
        let out = h.submit(DiskRequest::new(0, 8, OpKind::Read));
        assert_eq!(out.disk_pages, 8);
        // One seek for the whole request, not eight.
        let eight_seeks = 8.0 * h.config().hdd.avg_access_latency_us;
        assert!(out.latency_us < eight_seeks);
    }

    #[test]
    fn report_accumulates_consistently() {
        let mut h = small_hierarchy(true);
        for p in 0..100u64 {
            h.submit(DiskRequest::read(p % 37));
        }
        let r = h.report();
        assert_eq!(r.requests, 100);
        assert_eq!(r.pages, 100);
        assert_eq!(
            r.dram_hit_pages + r.flash_hit_pages + r.disk_read_pages,
            100
        );
        assert!(r.avg_latency_us() > 0.0);
        assert!(r.disk_read_fraction() <= 1.0);
    }

    #[test]
    fn power_queries_are_sane() {
        let mut h = small_hierarchy(true);
        for p in 0..200u64 {
            h.submit(DiskRequest::read(p));
        }
        let dram = h.dram_power(1.0);
        assert!(dram.idle_w > 0.0);
        let disk = h.disk_power_w(1.0);
        assert!(disk >= h.config().hdd.idle_w);
        assert!(h.flash_power_w(1.0) > 0.0);
        // DRAM-only hierarchy reports zero flash power.
        assert_eq!(small_hierarchy(false).flash_power_w(1.0), 0.0);
    }
}
