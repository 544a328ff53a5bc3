//! The simulated storage hierarchy of Figure 2: a DRAM primary disk
//! cache in front of an optional flash secondary disk cache in front of
//! a hard disk drive.
//!
//! This is the paper's "light weight trace based Flash disk cache
//! simulator" (§6.1): it replays a [`disk_trace::DiskRequest`] stream,
//! accounts per-device latency, busy time and traffic, and produces the
//! raw material for the power/throughput analyses of §7.

use disk_trace::{DiskRequest, OpKind, PAGE_BYTES};
use flash_obs::{LatencyHistogram, Registry, ServiceTier, Snapshot};
use flashcache_core::{
    AccessOutcome, CacheOp, CacheOpKind, FlashCache, FlashCacheConfig, PrimaryDiskCache,
};
use flashcache_engine::{EngineConfig, EngineError, ShardedCache};
use nand_flash::{CellMode, FlashPower};
use storage_model::{ActivityTracker, DramModel, DramPowerBreakdown, HddModel};

/// The cost of every PDC probe: one DRAM access of a page.
const DRAM_PAGE_US: f64 = DramModel::access_latency_us(PAGE_BYTES);

/// Configuration of a [`Hierarchy`]. The DRAM is Table 2's DDR2
/// ([`DramModel`]).
#[derive(Debug, Clone)]
pub struct HierarchyConfig {
    /// DRAM capacity holding the primary disk cache, bytes.
    pub dram_bytes: u64,
    /// Flash secondary cache configuration; `None` builds the DRAM-only
    /// baseline of Figure 9's left bars.
    pub flash: Option<FlashCacheConfig>,
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
            hdd: HddModel::travelstar(),
            flush_interval: 1024,
            flash_shards: 1,
            engine: EngineConfig::default(),
        }
    }
}

/// Device activity totals sufficient to evaluate average power over any
/// wall time — used to compare configurations at equal work (Figure 9).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerInputs {
    /// Seconds the disk spent busy.
    pub disk_busy_s: f64,
    /// Flash operation energy, millijoules.
    pub flash_energy_mj: f64,
    /// Flash idle power floor, watts.
    pub flash_idle_w: f64,
    /// Bytes read from DRAM.
    pub dram_read_bytes: u64,
    /// Bytes written to DRAM.
    pub dram_write_bytes: u64,
    /// DRAM capacity, bytes.
    pub dram_capacity_bytes: u64,
    /// Disk model.
    pub hdd: HddModel,
}

impl PowerInputs {
    /// Power breakdown `(dram, disk_w, flash_w)` over `elapsed_s`.
    pub fn power_at(&self, elapsed_s: f64) -> (DramPowerBreakdown, f64, f64) {
        let dram = DramModel::power_breakdown(
            self.dram_capacity_bytes,
            self.dram_read_bytes,
            self.dram_write_bytes,
            elapsed_s,
        );
        let disk = self.hdd.average_power_w(self.disk_busy_s, elapsed_s);
        let flash = self.flash_energy_mj / 1000.0 / elapsed_s + self.flash_idle_w;
        (dram, disk, flash)
    }
}

/// Per-request result: its latency and where its pages were served. The
/// request hit when `disk_pages` is 0.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RequestOutcome {
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
    /// Disk activity.
    pub disk: ActivityTracker,
    /// Per-request latency distribution.
    pub latency: LatencyHistogram,
    /// Latency of page accesses served from flash.
    pub flash_latency: LatencyHistogram,
    /// Device queueing delay of flash-served page accesses — zero under
    /// a serial channel shape, real contention under a parallel one.
    /// Recorded apart from `flash_latency`, which includes it, so the
    /// serial path demonstrably reports wait = 0.
    pub flash_queue_wait: LatencyHistogram,
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
    /// The current batch's flash-bound op stream, reused across batches.
    stream: Stream,
}

/// The flash-bound ops of one batch (read misses, dirty-eviction
/// write-backs, periodic-flush writes) in issue order, their outcomes,
/// and where each request's share of them ends.
#[derive(Debug, Default)]
struct Stream {
    /// Flash-bound ops, in issue order.
    ops: Vec<CacheOp>,
    /// One outcome per op, in the same order.
    outs: Vec<AccessOutcome>,
    /// Staged batches: the PDC-missed reads, which issue after every
    /// probe of the batch.
    missed: Vec<CacheOp>,
    /// In order: per request, the ends of its page ops and of the
    /// periodic flush after it. Staged: per missed read, its request and
    /// the end of its install's write-back.
    marks: Vec<(usize, usize)>,
}

impl Stream {
    fn clear(&mut self) {
        self.ops.clear();
        self.outs.clear();
        self.missed.clear();
        self.marks.clear();
    }

    /// Runs `ops` through the flash into `outs`. Without flash every op
    /// bypasses to disk.
    fn execute(&mut self, flash: Option<&mut ShardedCache>) {
        match flash {
            Some(flash) if !self.ops.is_empty() => flash.submit_ops(&self.ops, &mut self.outs),
            Some(_) => {}
            None => self
                .outs
                .extend(self.ops.iter().map(|op| AccessOutcome::to_disk(op.kind))),
        }
    }
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
        Ok(Hierarchy {
            pdc: PrimaryDiskCache::new(pdc_pages),
            flash,
            report: HierarchyReport::default(),
            since_flush: 0,
            stream: Stream::default(),
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
        reg.histogram_merge("hierarchy.flash_latency", &r.flash_latency);
        // The flash tier's queue wait, exported without the hierarchy
        // prefix as the canonical flash-obs contention metric.
        reg.histogram_merge("flash.queue_wait_us", &r.flash_queue_wait);
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

    /// Replays one request, returning its foreground outcome: the
    /// one-request batch of the in-order body (see
    /// [`Hierarchy::submit_batch`]).
    pub fn submit(&mut self, req: DiskRequest) -> RequestOutcome {
        let mut out = [RequestOutcome::default()];
        self.in_order(std::slice::from_ref(&req), &mut out);
        out[0]
    }

    /// Replays a batch of requests, returning one outcome per request.
    ///
    /// A batch runs in three passes. The PDC pass makes every DRAM
    /// decision and emits the flash-bound ops; PDC decisions never depend
    /// on what the flash answers (a PDC miss always installs the page).
    /// The flash runs them as one pipelined engine batch
    /// ([`ShardedCache::submit_ops`]). The accounting pass replays the
    /// outcomes in issue order, so every `f64` accumulator sees its
    /// additions in the order a per-page loop makes them.
    ///
    /// With one flash shard (or no flash) the batch runs in order: every
    /// outcome, report field and flash state is bit-identical to
    /// [`Hierarchy::submit`] on each request in turn. With
    /// multiple shards the batch is staged: every request probes the
    /// DRAM cache first, then all PDC-missed read pages go to the flash
    /// engine, then disk accesses and PDC installs are accounted per
    /// request in batch order. Within a staged batch, a request
    /// therefore does not observe cache fills caused by later requests
    /// of the same batch — the usual semantics of a queue of independent
    /// concurrent clients — and the periodic PDC flush runs at batch
    /// boundaries once `flush_interval` requests have accumulated.
    pub fn submit_batch(&mut self, reqs: &[DiskRequest]) -> Vec<RequestOutcome> {
        let mut outs = Vec::with_capacity(reqs.len());
        self.submit_batch_into(reqs, &mut outs);
        outs
    }

    /// [`Hierarchy::submit_batch`] into a caller-owned buffer (appended;
    /// not cleared), so replay loops can reuse one allocation.
    pub fn submit_batch_into(&mut self, reqs: &[DiskRequest], outs: &mut Vec<RequestOutcome>) {
        let base = outs.len();
        outs.resize(base + reqs.len(), RequestOutcome::default());
        if self.flash.as_ref().map_or(0, ShardedCache::shard_count) > 1 {
            self.staged(reqs, &mut outs[base..]);
        } else {
            self.in_order(reqs, &mut outs[base..]);
        }
    }

    /// The in-order body: each request's DRAM decisions, flash ops and
    /// periodic flush happen where the per-page loop puts them.
    fn in_order(&mut self, reqs: &[DiskRequest], outs: &mut [RequestOutcome]) {
        let mut stream = std::mem::take(&mut self.stream);
        stream.clear();
        // PDC pass: a missed read issues, then installs at once.
        for (req, out) in reqs.iter().zip(outs.iter_mut()) {
            for page in req.pages() {
                if self.dram_side(req.op, page, out, &mut stream.ops) {
                    stream.ops.push(CacheOp::read(page));
                    self.install_in_pdc(page, false, &mut stream.ops);
                }
            }
            let pages_end = stream.ops.len();
            self.flush_if_due(1, &mut stream.ops);
            if stream.ops.is_empty() {
                // Nothing issued so far waits on the flash: close now.
                self.close_out(req, out);
            } else {
                stream.marks.push((pages_end, stream.ops.len()));
            }
        }
        stream.execute(self.flash.as_mut());
        // Accounting pass over the rest, request by request.
        let closed = reqs.len() - stream.marks.len();
        let rest = reqs[closed..].iter().zip(&mut outs[closed..]);
        let mut at = 0;
        for ((req, out), &(pages_end, flush_end)) in rest.zip(&stream.marks) {
            // A request with a flash read sums its latency again, page by
            // page, as the PDC pass could not; any other request's pages
            // were all DRAM-side and its PDC-pass sum stands.
            let reread = req.op == OpKind::Read && at < pages_end;
            if reread {
                out.latency_us = 0.0;
            }
            let mut next = req.page;
            for (op, fo) in stream.ops[at..pages_end].iter().zip(&stream.outs[at..]) {
                if op.kind == CacheOpKind::Write {
                    self.written_back(std::slice::from_ref(fo));
                    continue;
                }
                for _ in next..op.lba {
                    out.latency_us += DRAM_PAGE_US;
                }
                next = op.lba + 1;
                let lat = DRAM_PAGE_US + fo.latency_us;
                out.latency_us += lat;
                self.read_from_flash(fo, lat, out);
            }
            if reread {
                for _ in next..req.page + u64::from(req.len) {
                    out.latency_us += DRAM_PAGE_US;
                }
            }
            self.close_out(req, out);
            self.written_back(&stream.outs[pages_end..flush_end]);
            at = flush_end;
        }
        self.stream = stream;
    }

    /// The staged body (more than one flash shard).
    fn staged(&mut self, reqs: &[DiskRequest], outs: &mut [RequestOutcome]) {
        let mut stream = std::mem::take(&mut self.stream);
        stream.clear();
        // PDC pass: the missed reads issue after every probe of the batch,
        // then install in batch order.
        for (ri, (req, out)) in reqs.iter().zip(outs.iter_mut()).enumerate() {
            for page in req.pages() {
                if self.dram_side(req.op, page, out, &mut stream.ops) {
                    stream.missed.push(CacheOp::read(page));
                    stream.marks.push((ri, 0));
                }
            }
        }
        let reads = stream.ops.len();
        stream.ops.extend_from_slice(&stream.missed);
        for (read, mark) in stream.missed.iter().zip(&mut stream.marks) {
            self.install_in_pdc(read.lba, false, &mut stream.ops);
            mark.1 = stream.ops.len();
        }
        self.flush_if_due(reqs.len() as u64, &mut stream.ops);
        stream.execute(self.flash.as_mut());
        // Accounting pass: the probes' write-backs, each read with its
        // install's write-back, the close-outs, the flush.
        self.written_back(&stream.outs[..reads]);
        let mut at = reads + stream.missed.len();
        for (fo, &(ri, installed)) in stream.outs[reads..].iter().zip(&stream.marks) {
            let out = &mut outs[ri];
            out.latency_us += fo.latency_us;
            self.read_from_flash(fo, DRAM_PAGE_US + fo.latency_us, out);
            self.written_back(&stream.outs[at..installed]);
            at = installed;
        }
        for (req, out) in reqs.iter().zip(outs) {
            self.close_out(req, out);
        }
        self.written_back(&stream.outs[at..]);
        self.stream = stream;
    }

    /// Accounts a PDC-missed read's flash outcome; `lat` is the page's
    /// whole latency, DRAM probe included.
    fn read_from_flash(&mut self, fo: &AccessOutcome, lat: f64, out: &mut RequestOutcome) {
        self.flush_to_disk(fo.flushed_dirty);
        if fo.tier == ServiceTier::Flash {
            out.flash_hits += 1;
            self.report.flash_latency.record(lat);
            self.report.flash_queue_wait.record(fo.queue_wait_us);
        } else {
            out.disk_pages += 1;
        }
    }

    /// Closes out one request: one disk access covers its `disk_pages`
    /// missed pages, then it is added to the report.
    fn close_out(&mut self, req: &DiskRequest, out: &mut RequestOutcome) {
        if out.disk_pages > 0 {
            let bytes = out.disk_pages as u64 * PAGE_BYTES;
            let t = self.config.hdd.access_latency_us(bytes);
            out.latency_us += t;
            self.report.disk.record(t / 1e6);
            self.report.disk_latency.record(t);
            self.report.disk_read_pages += out.disk_pages as u64;
        }
        self.report.requests += 1;
        self.report.pages += req.len as u64;
        self.report.total_latency_us += out.latency_us;
        self.report.latency.record(out.latency_us);
        self.report.dram_hit_pages += out.dram_hits as u64;
        self.report.flash_hit_pages += out.flash_hits as u64;
    }

    /// A page's DRAM access: a write installs dirty (emitting any
    /// write-back), a read the PDC holds is a DRAM hit. Returns whether
    /// the page is a read the PDC missed.
    fn dram_side(
        &mut self,
        op: OpKind,
        page: u64,
        out: &mut RequestOutcome,
        ops: &mut Vec<CacheOp>,
    ) -> bool {
        let write = op == OpKind::Write;
        out.latency_us += DRAM_PAGE_US;
        if !write && !self.pdc.access(page) {
            return true;
        }
        out.dram_hits += u32::from(!write);
        if write {
            self.install_in_pdc(page, true, ops);
        }
        false
    }

    /// Inserts into the PDC, emitting a write-back of any dirty page it
    /// evicts.
    fn install_in_pdc(&mut self, page: u64, dirty: bool, ops: &mut Vec<CacheOp>) {
        if let Some(ev) = self.pdc.insert(page, dirty) {
            if ev.dirty {
                ops.push(CacheOp::write(ev.page));
            }
        }
    }

    /// Periodic write-back once `flush_interval` requests (`requests`
    /// more now) have accumulated: PDC dirty pages drain to the flash
    /// write cache (or disk), mirroring §5.1's periodic scheduling.
    fn flush_if_due(&mut self, requests: u64, ops: &mut Vec<CacheOp>) {
        self.since_flush += requests;
        if self.since_flush >= self.config.flush_interval {
            self.since_flush = 0;
            ops.extend(self.pdc.flush_dirty().into_iter().map(CacheOp::write));
        }
    }

    /// Accounts the disk writes write-backs leave behind: the dirty
    /// pages each forced out of flash, and the page itself when flash
    /// bypassed it (a worn-out device or no flash at all).
    fn written_back(&mut self, outs: &[AccessOutcome]) {
        for o in outs {
            self.flush_to_disk(o.flushed_dirty + u32::from(o.bypassed));
        }
    }

    /// Accounts `pages` background disk writes (write-back traffic is
    /// scheduled in batches, so seeks amortize across a batch).
    fn flush_to_disk(&mut self, pages: u32) {
        if pages == 0 {
            return;
        }
        const WRITE_BATCH: f64 = 32.0;
        let t = pages as f64
            * (self.config.hdd.avg_access_latency_us / WRITE_BATCH
                + PAGE_BYTES as f64 / self.config.hdd.transfer_bytes_per_s * 1e6);
        self.report.disk.record(t / 1e6);
        self.report.disk_write_pages += pages as u64;
    }

    /// Forces all dirty state (PDC and flash) down to disk.
    pub fn drain(&mut self) {
        let mut stream = std::mem::take(&mut self.stream);
        stream.clear();
        let dirty = self.pdc.flush_dirty();
        stream.ops.extend(dirty.into_iter().map(CacheOp::write));
        stream.execute(self.flash.as_mut());
        self.written_back(&stream.outs);
        self.stream = stream;
        if let Some(flash) = &mut self.flash {
            let flushed = flash.flush_writes();
            let flushed = u32::try_from(flushed).unwrap_or(u32::MAX);
            self.flush_to_disk(flushed);
        }
    }

    /// The device activity so far, from which
    /// [`PowerInputs::power_at`] gives the DRAM, disk and flash power
    /// over any wall time. Every page a request touches is one DRAM
    /// page access: each read page ends as exactly one DRAM, flash or
    /// disk page, and the rest are writes. Flash idles at
    /// [`FlashPower::idle_w`] of each shard's MLC capacity; without
    /// flash both flash terms are 0.
    pub fn power_inputs(&self) -> PowerInputs {
        let r = &self.report;
        let read_pages = r.dram_hit_pages + r.flash_hit_pages + r.disk_read_pages;
        let (flash_energy_mj, flash_idle_w) = self.flash.as_ref().map_or((0.0, 0.0), |f| {
            let devices = || f.shards().iter().map(FlashCache::device);
            (
                devices().map(|d| d.stats().energy_mj).sum(),
                devices()
                    .map(|d| FlashPower::idle_w(d.geometry().capacity_bytes(CellMode::Mlc)))
                    .sum(),
            )
        });
        PowerInputs {
            disk_busy_s: r.disk.busy_s,
            flash_energy_mj,
            flash_idle_w,
            dram_read_bytes: read_pages * PAGE_BYTES,
            dram_write_bytes: (r.pages - read_pages) * PAGE_BYTES,
            dram_capacity_bytes: self.config.dram_bytes,
            hdd: self.config.hdd,
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
        let inputs = h.power_inputs();
        let (dram, disk, flash) = inputs.power_at(1.0);
        assert!(dram.idle_w > 0.0);
        assert!(disk >= h.config().hdd.idle_w);
        assert!(flash > inputs.flash_idle_w && inputs.flash_idle_w > 0.0);
        // DRAM-only hierarchy reports zero flash power.
        let (_, _, flash) = small_hierarchy(false).power_inputs().power_at(1.0);
        assert_eq!(flash.to_bits(), 0.0f64.to_bits());
    }
}
