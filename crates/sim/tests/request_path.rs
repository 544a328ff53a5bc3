//! The hierarchy's request path against references written outside it.
//!
//! * The in-order body (one flash shard or none, and `submit` at any
//!   shard count) against [`Scalar`]: the per-page loop over
//!   `ShardedCache::op` that `Hierarchy` ran before a batch's flash ops
//!   became one engine batch, copied here. Every `RequestOutcome`, the
//!   whole `HierarchyReport`, the flash `CacheStats` and the exported
//!   metrics must agree bit for bit at every batch size, and the DRAM
//!   bytes `power_inputs` derives must equal the loop's own per-page
//!   tally. A request's
//!   write-backs and its close-out's disk read feed one `f64` busy-time
//!   sum, so draining the write-backs after the close-out instead of
//!   before fails `in_order_body_is_the_scalar_loop`.
//! * The staged body (more than one shard) against [`Mirror`]: a PDC
//!   that issues the flash ops a staged batch issues, through a second
//!   engine, must end with the hierarchy's `CacheStats`.

use disk_trace::{DiskRequest, OpKind, PAGE_BYTES};
use flash_obs::ServiceTier;
use flashcache_core::{CacheOp, FlashCacheConfig, PrimaryDiskCache};
use flashcache_engine::ShardedCache;
use flashcache_sim::{Hierarchy, HierarchyConfig, HierarchyReport, RequestOutcome};
use nand_flash::{FlashConfig, FlashGeometry};
use proptest::prelude::*;
use storage_model::DramModel;

/// A 16-page PDC that evicts dirty pages, a flush every five requests
/// (so flushes land inside batches), and 16 × 8 flash slots that a
/// 400-page footprint overflows.
fn config(flash: bool, shards: usize) -> HierarchyConfig {
    let cache = FlashCacheConfig {
        flash: FlashConfig {
            geometry: FlashGeometry {
                blocks: 16,
                pages_per_block: 8,
            },
            ..FlashConfig::default()
        },
        ..FlashCacheConfig::default()
    };
    HierarchyConfig {
        dram_bytes: 16 * PAGE_BYTES,
        flash: flash.then_some(cache),
        flush_interval: 5,
        flash_shards: shards,
        ..HierarchyConfig::default()
    }
}

/// Multi-page reads and writes (three in ten) over 400 pages.
fn trace() -> impl Strategy<Value = Vec<DiskRequest>> {
    let req = (0u32..10, 0u64..400, 1u32..5).prop_map(|(w, page, len)| {
        let op = if w < 3 { OpKind::Write } else { OpKind::Read };
        DiskRequest::new(page, len, op)
    });
    prop::collection::vec(req, 1..300)
}

/// The per-page request loop, one `ShardedCache::op` per flash access.
struct Scalar {
    config: HierarchyConfig,
    pdc: PrimaryDiskCache,
    flash: Option<ShardedCache>,
    report: HierarchyReport,
    since_flush: u64,
    dram_page_us: f64,
    /// Bytes read from and written to DRAM, one page per access.
    dram_read_bytes: u64,
    dram_write_bytes: u64,
}

impl Scalar {
    fn new(config: &HierarchyConfig) -> Self {
        let flash = config.flash.clone().map(|c| {
            ShardedCache::with_engine_config(c, config.flash_shards, config.engine.clone())
                .expect("valid engine")
        });
        Scalar {
            pdc: PrimaryDiskCache::new((config.dram_bytes / PAGE_BYTES) as usize),
            flash,
            report: HierarchyReport::default(),
            since_flush: 0,
            dram_page_us: DramModel::access_latency_us(PAGE_BYTES),
            dram_read_bytes: 0,
            dram_write_bytes: 0,
            config: config.clone(),
        }
    }

    fn submit(&mut self, req: DiskRequest) -> RequestOutcome {
        let mut out = RequestOutcome::default();
        let mut disk_read_pages = 0u32;
        for page in req.pages() {
            match req.op {
                OpKind::Read => {
                    let (lat, wait, tier) = self.read_page(page);
                    out.latency_us += lat;
                    match tier {
                        ServiceTier::Dram => out.dram_hits += 1,
                        ServiceTier::Flash => {
                            out.flash_hits += 1;
                            self.report.flash_latency.record(lat);
                            self.report.flash_queue_wait.record(wait);
                        }
                        ServiceTier::Disk => disk_read_pages += 1,
                    }
                }
                OpKind::Write => {
                    let lat = self.dram_access(true);
                    self.install_in_pdc(page, true);
                    out.latency_us += lat;
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

    fn close_out(&mut self, req: &DiskRequest, disk_read_pages: u32, out: &mut RequestOutcome) {
        if disk_read_pages > 0 {
            let bytes = disk_read_pages as u64 * PAGE_BYTES;
            let t = self.config.hdd.access_latency_us(bytes);
            out.latency_us += t;
            out.disk_pages = disk_read_pages;
            self.report.disk.record(t / 1e6);
            self.report.disk_latency.record(t);
            self.report.disk_read_pages += disk_read_pages as u64;
        }
        self.report.requests += 1;
        self.report.pages += req.len as u64;
        self.report.total_latency_us += out.latency_us;
        self.report.latency.record(out.latency_us);
        self.report.dram_hit_pages += out.dram_hits as u64;
        self.report.flash_hit_pages += out.flash_hits as u64;
    }

    fn dram_access(&mut self, write: bool) -> f64 {
        if write {
            self.dram_write_bytes += PAGE_BYTES;
        } else {
            self.dram_read_bytes += PAGE_BYTES;
        }
        self.dram_page_us
    }

    fn read_page(&mut self, page: u64) -> (f64, f64, ServiceTier) {
        let mut latency = self.dram_access(false);
        if self.pdc.access(page) {
            return (latency, 0.0, ServiceTier::Dram);
        }
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

    fn install_in_pdc(&mut self, page: u64, dirty: bool) {
        if let Some(ev) = self.pdc.insert(page, dirty) {
            if ev.dirty {
                self.write_back(ev.page);
            }
        }
    }

    fn write_back(&mut self, page: u64) {
        if let Some(flash) = &mut self.flash {
            let out = flash.op(CacheOp::write(page)).access;
            self.flush_to_disk(out.flushed_dirty + u32::from(out.bypassed));
        } else {
            self.flush_to_disk(1);
        }
    }

    fn flush_to_disk(&mut self, pages: u32) {
        if pages == 0 {
            return;
        }
        let hdd = &self.config.hdd;
        let t = pages as f64
            * (hdd.avg_access_latency_us / 32.0
                + PAGE_BYTES as f64 / hdd.transfer_bytes_per_s * 1e6);
        self.report.disk.record(t / 1e6);
        self.report.disk_write_pages += pages as u64;
    }

    fn periodic_flush(&mut self) {
        for page in self.pdc.flush_dirty() {
            self.write_back(page);
        }
    }

    fn drain(&mut self) {
        self.periodic_flush();
        if let Some(flash) = &mut self.flash {
            let flushed = flash.flush_writes() as u32;
            self.flush_to_disk(flushed);
        }
    }
}

/// Everything the two sides report, compared bit for bit.
fn same_state(h: &Hierarchy, s: &Scalar) -> Result<(), TestCaseError> {
    let (a, b) = (h.report(), &s.report);
    prop_assert_eq!(
        (a.requests, a.pages, a.dram_hit_pages, a.flash_hit_pages),
        (b.requests, b.pages, b.dram_hit_pages, b.flash_hit_pages)
    );
    prop_assert_eq!(
        (a.disk_read_pages, a.disk_write_pages),
        (b.disk_read_pages, b.disk_write_pages)
    );
    prop_assert_eq!(a.total_latency_us.to_bits(), b.total_latency_us.to_bits());
    prop_assert_eq!(&a.disk, &b.disk);
    prop_assert_eq!(a.disk.busy_s.to_bits(), b.disk.busy_s.to_bits());
    let power = h.power_inputs();
    prop_assert_eq!(
        (power.dram_read_bytes, power.dram_write_bytes),
        (s.dram_read_bytes, s.dram_write_bytes)
    );
    let histograms = |r: &HierarchyReport| {
        [
            r.latency.clone(),
            r.flash_latency.clone(),
            r.flash_queue_wait.clone(),
            r.disk_latency.clone(),
        ]
    };
    prop_assert_eq!(histograms(a), histograms(b));
    if let (Some(x), Some(y)) = (h.flash_engine(), &s.flash) {
        prop_assert_eq!(x.stats(), y.stats());
        prop_assert_eq!(x.export_metrics(), y.export_metrics());
    }
    Ok(())
}

/// Replays `reqs` through both sides, in batches of `batch` (`None`:
/// one `Hierarchy::submit` per request), then drains both.
fn replay(
    config: &HierarchyConfig,
    reqs: &[DiskRequest],
    batch: Option<usize>,
) -> Result<(), TestCaseError> {
    let mut h = Hierarchy::new(config.clone());
    let mut s = Scalar::new(config);
    for chunk in reqs.chunks(batch.unwrap_or(1)) {
        let got = match batch {
            Some(_) => h.submit_batch(chunk),
            None => vec![h.submit(chunk[0])],
        };
        for (req, got) in chunk.iter().zip(got) {
            let want = s.submit(*req);
            prop_assert_eq!(got, want, "{:?} at batch {:?}", req, batch);
            prop_assert_eq!(got.latency_us.to_bits(), want.latency_us.to_bits());
        }
        same_state(&h, &s)?;
    }
    h.drain();
    s.drain();
    same_state(&h, &s)
}

/// A PDC mirroring the staged `submit_batch`: writes install (and their
/// dirty evictions write back) during the probes, the batch's missed
/// reads then go to the engine as one `submit`, then they install in
/// batch order, then the periodic flush runs if it is due.
struct Mirror {
    pdc: PrimaryDiskCache,
    flush_interval: u64,
    since_flush: u64,
    engine: ShardedCache,
}

impl Mirror {
    fn new(config: &HierarchyConfig) -> Self {
        let flash = config.flash.clone().expect("flash tier");
        Mirror {
            pdc: PrimaryDiskCache::new((config.dram_bytes / PAGE_BYTES) as usize),
            flush_interval: config.flush_interval,
            since_flush: 0,
            engine: ShardedCache::new(flash, config.flash_shards).expect("valid engine"),
        }
    }

    fn feed(&mut self, batch: &[DiskRequest]) {
        let mut missed = Vec::new();
        for req in batch {
            for page in req.pages() {
                match req.op {
                    OpKind::Read if self.pdc.access(page) => {}
                    OpKind::Read => missed.push(DiskRequest::read(page)),
                    OpKind::Write => self.install(page, true),
                }
            }
        }
        self.engine.submit(&missed);
        for read in &missed {
            self.install(read.page, false);
        }
        self.since_flush += batch.len() as u64;
        if self.since_flush >= self.flush_interval {
            self.since_flush = 0;
            self.flush();
        }
    }

    fn install(&mut self, page: u64, dirty: bool) {
        if let Some(ev) = self.pdc.insert(page, dirty) {
            if ev.dirty {
                self.engine.op(CacheOp::write(ev.page));
            }
        }
    }

    fn flush(&mut self) {
        for page in self.pdc.flush_dirty() {
            self.engine.op(CacheOp::write(page));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One shard and no flash at batch sizes {1, 2, 7, 64, whole}, and
    /// `submit` at one and two shards, are the scalar loop bit for bit.
    #[test]
    fn in_order_body_is_the_scalar_loop(reqs in trace()) {
        for flash in [true, false] {
            for batch in [1, 2, 7, 64, reqs.len()] {
                replay(&config(flash, 1), &reqs, Some(batch))?;
            }
        }
        for shards in [1, 2] {
            replay(&config(true, shards), &reqs, None)?;
        }
    }

    /// A staged batch issues the flash ops the mirror issues, in the
    /// same order per shard, at two and four shards.
    #[test]
    fn staged_body_matches_its_pdc_mirror(reqs in trace()) {
        for shards in [2, 4] {
            for batch in [1, 7, 64, reqs.len()] {
                let config = config(true, shards);
                let mut h = Hierarchy::new(config.clone());
                let mut mirror = Mirror::new(&config);
                for chunk in reqs.chunks(batch) {
                    h.submit_batch(chunk);
                    mirror.feed(chunk);
                }
                h.drain();
                mirror.flush();
                mirror.engine.flush_writes();
                let engine = h.flash_engine().expect("flash tier");
                prop_assert_eq!(engine.stats(), mirror.engine.stats());
                let r = h.report();
                let read_pages: u64 = reqs
                    .iter()
                    .filter(|r| r.op == OpKind::Read)
                    .map(|r| u64::from(r.len))
                    .sum();
                prop_assert_eq!(r.dram_hit_pages + r.flash_hit_pages + r.disk_read_pages, read_pages);
            }
        }
    }
}
