//! The untraced repetition of a trace-replay workload, and the shadow
//! replay that checks it.
//!
//! The timed region is what a replay user runs: `TraceGenerator::fill`
//! and `Hierarchy::submit_batch` in closed-loop batches, then
//! `Hierarchy::drain`. Caches start empty and fill inside the run.
//!
//! The shadow is a bench-owned `PrimaryDiskCache` fed the same pages.
//! PDC decisions never depend on what the flash answers (a PDC miss
//! always installs the page), so the shadow emits the exact stream of
//! flash-bound `CacheOp`s without the hierarchy; a second
//! `ShardedCache` fed that stream must end with the hierarchy's merged
//! `CacheStats`, field for field. That equality is the output check of
//! every run, and the second engine is where the drained device
//! makespan is read (`Hierarchy` hands out only `&ShardedCache`).

use std::hint::black_box;
use std::time::Instant;

use disk_trace::{DiskRequest, OpKind, TraceGenerator, PAGE_BYTES};
use flashcache_core::{CacheOp, CacheStats, PrimaryDiskCache};
use flashcache_engine::ShardedCache;
use flashcache_sim::{Hierarchy, HierarchyConfig};

use crate::metrics::Values;
use crate::workloads::{Replay, BATCH};

/// Batches per timed slice: 32,768 requests, 10 to 20 ms.
const SLICE_BATCHES: u32 = 16;

/// One untraced repetition: a slice is [`SLICE_BATCHES`] batches, the
/// last one also holds the drain.
pub type Rep = crate::metrics::Rep<Facts>;

/// What the hierarchy counted, for the checks against the shadow and
/// against the other repetitions.
#[derive(Debug, Clone, PartialEq)]
pub struct Facts {
    pub requests: u64,
    pub pages: u64,
    pub served_read_pages: u64,
    pub stats: CacheStats,
    pub dead: bool,
}

pub fn build(w: &Replay, seed: u64) -> (Hierarchy, TraceGenerator) {
    let h = Hierarchy::new(w.config.clone());
    (h, w.spec.generator(seed))
}

pub fn facts(h: &Hierarchy) -> Facts {
    let r = h.report();
    let engine = h.flash_engine().expect("every workload has a flash tier");
    Facts {
        requests: r.requests,
        pages: r.pages,
        served_read_pages: r.dram_hit_pages + r.flash_hit_pages + r.disk_read_pages,
        stats: engine.stats(),
        dead: engine.is_dead(),
    }
}

/// Flash operations that failed: every one of them once the device is
/// dead, otherwise those degraded by an internal error or lost to an
/// uncorrectable read.
pub fn failed_ops(f: &Facts) -> u64 {
    if f.dead {
        f.stats.reads + f.stats.writes
    } else {
        f.stats.internal_errors + f.stats.uncorrectable_reads
    }
}

pub fn sim_metrics(h: &Hierarchy, f: &Facts) -> Values {
    let r = h.report();
    vec![
        ("sim_mean_latency_us", r.avg_latency_us()),
        ("sim_p99_latency_us", r.latency.percentile_us(0.99)),
        (
            "sim_programs_per_host_page",
            f.stats.flash_programs as f64 / f.pages as f64,
        ),
    ]
}

pub fn run_rep(w: &Replay, seed: u64) -> Rep {
    let t = Instant::now();
    let (mut h, mut generator) = build(w, seed);
    let setup_s = t.elapsed().as_secs_f64();

    let mut buf: Vec<DiskRequest> = Vec::with_capacity(BATCH);
    let mut slices = Vec::new();
    let mut slice_start = Instant::now();
    let mut batches = 0;
    let mut remaining = w.requests;
    while remaining > 0 {
        let take = remaining.min(BATCH as u64) as usize;
        buf.clear();
        generator.fill(take, &mut buf);
        black_box(h.submit_batch(&buf));
        remaining -= take as u64;
        batches += 1;
        if batches % SLICE_BATCHES == 0 && remaining > 0 {
            let now = Instant::now();
            slices.push((now - slice_start).as_secs_f64());
            slice_start = now;
        }
    }
    h.drain();
    slices.push(slice_start.elapsed().as_secs_f64());

    let facts = facts(&h);
    Rep {
        setup_s,
        slices,
        work: facts.pages,
        failed: failed_ops(&facts),
        sim: sim_metrics(&h, &facts),
        facts,
    }
}

/// Flash-bound operations in the order the hierarchy issues them.
/// `submits` are the index ranges of `ops` that go to the engine as one
/// `ShardedCache::submit` batch (the staged multi-shard path);
/// everything outside them is a single `ShardedCache::op`.
#[derive(Debug, Default)]
pub struct Stream {
    pub ops: Vec<CacheOp>,
    pub submits: Vec<(usize, usize)>,
}

impl Stream {
    pub fn clear(&mut self) {
        self.ops.clear();
        self.submits.clear();
    }
}

/// What the shadow PDC saw.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PdcCounts {
    pub requests: u64,
    pub pages: u64,
    pub read_pages: u64,
    pub read_hits: u64,
    pub dirty_evictions: u64,
}

/// The bench-owned PDC mirroring `Hierarchy::submit_batch`.
#[derive(Debug)]
pub struct Shadow {
    pdc: PrimaryDiskCache,
    /// More than one shard: `submit_batch` stages a batch (all DRAM
    /// probes and write-backs first, then the missed reads as one
    /// `submit`, then the PDC installs in batch order).
    staged: bool,
    flush_interval: u64,
    since_flush: u64,
    missed: Vec<u64>,
    pub counts: PdcCounts,
}

impl Shadow {
    pub fn new(config: &HierarchyConfig) -> Self {
        Shadow {
            pdc: PrimaryDiskCache::new((config.dram_bytes / PAGE_BYTES).max(1) as usize),
            staged: config.flash_shards > 1,
            flush_interval: config.flush_interval,
            since_flush: 0,
            missed: Vec::new(),
            counts: PdcCounts::default(),
        }
    }

    /// Replays one closed-loop batch, appending the flash-bound
    /// operations it causes.
    pub fn feed(&mut self, batch: &[DiskRequest], out: &mut Stream) {
        self.missed.clear();
        for req in batch {
            for page in req.pages() {
                match req.op {
                    OpKind::Read => {
                        self.counts.read_pages += 1;
                        if self.pdc.access(page) {
                            self.counts.read_hits += 1;
                        } else if self.staged {
                            self.missed.push(page);
                        } else {
                            out.ops.push(CacheOp::read(page));
                            self.install(page, false, out);
                        }
                    }
                    OpKind::Write => self.install(page, true, out),
                }
            }
            self.counts.requests += 1;
            self.counts.pages += u64::from(req.len);
            if !self.staged {
                self.since_flush += 1;
                self.flush_if_due(out);
            }
        }
        if self.staged {
            let start = out.ops.len();
            out.ops
                .extend(self.missed.iter().map(|&p| CacheOp::read(p)));
            out.submits.push((start, out.ops.len()));
            for i in 0..self.missed.len() {
                self.install(self.missed[i], false, out);
            }
            self.since_flush += batch.len() as u64;
            self.flush_if_due(out);
        }
    }

    /// The write-backs of `Hierarchy::drain`.
    pub fn finish(&mut self, out: &mut Stream) {
        self.flush(out);
    }

    fn install(&mut self, page: u64, dirty: bool, out: &mut Stream) {
        if let Some(ev) = self.pdc.insert(page, dirty) {
            if ev.dirty {
                self.counts.dirty_evictions += 1;
                out.ops.push(CacheOp::write(ev.page));
            }
        }
    }

    fn flush_if_due(&mut self, out: &mut Stream) {
        if self.since_flush >= self.flush_interval {
            self.since_flush = 0;
            self.flush(out);
        }
    }

    fn flush(&mut self, out: &mut Stream) {
        out.ops
            .extend(self.pdc.flush_dirty().into_iter().map(CacheOp::write));
    }
}

/// Sends a stream through an engine the way the hierarchy calls it.
pub fn run_engine(engine: &mut ShardedCache, stream: &Stream, scratch: &mut Vec<DiskRequest>) {
    let mut next = 0;
    for &(start, end) in &stream.submits {
        for op in &stream.ops[next..start] {
            black_box(engine.op(*op));
        }
        scratch.clear();
        scratch.extend(
            stream.ops[start..end]
                .iter()
                .map(|o| DiskRequest::read(o.lba)),
        );
        black_box(engine.submit(scratch));
        next = end;
    }
    for op in &stream.ops[next..] {
        black_box(engine.op(*op));
    }
}

pub fn new_engine(config: &HierarchyConfig) -> ShardedCache {
    let flash = config
        .flash
        .clone()
        .expect("every workload has a flash tier");
    ShardedCache::with_engine_config(flash, config.flash_shards, config.engine.clone())
        .expect("benchmark engine configuration is valid")
}

/// Result of the shadow replay of one whole run.
#[derive(Debug)]
pub struct ShadowRun {
    pub counts: PdcCounts,
    pub stats: CacheStats,
    pub device_makespan_us: f64,
}

/// Regenerates the trace and replays it through the shadow PDC and a
/// bench-owned engine. Not timed.
pub fn shadow_replay(w: &Replay, seed: u64) -> ShadowRun {
    let mut generator = w.spec.generator(seed);
    let mut shadow = Shadow::new(&w.config);
    let mut engine = new_engine(&w.config);
    let mut stream = Stream::default();
    let mut buf: Vec<DiskRequest> = Vec::with_capacity(BATCH);
    let mut scratch = Vec::new();
    let mut remaining = w.requests;
    while remaining > 0 {
        let take = remaining.min(BATCH as u64) as usize;
        buf.clear();
        generator.fill(take, &mut buf);
        stream.clear();
        shadow.feed(&buf, &mut stream);
        run_engine(&mut engine, &stream, &mut scratch);
        remaining -= take as u64;
    }
    stream.clear();
    shadow.finish(&mut stream);
    run_engine(&mut engine, &stream, &mut scratch);
    engine.flush_writes();
    ShadowRun {
        counts: shadow.counts,
        stats: engine.stats(),
        device_makespan_us: engine.device_makespan_us(),
    }
}

/// The output checks shared by the untraced and the traced run. Returns
/// one message per violated check.
pub fn check(
    w: &Replay,
    facts: &Facts,
    counts: &PdcCounts,
    shadow_stats: &CacheStats,
) -> Vec<String> {
    let mut failures = Vec::new();
    if facts.requests != w.requests || counts.requests != w.requests {
        failures.push(format!(
            "request conservation: asked for {}, hierarchy replayed {}, shadow {}",
            w.requests, facts.requests, counts.requests
        ));
    }
    if facts.pages != counts.pages {
        failures.push(format!(
            "page conservation: hierarchy touched {} pages, the trace holds {}",
            facts.pages, counts.pages
        ));
    }
    if facts.served_read_pages != counts.read_pages {
        failures.push(format!(
            "page conservation: dram + flash + disk served {} read pages, the trace holds {}",
            facts.served_read_pages, counts.read_pages
        ));
    }
    if &facts.stats != shadow_stats {
        failures.push(format!(
            "shadow replay diverged from the hierarchy:\n  hierarchy {:?}\n  shadow    {:?}",
            facts.stats, shadow_stats
        ));
    }
    if facts.dead {
        failures.push("the flash device wore out during the run".to_string());
    }
    failures
}

/// Pages touched per second of drained device makespan.
pub fn device_pages_per_s(pages: u64, makespan_us: f64) -> f64 {
    pages as f64 / (makespan_us / 1e6)
}
