//! The traced run of a trace-replay workload: the per-layer numbers.
//!
//! Layers are measured from outside, by timing calls into their public
//! functions. The stream is processed in chunks of 65,536 requests and
//! every layer advances over the same chunk before the next one starts,
//! so a noisy phase of the host hits all layers alike:
//!
//! `bench.chunk` contains `trace.fill` (the generator), `sim.submit_batch`
//! (the integrated hierarchy, inclusive), `pdc.replay` (the shadow PDC
//! alone), `engine.replay` (the flash-bound stream through a second
//! `ShardedCache`, inclusive of the caches under it), `core.replay`
//! (the same stream through bare `FlashCache`s, one op in 16 timed on
//! its own and classed by outcome) and `core.replay_batch` (again,
//! through `op_batch_into`). A layer's self time is its inclusive time
//! minus the layers measured under it.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use disk_trace::DiskRequest;
use flashcache_core::{CacheOp, CacheOpKind, CacheOutcome, CacheStats, FlashCache};
use flashcache_engine::ShardedCache;

use crate::calib;
use crate::metrics::{percentile, Values};
use crate::replay::{self, Shadow, Stream};
use crate::spans::Spans;
use crate::workloads::{Replay, BATCH};

const CHUNK: u64 = 65_536;
/// One flash operation in this many is timed individually.
const SAMPLE_EVERY: u64 = 16;

/// Outcome classes of a sampled operation, as (count, mean, p99)
/// metric names. `maint` is an operation during which a GC run or a
/// block eviction happened, whatever it was asked to do.
const CLASSES: [[&str; 3]; 4] = [
    [
        "core.read_hit.count",
        "core.read_hit.ns_mean",
        "core.read_hit.ns_p99",
    ],
    [
        "core.read_fill.count",
        "core.read_fill.ns_mean",
        "core.read_fill.ns_p99",
    ],
    [
        "core.write.count",
        "core.write.ns_mean",
        "core.write.ns_p99",
    ],
    [
        "core.maint.count",
        "core.maint.ns_mean",
        "core.maint.ns_p99",
    ],
];
const READ_HIT: usize = 0;
const READ_FILL: usize = 1;
const WRITE: usize = 2;
const MAINT: usize = 3;

pub struct Traced {
    pub values: Values,
    pub failures: Vec<String>,
}

/// The layers under the PDC, each fed the same flash-bound stream.
struct Downstream {
    engine: ShardedCache,
    cores: Vec<FlashCache>,
    batch_cores: Vec<FlashCache>,
    scratch: Vec<DiskRequest>,
    per_shard: Vec<Vec<CacheOp>>,
    outcomes: Vec<CacheOutcome>,
    ops_seen: u64,
    /// Nanoseconds of the sampled ops, by class.
    samples: [Vec<f64>; 4],
    engine_s: f64,
    engine_cpu_s: f64,
    core_s: f64,
    core_batch_s: f64,
    ops: u64,
}

impl Downstream {
    fn new(w: &Replay) -> Self {
        let engine = replay::new_engine(&w.config);
        // Bare caches configured exactly as the engine configured its
        // shards (block split and per-shard seed included).
        let bare = || -> Vec<FlashCache> {
            engine
                .shards()
                .iter()
                .map(|s| FlashCache::new(s.config().clone()).expect("shard configuration is valid"))
                .collect()
        };
        Downstream {
            cores: bare(),
            batch_cores: bare(),
            per_shard: vec![Vec::new(); engine.shard_count()],
            engine,
            scratch: Vec::new(),
            outcomes: Vec::new(),
            ops_seen: 0,
            samples: Default::default(),
            engine_s: 0.0,
            engine_cpu_s: 0.0,
            core_s: 0.0,
            core_batch_s: 0.0,
            ops: 0,
        }
    }

    fn replay(&mut self, spans: &mut Spans, chunk: usize, stream: &Stream) {
        self.ops += stream.ops.len() as u64;

        let cpu = process_cpu_s();
        let (_, s) = spans.time("engine.replay", chunk, || {
            replay::run_engine(&mut self.engine, stream, &mut self.scratch)
        });
        self.engine_s += s;
        self.engine_cpu_s += process_cpu_s() - cpu;

        let (_, s) = spans.time("core.replay", chunk, || self.replay_sampled(stream));
        self.core_s += s;

        let (_, s) = spans.time("core.replay_batch", chunk, || self.replay_batched(stream));
        self.core_batch_s += s;
    }

    fn replay_sampled(&mut self, stream: &Stream) {
        for op in &stream.ops {
            let cache = &mut self.cores[self.engine.shard_of(op.lba)];
            self.ops_seen += 1;
            if !self.ops_seen.is_multiple_of(SAMPLE_EVERY) {
                black_box(cache.op(*op));
                continue;
            }
            let before = cache.stats();
            let t = Instant::now();
            let out = black_box(cache.op(*op));
            let ns = t.elapsed().as_nanos() as f64;
            let after = cache.stats();
            let class = if after.gc_runs != before.gc_runs || after.evictions != before.evictions {
                MAINT
            } else if op.kind == CacheOpKind::Write {
                WRITE
            } else if out.access.hit {
                READ_HIT
            } else {
                READ_FILL
            };
            self.samples[class].push(ns);
        }
    }

    /// The pipeline the one-shard hierarchy does not reach:
    /// `op_batch_into`, 512 operations per call.
    fn replay_batched(&mut self, stream: &Stream) {
        for window in stream.ops.chunks(BATCH) {
            self.outcomes.clear();
            if self.batch_cores.len() == 1 {
                self.batch_cores[0].op_batch_into(window, &mut self.outcomes);
                continue;
            }
            for group in &mut self.per_shard {
                group.clear();
            }
            for op in window {
                self.per_shard[self.engine.shard_of(op.lba)].push(*op);
            }
            for (cache, group) in self.batch_cores.iter_mut().zip(&self.per_shard) {
                cache.op_batch_into(group, &mut self.outcomes);
            }
        }
        black_box(&self.outcomes);
    }

    fn flush_writes(&mut self) {
        self.engine.flush_writes();
        for cache in self.cores.iter_mut().chain(&mut self.batch_cores) {
            cache.flush_writes();
        }
    }
}

fn merged(caches: &[FlashCache]) -> CacheStats {
    let mut total = CacheStats::default();
    for c in caches {
        total.merge(&c.stats());
    }
    total
}

/// CPU seconds the process has used, all threads, from the scheduler's
/// nanosecond accounting (`/proc/self/stat` only counts clock ticks).
fn process_cpu_s() -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    let ns: u64 = tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum();
    ns as f64 / 1e9
}

/// `baseline_wall_s` is the untraced timed region on the nominal host
/// (see `calib`); the traced one is normalised the same way before the
/// two are compared.
pub fn run(w: &Replay, seed: u64, baseline_wall_s: f64, spans_path: &Path) -> Traced {
    let (mut h, mut generator) = replay::build(w, seed);
    let mut shadow = Shadow::new(&w.config);
    let mut down = Downstream::new(w);
    let mut spans = Spans::new();
    let mut reqs: Vec<DiskRequest> = Vec::with_capacity(CHUNK as usize);
    let mut stream = Stream::default();
    let mut batch_us: Vec<f64> = Vec::new();
    let (mut fill_s, mut submit_s, mut pdc_s) = (0.0, 0.0, 0.0);

    let speed_before = calib::host_speed();
    let mut remaining = w.requests;
    let mut chunk_id = 0;
    while remaining > 0 {
        let take = remaining.min(CHUNK);
        let chunk = spans.open("bench.chunk", None, chunk_id);
        reqs.clear();
        fill_s += spans
            .time("trace.fill", chunk, || {
                generator.fill(take as usize, &mut reqs)
            })
            .1;
        submit_s += spans
            .time("sim.submit_batch", chunk, || {
                for batch in reqs.chunks(BATCH) {
                    let t = Instant::now();
                    black_box(h.submit_batch(batch));
                    batch_us.push(t.elapsed().as_secs_f64() * 1e6);
                }
            })
            .1;
        stream.clear();
        pdc_s += spans
            .time("pdc.replay", chunk, || {
                for batch in reqs.chunks(BATCH) {
                    shadow.feed(batch, &mut stream);
                }
            })
            .1;
        down.replay(&mut spans, chunk, &stream);
        spans.close(chunk);
        remaining -= take;
        chunk_id += 1;
    }
    // The drain is one more chunk: the hierarchy's, then the shadow's.
    let chunk = spans.open("bench.chunk", None, chunk_id);
    let (_, drain_s) = spans.time("sim.drain", chunk, || h.drain());
    stream.clear();
    pdc_s += spans
        .time("pdc.replay", chunk, || shadow.finish(&mut stream))
        .1;
    down.replay(&mut spans, chunk, &stream);
    down.flush_writes();
    spans.close(chunk);
    let speed = (speed_before + calib::host_speed()) / 2.0;

    let facts = replay::facts(&h);
    let engine_stats = down.engine.stats();
    let mut failures = replay::check(w, &facts, &shadow.counts, &engine_stats);
    let cores_agree =
        merged(&down.cores) == facts.stats && merged(&down.batch_cores) == facts.stats;
    if !cores_agree {
        failures.push("bare FlashCache replay diverged from the hierarchy".to_string());
    }
    let reconciled = failures.is_empty();
    if let Err(e) = spans.write(spans_path) {
        failures.push(format!("cannot write {}: {e}", spans_path.display()));
    }

    let t = Instant::now();
    let snapshot = h.obs_snapshot().to_json();
    let export_s = t.elapsed().as_secs_f64();

    let report = h.report();
    let hierarchy_engine = h.flash_engine().expect("every workload has a flash tier");
    let stats = &facts.stats;
    let flash_ops = (stats.reads + stats.writes) as f64;
    let (mut probe_groups, mut max_probe_len) = (0u64, 0.0f64);
    let (mut nand_reads, mut nand_programs, mut nand_erases) = (0, 0, 0);
    for shard in hierarchy_engine.shards() {
        let reg = shard.export_metrics();
        probe_groups += reg.counter("flash.fcht.probe_groups");
        let longest = reg
            .get("flash.fcht.max_probe_len")
            .and_then(|m| m.as_gauge());
        max_probe_len = max_probe_len.max(longest.unwrap_or(0.0));
        let device = shard.device().stats();
        nand_reads += device.reads;
        nand_programs += device.programs;
        nand_erases += device.erases;
    }
    let shard_ops: Vec<f64> = hierarchy_engine
        .shard_stats()
        .iter()
        .map(|s| (s.reads + s.writes) as f64)
        .collect();
    let mean_shard_ops = shard_ops.iter().sum::<f64>() / shard_ops.len() as f64;
    let max_shard_ops = shard_ops.iter().copied().fold(0.0, f64::max);
    let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };

    let mut values: Values = vec![
        ("trace.fill_s", fill_s),
        ("trace.ns_per_request", fill_s * 1e9 / w.requests as f64),
        ("trace.requests", w.requests as f64),
        ("sim.submit_batch_s", submit_s),
        ("sim.self_s", submit_s - pdc_s - down.engine_s),
        ("sim.submit_batch_us_p50", percentile(&mut batch_us, 0.50)),
        ("sim.submit_batch_us_p99", percentile(&mut batch_us, 0.99)),
        ("sim.drain_s", drain_s),
        ("sim.disk_read_frac", report.disk_read_fraction()),
        ("pdc.busy_s", pdc_s),
        (
            "pdc.ns_per_access",
            pdc_s * 1e9 / shadow.counts.pages as f64,
        ),
        ("pdc.accesses", shadow.counts.pages as f64),
        (
            "pdc.hit_rate",
            ratio(
                shadow.counts.read_hits as f64,
                shadow.counts.read_pages as f64,
            ),
        ),
        ("pdc.dirty_evictions", shadow.counts.dirty_evictions as f64),
        ("engine.submit_s", down.engine_s),
        ("engine.self_s", down.engine_s - down.core_s),
        ("engine.ops", down.ops as f64),
        ("engine.batches", down.engine.batches() as f64),
        ("engine.workers", down.engine.workers() as f64),
        (
            "engine.shard_imbalance",
            ratio(max_shard_ops, mean_shard_ops),
        ),
        (
            "engine.cpu_s_per_wall_s",
            ratio(down.engine_cpu_s, down.engine_s),
        ),
        ("core.op_s", down.core_s),
        ("core.op_batch_s", down.core_batch_s),
        (
            "core.fcht.probe_groups_per_op",
            ratio(probe_groups as f64, flash_ops),
        ),
        ("core.fcht.max_probe_len", max_probe_len),
        ("core.gc_runs", stats.gc_runs as f64),
        ("core.gc_moved_pages", stats.gc_moved_pages as f64),
        ("core.evictions", stats.evictions as f64),
        ("core.wear_migrations", stats.wear_migrations as f64),
        ("core.flushed_dirty_pages", stats.flushed_dirty_pages as f64),
        (
            "core.admission_rejected",
            (stats.admission_rejected_fills + stats.admission_rejected_writes) as f64,
        ),
        ("core.read_miss_rate", stats.read_miss_rate()),
        (
            "core.erases_per_mpage",
            stats.erases as f64 * 1e6 / facts.pages as f64,
        ),
        ("core.gc_overhead_frac", stats.gc_overhead()),
        ("core.failed_ops", replay::failed_ops(&facts) as f64),
        ("nand.reads", nand_reads as f64),
        ("nand.programs", nand_programs as f64),
        ("nand.erases", nand_erases as f64),
        (
            "sched.queue_wait_us_mean",
            report.flash_queue_wait.mean_us(),
        ),
        (
            "sched.queue_wait_us_p99",
            report.flash_queue_wait.percentile_us(0.99),
        ),
        ("sched.device_makespan_us", down.engine.device_makespan_us()),
        ("hdd.read_pages", report.disk_read_pages as f64),
        ("hdd.write_pages", report.disk_write_pages as f64),
        ("hdd.busy_s_sim", report.disk.busy_s),
        ("obs.export_s", export_s),
        ("obs.snapshot_bytes", snapshot.len() as f64),
        (
            "attr.unattributed_frac",
            (submit_s - pdc_s - down.engine_s) / submit_s,
        ),
        (
            "attr.trace_overhead_frac",
            (fill_s + submit_s + drain_s) * speed / baseline_wall_s - 1.0,
        ),
        ("attr.stats_reconciled", f64::from(u8::from(reconciled))),
    ];
    for ([count, mean, p99], samples) in CLASSES.iter().zip(&mut down.samples) {
        values.push((count, samples.len() as f64));
        values.push((mean, ratio(samples.iter().sum(), samples.len() as f64)));
        values.push((p99, percentile(samples, 0.99)));
    }
    Traced { values, failures }
}
