//! Differential tests pinning the sharded engine to the bare cache.
//!
//! The N=1 contract is the engine's most important invariant: a
//! [`ShardedCache`] with one shard must be *byte-identical* to a bare
//! [`FlashCache`] fed the same trace — same per-request outcomes, same
//! stats, same snapshot, same exported metrics, no
//! `flash.shard.*` metric prefixes. That identity is what lets every
//! existing single-cache experiment adopt the engine without changing
//! its numbers.
//!
//! The execution-invariance test extends that contract across the
//! engine's two executors: for every shard count, submission results
//! must be byte-identical whether the staged groups run in place on the
//! submitter (one worker) or on the persistent shard runtime (any
//! larger worker count).
//!
//! The op entry (`submit_ops`, what `Hierarchy` calls) is pinned to the
//! per-op entry at every shard and worker count.
//!
//! The proptest then pins the N>1 aggregation: merged [`CacheStats`]
//! totals equal the fieldwise sum of the per-shard stats for arbitrary
//! seeds and shard counts.

use disk_trace::{DiskRequest, OpKind, WorkloadSpec};
use flashcache_core::{AccessOutcome, CacheOp, FlashCache, FlashCacheConfig, ServiceTier};
use flashcache_engine::{EngineConfig, ShardedCache};
use nand_flash::{FlashConfig, FlashGeometry};
use proptest::prelude::*;

/// Small geometry (128 blocks × 32 pages) so the trace below overflows
/// the cache and exercises fills, eviction, and GC; 128 is divisible by
/// every shard count the tests use.
fn config() -> FlashCacheConfig {
    FlashCacheConfig::builder()
        .flash(FlashConfig {
            geometry: FlashGeometry {
                blocks: 128,
                pages_per_block: 32,
            },
            ..FlashConfig::default()
        })
        .build()
        .expect("test geometry is valid")
}

/// Drives one request through a bare cache page-by-page, merging the
/// per-page outcomes exactly as `ShardedCache::submit` merges them.
fn drive_bare(cache: &mut FlashCache, req: &DiskRequest) -> AccessOutcome {
    let mut merged = AccessOutcome::default();
    let mut first = true;
    for page in req.pages() {
        let out = match req.op {
            OpKind::Read => cache.op(CacheOp::read(page)).access,
            OpKind::Write => cache.op(CacheOp::write(page)).access,
        };
        if first {
            merged = out;
            first = false;
        } else {
            merged.hit &= out.hit;
            merged.latency_us += out.latency_us;
            merged.background_us += out.background_us;
            merged.needs_disk_read |= out.needs_disk_read;
            merged.flushed_dirty += out.flushed_dirty;
            merged.uncorrectable |= out.uncorrectable;
            merged.bypassed |= out.bypassed;
            if out.tier == ServiceTier::Disk {
                merged.tier = ServiceTier::Disk;
            }
        }
    }
    merged
}

fn trace(seed: u64, n: usize) -> Vec<DiskRequest> {
    // 8MB footprint over a 16MB cache: warm hits plus a miss tail.
    WorkloadSpec::alpha1()
        .scaled(64)
        .generator(seed)
        .take_requests(n)
}

#[test]
fn single_shard_is_byte_identical_to_bare_cache() {
    let reqs = trace(0xD1FF, 6_000);

    let mut engine = ShardedCache::new(config(), 1).expect("1 shard is always valid");
    let mut bare = FlashCache::new(config()).expect("same config as the engine");

    for chunk in reqs.chunks(64) {
        let sharded_outs = engine.submit(chunk);
        for (req, sharded) in chunk.iter().zip(sharded_outs) {
            let bare_out = drive_bare(&mut bare, req);
            assert_eq!(bare_out, sharded, "outcome diverged on {req}");
        }
    }

    assert_eq!(engine.flush_writes(), bare.flush_writes());
    assert_eq!(engine.stats(), bare.stats(), "merged stats must match");
    assert_eq!(engine.fgst(), bare.fgst(), "merged FGST must match");
    assert_eq!(engine.cached_pages(), bare.cached_pages());
    assert_eq!(engine.usable_slots(), bare.usable_slots());
    assert_eq!(
        engine.shards()[0].snapshot(),
        bare.snapshot(),
        "table snapshot must match"
    );

    // Identical metric registries — including the absence of any
    // `flash.shard.*` keys at N=1.
    let engine_reg = engine.export_metrics();
    assert_eq!(engine_reg, bare.export_metrics());
    assert!(engine_reg.iter().all(|(k, _)| !k.contains("shard")));
}

#[test]
fn serial_entry_points_match_bare_cache() {
    let mut engine = ShardedCache::new(config(), 1).expect("1 shard");
    let mut bare = FlashCache::new(config()).expect("same config");
    for page in 0..2_000u64 {
        let p = page * 7 % 4_096;
        let op = if page % 4 == 0 {
            CacheOp::write(p)
        } else {
            CacheOp::read(p)
        };
        assert_eq!(engine.op(op), bare.op(op));
    }
    assert_eq!(engine.stats(), bare.stats());
}

/// The op entry is the per-op entry, batched: at every shard count and
/// worker count, `submit_ops` over a stream of reads and writes yields
/// the outcomes, stats and metrics of `op` on each op in turn.
#[test]
fn op_stream_matches_per_op_calls() {
    let ops: Vec<CacheOp> = trace(0x0B5, 3_000)
        .iter()
        .flat_map(|req| {
            req.pages().map(move |page| match req.op {
                OpKind::Read => CacheOp::read(page),
                OpKind::Write => CacheOp::write(page),
            })
        })
        .collect();
    for shards in [1usize, 2, 4, 8] {
        for workers in [1usize, 2] {
            let engine_cfg = EngineConfig {
                workers: Some(workers),
            };
            let mut batched = ShardedCache::with_engine_config(config(), shards, engine_cfg)
                .expect("128 blocks divide by 1/2/4/8");
            let mut scalar = ShardedCache::new(config(), shards).expect("same config");
            let mut outs = Vec::new();
            // Batches below and above the fork floor, alternately.
            let mut rest = &ops[..];
            for size in [7, 200].into_iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (chunk, tail) = rest.split_at(size.min(rest.len()));
                rest = tail;
                let base = outs.len();
                batched.submit_ops(chunk, &mut outs);
                assert_eq!(outs.len(), base + chunk.len());
                for (op, got) in chunk.iter().zip(&outs[base..]) {
                    assert_eq!(
                        *got,
                        scalar.op(*op).access,
                        "shards={shards} workers={workers}"
                    );
                }
            }
            let label = format!("shards={shards} workers={workers}");
            assert_eq!(batched.stats(), scalar.stats(), "{label}");
            assert_eq!(batched.export_metrics(), scalar.export_metrics(), "{label}");
        }
    }
}

/// Everything observable about one engine run: per-request outcomes,
/// merged stats, per-shard state snapshots, and the exported metrics.
fn run_variant(
    shards: usize,
    workers: usize,
) -> (
    Vec<AccessOutcome>,
    flashcache_core::CacheStats,
    Vec<flashcache_core::snapshot::CacheSnapshot>,
    flash_obs::Registry,
) {
    let engine_cfg = EngineConfig {
        workers: Some(workers),
    };
    let mut engine = ShardedCache::with_engine_config(config(), shards, engine_cfg)
        .expect("128 blocks divide by 1/2/4/8");
    assert_eq!(engine.workers(), workers.min(shards));
    let reqs = trace(0x1AC3, 4_000);
    let mut outs = Vec::with_capacity(reqs.len());
    for chunk in reqs.chunks(64) {
        outs.extend(engine.submit(chunk));
    }
    let stats = engine.stats();
    let snaps = engine.shards().iter().map(|s| s.snapshot()).collect();
    (outs, stats, snaps, engine.export_metrics())
}

/// Invariance contract: identical results for every worker count
/// {1, 2, 8} at every shard count — one worker runs the in-place
/// executor, more run the persistent runtime, and the execution
/// substrate must never leak into the physics.
#[test]
fn results_invariant_across_workers_and_execution_paths() {
    for shards in [1usize, 2, 4, 8] {
        let baseline = run_variant(shards, 1);
        for workers in [1usize, 2, 8] {
            let got = run_variant(shards, workers);
            let label = format!("shards={shards} workers={workers}");
            assert_eq!(baseline.0, got.0, "outcomes diverged: {label}");
            assert_eq!(baseline.1, got.1, "stats diverged: {label}");
            assert_eq!(baseline.2, got.2, "snapshots diverged: {label}");
            assert_eq!(baseline.3, got.3, "exported metrics diverged: {label}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Merged `CacheStats` totals equal the fieldwise sum of the
    /// per-shard stats, for arbitrary seeds and every shard count.
    #[test]
    fn merged_stats_equal_fieldwise_sum_of_shards(
        seed in any::<u64>(),
        shard_pow in 0u32..4,
    ) {
        let shards = 1usize << shard_pow;
        let reqs = trace(seed, 1_500);
        let mut engine = ShardedCache::new(config(), shards)
            .expect("128 blocks divide by 1/2/4/8");
        for chunk in reqs.chunks(128) {
            engine.submit(chunk);
        }
        engine.flush_writes();

        let merged = engine.stats();
        let parts = engine.shard_stats();
        prop_assert_eq!(parts.len(), shards);

        macro_rules! sums {
            ($($field:ident: $ty:ty),* $(,)?) => {$(
                prop_assert_eq!(
                    merged.$field,
                    parts.iter().map(|s| s.$field).sum::<$ty>(),
                    "field {} must be the sum of the shards", stringify!($field)
                );
            )*};
        }
        sums!(
            reads: u64, read_hits: u64, writes: u64, write_hits: u64,
            flash_reads: u64, flash_programs: u64, erases: u64,
            gc_runs: u64, gc_moved_pages: u64, gc_dropped_pages: u64,
            evictions: u64,
            flushed_dirty_pages: u64, wear_migrations: u64,
            reconfig_ecc: u64, reconfig_density: u64, hot_promotions: u64,
            uncorrectable_reads: u64, retired_blocks: u64,
            reclaim_index_queries: u64, reclaim_index_hits: u64,
            internal_errors: u64,
        );
        for (m, sum) in [
            (merged.gc_time_us, parts.iter().map(|s| s.gc_time_us).sum::<f64>()),
            (merged.foreground_us, parts.iter().map(|s| s.foreground_us).sum::<f64>()),
            (merged.background_us, parts.iter().map(|s| s.background_us).sum::<f64>()),
            (merged.ecc_us, parts.iter().map(|s| s.ecc_us).sum::<f64>()),
        ] {
            prop_assert!((m - sum).abs() <= 1e-6 * sum.abs().max(1.0));
        }

        // Conservation against the trace itself: every page of every
        // request is counted by exactly one shard.
        let pages: u64 = reqs.iter().map(|r| u64::from(r.len)).sum();
        prop_assert_eq!(merged.reads + merged.writes, pages);
    }
}
