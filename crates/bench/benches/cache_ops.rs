//! Criterion micro-benchmarks of the cache's hot paths: hits, misses
//! with eviction pressure, write churn with GC, and the sharded
//! engine's batched submit at one and two workers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use disk_trace::WorkloadSpec;
use flashcache_core::{CacheOp, FlashCache, FlashCacheConfig};
use flashcache_engine::{EngineConfig, ShardedCache};
use nand_flash::{FlashConfig, FlashGeometry};

fn cache(blocks: u32) -> FlashCache {
    FlashCache::new(FlashCacheConfig {
        flash: FlashConfig {
            geometry: FlashGeometry {
                blocks,
                pages_per_block: 32,
            },
            ..FlashConfig::default()
        },
        ..FlashCacheConfig::default()
    })
    .expect("valid config")
}

fn bench_read_hit(c: &mut Criterion) {
    let mut cache = cache(64);
    for p in 0..1000u64 {
        cache.op(CacheOp::read(p));
    }
    let mut i = 0u64;
    c.bench_function("flashcache_read_hit", |b| {
        b.iter(|| {
            i = (i + 1) % 1000;
            std::hint::black_box(cache.op(CacheOp::read(i)))
        })
    });
}

fn bench_read_capacity_miss(c: &mut Criterion) {
    let mut cache = cache(32);
    let mut p = 0u64;
    c.bench_function("flashcache_read_capacity_miss", |b| {
        b.iter(|| {
            p += 1; // always-cold stream: every read fills and evicts
            std::hint::black_box(cache.op(CacheOp::read(p)))
        })
    });
}

fn bench_write_churn(c: &mut Criterion) {
    let mut cache = cache(32);
    let mut p = 0u64;
    c.bench_function("flashcache_write_churn_gc", |b| {
        b.iter(|| {
            p = (p + 1) % 300; // hot overwrites: exercises GC
            std::hint::black_box(cache.op(CacheOp::write(p)))
        })
    });
}

/// Steady-state reclaim: the cache is warmed past capacity first, so
/// every benchmarked write pays victim selection (GC compaction or
/// block eviction). This is the path the reclaim index accelerates —
/// the per-op cost of the scan baseline grows with the block count,
/// the indexed cost does not.
fn bench_steady_state_reclaim(c: &mut Criterion) {
    let mut g = c.benchmark_group("flashcache_steady_reclaim");
    for blocks in [256u32, 1024, 4096] {
        let mut cache = cache(blocks);
        let slots = blocks as u64 * 64;
        let span = slots + slots / 2; // churn set 1.5x capacity
        for p in 0..span {
            cache.op(CacheOp::write(p));
        }
        let mut p = span;
        g.bench_function(
            BenchmarkId::from_parameter(format!("{blocks}_blocks")),
            |b| {
                b.iter(|| {
                    p = (p + 1) % span;
                    std::hint::black_box(cache.op(CacheOp::write(p)))
                })
            },
        );
    }
    g.finish();
}

/// Batched lookups through `op_batch_into` versus `ops.map(op)` on the
/// same mixed stream — measures what the prefetch pipeline buys when
/// outcomes are byte-identical by contract.
fn bench_op_batch(c: &mut Criterion) {
    const BATCH: usize = 256;
    let mut g = c.benchmark_group("flashcache_op_batch");
    for (tag, pipelined) in [("pipelined", true), ("map_op", false)] {
        let mut cache = FlashCache::new(FlashCacheConfig {
            flash: FlashConfig {
                geometry: FlashGeometry {
                    blocks: 64,
                    pages_per_block: 32,
                },
                ..FlashConfig::default()
            },
            ..FlashCacheConfig::default()
        })
        .expect("valid config");
        for p in 0..1500u64 {
            cache.op(CacheOp::write(p));
        }
        let mut p = 0u64;
        let mut ops = Vec::with_capacity(BATCH);
        let mut outs = Vec::with_capacity(BATCH);
        g.bench_function(BenchmarkId::from_parameter(tag), |b| {
            b.iter(|| {
                ops.clear();
                outs.clear();
                for _ in 0..BATCH {
                    // Mixed hit/miss stream spread over 2x the resident set.
                    p = p.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    ops.push(CacheOp::read(p % 3000));
                }
                if pipelined {
                    cache.op_batch_into(&ops, &mut outs);
                } else {
                    outs.extend(ops.iter().map(|&op| cache.op(op)));
                }
                std::hint::black_box(outs.len())
            })
        });
    }
    g.finish();
}

/// `ShardedCache::submit` end to end (stage, execute, merge) on the
/// sysbench `shards4` shape: four shards over 512 blocks x 64 pages,
/// the `zipf_read` trace, 512-request batches. One worker is the
/// submitting thread alone; two adds one helper thread, which is the
/// only multi-worker submit a 2-CPU host can exercise.
fn bench_engine_submit(c: &mut Criterion) {
    const BATCH: usize = 512;
    let mut spec = WorkloadSpec::alpha1();
    spec.write_fraction = 0.05;
    let trace: Vec<_> = spec.generator(24301).take(BATCH * 1024).collect();
    let mut g = c.benchmark_group("engine_submit");
    for workers in [1usize, 2] {
        let config = FlashCacheConfig::builder()
            .flash(FlashConfig {
                geometry: FlashGeometry {
                    blocks: 512,
                    pages_per_block: 64,
                },
                ..FlashConfig::default()
            })
            .build()
            .expect("valid config");
        let engine = EngineConfig {
            workers: Some(workers),
        };
        let mut cache = ShardedCache::with_engine_config(config, 4, engine).expect("valid engine");
        let mut batches = trace.chunks_exact(BATCH).cycle();
        g.bench_function(
            BenchmarkId::from_parameter(format!("{workers}_workers")),
            |b| {
                b.iter(|| {
                    let batch = batches.next().expect("a cycled trace never ends");
                    std::hint::black_box(cache.submit(batch).len())
                })
            },
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_read_hit,
    bench_read_capacity_miss,
    bench_write_churn,
    bench_op_batch,
    bench_steady_state_reclaim,
    bench_engine_submit
);
criterion_main!(benches);
