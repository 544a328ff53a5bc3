//! Criterion micro-benchmarks of the supporting data structures: the
//! DRAM page cache (hits and evicting inserts), the latency histogram,
//! popularity sampling, trace generation, and full hierarchy submission.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use disk_trace::{DiskRequest, Popularity, PopularitySampler, WorkloadSpec};
use flash_obs::LatencyHistogram;
use flashcache_core::PrimaryDiskCache;
use flashcache_sim::hierarchy::{Hierarchy, HierarchyConfig};

fn bench_pdc_hit(c: &mut Criterion) {
    let mut pdc = PrimaryDiskCache::new(10_000);
    for k in 0..10_000u64 {
        pdc.insert(k, false);
    }
    let mut i = 0u64;
    c.bench_function("pdc_access_10k_resident", |b| {
        b.iter(|| {
            i = (i * 2_654_435_761 + 1) % 10_000;
            std::hint::black_box(pdc.access(i))
        })
    });
}

fn bench_pdc(c: &mut Criterion) {
    let mut pdc = PrimaryDiskCache::new(4_096);
    let mut i = 0u64;
    c.bench_function("pdc_insert_with_eviction", |b| {
        b.iter(|| {
            i += 1;
            std::hint::black_box(pdc.insert(i % 8_192, i.is_multiple_of(3)))
        })
    });
}

/// `Hierarchy`'s recording pattern: long runs of one value (the DRAM
/// hit latency) broken by a fresh one (a flash or disk service time).
fn bench_histogram(c: &mut Criterion) {
    let mut h = LatencyHistogram::new();
    let mut i = 0u64;
    c.bench_function("histogram_record_repeats", |b| {
        b.iter(|| {
            i += 1;
            h.record(if i.is_multiple_of(16) {
                120.0 + (i % 1_024) as f64
            } else {
                0.436
            });
        })
    });
    std::hint::black_box(h.count());
}

fn bench_popularity(c: &mut Criterion) {
    let sampler = PopularitySampler::new(Popularity::Zipf { alpha: 1.2 }, 1 << 20, 1);
    let mut rng = StdRng::seed_from_u64(2);
    c.bench_function("zipf_sample_1m_pages", |b| {
        b.iter(|| std::hint::black_box(sampler.sample(&mut rng)))
    });
}

fn bench_trace_generation(c: &mut Criterion) {
    let mut generator = WorkloadSpec::dbt2().scaled(16).generator(3);
    c.bench_function("dbt2_next_request", |b| {
        b.iter(|| std::hint::black_box(generator.next_request()))
    });
}

fn bench_hierarchy_submit(c: &mut Criterion) {
    let mut h = Hierarchy::new(HierarchyConfig {
        dram_bytes: 4 << 20,
        ..HierarchyConfig::default()
    });
    // Warm a little so all three levels participate.
    for p in 0..20_000u64 {
        h.submit(DiskRequest::read(p % 30_000));
    }
    let mut rng = StdRng::seed_from_u64(4);
    c.bench_function("hierarchy_submit_mixed", |b| {
        b.iter(|| {
            let p = rng.gen_range(0..30_000u64);
            let req = if rng.gen_bool(0.3) {
                DiskRequest::write(p)
            } else {
                DiskRequest::read(p)
            };
            std::hint::black_box(h.submit(req))
        })
    });
}

criterion_group!(
    benches,
    bench_pdc_hit,
    bench_pdc,
    bench_histogram,
    bench_popularity,
    bench_trace_generation,
    bench_hierarchy_submit
);
criterion_main!(benches);
