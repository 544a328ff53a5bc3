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

/// A hierarchy warmed a little so all three levels participate.
fn warm_hierarchy() -> Hierarchy {
    let mut h = Hierarchy::new(HierarchyConfig {
        dram_bytes: 4 << 20,
        ..HierarchyConfig::default()
    });
    for p in 0..20_000u64 {
        h.submit(DiskRequest::read(p % 30_000));
    }
    h
}

/// One request of the mixed stream: 30% writes over 30 000 pages.
fn mixed_request(rng: &mut StdRng) -> DiskRequest {
    let p = rng.gen_range(0..30_000u64);
    if rng.gen_bool(0.3) {
        DiskRequest::write(p)
    } else {
        DiskRequest::read(p)
    }
}

fn bench_hierarchy_submit(c: &mut Criterion) {
    let mut h = warm_hierarchy();
    let mut rng = StdRng::seed_from_u64(4);
    c.bench_function("hierarchy_submit_mixed", |b| {
        b.iter(|| std::hint::black_box(h.submit(mixed_request(&mut rng))))
    });
}

/// The same stream 512 requests per call: one flash batch per call.
fn bench_hierarchy_submit_batch(c: &mut Criterion) {
    let mut h = warm_hierarchy();
    let mut rng = StdRng::seed_from_u64(4);
    let mut batch = Vec::with_capacity(512);
    let mut outs = Vec::with_capacity(512);
    c.bench_function("hierarchy_submit_batch_512", |b| {
        b.iter(|| {
            batch.clear();
            batch.extend((0..512).map(|_| mixed_request(&mut rng)));
            outs.clear();
            h.submit_batch_into(&batch, &mut outs);
            std::hint::black_box(outs.len())
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
    bench_hierarchy_submit,
    bench_hierarchy_submit_batch
);
criterion_main!(benches);
