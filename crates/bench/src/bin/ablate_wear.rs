//! Ablation: the wear-levelling threshold of §3.6 — erase-count spread
//! and performance with migration disabled or at various thresholds.

use disk_trace::WorkloadSpec;
use flashcache_bench::RunArgs;
use flashcache_core::FlashCache;
use flashcache_sim::experiments::driver::{cache_config_for_bytes, drive_cache};

fn main() {
    let args = RunArgs::parse(32);
    args.announce(
        "Ablation: wear-level threshold",
        "erase-count spread vs migration threshold (alpha2, write-heavy)",
    );
    let mut workload = WorkloadSpec::alpha2().scaled(args.scale);
    workload.write_fraction = 0.6;
    let flash_bytes = workload.footprint_pages * 2048 / 2;
    let accesses = 16_000_000 / args.scale.max(1);
    println!(
        "{:>12}{:>12}{:>12}{:>12}{:>14}{:>12}",
        "threshold", "min erase", "max erase", "mean", "migrations", "read miss"
    );
    for threshold in [f64::INFINITY, 256.0, 64.0, 16.0] {
        let mut config = cache_config_for_bytes(flash_bytes);
        config.wear_threshold = threshold;
        let mut cache = FlashCache::new(config).expect("valid config");
        let mut generator = workload.generator(args.seed);
        drive_cache(&mut cache, &mut generator, accesses, false);
        let (min, max, mean) = cache.erase_spread();
        let s = cache.stats();
        println!(
            "{:>12}{:>12}{:>12}{:>12.1}{:>14}{:>11.1}%",
            if threshold.is_finite() {
                format!("{threshold:.0}")
            } else {
                "off".to_string()
            },
            min,
            max,
            mean,
            s.wear_migrations,
            s.read_miss_rate() * 100.0
        );
    }
}
