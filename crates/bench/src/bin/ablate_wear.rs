//! Ablation: the wear-levelling threshold of §3.6 — erase-count spread
//! and performance with migration disabled or at various thresholds.

#![forbid(unsafe_code)]

use disk_trace::WorkloadSpec;
use flashcache_bench::{Exhibit, RunArgs};
use flashcache_core::FlashCache;
use flashcache_sim::experiments::driver::{cache_config_for_bytes, drive_cache, page_ops};

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
    let mut exhibit = Exhibit::new(
        "ablate_wear",
        &[
            "threshold",
            "min_erase",
            "max_erase",
            "mean_erase",
            "migrations",
            "read_miss_pct",
        ],
    );
    for threshold in [f64::INFINITY, 256.0, 64.0, 16.0] {
        let mut config = cache_config_for_bytes(flash_bytes);
        config.wear_threshold = threshold;
        let mut cache = FlashCache::new(config).expect("valid config");
        drive_cache(&mut cache, &mut page_ops(&workload, args.seed), accesses);
        let (min, max, mean) = cache.erase_spread();
        exhibit.row([
            if threshold.is_finite() {
                format!("{threshold:.0}")
            } else {
                "off".to_string()
            },
            min.to_string(),
            max.to_string(),
            format!("{mean:.1}"),
            cache.stats().wear_migrations.to_string(),
            format!("{:.1}", cache.stats().read_miss_rate() * 100.0),
        ]);
    }
    args.emit(&exhibit);
}
