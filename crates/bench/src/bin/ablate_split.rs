//! Ablation: sweep the write-region fraction around the paper's 10%
//! choice (§3.5) and report read miss rate and disk-flush traffic.

#![forbid(unsafe_code)]

use disk_trace::WorkloadSpec;
use flashcache_bench::{fmt_mb, Exhibit, RunArgs};
use flashcache_core::{FlashCache, FlashCacheConfig, SplitPolicy};
use flashcache_sim::experiments::driver::{cache_config_for_bytes, measure, page_ops};

fn main() {
    let args = RunArgs::parse(16);
    args.announce(
        "Ablation: split ratio",
        "write-region fraction vs read miss rate (dbt2)",
    );
    let workload = WorkloadSpec::dbt2().scaled(args.scale);
    let flash_bytes = (512u64 << 20) / args.scale;
    let accesses = 4_000_000 / args.scale.max(1);
    println!(
        "workload: {} | flash {}\n",
        workload.name,
        fmt_mb(flash_bytes)
    );
    let mut exhibit = Exhibit::new(
        "ablate_split",
        &[
            "write_fraction",
            "read_miss_pct",
            "overall_miss_pct",
            "flushed",
            "gc_runs",
        ],
    );
    let fractions = [0.02, 0.05, 0.10, 0.20, 0.35, 0.50];
    let splits = fractions.map(|write_fraction| SplitPolicy::Split { write_fraction });
    for split in [SplitPolicy::Unified].into_iter().chain(splits) {
        let config = FlashCacheConfig {
            split,
            ..cache_config_for_bytes(flash_bytes)
        };
        let s = measure(
            &mut FlashCache::new(config).expect("valid config"),
            &mut page_ops(&workload, args.seed),
            accesses,
            accesses,
        );
        exhibit.row([
            match split {
                SplitPolicy::Unified => "unified".to_string(),
                SplitPolicy::Split { write_fraction } => format!("{:.0}%", write_fraction * 100.0),
            },
            format!("{:.1}", s.read_miss_rate() * 100.0),
            format!("{:.1}", s.miss_rate() * 100.0),
            s.flushed_dirty_pages.to_string(),
            s.gc_runs.to_string(),
        ]);
    }
    args.emit(&exhibit);
}
