//! Ablation: sweep the write-region fraction around the paper's 10%
//! choice (§3.5) and report read miss rate and disk-flush traffic.

use disk_trace::WorkloadSpec;
use flashcache_bench::{fmt_mb, RunArgs};
use flashcache_core::{FlashCache, SplitPolicy};
use flashcache_sim::experiments::driver::{cache_config_for_bytes, drive_cache};

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
        "workload: {} | flash {}",
        workload.name,
        fmt_mb(flash_bytes)
    );
    println!(
        "{:>16}{:>16}{:>14}{:>12}{:>12}",
        "write fraction", "read miss", "overall miss", "flushed", "gc runs"
    );
    let mut fractions = vec![
        None,
        Some(0.02),
        Some(0.05),
        Some(0.10),
        Some(0.20),
        Some(0.35),
        Some(0.50),
    ];
    for f in fractions.drain(..) {
        let mut config = cache_config_for_bytes(flash_bytes);
        config.split = match f {
            None => SplitPolicy::Unified,
            Some(wf) => SplitPolicy::Split { write_fraction: wf },
        };
        let mut cache = FlashCache::new(config).expect("valid config");
        let mut generator = workload.generator(args.seed);
        drive_cache(&mut cache, &mut generator, accesses, false);
        cache.reset_stats();
        drive_cache(&mut cache, &mut generator, accesses, false);
        let s = cache.stats();
        println!(
            "{:>16}{:>15.1}%{:>13.1}%{:>12}{:>12}",
            match f {
                None => "unified".to_string(),
                Some(wf) => format!("{:.0}%", wf * 100.0),
            },
            s.read_miss_rate() * 100.0,
            s.miss_rate() * 100.0,
            s.flushed_dirty_pages,
            s.gc_runs
        );
    }
}
