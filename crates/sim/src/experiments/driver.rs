//! Shared helpers for the experiment drivers: sizing flash caches and
//! replaying a workload's page stream straight into a [`FlashCache`].

use disk_trace::{WorkloadSpec, PAGE_BYTES};
use flashcache_core::{AdmissionPolicyConfig, CacheOp, CacheStats, FlashCache, FlashCacheConfig};
use nand_flash::FlashGeometry;

/// Builds a cache configuration whose MLC capacity is `bytes`, running
/// the paper's §5.1 admission rule (every miss fills): the experiments
/// reproduce the paper's cache, not the library default.
pub fn cache_config_for_bytes(bytes: u64) -> FlashCacheConfig {
    FlashCacheConfig::builder()
        .flash(nand_flash::FlashConfig {
            geometry: FlashGeometry::for_mlc_capacity(bytes),
            ..nand_flash::FlashConfig::default()
        })
        .admission(AdmissionPolicyConfig::AdmitAll)
        .build()
        .expect("experiment capacities sit inside the validated ranges")
}

/// Flash capacity equal to half a workload's working set (the Figure 11
/// setup: "the size of Flash was set to half the working set size").
pub fn half_working_set_bytes(workload: &WorkloadSpec) -> u64 {
    // Floor of 8 blocks (2MB MLC): the cache needs enough blocks for
    // both regions plus spares.
    (workload.footprint_pages * PAGE_BYTES / 2).max(8 * 256 * 1024)
}

/// Whether `FLASHCACHE_CHECK_INVARIANTS` is set (to anything but `0` or
/// the empty string). When on, [`drive_cache`] periodically asserts
/// [`FlashCache::check_invariants`], which cross-checks the incremental
/// reclaim index against the O(blocks) scan oracles mid-replay. Off by
/// default: the check is O(blocks × slots) and meant for CI smoke runs,
/// not production sweeps.
pub fn invariant_checks_enabled() -> bool {
    static ENABLED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ENABLED.get_or_init(|| {
        std::env::var("FLASHCACHE_CHECK_INVARIANTS")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false)
    })
}

/// Access interval between mid-replay invariant checks.
pub const INVARIANT_CHECK_INTERVAL: u64 = 8192;

/// The workload's requests from `seed`, flattened page by page into
/// cache ops. The stream is resumable: a [`drive_cache`] that stops
/// inside a request leaves the request's next page as the stream's next
/// op, so consecutive calls replay the trace exactly as one call would.
pub fn page_ops(workload: &WorkloadSpec, seed: u64) -> impl Iterator<Item = CacheOp> {
    workload.generator(seed).flat_map(|req| {
        req.pages().map(move |page| {
            if req.is_write() {
                CacheOp::write(page)
            } else {
                CacheOp::read(page)
            }
        })
    })
}

/// Replays up to `accesses` ops of `ops` into `cache`, stopping early
/// once the cache dies. Returns the number of page accesses performed.
pub fn drive_cache(
    cache: &mut FlashCache,
    ops: &mut impl Iterator<Item = CacheOp>,
    accesses: u64,
) -> u64 {
    let checked = invariant_checks_enabled();
    let mut done = 0u64;
    while done < accesses && !cache.is_dead() {
        let Some(op) = ops.next() else { break };
        cache.op(op);
        done += 1;
        if checked && done.is_multiple_of(INVARIANT_CHECK_INTERVAL) {
            cache
                .check_invariants()
                .expect("cache invariants hold mid-replay");
        }
    }
    if checked {
        cache
            .check_invariants()
            .expect("cache invariants hold after replay");
    }
    done
}

/// Warms `cache` with `warmup` ops of `ops`, clears its statistics, and
/// returns the statistics of the next `measured` ops.
pub fn measure(
    cache: &mut FlashCache,
    ops: &mut impl Iterator<Item = CacheOp>,
    warmup: u64,
    measured: u64,
) -> CacheStats {
    drive_cache(cache, ops, warmup);
    cache.reset_stats();
    drive_cache(cache, ops, measured);
    cache.stats()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_capacity_matches_request() {
        let cfg = cache_config_for_bytes(16 << 20);
        let cap = cfg.flash.geometry.capacity_bytes(nand_flash::CellMode::Mlc);
        assert!(cap >= 16 << 20);
        assert!(cap < (16 << 20) + 512 * 1024);
    }

    #[test]
    fn drive_cache_counts_page_accesses() {
        let mut cache = FlashCache::new(cache_config_for_bytes(4 << 20)).unwrap();
        let mut ops = page_ops(&WorkloadSpec::uniform().scaled(64), 3);
        let n = drive_cache(&mut cache, &mut ops, 500);
        assert_eq!(n, 500);
        let s = cache.stats();
        assert_eq!(s.reads + s.writes, 500);
    }

    /// A replay split at arbitrary access counts resumes mid-request: on
    /// multi-page workloads four runs of `k` accesses leave the cache in
    /// the state of one run of `4k`.
    #[test]
    fn chunked_replay_resumes_mid_request() {
        const K: u64 = 12_345;
        for workload in [
            WorkloadSpec::dbt2().scaled(128),
            WorkloadSpec::websearch1().scaled(1024),
        ] {
            assert!(workload.mean_run_pages > 1.0, "{}", workload.name);
            let config = cache_config_for_bytes(half_working_set_bytes(&workload));
            let mut chunked = FlashCache::new(config.clone()).unwrap();
            let mut ops = page_ops(&workload, 9);
            for _ in 0..4 {
                assert_eq!(drive_cache(&mut chunked, &mut ops, K), K);
            }
            let mut whole = FlashCache::new(config).unwrap();
            drive_cache(&mut whole, &mut page_ops(&workload, 9), 4 * K);
            assert_eq!(chunked.stats(), whole.stats(), "{}", workload.name);
            assert_eq!(chunked.snapshot(), whole.snapshot(), "{}", workload.name);
        }
    }

    #[test]
    fn half_wss_has_floor() {
        let tiny = WorkloadSpec::uniform().scaled(200_000);
        assert!(half_working_set_bytes(&tiny) >= 8 * 256 * 1024);
        let big = WorkloadSpec::dbt2();
        assert_eq!(half_working_set_bytes(&big), 1024 << 20);
    }
}
