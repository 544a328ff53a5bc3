//! Shared helpers for the experiment drivers: sizing flash caches and
//! replaying traces straight into a [`FlashCache`].

use disk_trace::{TraceGenerator, WorkloadSpec, PAGE_BYTES};
use flashcache_core::{AdmissionPolicyConfig, CacheOp, FlashCache, FlashCacheConfig};
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

/// Replays up to `accesses` page accesses from `generator` into `cache`,
/// stopping early if the cache dies when `stop_when_dead` is set.
/// Returns the number of page accesses performed.
pub fn drive_cache(
    cache: &mut FlashCache,
    generator: &mut TraceGenerator,
    accesses: u64,
    stop_when_dead: bool,
) -> u64 {
    let checked = invariant_checks_enabled();
    let mut done = 0u64;
    'outer: while done < accesses {
        let req = generator.next_request();
        for page in req.pages() {
            if req.is_write() {
                cache.op(CacheOp::write(page));
            } else {
                cache.op(CacheOp::read(page));
            }
            done += 1;
            if checked && done.is_multiple_of(INVARIANT_CHECK_INTERVAL) {
                cache
                    .check_invariants()
                    .expect("cache invariants hold mid-replay");
            }
            if done >= accesses || (stop_when_dead && cache.is_dead()) {
                break 'outer;
            }
        }
    }
    if checked {
        cache
            .check_invariants()
            .expect("cache invariants hold after replay");
    }
    done
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
        let mut generator = WorkloadSpec::uniform().scaled(64).generator(3);
        let n = drive_cache(&mut cache, &mut generator, 500, false);
        assert_eq!(n, 500);
        let s = cache.stats();
        assert_eq!(s.reads + s.writes, 500);
    }

    #[test]
    fn half_wss_has_floor() {
        let tiny = WorkloadSpec::uniform().scaled(200_000);
        assert!(half_working_set_bytes(&tiny) >= 8 * 256 * 1024);
        let big = WorkloadSpec::dbt2();
        assert_eq!(half_working_set_bytes(&big), 1024 << 20);
    }
}
