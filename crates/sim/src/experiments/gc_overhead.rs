//! Figure 1(b): garbage-collection overhead versus occupied flash space.
//!
//! A unified flash store absorbs a uniform write-only stream whose
//! footprint occupies a chosen fraction of the flash. As the occupancy
//! approaches 100%, each GC pass finds fewer invalid pages per block and
//! must move more live data, so the time spent collecting garbage blows
//! up — the paper's motivation for splitting the disk cache (it cites
//! eNVy stopping at 80% occupancy).

use disk_trace::{Popularity, WorkloadKind, WorkloadSpec};
use flashcache_core::{FlashCache, SplitPolicy};
use nand_flash::CellMode;

use super::driver::{cache_config_for_bytes, measure, page_ops};

/// One point of the Figure 1(b) curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GcOverheadPoint {
    /// Fraction of flash capacity holding live data.
    pub occupancy: f64,
    /// GC time / total flash time.
    pub gc_overhead: f64,
    /// Overhead normalized to 10% (the paper's y-axis).
    pub normalized: f64,
}

/// Sweeps occupancy and measures GC overhead on a `flash_bytes` unified
/// flash. `writes_per_point` page writes are measured after the store is
/// warmed to steady state.
pub fn gc_overhead_curve(
    flash_bytes: u64,
    occupancies: &[f64],
    writes_per_point: u64,
    seed: u64,
) -> Vec<GcOverheadPoint> {
    occupancies
        .iter()
        .map(|&occ| {
            assert!((0.0..1.0).contains(&occ) && occ > 0.0, "occupancy in (0,1)");
            let mut config = cache_config_for_bytes(flash_bytes);
            config.split = SplitPolicy::Unified;
            let capacity_pages =
                config.flash.geometry.capacity_bytes(CellMode::Mlc) / disk_trace::PAGE_BYTES;
            let footprint = ((capacity_pages as f64 * occ) as u64).max(16);
            let workload = WorkloadSpec {
                name: format!("gc-occ-{occ:.2}"),
                kind: WorkloadKind::Micro,
                footprint_pages: footprint,
                write_fraction: 1.0,
                popularity: Popularity::Uniform,
                mean_run_pages: 1.0,
                rw_overlap: 1.0,
            };
            // Warm: write the whole footprint twice so steady-state GC
            // behaviour is established.
            let gc_overhead = measure(
                &mut FlashCache::new(config).expect("valid config"),
                &mut page_ops(&workload, seed),
                footprint * 2,
                writes_per_point,
            )
            .gc_overhead();
            GcOverheadPoint {
                occupancy: occ,
                gc_overhead,
                normalized: gc_overhead / 0.10,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_grows_with_occupancy() {
        let points = gc_overhead_curve(8 << 20, &[0.3, 0.6, 0.9], 30_000, 1);
        assert_eq!(points.len(), 3);
        assert!(
            points[2].gc_overhead > points[0].gc_overhead,
            "90% occupancy ({:.3}) must cost more GC than 30% ({:.3})",
            points[2].gc_overhead,
            points[0].gc_overhead
        );
        // High occupancy is dramatically worse, as in the figure.
        assert!(points[2].gc_overhead > 2.0 * points[0].gc_overhead);
        for p in &points {
            assert!((0.0..=1.0).contains(&p.gc_overhead));
            assert!((p.normalized - p.gc_overhead / 0.1).abs() < 1e-12);
        }
    }
}
