//! Figure 7: optimal SLC/MLC partition and the resulting average access
//! latency as a function of flash die area.
//!
//! This is the paper's offline analysis (§4.2): given a die area, every
//! split of the cell budget between SLC pages (fast, half density) and
//! MLC pages (dense, slow) yields a different cache capacity and hit
//! latency profile. Hot pages are assumed to occupy the SLC partition —
//! exactly what the run-time promotion policy (§5.2.2) approximates —
//! so the average latency follows directly from the workload's
//! popularity CDF. The optimum trades SLC speed against MLC capacity.

use disk_trace::{RankCdf, WorkloadSpec, PAGE_BYTES};
use flash_ecc::EccLatencyModel;
use nand_flash::FlashTiming;
use storage_model::HddModel;

/// Die-area → capacity scaling, from the 8Gb MLC part in 146mm² the
/// paper cites (reference \[12\], Hara et al.): MLC bytes per mm².
pub const MLC_BYTES_PER_MM2: f64 = (1u64 << 30) as f64 / 146.0;

/// One area point of Figure 7.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DensityPoint {
    /// Flash die area, mm².
    pub die_area_mm2: f64,
    /// Average access latency at the optimal partition, µs.
    pub latency_us: f64,
    /// Optimal fraction of cells operated in SLC mode.
    pub optimal_slc_fraction: f64,
}

/// ECC strength assumed for hit latency: every flash hit pays the
/// paper's accelerator ([`EccLatencyModel::PAPER`]) decoding BCH-1.
const ECC_STRENGTH: usize = 1;

/// Disk behind the cache: every miss pays one Travelstar access.
const DISK: HddModel = HddModel::travelstar();

/// Granularity of the SLC-fraction sweep.
const FRACTION_STEP: f64 = 0.02;

/// Computes the Figure 7 curve for `workload` over the given die areas.
pub fn density_partition_curve(workload: &WorkloadSpec, areas_mm2: &[f64]) -> Vec<DensityPoint> {
    let cdf = RankCdf::new(workload.popularity, workload.footprint_pages);
    areas_mm2
        .iter()
        .map(|&area| {
            let mut best = DensityPoint {
                die_area_mm2: area,
                latency_us: f64::INFINITY,
                optimal_slc_fraction: 0.0,
            };
            let mut f: f64 = 0.0;
            while f <= 1.0 + 1e-9 {
                let latency = average_latency(&cdf, area, f.min(1.0));
                // Ties (sub-0.01µs) resolve toward more SLC: when the
                // capacity is ample the faster cells win outright.
                if latency < best.latency_us - 0.01 {
                    best.latency_us = latency;
                    best.optimal_slc_fraction = f.min(1.0);
                } else if latency <= best.latency_us + 0.01 {
                    best.optimal_slc_fraction = f.min(1.0);
                    best.latency_us = best.latency_us.min(latency);
                }
                f += FRACTION_STEP;
            }
            best
        })
        .collect()
}

/// Average access latency when a fraction `slc_fraction` of the die's
/// cells run in SLC mode and the hottest pages occupy the SLC partition.
pub fn average_latency(cdf: &RankCdf, area_mm2: f64, slc_fraction: f64) -> f64 {
    let mlc_bytes = area_mm2 * MLC_BYTES_PER_MM2;
    // A cell in SLC mode stores half of its MLC capacity.
    let slc_pages = (mlc_bytes * slc_fraction / 2.0 / PAGE_BYTES as f64) as u64;
    let mlc_pages = (mlc_bytes * (1.0 - slc_fraction) / PAGE_BYTES as f64) as u64;
    let ecc_us = EccLatencyModel::PAPER.decode_us(ECC_STRENGTH);
    let slc_cov = cdf.coverage(slc_pages);
    let total_cov = cdf.coverage(slc_pages + mlc_pages);
    let mlc_cov = total_cov - slc_cov;
    let miss = 1.0 - total_cov;
    slc_cov * (FlashTiming::SLC_READ_US + ecc_us)
        + mlc_cov * (FlashTiming::MLC_READ_US + ecc_us)
        + miss * DISK.access_latency_us(PAGE_BYTES)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mb(x: f64) -> f64 {
        // Die area providing x MB of MLC capacity.
        x * (1 << 20) as f64 / MLC_BYTES_PER_MM2
    }

    #[test]
    fn latency_falls_with_area() {
        let w = WorkloadSpec::financial2();
        let areas = [mb(64.0), mb(128.0), mb(256.0), mb(450.0)];
        let points = density_partition_curve(&w, &areas);
        for pair in points.windows(2) {
            assert!(
                pair[1].latency_us < pair[0].latency_us,
                "latency must fall with die area"
            );
        }
    }

    #[test]
    fn full_coverage_prefers_pure_slc() {
        // Figure 7: "when the size of the cache approaches the working
        // set size, latency reaches a minimum using only SLC".
        let w = WorkloadSpec::financial2();
        // 2x the working set in MLC terms: even all-SLC covers everything.
        let area = mb(900.0);
        let p = &density_partition_curve(&w, &[area])[0];
        assert!(
            p.optimal_slc_fraction > 0.95,
            "got SLC fraction {}",
            p.optimal_slc_fraction
        );
        // And latency is essentially pure SLC hit latency (read + ECC).
        assert!(p.latency_us < 70.0);
    }

    #[test]
    fn scarce_capacity_prefers_mlc() {
        // Figure 7(b): at roughly half the working set, the big-footprint
        // search workload wants almost all MLC.
        let w = WorkloadSpec::websearch1().scaled(8);
        let area = mb(w.footprint_bytes() as f64 / (1 << 20) as f64 / 2.0);
        let p = &density_partition_curve(&w, &[area])[0];
        assert!(
            p.optimal_slc_fraction < 0.3,
            "got SLC fraction {}",
            p.optimal_slc_fraction
        );
    }

    #[test]
    fn financial2_at_half_wss_wants_substantial_slc() {
        // Figure 7(a): ~70% SLC near half the working set for Financial2.
        let w = WorkloadSpec::financial2();
        let area = mb(443.8 / 2.0);
        let p = &density_partition_curve(&w, &[area])[0];
        assert!(
            p.optimal_slc_fraction > 0.3,
            "got SLC fraction {}",
            p.optimal_slc_fraction
        );
    }

    #[test]
    fn average_latency_is_bounded_by_extremes() {
        let w = WorkloadSpec::financial2();
        let cdf = RankCdf::new(w.popularity, w.footprint_pages);
        let lat = average_latency(&cdf, mb(100.0), 0.5);
        assert!(lat > FlashTiming::SLC_READ_US);
        assert!(lat < DISK.access_latency_us(PAGE_BYTES));
    }
}
