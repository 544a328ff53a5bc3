//! Figure 9: system-memory and disk power breakdown plus network
//! bandwidth, for a DRAM-only server versus a DRAM+flash server of equal
//! memory die area.

use disk_trace::WorkloadSpec;

use crate::hierarchy::HierarchyConfig;
use crate::server::{run_server, ServerReport};

use super::driver::cache_config_for_bytes;

const MIB: u64 = 1 << 20;

/// One bar group of Figure 9.
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// Configuration label, e.g. `"DDR2 512MB + 60GB HDD"`.
    pub label: String,
    /// Memory read power, W.
    pub mem_read_w: f64,
    /// Memory write power, W.
    pub mem_write_w: f64,
    /// Memory idle power, W.
    pub mem_idle_w: f64,
    /// Disk power, W.
    pub disk_w: f64,
    /// Flash power, W (folded into "memory" in the paper's stack).
    pub flash_w: f64,
    /// Absolute network bandwidth, MB/s.
    pub network_mbps: f64,
    /// Bandwidth normalized to the DRAM-only baseline.
    pub normalized_bandwidth: f64,
    /// Full server report for deeper inspection.
    pub report: ServerReport,
}

impl Fig9Row {
    /// Total memory + disk power (the paper's headline "up to 3x").
    pub fn total_power_w(&self) -> f64 {
        self.mem_read_w + self.mem_write_w + self.mem_idle_w + self.disk_w + self.flash_w
    }
}

/// Setup of one Figure 9 comparison.
#[derive(Debug, Clone)]
pub struct Fig9Params {
    /// Workload (dbt2 or SPECWeb99).
    pub workload: WorkloadSpec,
    /// DRAM in the baseline configuration, bytes (paper: 512MB).
    pub baseline_dram_bytes: u64,
    /// DRAM alongside flash, bytes (paper: 256MB dbt2 / 128MB SPECWeb99).
    pub flash_dram_bytes: u64,
    /// Flash capacity, bytes (paper: 1GB dbt2 / 2GB SPECWeb99).
    pub flash_bytes: u64,
    /// Requests to replay after warm-up.
    pub requests: u64,
    /// Warm-up requests excluded from measurement.
    pub warmup_requests: u64,
    /// Trace seed.
    pub seed: u64,
}

impl Fig9Params {
    /// The paper's dbt2 configuration: 512MB DRAM baseline vs
    /// 256MB DRAM + 1GB flash.
    pub fn dbt2() -> Self {
        Fig9Params {
            workload: WorkloadSpec::dbt2(),
            baseline_dram_bytes: 512 * MIB,
            flash_dram_bytes: 256 * MIB,
            flash_bytes: 1024 * MIB,
            requests: 400_000,
            warmup_requests: 500_000,
            seed: 0xF19,
        }
    }

    /// The paper's SPECWeb99 configuration: 512MB DRAM baseline vs
    /// 128MB DRAM + 2GB flash.
    pub fn specweb99() -> Self {
        Fig9Params {
            workload: WorkloadSpec::specweb99(),
            baseline_dram_bytes: 512 * MIB,
            flash_dram_bytes: 128 * MIB,
            flash_bytes: 2048 * MIB,
            requests: 400_000,
            warmup_requests: 500_000,
            seed: 0xF19,
        }
    }

    /// Divides every capacity, the footprint, and the request count by
    /// `factor` for quick runs; the power *ratios* and bandwidth shape
    /// are preserved.
    #[must_use]
    pub fn scaled(mut self, factor: u64) -> Self {
        self.workload = self.workload.scaled(factor);
        self.baseline_dram_bytes /= factor;
        self.flash_dram_bytes /= factor;
        self.flash_bytes /= factor;
        // Keep the run long enough to warm and exercise the scaled
        // footprint: the warm-up must touch it a couple of times over.
        let per_req = self.workload.mean_run_pages.max(1.0);
        let cover = (2.0 * self.workload.footprint_pages as f64 / per_req) as u64;
        self.warmup_requests = (self.warmup_requests / factor).max(cover);
        self.requests = (self.requests / factor).max(cover / 2).max(20_000);
        self
    }
}

/// Runs the comparison: `(dram_only_row, dram_plus_flash_row)`.
pub fn power_bandwidth(params: &Fig9Params) -> (Fig9Row, Fig9Row) {
    let baseline = run_server(
        HierarchyConfig {
            dram_bytes: params.baseline_dram_bytes,
            flash: None,
            ..HierarchyConfig::default()
        },
        &params.workload,
        params.warmup_requests,
        params.requests,
        params.seed,
    );
    let with_flash = run_server(
        HierarchyConfig {
            dram_bytes: params.flash_dram_bytes,
            flash: Some(cache_config_for_bytes(params.flash_bytes)),
            ..HierarchyConfig::default()
        },
        &params.workload,
        params.warmup_requests,
        params.requests,
        params.seed,
    );
    let base_mbps = baseline.network_mbps.max(1e-12);
    // Power is compared at equal work: both configurations evaluated
    // over the slower configuration's wall time, so a faster system is
    // not penalized with artificially concentrated utilization.
    let wall_s = baseline.elapsed_s.max(with_flash.elapsed_s);
    let row = |label: String, r: ServerReport| {
        let (dram, disk_w, flash_w) = r.power_inputs.power_at(wall_s);
        Fig9Row {
            label,
            mem_read_w: dram.read_w,
            mem_write_w: dram.write_w,
            mem_idle_w: dram.idle_w,
            disk_w,
            flash_w,
            network_mbps: r.network_mbps,
            normalized_bandwidth: r.network_mbps / base_mbps,
            report: r,
        }
    };
    (
        row(
            format!("DDR2 {}MB + HDD", params.baseline_dram_bytes / MIB),
            baseline,
        ),
        row(
            format!(
                "DDR2 {}MB + Flash {}MB + HDD",
                params.flash_dram_bytes / MIB,
                params.flash_bytes / MIB
            ),
            with_flash,
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flash_config_saves_power_at_similar_bandwidth() {
        let params = Fig9Params::dbt2().scaled(64);
        let (base, flash) = power_bandwidth(&params);
        // Scaling shrinks capacities but not the devices' power
        // constants, so the full "up to 3x" ratio only emerges at paper
        // scale (recorded in EXPERIMENTS.md); the qualitative pieces
        // must hold at any scale:
        // 1. the disk works less for the same job,
        assert!(
            flash.report.power_inputs.disk_busy_s < base.report.power_inputs.disk_busy_s,
            "disk busy: flash {:.2}s vs baseline {:.2}s",
            flash.report.power_inputs.disk_busy_s,
            base.report.power_inputs.disk_busy_s
        );
        // 2. half the DRAM means half the idle/refresh power,
        assert!(flash.mem_idle_w < 0.6 * base.mem_idle_w);
        // 3. throughput is maintained or improved,
        assert!(
            flash.normalized_bandwidth > 0.95,
            "normalized bandwidth {:.2}",
            flash.normalized_bandwidth
        );
        // 4. flash's own power is negligible,
        assert!(flash.flash_w < 0.5);
        assert_eq!(base.flash_w, 0.0);
        // 5. and the total does not regress.
        assert!(flash.total_power_w() <= base.total_power_w() * 1.01);
    }

    #[test]
    fn specweb_shows_the_same_shape() {
        let params = Fig9Params::specweb99().scaled(64);
        let (base, flash) = power_bandwidth(&params);
        assert!(flash.report.power_inputs.disk_busy_s < base.report.power_inputs.disk_busy_s);
        assert!(flash.mem_idle_w < base.mem_idle_w);
        assert!(flash.normalized_bandwidth > 0.9);
    }
}
