//! Closed-loop server throughput and power model — the substitute for
//! the paper's M5 full-system simulations (§6.1, Figures 9 and 10).
//!
//! The paper measures network bandwidth of an 8-core server running
//! dbt2/SPECWeb99 on top of the storage hierarchy. Relative bandwidth is
//! a function of how fast requests complete, which in a closed system is
//! governed by the bottleneck resource. We replay the workload through
//! the [`crate::hierarchy::Hierarchy`], then apply operational-analysis
//! bounds: wall time is the maximum of the CPU demand, the storage
//! demand divided by client concurrency, and each device's total busy
//! time. Network bandwidth is bytes served over wall time.

use disk_trace::WorkloadSpec;

use crate::hierarchy::{Hierarchy, HierarchyConfig, PowerInputs};

/// Cores available for request processing (Table 3: 8 in-order cores
/// at 1GHz).
pub const CORES: u32 = 8;

/// Concurrent client connections (the closed-loop population).
pub const CLIENTS: u32 = 64;

/// CPU time consumed per request, µs.
pub const CPU_US_PER_REQUEST: f64 = 200.0;

/// Independent flash banks that overlap array operations (Figure 1(a)
/// shows a banked organization; a 1GB device is built from 8×1Gb dies).
/// The *ECC controller* is shared, so decode time is not divided.
pub const FLASH_BANKS: u32 = 8;

/// Results of one server run.
#[derive(Debug, Clone)]
pub struct ServerReport {
    /// Requests completed.
    pub requests: u64,
    /// Modelled wall-clock time, seconds.
    pub elapsed_s: f64,
    /// Sustained request throughput, requests/second.
    pub throughput_rps: f64,
    /// Network bandwidth, MB/s.
    pub network_mbps: f64,
    /// Which resource bounded the run.
    pub bottleneck: Bottleneck,
    /// Flash read hit pages / total pages (0 for DRAM-only).
    pub flash_hit_fraction: f64,
    /// Disk read pages / total pages.
    pub disk_read_fraction: f64,
    /// Device activity of the measured run: every power figure is
    /// [`PowerInputs::power_at`] a wall time (`elapsed_s` for this run's
    /// own).
    pub power_inputs: PowerInputs,
}

/// The resource that limited throughput.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bottleneck {
    /// CPU-bound: cores saturated.
    Cpu,
    /// Latency-bound: clients waiting on storage round trips.
    ClientLatency,
    /// Disk-bound: the drive's queue never drains.
    Disk,
    /// Flash-bound.
    Flash,
}

/// Replays `warmup_requests` requests of `workload` through a
/// hierarchy, then measures the next `requests` and applies the
/// bottleneck model to them alone.
pub fn run_server(
    hierarchy_config: HierarchyConfig,
    workload: &WorkloadSpec,
    warmup_requests: u64,
    requests: u64,
    seed: u64,
) -> ServerReport {
    let mut hierarchy = Hierarchy::new(hierarchy_config);
    let mut generator = workload.generator(seed);
    for _ in 0..warmup_requests {
        let req = generator.next_request();
        hierarchy.submit(req);
    }
    hierarchy.reset_measurements();
    let mut served_bytes = 0u64;
    for _ in 0..requests {
        let req = generator.next_request();
        served_bytes += req.bytes();
        hierarchy.submit(req);
    }
    hierarchy.drain();
    let report = hierarchy.report();

    let total_cpu_us = requests as f64 * CPU_US_PER_REQUEST;
    let total_storage_us = report.total_latency_us;
    // Array operations overlap across banks; BCH decode serializes on
    // the shared programmable controller (§4.1).
    let flash_busy_us = hierarchy
        .flash_engine()
        .map(|e| {
            let busy: f64 = e.shards().iter().map(|f| f.device().stats().busy_us).sum();
            busy / FLASH_BANKS as f64 + e.stats().ecc_us
        })
        .unwrap_or(0.0);
    let disk_busy_us = report.disk.busy_s * 1e6;

    let bounds = [
        (Bottleneck::Cpu, total_cpu_us / CORES as f64),
        (
            Bottleneck::ClientLatency,
            (total_cpu_us + total_storage_us) / CLIENTS as f64,
        ),
        (Bottleneck::Disk, disk_busy_us),
        (Bottleneck::Flash, flash_busy_us),
    ];
    let (bottleneck, wall_us) = bounds
        .into_iter()
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite bounds"))
        .expect("non-empty bounds");
    let elapsed_s = (wall_us / 1e6).max(1e-9);
    ServerReport {
        requests,
        elapsed_s,
        throughput_rps: requests as f64 / elapsed_s,
        network_mbps: served_bytes as f64 / 1e6 / elapsed_s,
        bottleneck,
        flash_hit_fraction: if report.pages == 0 {
            0.0
        } else {
            report.flash_hit_pages as f64 / report.pages as f64
        },
        disk_read_fraction: report.disk_read_fraction(),
        power_inputs: hierarchy.power_inputs(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashcache_core::FlashCacheConfig;
    use nand_flash::{FlashConfig, FlashGeometry};

    fn small_flash_cfg(blocks: u32) -> FlashCacheConfig {
        FlashCacheConfig {
            flash: FlashConfig {
                geometry: FlashGeometry {
                    blocks,
                    pages_per_block: 32,
                },
                ..FlashConfig::default()
            },
            ..FlashCacheConfig::default()
        }
    }

    fn small_workload() -> WorkloadSpec {
        WorkloadSpec::dbt2().scaled(256) // 8MB footprint
    }

    #[test]
    fn flash_config_beats_dram_only_on_disk_bound_load() {
        let workload = small_workload();
        // DRAM-only with a PDC much smaller than the footprint.
        let dram_only = run_server(
            HierarchyConfig {
                dram_bytes: 1 << 20,
                flash: None,
                ..HierarchyConfig::default()
            },
            &workload,
            0,
            20_000,
            7,
        );
        // Smaller DRAM + flash covering the footprint.
        let with_flash = run_server(
            HierarchyConfig {
                dram_bytes: 1 << 19,
                flash: Some(small_flash_cfg(64)), // 16MB MLC
                ..HierarchyConfig::default()
            },
            &workload,
            0,
            20_000,
            7,
        );
        assert!(
            with_flash.network_mbps > dram_only.network_mbps,
            "flash {:.2} MB/s vs dram-only {:.2} MB/s",
            with_flash.network_mbps,
            dram_only.network_mbps
        );
        // Disk *energy* for the same work drops (power at the flash
        // config's shorter wall time can be higher because utilization
        // concentrates; the fair comparison is per unit of work).
        assert!(
            with_flash.power_inputs.disk_busy_s < dram_only.power_inputs.disk_busy_s,
            "flash must reduce disk busy time"
        );
        assert!(with_flash.flash_hit_fraction > 0.1);
        let (_, _, flash_w) = dram_only.power_inputs.power_at(dram_only.elapsed_s);
        assert_eq!(flash_w, 0.0);
    }

    #[test]
    fn bottleneck_moves_off_disk_with_flash() {
        let workload = small_workload();
        let dram_only = run_server(
            HierarchyConfig {
                dram_bytes: 1 << 20,
                flash: None,
                ..HierarchyConfig::default()
            },
            &workload,
            0,
            10_000,
            8,
        );
        assert_eq!(dram_only.bottleneck, Bottleneck::Disk);
        assert!(dram_only.disk_read_fraction > 0.2);
    }

    #[test]
    fn report_arithmetic() {
        let workload = small_workload();
        let r = run_server(
            HierarchyConfig {
                dram_bytes: 1 << 20,
                flash: Some(small_flash_cfg(64)),
                ..HierarchyConfig::default()
            },
            &workload,
            0,
            5_000,
            9,
        );
        assert_eq!(r.requests, 5_000);
        assert!(r.elapsed_s > 0.0);
        assert!((r.throughput_rps - 5_000.0 / r.elapsed_s).abs() < 1e-6);
        let (dram, disk_w, flash_w) = r.power_inputs.power_at(r.elapsed_s);
        assert!(dram.total_w() > 0.0 && disk_w > 0.0 && flash_w > 0.0);
        assert!(r.network_mbps > 0.0);
    }

    #[test]
    fn warmup_improves_steady_state_metrics() {
        let workload = small_workload();
        let cfg = || HierarchyConfig {
            dram_bytes: 1 << 19,
            flash: Some(small_flash_cfg(64)),
            ..HierarchyConfig::default()
        };
        let cold = run_server(cfg(), &workload, 0, 10_000, 6);
        let warm = run_server(cfg(), &workload, 30_000, 10_000, 6);
        // Warm measurement sees a populated cache: more flash hits and
        // fewer disk reads than a cold-start measurement.
        assert!(
            warm.flash_hit_fraction > cold.flash_hit_fraction,
            "warm {:.3} vs cold {:.3}",
            warm.flash_hit_fraction,
            cold.flash_hit_fraction
        );
        assert!(warm.disk_read_fraction < cold.disk_read_fraction);
    }

    #[test]
    fn deterministic_given_seed() {
        let workload = small_workload();
        let cfg = || HierarchyConfig {
            dram_bytes: 1 << 20,
            flash: Some(small_flash_cfg(32)),
            ..HierarchyConfig::default()
        };
        let a = run_server(cfg(), &workload, 0, 3_000, 5);
        let b = run_server(cfg(), &workload, 0, 3_000, 5);
        assert_eq!(a.network_mbps, b.network_mbps);
        assert_eq!(a.elapsed_s, b.elapsed_s);
    }
}
