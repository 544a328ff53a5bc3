//! Figure 10: server throughput as a function of (uniform) BCH code
//! strength, for SPECWeb99 and dbt2 on 256MB DRAM + 1GB flash.
//!
//! Every flash read pays the decode latency of the configured strength,
//! so throughput degrades as the code strengthens; the disk-bound dbt2
//! is the more sensitive of the two (§7.2).

use disk_trace::WorkloadSpec;
use flashcache_core::ControllerPolicy;

use crate::hierarchy::HierarchyConfig;
use crate::server::run_server;

use super::driver::cache_config_for_bytes;

const MIB: u64 = 1 << 20;

/// One point of a Figure 10 series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EccThroughputPoint {
    /// Uniform BCH strength applied to all pages.
    pub strength: u8,
    /// Absolute network bandwidth, MB/s.
    pub network_mbps: f64,
    /// Bandwidth relative to the weakest-code run.
    pub relative_bandwidth: f64,
}

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct EccThroughputParams {
    /// Workload to serve.
    pub workload: WorkloadSpec,
    /// BCH strengths to evaluate (the paper sweeps ~1..50).
    pub strengths: Vec<u8>,
    /// DRAM size, bytes (paper: 256MB).
    pub dram_bytes: u64,
    /// Flash size, bytes (paper: 1GB).
    pub flash_bytes: u64,
    /// Requests to replay per point (after warm-up).
    pub requests: u64,
    /// Warm-up requests excluded from measurement.
    pub warmup_requests: u64,
    /// Trace seed.
    pub seed: u64,
}

impl EccThroughputParams {
    /// The paper's setup for a given workload.
    pub fn paper(workload: WorkloadSpec) -> Self {
        EccThroughputParams {
            workload,
            strengths: vec![1, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50],
            dram_bytes: 256 * MIB,
            flash_bytes: 1024 * MIB,
            requests: 300_000,
            warmup_requests: 400_000,
            seed: 0xF10,
        }
    }

    /// Scales capacities/footprint/requests down by `factor`.
    #[must_use]
    pub fn scaled(mut self, factor: u64) -> Self {
        self.workload = self.workload.scaled(factor);
        self.dram_bytes /= factor;
        self.flash_bytes /= factor;
        let per_req = self.workload.mean_run_pages.max(1.0);
        let cover = (2.0 * self.workload.footprint_pages as f64 / per_req) as u64;
        self.warmup_requests = (self.warmup_requests / factor).max(cover);
        self.requests = (self.requests / factor).max(cover / 2).max(20_000);
        self
    }
}

/// Runs the Figure 10 sweep for one workload.
pub fn ecc_throughput_curve(params: &EccThroughputParams) -> Vec<EccThroughputPoint> {
    let mut points: Vec<EccThroughputPoint> = params
        .strengths
        .iter()
        .map(|&t| {
            let mut cache = cache_config_for_bytes(params.flash_bytes);
            cache.controller = ControllerPolicy::FixedEcc { strength: t };
            let report = run_server(
                HierarchyConfig {
                    dram_bytes: params.dram_bytes,
                    flash: Some(cache),
                    ..HierarchyConfig::default()
                },
                &params.workload,
                params.warmup_requests,
                params.requests,
                params.seed,
            );
            EccThroughputPoint {
                strength: t,
                network_mbps: report.network_mbps,
                relative_bandwidth: 0.0,
            }
        })
        .collect();
    let base = points
        .first()
        .map(|p| p.network_mbps)
        .unwrap_or(1.0)
        .max(1e-12);
    for p in &mut points {
        p.relative_bandwidth = p.network_mbps / base;
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_degrades_slowly_with_strength() {
        let params = EccThroughputParams {
            strengths: vec![1, 10, 30, 50],
            requests: 40_000,
            ..EccThroughputParams::paper(WorkloadSpec::specweb99()).scaled(64)
        };
        let points = ecc_throughput_curve(&params);
        assert_eq!(points[0].relative_bandwidth, 1.0);
        // Monotone non-increasing (within noise) and graceful: the paper
        // shows a slow decline, not a cliff.
        for w in points.windows(2) {
            assert!(
                w[1].relative_bandwidth <= w[0].relative_bandwidth + 0.02,
                "strength {} -> {}: bandwidth must not rise",
                w[0].strength,
                w[1].strength
            );
        }
        let last = points.last().unwrap();
        assert!(
            last.relative_bandwidth > 0.3,
            "t=50 keeps meaningful throughput, got {:.2}",
            last.relative_bandwidth
        );
        assert!(
            last.relative_bandwidth < 1.0,
            "t=50 must cost something, got {:.2}",
            last.relative_bandwidth
        );
    }
}
