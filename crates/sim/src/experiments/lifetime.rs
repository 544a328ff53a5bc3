//! Figure 12: flash lifetime (accesses until total flash failure) with
//! the programmable controller versus a fixed BCH-1 controller.
//!
//! Lifetimes are simulated under uniform wear acceleration; the paper's
//! metric is *normalized* lifetime, which is invariant under that
//! scaling (both controllers age on the same accelerated clock).

use disk_trace::WorkloadSpec;
use flashcache_core::{ControllerPolicy, FlashCache};
use nand_flash::WearConfig;

use super::driver::{cache_config_for_bytes, drive_cache, half_working_set_bytes};

/// One workload's bars in Figure 12.
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimeRow {
    /// Workload name.
    pub workload: String,
    /// Page accesses until total failure with the programmable
    /// controller (u64::MAX-like saturation if the budget was hit).
    pub programmable_accesses: u64,
    /// Accesses until total failure with the BCH-1 controller.
    pub bch1_accesses: u64,
    /// Whether either run exhausted its access budget before dying.
    pub truncated: bool,
}

impl LifetimeRow {
    /// Lifetime improvement factor (the paper reports ~20× on average).
    pub fn improvement(&self) -> f64 {
        self.programmable_accesses as f64 / self.bch1_accesses.max(1) as f64
    }
}

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct LifetimeParams {
    /// Footprint scaling applied to every workload.
    pub scale: u64,
    /// Wear acceleration factor.
    pub acceleration: f64,
    /// Maximum page accesses per run (safety budget).
    pub budget: u64,
    /// Trace seed.
    pub seed: u64,
}

impl Default for LifetimeParams {
    fn default() -> Self {
        LifetimeParams {
            scale: 256,
            acceleration: 1e5,
            budget: 40_000_000,
            seed: 0xF12,
        }
    }
}

/// The nine workloads of Figure 12.
pub fn fig12_workloads() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec::uniform(),
        WorkloadSpec::alpha1(),
        WorkloadSpec::alpha2(),
        WorkloadSpec::alpha3(),
        WorkloadSpec::exp1(),
        WorkloadSpec::websearch1(),
        WorkloadSpec::websearch2(),
        WorkloadSpec::financial1(),
        WorkloadSpec::financial2(),
    ]
}

/// Accesses until total flash failure under `controller`.
pub fn lifetime_accesses(
    workload: &WorkloadSpec,
    controller: ControllerPolicy,
    params: &LifetimeParams,
) -> (u64, bool) {
    let mut config = cache_config_for_bytes(half_working_set_bytes(workload));
    config.controller = controller;
    config.flash.wear = WearConfig::default().accelerated(params.acceleration);
    let mut cache = FlashCache::new(config).expect("valid config");
    let mut generator = workload.generator(params.seed);
    let mut total = 0u64;
    while !cache.is_dead() && total < params.budget {
        total += drive_cache(
            &mut cache,
            &mut generator,
            (params.budget - total).min(100_000),
            true,
        );
    }
    (total, !cache.is_dead())
}

/// Runs the comparison for each workload.
pub fn lifetime_comparison(
    workloads: &[WorkloadSpec],
    params: &LifetimeParams,
) -> Vec<LifetimeRow> {
    workloads
        .iter()
        .map(|w| {
            let workload = w.clone().scaled(params.scale);
            let (programmable, trunc_a) =
                lifetime_accesses(&workload, ControllerPolicy::Programmable, params);
            let (bch1, trunc_b) = lifetime_accesses(
                &workload,
                ControllerPolicy::FixedEcc { strength: 1 },
                params,
            );
            LifetimeRow {
                workload: w.name.clone(),
                programmable_accesses: programmable,
                bch1_accesses: bch1,
                truncated: trunc_a || trunc_b,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn programmable_controller_extends_lifetime_by_a_large_factor() {
        let params = LifetimeParams {
            scale: 2048, // 256KB footprint -> tiny flash, fast death
            acceleration: 2e5,
            budget: 30_000_000,
            seed: 5,
        };
        let rows = lifetime_comparison(&[WorkloadSpec::alpha2()], &params);
        let row = &rows[0];
        assert!(!row.truncated, "runs must reach total failure");
        assert!(
            row.improvement() > 5.0,
            "programmable {} vs bch1 {}: improvement {:.1}x",
            row.programmable_accesses,
            row.bch1_accesses,
            row.improvement()
        );
    }
}
