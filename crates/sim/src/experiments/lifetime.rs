//! Figure 12: flash lifetime (accesses until total flash failure) with
//! the programmable controller versus a fixed BCH-1 controller.
//!
//! Lifetimes are simulated under uniform wear acceleration; the paper's
//! metric is *normalized* lifetime, which is invariant under that
//! scaling (both controllers age on the same accelerated clock).

use disk_trace::WorkloadSpec;
use flashcache_core::{FlashCache, FlashCacheConfig};
use nand_flash::WearConfig;

use super::driver::{drive_cache, page_ops};

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

/// One lifetime run (Figure 12 and `flashcache lifetime`): a cache built
/// from `config` (controller, admission, channels and geometry are the
/// caller's; Figure 12 sizes it at half the working set), worn at
/// `params.acceleration` and replayed with `workload` until it dies or
/// `params.budget` accesses. Returns the accesses made and the cache,
/// which is alive only if the budget ran out first.
pub fn lifetime_accesses(
    mut config: FlashCacheConfig,
    workload: &WorkloadSpec,
    params: &LifetimeParams,
) -> (u64, FlashCache) {
    config.flash.wear = WearConfig::default().accelerated(params.acceleration);
    let mut cache = FlashCache::new(config).expect("valid config");
    let accesses = drive_cache(
        &mut cache,
        &mut page_ops(workload, params.seed),
        params.budget,
    );
    (accesses, cache)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::driver::{cache_config_for_bytes, half_working_set_bytes};
    use flashcache_core::ControllerPolicy;

    #[test]
    fn programmable_controller_extends_lifetime_by_a_large_factor() {
        let params = LifetimeParams {
            acceleration: 2e5,
            budget: 30_000_000,
            seed: 5,
        };
        // 256KB footprint -> tiny flash, fast death.
        let workload = WorkloadSpec::alpha2().scaled(2048);
        let run = |controller| {
            let config = FlashCacheConfig {
                controller,
                ..cache_config_for_bytes(half_working_set_bytes(&workload))
            };
            let (accesses, cache) = lifetime_accesses(config, &workload, &params);
            (accesses, !cache.is_dead())
        };
        let (programmable, trunc_a) = run(ControllerPolicy::Programmable);
        let (bch1, trunc_b) = run(ControllerPolicy::FixedEcc { strength: 1 });
        let row = LifetimeRow {
            workload: workload.name,
            programmable_accesses: programmable,
            bch1_accesses: bch1,
            truncated: trunc_a || trunc_b,
        };
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
