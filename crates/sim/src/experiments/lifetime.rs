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

/// Accesses until total flash failure under `controller`, and whether
/// the access budget ran out first. `workload` is replayed as is
/// (`params.scale` is the caller's to apply).
pub fn lifetime_accesses(
    workload: &WorkloadSpec,
    controller: ControllerPolicy,
    params: &LifetimeParams,
) -> (u64, bool) {
    let (accesses, cache) = lifetime_run(workload, controller, params);
    (accesses, !cache.is_dead())
}

/// The run behind [`lifetime_accesses`]: a cache of half the working
/// set worn at `params.acceleration`, driven by one [`drive_cache`] call
/// until it dies or `params.budget` accesses (the `flashcache lifetime`
/// body). Returns the accesses made and the cache.
fn lifetime_run(
    workload: &WorkloadSpec,
    controller: ControllerPolicy,
    params: &LifetimeParams,
) -> (u64, FlashCache) {
    let mut config = cache_config_for_bytes(half_working_set_bytes(workload));
    config.controller = controller;
    config.flash.wear = WearConfig::default().accelerated(params.acceleration);
    let mut cache = FlashCache::new(config).expect("valid config");
    let accesses = drive_cache(
        &mut cache,
        &mut workload.generator(params.seed),
        params.budget,
        true,
    );
    (accesses, cache)
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
        let workload = WorkloadSpec::alpha2().scaled(params.scale);
        let (programmable, trunc_a) =
            lifetime_accesses(&workload, ControllerPolicy::Programmable, &params);
        let (bch1, trunc_b) = lifetime_accesses(
            &workload,
            ControllerPolicy::FixedEcc { strength: 1 },
            &params,
        );
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

    /// A lifetime run replays every page of every request it starts: on
    /// a multi-page workload that outlives the budget it ends in the
    /// state of one uninterrupted `drive_cache` over the same trace.
    #[test]
    fn lifetime_replays_requests_whole() {
        let params = LifetimeParams {
            scale: 1,
            acceleration: 1.0, // real endurance: nothing wears out
            budget: 250_000,
            seed: 7,
        };
        let workload = WorkloadSpec::websearch1().scaled(512);
        assert!(workload.mean_run_pages > 1.0);
        let (accesses, cache) = lifetime_run(&workload, ControllerPolicy::Programmable, &params);
        assert_eq!(accesses, params.budget);
        assert!(!cache.is_dead());

        let mut config = cache_config_for_bytes(half_working_set_bytes(&workload));
        config.controller = ControllerPolicy::Programmable;
        let mut reference = FlashCache::new(config).expect("valid config");
        let mut generator = workload.generator(params.seed);
        drive_cache(&mut reference, &mut generator, params.budget, true);
        assert_eq!(cache.stats(), reference.stats());
    }
}
