//! Figure 11: breakdown of page reconfiguration (descriptor update)
//! events into ECC-strength increases versus MLC→SLC density switches,
//! per workload, with flash sized at half the working set and measured
//! near the onset of cell failures.
//!
//! Figure 11's share is [`ReconfigRow::ecc_pct`]: ECC-strength updates
//! over *every* density update, fault-driven demotions and hot-page
//! promotions alike (both reprogram the page's mode field).

use disk_trace::WorkloadSpec;
use flashcache_core::FlashCache;
use nand_flash::WearConfig;

use super::driver::{cache_config_for_bytes, drive_cache, half_working_set_bytes, page_ops};

/// One bar of Figure 11.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconfigRow {
    /// Workload name.
    pub workload: String,
    /// Descriptor updates that raised ECC strength.
    pub ecc_events: u64,
    /// Descriptor updates that switched density (fault-driven demotions
    /// plus hot-page promotions, both of which reprogram the mode field).
    pub density_events: u64,
    /// Hot-page promotions included in `density_events`.
    pub hot_promotions: u64,
}

impl ReconfigRow {
    /// Percentage of descriptor updates that were ECC-strength changes,
    /// counting every density update (fault-driven and hot-promotion).
    pub fn ecc_pct(&self) -> f64 {
        let total = self.ecc_events + self.density_events;
        if total == 0 {
            0.0
        } else {
            100.0 * self.ecc_events as f64 / total as f64
        }
    }
}

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct ReconfigParams {
    /// Footprint scaling applied to every workload.
    pub scale: u64,
    /// Wear acceleration factor (brings cell failures into the run).
    pub acceleration: f64,
    /// Page-access budget per workload.
    pub accesses: u64,
    /// Stop once this many descriptor updates have been observed — the
    /// paper measures "near the point where the Flash cells start to
    /// fail", i.e. the early reconfiguration window.
    pub min_events: u64,
    /// Trace seed.
    pub seed: u64,
}

impl Default for ReconfigParams {
    fn default() -> Self {
        ReconfigParams {
            scale: 64,
            acceleration: 2e4,
            accesses: 5_000_000,
            min_events: 1_000,
            seed: 0xF11,
        }
    }
}

/// The ten workloads of Figure 11.
pub fn fig11_workloads() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec::uniform(),
        WorkloadSpec::alpha1(),
        WorkloadSpec::alpha2(),
        WorkloadSpec::alpha3(),
        WorkloadSpec::exp1(),
        WorkloadSpec::exp2(),
        WorkloadSpec::websearch1(),
        WorkloadSpec::websearch2(),
        WorkloadSpec::financial1(),
        WorkloadSpec::financial2(),
    ]
}

/// Runs the breakdown for each workload.
pub fn reconfig_breakdown(workloads: &[WorkloadSpec], params: &ReconfigParams) -> Vec<ReconfigRow> {
    workloads
        .iter()
        .map(|w| {
            let workload = w.clone().scaled(params.scale);
            let mut config = cache_config_for_bytes(half_working_set_bytes(&workload));
            config.flash.wear = WearConfig::default().accelerated(params.acceleration);
            let mut cache = FlashCache::new(config).expect("valid config");
            let mut ops = page_ops(&workload, params.seed);
            let mut done = 0u64;
            while done < params.accesses && !cache.is_dead() {
                done += drive_cache(&mut cache, &mut ops, 20_000);
                let s = cache.stats();
                if s.reconfig_ecc + s.reconfig_density >= params.min_events {
                    break;
                }
            }
            let stats = cache.stats();
            ReconfigRow {
                workload: w.name.clone(),
                ecc_events: stats.reconfig_ecc,
                density_events: stats.reconfig_density,
                hot_promotions: stats.hot_promotions,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_ecc_dominated_and_exp_density_leaning() {
        // §7.3: long-tailed (uniform) workloads update ECC strength
        // almost exclusively; short-tailed (exponential) workloads favour
        // density changes.
        // Scale 64 keeps uniform's footprint (4096 pages) large enough
        // that no page looks hot — at tinier scales every page of a
        // uniform workload saturates its access counter, which is a
        // scaling artifact, not workload behaviour.
        let params = ReconfigParams {
            scale: 64,
            acceleration: 5e4,
            accesses: 1_500_000,
            min_events: 150,
            seed: 3,
        };
        let rows = reconfig_breakdown(&[WorkloadSpec::uniform(), WorkloadSpec::exp2()], &params);
        let uniform = &rows[0];
        let exp = &rows[1];
        assert!(
            uniform.ecc_events + uniform.density_events > 0,
            "uniform must reconfigure under accelerated wear"
        );
        assert!(
            uniform.ecc_pct() > 70.0,
            "uniform should be ECC-dominated, got {:.1}%",
            uniform.ecc_pct()
        );
        assert!(
            exp.ecc_pct() < uniform.ecc_pct(),
            "exp2 ({:.1}% ecc) must lean more to density than uniform ({:.1}%)",
            exp.ecc_pct(),
            uniform.ecc_pct()
        );
    }

    #[test]
    fn ten_workloads_listed() {
        let w = fig11_workloads();
        assert_eq!(w.len(), 10);
        assert_eq!(w[0].name, "uniform");
        assert_eq!(w[9].name, "Financial2");
    }
}
