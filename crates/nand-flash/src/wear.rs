//! Wear-out and bit-error injection.
//!
//! Each physical page accumulates *permanent* failed cells as its block's
//! erase count grows, following the lognormal cell-lifetime model of the
//! `flash-reliability` crate. A cell that can no longer hold two bits
//! (MLC failure) may still hold one (SLC still works) — which is exactly
//! why the paper's controller demotes aging pages from MLC to SLC mode.
//!
//! The injector therefore tracks two coupled failure counts per physical
//! page, `fail_mlc ≥ fail_slc`, grown monotonically by Poisson increments
//! with binomial thinning, so that repeated reads at the same wear level
//! observe consistent ("fail consistently", §5.2.1) error counts.

use rand::Rng;

use flash_reliability::{CellLifetimeModel, CELLS_PER_PAGE};

use crate::geometry::CellMode;
use crate::sampling::{binomial, poisson, NormalSource, PoissonSource};

/// Configuration of the wear/error model. Cells follow
/// [`CellLifetimeModel::figure_calibrated`] in SLC mode (the MLC
/// distribution is derived from it: 10× fewer cycles, Table 1), and a
/// physical page has [`CELLS_PER_PAGE`] of them (data + spare).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WearConfig {
    /// Page-to-page quality spread, in decades of lifetime.
    pub spatial_sigma_decades: f64,
    /// Expected transient (soft) bit errors per page read.
    pub transient_errors_per_read: f64,
    /// Uniform lifetime acceleration factor for tractable whole-lifetime
    /// simulations (Figure 12); 1.0 = real endurance.
    pub acceleration: f64,
}

impl Default for WearConfig {
    fn default() -> Self {
        WearConfig {
            spatial_sigma_decades: 0.15,
            transient_errors_per_read: 1e-4,
            acceleration: 1.0,
        }
    }
}

impl WearConfig {
    /// Checks that `acceleration` is finite and > 0 and the other two
    /// fields finite and >= 0; otherwise [`WearModel::new`] panics or
    /// wear or error injection silently switches off.
    ///
    /// # Errors
    ///
    /// The first out-of-range field, named, with its value.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.acceleration.is_finite() && self.acceleration > 0.0) {
            return Err(format!(
                "wear.acceleration must be finite and > 0, got {}",
                self.acceleration
            ));
        }
        for (field, v) in [
            ("transient_errors_per_read", self.transient_errors_per_read),
            ("spatial_sigma_decades", self.spatial_sigma_decades),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(format!("wear.{field} must be finite and >= 0, got {v}"));
            }
        }
        Ok(())
    }

    /// Returns the configuration with lifetimes divided by `factor`.
    #[must_use]
    pub fn accelerated(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "acceleration must be positive");
        self.acceleration = factor;
        self
    }
}

/// Expected-failure level per page below which a wear evaluation is
/// treated as exactly zero. A skipped Poisson draw at λ below this
/// bound changes the observed failure count with probability < 1e-12,
/// so even million-erase replays diverge from evaluating every draw
/// with probability ~1e-6.
pub const NEGLIGIBLE_FAILURES: f64 = 1e-12;

/// [`CELLS_PER_PAGE`] as the failure counts' type: no page reports more
/// failed cells than it has.
const PAGE_CELLS: u32 = CELLS_PER_PAGE as u32;

/// Runtime wear model shared by all pages of a device.
#[derive(Debug, Clone, Copy)]
pub struct WearModel {
    config: WearConfig,
    slc: CellLifetimeModel,
    mlc: CellLifetimeModel,
    /// Transient-error draw with `exp(-λ)` hoisted out of the per-read
    /// loop (λ is constant for the life of the model).
    transient: PoissonSource,
    /// Effective cycle count below which even the weaker (MLC) curve's
    /// expected page failures stay under [`NEGLIGIBLE_FAILURES`] — the
    /// transcendental-free early-out. Young blocks (the common case in
    /// cache replay) never reach the lognormal CDF.
    onset_effective: f64,
}

impl WearModel {
    /// Builds the model from a configuration.
    pub fn new(config: WearConfig) -> Self {
        let slc = CellLifetimeModel::figure_calibrated().accelerated(config.acceleration);
        let mlc = slc.mlc();
        let p = (NEGLIGIBLE_FAILURES / CELLS_PER_PAGE as f64).clamp(1e-300, 0.5);
        WearModel {
            config,
            slc,
            mlc,
            transient: PoissonSource::new(config.transient_errors_per_read),
            onset_effective: mlc.quantile(p),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &WearConfig {
        &self.config
    }

    /// Samples a page quality offset (decades) for device construction,
    /// drawing from a [`NormalSource`] so bulk construction (one draw
    /// per physical page) keeps Box–Muller's second variate.
    pub fn sample_quality<R: Rng + ?Sized>(&self, normals: &mut NormalSource, rng: &mut R) -> f64 {
        self.config.spatial_sigma_decades * normals.sample(rng)
    }

    /// Expected cumulative failed cells in `mode` at `effective` cycles:
    /// the erase count scaled by the page's quality factor
    /// (`erases * 10^-delta`; a +delta-decade better page behaves like a
    /// younger one).
    pub fn expected_failures_effective(&self, mode: CellMode, effective: f64) -> f64 {
        let model = match mode {
            CellMode::Slc => &self.slc,
            CellMode::Mlc => &self.mlc,
        };
        CELLS_PER_PAGE as f64 * model.failure_prob(effective)
    }
}

/// Per-physical-page wear state.
///
/// Lambdas are held in `f64` so that the expected-failure budget a
/// page has consumed is compared against later evaluations without
/// round-off (with `f32` storage, round-off manufactured spurious
/// tiny-λ Poisson draws).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageWearState {
    /// Quality offset in decades (positive = better than average).
    pub quality_delta: f32,
    /// `10^-quality_delta`, precomputed so the per-read path avoids
    /// `powf`.
    quality_factor: f64,
    /// Erase count the lambdas were last evaluated at.
    last_erases: u64,
    /// Expected-failure budget already consumed, MLC curve.
    lambda_mlc: f64,
    /// Expected-failure budget already consumed, SLC curve.
    lambda_slc: f64,
    /// Permanent cell failures visible in MLC mode.
    pub fail_mlc: u32,
    /// Permanent cell failures visible in SLC mode (subset of MLC).
    pub fail_slc: u32,
}

impl Default for PageWearState {
    fn default() -> Self {
        PageWearState::with_quality(0.0)
    }
}

impl PageWearState {
    /// Creates a fresh page with the given quality offset.
    pub fn with_quality(delta: f64) -> Self {
        // Round through f32 first so the precomputed factor matches the
        // stored `quality_delta`.
        let delta = delta as f32;
        PageWearState {
            quality_delta: delta,
            quality_factor: 10f64.powf(-(delta as f64)),
            last_erases: 0,
            lambda_mlc: 0.0,
            lambda_slc: 0.0,
            fail_mlc: 0,
            fail_slc: 0,
        }
    }

    /// Permanent failures observable when reading in `mode`.
    pub fn permanent_failures(&self, mode: CellMode) -> u32 {
        match mode {
            CellMode::Slc => self.fail_slc,
            CellMode::Mlc => self.fail_mlc,
        }
    }

    /// Advances the page's permanent-failure counts to the wear level
    /// implied by `erases`, then returns the observed bit-error count of
    /// one read in `mode` (permanent + transient).
    pub fn observe_read_errors<R: Rng + ?Sized>(
        &mut self,
        model: &WearModel,
        mode: CellMode,
        erases: u64,
        rng: &mut R,
    ) -> u32 {
        self.advance(model, erases, rng);
        let transient = model.transient.sample(rng) as u32;
        (self.permanent_failures(mode) + transient).min(PAGE_CELLS)
    }

    /// Grows failure counts monotonically to match `erases` cycles.
    ///
    /// * **Erase-count memo** — failures only grow when a block is
    ///   erased, so re-reads at an unchanged (or lower) count return
    ///   immediately, drawing nothing from `rng`.
    /// * **Failure onset** — below the effective cycle count where
    ///   expected failures reach [`NEGLIGIBLE_FAILURES`], the lognormal
    ///   CDF is not evaluated and no Poisson draw is made.
    pub fn advance<R: Rng + ?Sized>(&mut self, model: &WearModel, erases: u64, rng: &mut R) {
        if erases <= self.last_erases {
            return;
        }
        self.last_erases = erases;
        let effective = erases as f64 * self.quality_factor;
        if effective < model.onset_effective {
            return;
        }
        self.grow(model, effective, rng);
    }

    /// The monotone lambda/failure growth step of
    /// [`PageWearState::advance`].
    fn grow<R: Rng + ?Sized>(&mut self, model: &WearModel, effective: f64, rng: &mut R) {
        let lm_new = model.expected_failures_effective(CellMode::Mlc, effective);
        let ls_new = model.expected_failures_effective(CellMode::Slc, effective);
        let lm_old = self.lambda_mlc;
        let ls_old = self.lambda_slc;
        if lm_new > lm_old {
            let d_mlc = poisson(rng, lm_new - lm_old);
            if d_mlc > 0 {
                // Of the newly MLC-failed cells, the fraction that also
                // fail in SLC mode follows the ratio of increments.
                let ratio = if lm_new - lm_old > 0.0 {
                    ((ls_new - ls_old) / (lm_new - lm_old)).clamp(0.0, 1.0)
                } else {
                    0.0
                };
                let d_slc = binomial(rng, d_mlc, ratio);
                self.fail_mlc = (self.fail_mlc + d_mlc as u32).min(PAGE_CELLS);
                self.fail_slc = (self.fail_slc + d_slc as u32).min(self.fail_mlc);
            }
            self.lambda_mlc = lm_new;
            self.lambda_slc = ls_new.max(ls_old);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fast_model() -> WearModel {
        // Accelerate hard so failures appear within a few hundred erases.
        WearModel::new(WearConfig::default().accelerated(1e4))
    }

    #[test]
    fn fresh_page_reads_clean() {
        let model = WearModel::new(WearConfig::default());
        let mut rng = StdRng::seed_from_u64(1);
        let mut page = PageWearState::with_quality(0.0);
        let mut total = 0;
        for _ in 0..100 {
            total += page.observe_read_errors(&model, CellMode::Mlc, 10, &mut rng);
        }
        // At 10 real cycles the permanent failure rate is effectively 0;
        // only the tiny transient rate can fire.
        assert!(total <= 1, "observed {total} errors on a fresh page");
    }

    #[test]
    fn failures_grow_with_erase_count() {
        let model = fast_model();
        let mut rng = StdRng::seed_from_u64(2);
        let mut page = PageWearState::with_quality(0.0);
        page.advance(&model, 50, &mut rng);
        let early = page.fail_mlc;
        page.advance(&model, 5_000, &mut rng);
        let late = page.fail_mlc;
        assert!(late > early, "early={early} late={late}");
    }

    #[test]
    fn failures_are_monotonic_and_consistent() {
        let model = fast_model();
        let mut rng = StdRng::seed_from_u64(3);
        let mut page = PageWearState::with_quality(0.0);
        let mut prev = 0;
        for erases in [10u64, 100, 500, 1_000, 2_000, 2_000, 1_000] {
            page.advance(&model, erases, &mut rng);
            assert!(page.fail_mlc >= prev, "non-monotonic at {erases}");
            prev = page.fail_mlc;
        }
    }

    #[test]
    fn slc_failures_never_exceed_mlc() {
        let model = fast_model();
        let mut rng = StdRng::seed_from_u64(4);
        for q in [-0.3f64, 0.0, 0.3] {
            let mut page = PageWearState::with_quality(q);
            for step in 1..40u64 {
                page.advance(&model, step * 250, &mut rng);
                assert!(page.fail_slc <= page.fail_mlc);
            }
        }
    }

    #[test]
    fn slc_mode_observes_fewer_errors_when_aged() {
        let model = fast_model();
        let mut rng = StdRng::seed_from_u64(5);
        let mut mlc_total = 0u64;
        let mut slc_total = 0u64;
        for seed in 0..40 {
            let mut rng2 = StdRng::seed_from_u64(seed);
            let mut page = PageWearState::with_quality(0.0);
            page.advance(&model, 3_000, &mut rng2);
            mlc_total += page.permanent_failures(CellMode::Mlc) as u64;
            slc_total += page.permanent_failures(CellMode::Slc) as u64;
        }
        let _ = &mut rng;
        assert!(
            slc_total < mlc_total,
            "slc={slc_total} mlc={mlc_total}: demotion must help"
        );
    }

    #[test]
    fn better_quality_pages_fail_later() {
        let model = fast_model();
        let mut good_total = 0u64;
        let mut bad_total = 0u64;
        for seed in 0..40 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut good = PageWearState::with_quality(0.5);
            good.advance(&model, 2_000, &mut rng);
            good_total += good.fail_mlc as u64;
            let mut rng = StdRng::seed_from_u64(seed + 1_000);
            let mut bad = PageWearState::with_quality(-0.5);
            bad.advance(&model, 2_000, &mut rng);
            bad_total += bad.fail_mlc as u64;
        }
        assert!(good_total < bad_total, "good={good_total} bad={bad_total}");
    }

    #[test]
    fn expected_failures_monotone_in_mode() {
        let model = WearModel::new(WearConfig::default());
        for erases in [1_000u64, 10_000, 100_000] {
            let slc = model.expected_failures_effective(CellMode::Slc, erases as f64);
            let mlc = model.expected_failures_effective(CellMode::Mlc, erases as f64);
            assert!(slc <= mlc, "erases={erases}");
        }
    }

    #[test]
    fn median_cycles_reflect_endurance_gap() {
        // An MLC page at `c` cycles has failed as far as an SLC page at
        // 10c: Table 1's endurance gap.
        let model = WearModel::new(WearConfig::default());
        for cycles in [1e4, 1e5, 1e6] {
            let mlc = model.expected_failures_effective(CellMode::Mlc, cycles);
            let slc = model.expected_failures_effective(CellMode::Slc, 10.0 * cycles);
            assert!(mlc > 0.0 && (slc / mlc - 1.0).abs() < 1e-9, "{cycles}");
        }
    }

    #[test]
    fn quality_sampling_uses_configured_sigma() {
        let model = WearModel::new(WearConfig {
            spatial_sigma_decades: 0.0,
            ..WearConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(6);
        let mut normals = NormalSource::new();
        for _ in 0..10 {
            assert_eq!(model.sample_quality(&mut normals, &mut rng), 0.0);
        }
    }
}
