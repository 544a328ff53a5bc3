//! Flash wear-out lifetime models (paper §4.1.3, Figure 6(b)).
//!
//! The paper models cell lifetime as an exponential function of oxide
//! thickness, `W = 10^(C1·tox)`, with `tox` normally distributed. Under
//! that model `log10(lifetime)` is itself normal, so we parameterize
//! directly in *decades*: a cell's lifetime in W/E cycles is
//! `10^(m + s·Z)` with `Z ~ N(0,1)`.
//!
//! Two calibrations are provided:
//!
//! * [`CellLifetimeModel::strict_paper`] — the literal §4.1.3 reading:
//!   `P(cell fails by 100,000 cycles) = 1e-4` and oxide thickness with
//!   3σ = 15% of mean, giving `m = 6.142`, `s = 0.307`.
//! * [`CellLifetimeModel::figure_calibrated`] (the default) — anchored on
//!   the published page-level curve instead: ≈1e5 cycles at t=0 rising to
//!   ≈8e6 at t=10 for zero spatial variation, giving `m = 10.21`,
//!   `s = 0.917`. The paper's full derivation lives in a thesis we cannot
//!   consult; this calibration recovers the published curve exactly where
//!   the paper reports it.

use crate::normal::{phi, phi_inv, poisson_upper_tail};

/// Number of bit cells protected together in one 2KB flash page
/// (2048 data + 64 spare bytes).
pub const CELLS_PER_PAGE: usize = (2048 + 64) * 8;

/// Lognormal (base-10) lifetime distribution of a single flash cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellLifetimeModel {
    /// Median of `log10(lifetime in W/E cycles)`.
    pub log10_median: f64,
    /// Standard deviation of `log10(lifetime)`, in decades.
    pub sigma_decades: f64,
}

/// z-score of the 1e-4 quantile, used by both calibrations.
const Z_1E4: f64 = -3.719016485455709;

impl CellLifetimeModel {
    /// Literal §4.1.3 calibration: `P(fail by 1e5) = 1e-4`, oxide
    /// thickness 3σ = 15% of mean (`σ/µ = 0.05`).
    pub fn strict_paper() -> Self {
        // 5 = m·(1 + 0.05·z) with z = z(1e-4)  =>  m = 5 / (1 + 0.05·z).
        let m = 5.0 / (1.0 + 0.05 * Z_1E4);
        CellLifetimeModel {
            log10_median: m,
            sigma_decades: 0.05 * m,
        }
    }

    /// Calibration matched to Figure 6(b): the paper states "first point
    /// of failure to occur at 100,000 W/E cycles" for a 2KB page, and its
    /// published curve rises to ≈8e6 cycles at t = 10. Solving the
    /// two-point system under the page-level 1e-4 reliability target
    /// (`W(t=0) = 1e5`, `W(t=10) = 8e6` in [`PageLifetimeModel`]) gives
    /// `m = 10.214`, `s = 0.9165` decades. The implied relative oxide
    /// spread is ~9% of mean rather than the strict 5%; the paper's full
    /// derivation is in a thesis (reference \[15\]) we cannot consult, so we anchor on
    /// the published curve itself.
    pub fn figure_calibrated() -> Self {
        CellLifetimeModel {
            log10_median: 10.214,
            sigma_decades: 0.9165,
        }
    }

    /// Probability that a cell has failed by `cycles` W/E cycles.
    ///
    /// Returns 0 for non-positive cycle counts.
    pub fn failure_prob(&self, cycles: f64) -> f64 {
        if cycles <= 0.0 {
            return 0.0;
        }
        phi((cycles.log10() - self.log10_median) / self.sigma_decades)
    }

    /// Inverse of [`Self::failure_prob`]: the W/E cycle count by which a
    /// fraction `p` of cells has failed.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not strictly inside `(0, 1)`.
    pub fn quantile(&self, p: f64) -> f64 {
        10f64.powf(self.log10_median + self.sigma_decades * phi_inv(p))
    }

    /// Returns this model with every lifetime divided by `factor`.
    ///
    /// Used for accelerated-wear simulation (Figure 12): normalized
    /// lifetime ratios are invariant under uniform scaling, so dividing
    /// endurance by e.g. 1000 makes whole-device-lifetime simulations
    /// tractable without changing any reported ratio.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive.
    #[must_use]
    pub fn accelerated(self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "acceleration factor must be positive, got {factor}"
        );
        CellLifetimeModel {
            log10_median: self.log10_median - factor.log10(),
            ..self
        }
    }

    /// The MLC variant of this (SLC) model: Table 1 gives MLC endurance
    /// as 10× worse than SLC (1e4 vs 1e5 W/E cycles).
    #[must_use]
    pub fn mlc(self) -> Self {
        self.accelerated(10.0)
    }
}

impl Default for CellLifetimeModel {
    fn default() -> Self {
        CellLifetimeModel::figure_calibrated()
    }
}

/// Maximum acceptable probability that a page is unrecoverable — the
/// paper's reliability target defining "max tolerable W/E cycles".
pub const TARGET_UNRECOVERABLE_PROB: f64 = 1e-4;

/// Page-level lifetime under a given ECC strength, including page-to-page
/// spatial variation (Figure 6(b)).
///
/// A page of [`CELLS_PER_PAGE`] cells is *unrecoverable* once more cells
/// have failed than the ECC can correct. Spatial correlation is modelled as a per-page lifetime offset
/// `δ` (in decades) drawn from `N(0, spatial_sigma_decades)`: a bad page
/// has *all* its cells shifted toward early failure, which is exactly the
/// clustering effect the paper describes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageLifetimeModel {
    /// Per-cell lifetime distribution.
    pub cell: CellLifetimeModel,
    /// Spatial (page-to-page) standard deviation, in decades of lifetime.
    pub spatial_sigma_decades: f64,
}

impl PageLifetimeModel {
    /// A page model over `cell` with no spatial variation.
    pub fn new(cell: CellLifetimeModel) -> Self {
        PageLifetimeModel {
            cell,
            spatial_sigma_decades: 0.0,
        }
    }

    /// Sets the spatial standard deviation as a *fraction of the mean*
    /// oxide thickness, matching Figure 6(b)'s "stdev = x% of mean"
    /// series. Internally converted to decades via `C1·(frac·µ)
    /// = frac·log10_median`.
    #[must_use]
    pub fn with_spatial_stdev_frac(mut self, frac: f64) -> Self {
        assert!(frac >= 0.0, "spatial stdev fraction must be non-negative");
        self.spatial_sigma_decades = frac * self.cell.log10_median;
        self
    }

    /// Probability that a page protected by strength-`t` ECC is
    /// unrecoverable after `cycles` W/E cycles.
    ///
    /// Computed as `E_δ[ P(Poisson(N·p(cycles·10^δ)) > t) ]`, integrating
    /// the per-page offset `δ` over ±5σ with a trapezoid rule (the Poisson
    /// approximation to the binomial is excellent at these cell-failure
    /// probabilities).
    pub fn unrecoverable_prob(&self, t: usize, cycles: f64) -> f64 {
        if cycles <= 0.0 {
            return 0.0;
        }
        let n = CELLS_PER_PAGE as f64;
        let page_fail = |delta: f64| {
            // Shifting the page's lifetime by +delta decades is the same
            // as evaluating the cell CDF at cycles·10^(-delta).
            let eff = cycles.log10() - delta;
            let p = phi((eff - self.cell.log10_median) / self.cell.sigma_decades);
            poisson_upper_tail(n * p, t)
        };
        if self.spatial_sigma_decades == 0.0 {
            return page_fail(0.0);
        }
        // Trapezoid over the normal weight; 401 points over ±5σ.
        let sigma = self.spatial_sigma_decades;
        let steps = 400;
        let lo = -5.0 * sigma;
        let hi = 5.0 * sigma;
        let h = (hi - lo) / steps as f64;
        let mut acc = 0.0;
        for i in 0..=steps {
            let d = lo + h * i as f64;
            let w = crate::normal::pdf(d / sigma) / sigma;
            let v = w * page_fail(d);
            acc += if i == 0 || i == steps { v / 2.0 } else { v };
        }
        (acc * h).min(1.0)
    }

    /// Maximum W/E cycles at which a strength-`t` page still meets
    /// [`TARGET_UNRECOVERABLE_PROB`] — the y-axis of Figure 6(b).
    ///
    /// Found by bisection over `log10(cycles)`; returns 0 if even a
    /// single cycle violates the target (possible with extreme spatial
    /// variation).
    pub fn max_tolerable_cycles(&self, t: usize) -> f64 {
        let target = TARGET_UNRECOVERABLE_PROB;
        let mut lo = -2.0f64; // log10 cycles
        let mut hi = self.cell.log10_median + 6.0;
        if self.unrecoverable_prob(t, 10f64.powf(lo)) > target {
            return 0.0;
        }
        debug_assert!(self.unrecoverable_prob(t, 10f64.powf(hi)) > target);
        for _ in 0..60 {
            let mid = (lo + hi) / 2.0;
            if self.unrecoverable_prob(t, 10f64.powf(mid)) > target {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        10f64.powf(lo)
    }
}

impl Default for PageLifetimeModel {
    fn default() -> Self {
        PageLifetimeModel::new(CellLifetimeModel::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strict_calibration_hits_anchor() {
        let m = CellLifetimeModel::strict_paper();
        assert!((m.failure_prob(1e5) - 1e-4).abs() < 1e-6);
        // sigma is 5% of the median decades (3σ = 15%).
        assert!((m.sigma_decades / m.log10_median - 0.05).abs() < 1e-12);
    }

    #[test]
    fn figure_calibration_hits_page_anchor() {
        // "First point of failure at 100,000 W/E cycles" for a 2KB page:
        // the t=0 max-tolerable-cycles of the page model lands near 1e5.
        let page = PageLifetimeModel::new(CellLifetimeModel::figure_calibrated());
        let w0 = page.max_tolerable_cycles(0);
        assert!((0.5e5..=2.0e5).contains(&w0), "W(0) = {w0:.3e}");
    }

    #[test]
    fn failure_prob_is_monotonic_cdf() {
        let m = CellLifetimeModel::default();
        assert_eq!(m.failure_prob(0.0), 0.0);
        assert_eq!(m.failure_prob(-5.0), 0.0);
        let mut prev = 0.0;
        for i in 1..60 {
            let w = 10f64.powf(i as f64 / 5.0);
            let p = m.failure_prob(w);
            assert!(p >= prev);
            prev = p;
        }
        assert!((m.failure_prob(1e30) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn quantile_inverts_failure_prob() {
        let m = CellLifetimeModel::default();
        for &p in &[1e-6, 1e-4, 0.01, 0.5, 0.99] {
            let w = m.quantile(p);
            assert!((m.failure_prob(w) - p).abs() / p < 1e-6, "p={p}");
        }
    }

    #[test]
    fn acceleration_scales_lifetimes_uniformly() {
        let m = CellLifetimeModel::default();
        let fast = m.accelerated(1000.0);
        for &p in &[1e-4, 0.1, 0.5] {
            let ratio = m.quantile(p) / fast.quantile(p);
            assert!((ratio - 1000.0).abs() < 1e-6, "p={p} ratio={ratio}");
        }
    }

    #[test]
    fn mlc_is_ten_times_worse() {
        let slc = CellLifetimeModel::default();
        let mlc = slc.mlc();
        assert!((slc.quantile(1e-4) / mlc.quantile(1e-4) - 10.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn acceleration_rejects_zero() {
        let _ = CellLifetimeModel::default().accelerated(0.0);
    }

    #[test]
    fn figure_6b_zero_stdev_range() {
        // The published curve: ~1e5 at t=0 rising to ~8e6 at t=10.
        let page = PageLifetimeModel::default();
        let w0 = page.max_tolerable_cycles(0);
        let w10 = page.max_tolerable_cycles(10);
        assert!(
            (0.4e5..=2.5e5).contains(&w0),
            "t=0 gives {w0:.3e}, expected ~1e5"
        );
        assert!(
            (4e6..=1.6e7).contains(&w10),
            "t=10 gives {w10:.3e}, expected ~8e6"
        );
    }

    #[test]
    fn lifetime_increases_with_strength_with_diminishing_returns() {
        let page = PageLifetimeModel::default();
        let w: Vec<f64> = (0..=10).map(|t| page.max_tolerable_cycles(t)).collect();
        for i in 1..w.len() {
            assert!(w[i] > w[i - 1], "t={i}");
        }
        // Diminishing returns in ratio terms.
        let early_gain = w[2] / w[1];
        let late_gain = w[10] / w[9];
        assert!(late_gain < early_gain);
    }

    #[test]
    fn spatial_variation_lowers_the_curve() {
        let base = PageLifetimeModel::default();
        let s05 = base.with_spatial_stdev_frac(0.05);
        let s20 = base.with_spatial_stdev_frac(0.20);
        for t in [1usize, 5, 10] {
            let w0 = base.max_tolerable_cycles(t);
            let w5 = s05.max_tolerable_cycles(t);
            let w20 = s20.max_tolerable_cycles(t);
            assert!(w5 < w0, "t={t}: stdev 5% should lower lifetime");
            assert!(w20 < w5, "t={t}: stdev 20% should be lower still");
        }
    }

    #[test]
    fn unrecoverable_prob_monotonic_in_cycles_and_strength() {
        let page = PageLifetimeModel::default().with_spatial_stdev_frac(0.05);
        let mut prev = 0.0;
        for i in 0..20 {
            let w = 10f64.powf(3.0 + i as f64 * 0.25);
            let p = page.unrecoverable_prob(3, w);
            assert!(p >= prev - 1e-12);
            prev = p;
        }
        let w = 2e5;
        let mut prev = 1.0;
        for t in 0..8 {
            let p = page.unrecoverable_prob(t, w);
            assert!(p <= prev + 1e-12, "t={t}");
            prev = p;
        }
    }
}
