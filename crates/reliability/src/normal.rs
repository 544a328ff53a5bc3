//! Standard normal distribution math: CDF, quantile, and Poisson tails.
//!
//! Implemented from scratch (no external stats crates): the CDF via a
//! high-accuracy `erfc` rational approximation and the quantile via
//! Acklam's inverse-normal algorithm refined with one Halley step.

use std::f64::consts::SQRT_2;

/// Complementary error function, accurate to better than 1e-12 relative
/// over the useful range. Uses the Maclaurin series of `erf` for small
/// arguments and the classical continued fraction for the tail.
pub fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        return 2.0 - erfc(-x);
    }
    if x < 1.5 {
        1.0 - erf_series(x)
    } else {
        (-x * x).exp() * cf_erfc_scaled(x)
    }
}

/// Scaled complementary error function `erfc(x)·exp(x²)`: the Laplace
/// continued fraction `1/(x + (1/2)/(x + 1/(x + (3/2)/(x + ...))))` over
/// `√π`, evaluated bottom-up from depth `min(80, ⌈200/x⌉)` — bit for bit
/// depth 80's value over `x ≥ 1.5` (pinned against a depth-80 oracle).
fn cf_erfc_scaled(x: f64) -> f64 {
    let (mut f, mut half_k) = (0.0, (200.0 / x).ceil().min(80.0) / 2.0);
    while half_k > 0.0 {
        f = half_k / (x + f);
        half_k -= 0.5;
    }
    (1.0 / (x + f)) / std::f64::consts::PI.sqrt()
}

/// erf via its Maclaurin series (rapid convergence for |x| ≲ 1.5).
fn erf_series(x: f64) -> f64 {
    let mut term = x;
    let mut sum = x;
    let x2 = x * x;
    for n in 1..60 {
        term *= -x2 / n as f64;
        let add = term / (2 * n + 1) as f64;
        sum += add;
        if add.abs() < 1e-17 * sum.abs() {
            break;
        }
    }
    sum * 2.0 / std::f64::consts::PI.sqrt()
}

/// Standard normal cumulative distribution function Φ(z).
///
/// # Examples
///
/// ```
/// use flash_reliability::normal::phi;
/// assert!((phi(0.0) - 0.5).abs() < 1e-12);
/// assert!((phi(1.959963984540054) - 0.975).abs() < 1e-9);
/// ```
pub fn phi(z: f64) -> f64 {
    0.5 * erfc(-z / SQRT_2)
}

/// Inverse standard normal CDF (the quantile function Φ⁻¹).
///
/// Uses Acklam's rational approximation refined with one Halley step,
/// giving ~1e-13 accuracy across (0, 1).
///
/// # Panics
///
/// Panics if `p` is not strictly inside `(0, 1)`.
pub fn phi_inv(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "phi_inv requires 0 < p < 1, got {p}");
    // Acklam's coefficients.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    // One Halley refinement step using the true CDF.
    let e = phi(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// Standard normal probability density function.
pub fn pdf(z: f64) -> f64 {
    (-z * z / 2.0).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Upper tail of a Poisson distribution: `P(X > k)` for `X ~ Poisson(λ)`.
///
/// Used as the page-unrecoverability probability when `N·p` cell failures
/// are expected and the ECC corrects up to `k` of them. Computed by
/// summing the lower tail in stable log space for small λ, and via a
/// normal approximation with continuity correction for large λ.
pub fn poisson_upper_tail(lambda: f64, k: usize) -> f64 {
    if lambda <= 0.0 {
        return 0.0;
    }
    if lambda < 700.0 {
        // Direct summation of P(X <= k).
        let mut term = (-lambda).exp(); // P(X=0)
        let mut cdf = term;
        for i in 1..=k {
            term *= lambda / i as f64;
            cdf += term;
            if term < 1e-320 {
                break;
            }
        }
        (1.0 - cdf).max(0.0)
    } else {
        // Normal approximation.
        let z = (k as f64 + 0.5 - lambda) / lambda.sqrt();
        1.0 - phi(z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phi_known_values() {
        // Classic z-table anchors.
        let cases = [
            (0.0, 0.5),
            (1.0, 0.8413447460685429),
            (-1.0, 0.15865525393145707),
            (2.0, 0.9772498680518208),
            (-3.0, 0.0013498980316300933),
            (-3.719016485455709, 1e-4),
        ];
        for (z, p) in cases {
            let got = phi(z);
            assert!((got - p).abs() < 2e-9, "phi({z}) = {got}, expected {p}");
        }
    }

    #[test]
    fn phi_inv_round_trips() {
        for &p in &[1e-9, 1e-6, 1e-4, 0.01, 0.3, 0.5, 0.7, 0.99, 1.0 - 1e-6] {
            let z = phi_inv(p);
            assert!((phi(z) - p).abs() < 1e-9 * p.max(1e-3), "p={p} z={z}");
        }
    }

    #[test]
    fn phi_inv_symmetry() {
        for &p in &[0.01, 0.1, 0.25, 0.4] {
            assert!((phi_inv(p) + phi_inv(1.0 - p)).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "requires 0 < p < 1")]
    fn phi_inv_rejects_zero() {
        phi_inv(0.0);
    }

    #[test]
    fn erfc_basic_identities() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-12);
        for &x in &[0.1, 0.5, 1.0, 2.0, 3.0] {
            assert!((erfc(x) + erfc(-x) - 2.0).abs() < 1e-10, "x={x}");
        }
        // erfc(1) = 0.15729920705028513...
        assert!((erfc(1.0) - 0.157299207050285).abs() < 1e-9);
    }

    /// `erfc` with the continued fraction at a fixed depth of 80.
    fn erfc_depth80(x: f64) -> f64 {
        if x < 0.0 {
            return 2.0 - erfc_depth80(-x);
        }
        if x < 1.5 {
            return 1.0 - erf_series(x);
        }
        let mut f = 0.0;
        for k in (1..=80).rev() {
            f = (k as f64 / 2.0) / (x + f);
        }
        (-x * x).exp() * ((1.0 / (x + f)) / std::f64::consts::PI.sqrt())
    }

    #[test]
    fn erfc_depth_schedule_matches_depth_80_bit_for_bit() {
        // A dense grid over the continued fraction's range, through the
        // point where exp(−x²) underflows (x ≈ 27.3), then far tails
        // and negative arguments.
        let n = 260_000;
        let grid = (0..=n).map(|i| 1.5 + 26.0 * f64::from(i) / f64::from(n));
        let tails = [27.5, 30.0, 40.0, 200.0, 1e4, f64::INFINITY];
        for x in grid.chain(tails) {
            assert_eq!(erfc(x).to_bits(), erfc_depth80(x).to_bits(), "x={x}");
            assert_eq!(erfc(-x).to_bits(), erfc_depth80(-x).to_bits(), "x=-{x}");
        }
    }

    #[test]
    fn poisson_tail_matches_exact_small_cases() {
        // lambda=1, k=0: P(X>0) = 1 - e^-1
        assert!((poisson_upper_tail(1.0, 0) - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
        // lambda=2, k=2: 1 - e^-2 (1 + 2 + 2)
        let expect = 1.0 - (-2.0f64).exp() * 5.0;
        assert!((poisson_upper_tail(2.0, 2) - expect).abs() < 1e-12);
        // Zero lambda never fails.
        assert_eq!(poisson_upper_tail(0.0, 3), 0.0);
    }

    #[test]
    fn poisson_tail_monotonic() {
        // Tail decreases with k, increases with lambda.
        let mut prev = 1.0;
        for k in 0..20 {
            let p = poisson_upper_tail(3.0, k);
            assert!(p < prev);
            prev = p;
        }
        let mut prev = 0.0;
        for i in 1..50 {
            let p = poisson_upper_tail(i as f64 * 0.5, 5);
            assert!(p >= prev);
            prev = p;
        }
    }

    #[test]
    fn pdf_integrates_to_cdf_increment() {
        // Midpoint-rule check of d(phi) ≈ pdf over a small interval.
        let a = 0.7;
        let h = 1e-5;
        let numeric = (phi(a + h) - phi(a - h)) / (2.0 * h);
        assert!((numeric - pdf(a)).abs() < 1e-7);
    }
}
