//! Small random sampling helpers (Poisson, binomial) used by the wear
//! model's bit-error injection. Implemented here to avoid pulling in a
//! statistics crate.

use rand::Rng;

/// Samples a Poisson(λ) variate: [`PoissonSource::sample`] for a
/// one-off rate.
pub fn poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> u64 {
    PoissonSource::new(lambda).sample(rng)
}

/// Samples a Binomial(n, p) variate.
///
/// Direct Bernoulli summation for small `n`, normal approximation
/// otherwise. `p` is clamped to `[0, 1]`.
pub fn binomial<R: Rng + ?Sized>(rng: &mut R, n: u64, p: f64) -> u64 {
    let p = p.clamp(0.0, 1.0);
    if n == 0 || p == 0.0 {
        return 0;
    }
    if p == 1.0 {
        return n;
    }
    if n <= 64 {
        (0..n).filter(|_| rng.gen::<f64>() < p).count() as u64
    } else {
        let mean = n as f64 * p;
        let sd = (n as f64 * p * (1.0 - p)).sqrt();
        let v = mean + sd * normal(rng) + 0.5;
        (v.max(0.0) as u64).min(n)
    }
}

/// Standard normal variate via Box–Muller.
///
/// Stateless form: the transform's second (sine) variate is discarded,
/// so every call pays the full `ln`/`sqrt`/`cos`. Loops drawing many
/// normals should use [`NormalSource`], which keeps the pair.
pub fn normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Stateful Box–Muller source that keeps the transform's second
/// variate instead of discarding it.
///
/// Box–Muller turns two uniforms into two independent normals (cosine
/// and sine of the same angle); [`normal`] throws the sine one away.
/// `NormalSource` returns it on the next call, halving the
/// `ln`/`sqrt` and uniform-draw cost of bulk sampling — two uniforms
/// per *pair* rather than per variate, which also means its stream
/// consumption differs from back-to-back [`normal`] calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct NormalSource {
    spare: Option<f64>,
}

impl NormalSource {
    /// A source with no cached variate.
    pub fn new() -> Self {
        NormalSource::default()
    }

    /// Draws one standard normal variate.
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen();
        let r = (-2.0 * u1.ln()).sqrt();
        let (sin, cos) = (2.0 * std::f64::consts::PI * u2).sin_cos();
        self.spare = Some(r * sin);
        r * cos
    }
}

/// A Poisson(λ) source with `exp(-λ)` precomputed once: for a fixed
/// rate (the per-read transient-error draw) that transcendental would
/// dominate the draw itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoissonSource {
    lambda: f64,
    /// `exp(-lambda)`, the small-λ loop's termination threshold.
    exp_neg_lambda: f64,
}

impl PoissonSource {
    /// A source for rate `lambda` (values `<= 0` always sample 0).
    pub fn new(lambda: f64) -> Self {
        PoissonSource {
            lambda,
            exp_neg_lambda: (-lambda).exp(),
        }
    }

    /// The configured rate.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Draws one Poisson(λ) variate: Knuth's product-of-uniforms method
    /// for small λ, a clamped normal approximation with continuity
    /// correction for large λ (where individual-count accuracy no longer
    /// matters for error injection).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.lambda <= 0.0 {
            return 0;
        }
        if self.lambda < 30.0 {
            let l = self.exp_neg_lambda;
            let mut k = 0u64;
            let mut p = 1.0;
            loop {
                p *= rng.gen::<f64>();
                if p <= l {
                    return k;
                }
                k += 1;
                if k > 1_000 {
                    return k; // numeric guard; unreachable for lambda < 30
                }
            }
        }
        let z = normal(rng);
        let v = self.lambda + self.lambda.sqrt() * z + 0.5;
        if v < 0.0 {
            0
        } else {
            v as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn poisson_mean_small_lambda() {
        let mut rng = StdRng::seed_from_u64(1);
        let lambda = 3.5;
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| poisson(&mut rng, lambda)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - lambda).abs() < 0.1, "mean={mean}");
    }

    #[test]
    fn poisson_mean_large_lambda() {
        let mut rng = StdRng::seed_from_u64(2);
        let lambda = 250.0;
        let n = 5_000;
        let sum: u64 = (0..n).map(|_| poisson(&mut rng, lambda)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - lambda).abs() < 2.0, "mean={mean}");
    }

    #[test]
    fn poisson_zero_lambda() {
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(poisson(&mut rng, 0.0), 0);
        assert_eq!(poisson(&mut rng, -1.0), 0);
    }

    #[test]
    fn binomial_edges() {
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(binomial(&mut rng, 0, 0.5), 0);
        assert_eq!(binomial(&mut rng, 10, 0.0), 0);
        assert_eq!(binomial(&mut rng, 10, 1.0), 10);
        assert_eq!(binomial(&mut rng, 10, 2.0), 10); // clamped
    }

    #[test]
    fn binomial_mean_small_and_large_n() {
        let mut rng = StdRng::seed_from_u64(5);
        let reps = 20_000;
        let sum: u64 = (0..reps).map(|_| binomial(&mut rng, 20, 0.3)).sum();
        let mean = sum as f64 / reps as f64;
        assert!((mean - 6.0).abs() < 0.1, "small-n mean={mean}");
        let sum: u64 = (0..reps).map(|_| binomial(&mut rng, 1000, 0.3)).sum();
        let mean = sum as f64 / reps as f64;
        assert!((mean - 300.0).abs() < 2.0, "large-n mean={mean}");
    }

    #[test]
    fn binomial_never_exceeds_n() {
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..1000 {
            assert!(binomial(&mut rng, 100, 0.99) <= 100);
        }
    }

    #[test]
    fn poisson_source_zero_lambda() {
        let mut rng = StdRng::seed_from_u64(8);
        assert_eq!(PoissonSource::new(0.0).sample(&mut rng), 0);
        assert_eq!(PoissonSource::new(-1.0).sample(&mut rng), 0);
        assert_eq!(PoissonSource::new(2.5).lambda(), 2.5);
    }

    #[test]
    fn normal_source_mean_variance_and_pairing() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut src = NormalSource::new();
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| src.sample(&mut rng)).collect();
        let mean: f64 = samples.iter().sum::<f64>() / n as f64;
        let var: f64 = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean={mean}");
        assert!((var - 1.0).abs() < 0.05, "var={var}");
        // The cosine variate of each pair matches the stateless sampler;
        // the sine variate comes "for free" without advancing the rng.
        let mut ra = StdRng::seed_from_u64(10);
        let mut rb = StdRng::seed_from_u64(10);
        let mut src = NormalSource::new();
        for _ in 0..100 {
            assert_eq!(src.sample(&mut ra), normal(&mut rb));
            let before = ra.clone().gen::<u64>();
            let _free = src.sample(&mut ra);
            assert_eq!(ra.gen::<u64>(), before, "sine variate must not draw");
            rb.gen::<u64>(); // keep rb aligned for the next pair
        }
    }

    #[test]
    fn normal_mean_and_variance() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut rng)).collect();
        let mean: f64 = samples.iter().sum::<f64>() / n as f64;
        let var: f64 = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean={mean}");
        assert!((var - 1.0).abs() < 0.05, "var={var}");
    }
}
