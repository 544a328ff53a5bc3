//! Property-based tests of trace generation: bounds, determinism, and
//! distribution-level contracts.

use proptest::prelude::*;
use rand::SeedableRng;

use disk_trace::{Popularity, PopularitySampler, RankCdf, TraceStats, WorkloadSpec};

fn any_popularity() -> impl Strategy<Value = Popularity> {
    prop_oneof![
        Just(Popularity::Uniform),
        (0.2f64..2.0).prop_map(|alpha| Popularity::Zipf { alpha }),
        (1e-4f64..0.5).prop_map(|lambda| Popularity::Exponential { lambda }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Samples always land inside the footprint, for every law.
    #[test]
    fn samples_in_range(
        law in any_popularity(),
        footprint in 1u64..5_000,
        seed in any::<u64>(),
    ) {
        let sampler = PopularitySampler::new(law, footprint, seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..200 {
            prop_assert!(sampler.sample(&mut rng) < footprint);
        }
    }

    /// Coverage is a monotone CDF hitting exactly 1 at the footprint.
    #[test]
    fn coverage_is_monotone_cdf(
        law in any_popularity(),
        footprint in 2u64..3_000,
    ) {
        let cdf = RankCdf::new(law, footprint);
        let mut prev = 0.0;
        let step = (footprint / 16).max(1);
        let mut r = 0;
        while r <= footprint {
            let c = cdf.coverage(r);
            prop_assert!(c >= prev - 1e-12);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&c));
            prev = c;
            r += step;
        }
        prop_assert!((cdf.coverage(footprint) - 1.0).abs() < 1e-9);
    }

    /// Rank probabilities are non-increasing and sum to one.
    #[test]
    fn rank_probabilities_form_a_distribution(
        law in any_popularity(),
        footprint in 2u64..800,
    ) {
        let cdf = RankCdf::new(law, footprint);
        let mut sum = 0.0;
        let mut prev = f64::INFINITY;
        for r in 0..footprint as usize {
            let p = cdf.rank_probability(r);
            prop_assert!(p <= prev + 1e-12);
            prop_assert!(p >= 0.0);
            sum += p;
            prev = p;
        }
        prop_assert!((sum - 1.0).abs() < 1e-6);
    }

    /// Generated requests always stay within the footprint and respect
    /// the spec's write fraction within statistical tolerance.
    #[test]
    fn generator_respects_spec(seed in any::<u64>(), which in 0usize..12) {
        let spec = WorkloadSpec::all().remove(which).scaled(512);
        let reqs: Vec<_> = spec.generator(seed).take(2_000).collect();
        for r in &reqs {
            prop_assert!(r.page + r.len as u64 <= spec.footprint_pages);
            prop_assert!(r.len >= 1);
        }
        let stats: TraceStats = reqs.into_iter().collect();
        prop_assert!(
            (stats.write_fraction() - spec.write_fraction).abs() < 0.06,
            "{}: write fraction {} vs spec {}",
            spec.name,
            stats.write_fraction(),
            spec.write_fraction
        );
    }

    /// Two generators with the same seed emit identical traces; a
    /// different seed diverges quickly.
    #[test]
    fn determinism(seed in any::<u64>(), which in 0usize..12) {
        let spec = WorkloadSpec::all().remove(which).scaled(1024);
        let a: Vec<_> = spec.generator(seed).take(100).collect();
        let b: Vec<_> = spec.generator(seed).take(100).collect();
        prop_assert_eq!(&a, &b);
        let c: Vec<_> = spec.generator(seed.wrapping_add(1)).take(100).collect();
        prop_assert_ne!(&a, &c);
    }
}
