//! Replay-path guarantees, end to end:
//!
//! * fixed-seed determinism — two identical runs produce byte-identical
//!   metric snapshots and identical hierarchy reports;
//! * the O(1) alias sampler draws from the same distribution as the
//!   binary-search CDF reference (two-sample chi-square);
//! * the wear memo contract — a re-read at an unchanged erase count
//!   draws nothing from the RNG and changes nothing; crossing an erase
//!   count re-evaluates.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use flashcache::nand::{FlashConfig, FlashGeometry, PageWearState, WearConfig, WearModel};
use flashcache::sim::hierarchy::{Hierarchy, HierarchyConfig};
use flashcache::trace::{Popularity, PopularitySampler};
use flashcache::{FlashCacheConfig, WorkloadSpec};

const REQUESTS: u64 = 20_000;

/// A small, worn flash tier so GC and the wear model both fire.
fn flash_config() -> FlashCacheConfig {
    FlashCacheConfig {
        flash: FlashConfig {
            geometry: FlashGeometry {
                blocks: 32,
                pages_per_block: 16,
            },
            wear: WearConfig::default().accelerated(2e5),
            ..FlashConfig::default()
        },
        ..FlashCacheConfig::default()
    }
}

/// Replays a seeded workload and returns (metrics JSON, report text).
fn replay(seed: u64) -> (String, String) {
    let mut hierarchy = Hierarchy::new(HierarchyConfig {
        dram_bytes: 256 * 2048,
        flash: Some(flash_config()),
        ..HierarchyConfig::default()
    });
    let workload = WorkloadSpec::financial1().scaled(512);
    let mut generator = workload.generator(seed);
    for _ in 0..REQUESTS {
        hierarchy.submit(generator.next_request());
    }
    hierarchy.drain();
    let metrics = hierarchy.export_metrics().to_json().render();
    let report = format!("{:?}", hierarchy.report());
    (metrics, report)
}

#[test]
fn fast_path_replay_is_deterministic() {
    let (metrics_a, report_a) = replay(7);
    let (metrics_b, report_b) = replay(7);
    assert_eq!(metrics_a, metrics_b, "metrics must be byte-identical");
    assert_eq!(report_a, report_b, "reports must be identical");
    // Different seeds must not collapse onto the same trajectory.
    let (metrics_c, _) = replay(8);
    assert_ne!(metrics_a, metrics_c, "seed must steer the run");
}

/// Two-sample chi-square between the alias sampler and the CDF oracle.
/// Pages are partitioned into fixed id-range buckets; under the null
/// hypothesis (same law) the statistic is ~chi-square(buckets-1), mean
/// 63 for 64 buckets. The seeds are fixed, so this is deterministic —
/// the generous bound guards the distribution, not the noise.
fn chi_square(law: Popularity) -> f64 {
    const FOOTPRINT: u64 = 4096;
    const BUCKETS: usize = 64;
    const DRAWS: usize = 200_000;
    let sampler = PopularitySampler::new(law, FOOTPRINT, 11);
    let mut alias_rng = StdRng::seed_from_u64(101);
    let mut cdf_rng = StdRng::seed_from_u64(202);
    let per_bucket = FOOTPRINT as usize / BUCKETS;
    let mut alias_counts = [0u64; BUCKETS];
    let mut cdf_counts = [0u64; BUCKETS];
    for _ in 0..DRAWS {
        alias_counts[sampler.sample(&mut alias_rng) as usize / per_bucket] += 1;
        cdf_counts[sampler.sample_cdf(&mut cdf_rng) as usize / per_bucket] += 1;
    }
    let mut stat = 0.0;
    for (&a, &b) in alias_counts.iter().zip(&cdf_counts) {
        let total = (a + b) as f64;
        if total > 0.0 {
            let d = a as f64 - b as f64;
            stat += d * d / total;
        }
    }
    stat
}

#[test]
fn alias_sampler_matches_cdf_oracle_zipf() {
    let stat = chi_square(Popularity::Zipf { alpha: 1.2 });
    assert!(
        stat < 150.0,
        "zipf alias vs cdf chi-square too large: {stat}"
    );
}

#[test]
fn alias_sampler_matches_cdf_oracle_exponential() {
    let stat = chi_square(Popularity::Exponential { lambda: 0.01 });
    assert!(
        stat < 150.0,
        "exp alias vs cdf chi-square too large: {stat}"
    );
}

/// The wear memo contract. A re-read at an unchanged (or lower) erase
/// count returns the same failure counts and draws nothing from the
/// RNG; crossing to a higher erase count re-evaluates — it consumes the
/// RNG and, on this schedule, grows the counts from far below onset to
/// deep wear.
#[test]
fn wear_memo_holds_until_an_erase_count_crossing() {
    let model = WearModel::new(WearConfig::default().accelerated(1e4));
    for quality in [-0.3f64, 0.0, 0.3] {
        let mut rng = StdRng::seed_from_u64(500);
        let mut page = PageWearState::with_quality(quality);
        let mut evaluations = 0;
        let mut last = 0u64;
        for erases in [1u64, 10, 50, 100, 200, 400, 800, 1_600, 3_200, 6_400] {
            let before = (page.fail_mlc, page.fail_slc);
            let next_draw = rng.clone().gen::<u64>();
            page.advance(&model, erases, &mut rng);
            evaluations += u32::from(rng.clone().gen::<u64>() != next_draw);
            assert!(
                page.fail_mlc >= before.0 && page.fail_slc >= before.1,
                "failures shrank at {erases} erases (quality {quality})"
            );
            // Unchanged and lower erase counts: nothing drawn, nothing
            // changed.
            let settled = (page.fail_mlc, page.fail_slc);
            let next_draw = rng.clone().gen::<u64>();
            for reread in [erases, last, 0] {
                page.advance(&model, reread, &mut rng);
            }
            assert_eq!((page.fail_mlc, page.fail_slc), settled);
            assert_eq!(
                rng.clone().gen::<u64>(),
                next_draw,
                "re-read at {erases} erases drew from the RNG (quality {quality})"
            );
            last = erases;
        }
        assert!(
            evaluations > 0 && page.fail_mlc > 0,
            "schedule must cross onset and reach real wear (quality {quality})"
        );
    }
}

/// Re-reads at an unchanged erase count must not perturb the observed
/// counts.
#[test]
fn cached_wear_rereads_are_stable() {
    let model = WearModel::new(WearConfig::default().accelerated(1e4));
    let mut rng = StdRng::seed_from_u64(9);
    let mut page = PageWearState::with_quality(0.0);
    page.advance(&model, 3_000, &mut rng);
    let (mlc, slc) = (page.fail_mlc, page.fail_slc);
    for _ in 0..1_000 {
        page.advance(&model, 3_000, &mut rng);
    }
    assert_eq!((page.fail_mlc, page.fail_slc), (mlc, slc));
}
