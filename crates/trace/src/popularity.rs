//! Page-popularity distributions for synthetic workloads.
//!
//! The paper's micro-benchmarks (Table 4) draw disk accesses from
//! uniform, Zipf (α = 0.8/1.2/1.6), and exponential (λ = 0.01/0.1)
//! distributions, arguing that macro workloads behave like tailed
//! distributions. Samplers here map a *rank* distribution onto disk
//! pages through a pseudorandom permutation so hot pages are scattered
//! across the address space like real file systems. A
//! [`PopularitySampler`] holds only its alias table (16 bytes per page);
//! the law's mass by rank is a [`RankCdf`], which needs no seed.

use rand::Rng;

/// Popularity law over `footprint` pages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Popularity {
    /// Every page equally likely.
    Uniform,
    /// Zipf with exponent `alpha`: rank `i` has weight `(i+1)^-alpha`.
    Zipf {
        /// Tail exponent (the paper uses 0.8, 1.2, 1.6).
        alpha: f64,
    },
    /// Exponential decay: rank `i` has weight `e^(-lambda·i)`.
    Exponential {
        /// Decay rate (the paper uses 0.01 and 0.1).
        lambda: f64,
    },
}

/// A sampler of page numbers in `0..footprint` following a
/// [`Popularity`] law.
///
/// # Examples
///
/// ```
/// use disk_trace::popularity::{Popularity, PopularitySampler};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let sampler = PopularitySampler::new(Popularity::Zipf { alpha: 1.2 }, 10_000, 7);
/// let mut rng = StdRng::seed_from_u64(42);
/// let page = sampler.sample(&mut rng);
/// assert!(page < 10_000);
/// ```
#[derive(Debug, Clone)]
pub struct PopularitySampler {
    law: Popularity,
    footprint: u64,
    /// Walker alias table with the rank→page permutation pre-applied
    /// (empty for Uniform).
    alias_table: Vec<AliasSlot>,
}

/// One packed Walker alias row: the acceptance threshold plus both
/// candidate *pages* (self and alias) with the rank→page permutation
/// already applied. A draw therefore touches a single 16-byte slot —
/// one cache line — instead of three separate multi-MB arrays
/// (threshold, alias rank, permutation). Before the permutation is
/// applied the two fields hold ranks.
#[derive(Debug, Clone, Copy)]
struct AliasSlot {
    /// Acceptance threshold: a fraction below it returns `page`.
    prob: f64,
    /// The permuted page of this row's own rank.
    page: u32,
    /// The permuted page of the row's alias rank.
    alias_page: u32,
}

impl PopularitySampler {
    /// Builds a sampler over `footprint` pages whose rank→page
    /// permutation is drawn from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `footprint` is zero or exceeds `u32::MAX` pages
    /// (8TB at 2KB pages — far beyond the paper's working sets).
    pub fn new(law: Popularity, footprint: u64, seed: u64) -> Self {
        PopularitySampler::by_rank(law, footprint).permuted(seed)
    }

    /// The sampler before [`PopularitySampler::permuted`]: its rows
    /// name ranks, so two rankings of one law can share them.
    pub(crate) fn by_rank(law: Popularity, footprint: u64) -> Self {
        check_footprint(footprint);
        let alias_table = match law {
            Popularity::Uniform => Vec::new(),
            _ => build_alias(law, footprint),
        };
        PopularitySampler {
            law,
            footprint,
            alias_table,
        }
    }

    /// Maps both candidates of every row of a rank-ordered sampler
    /// through the [`permutation`] drawn from `seed`.
    pub(crate) fn permuted(mut self, seed: u64) -> Self {
        if !self.alias_table.is_empty() {
            let permutation = permutation(self.footprint, seed);
            for slot in &mut self.alias_table {
                slot.page = permutation[slot.page as usize];
                slot.alias_page = permutation[slot.alias_page as usize];
            }
        }
        self
    }

    /// Draws one page number in O(1) via the Walker alias table.
    ///
    /// Consumes exactly one uniform per draw — the same as the
    /// inverse-CDF draw it is tested against — but replaces the O(log n)
    /// binary search over the (cache-hostile, multi-MB) CDF with a
    /// single indexed load of one packed alias row: the uniform is split
    /// into a table row and an acceptance fraction.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        match self.law {
            Popularity::Uniform => rng.gen_range(0..self.footprint),
            _ => {
                let x = rng.gen::<f64>() * self.alias_table.len() as f64;
                let i = (x as usize).min(self.alias_table.len() - 1);
                let slot = &self.alias_table[i];
                let frac = x - i as f64;
                let page = if frac < slot.prob {
                    slot.page
                } else {
                    slot.alias_page
                };
                page as u64
            }
        }
    }
}

/// The cumulative probability of a [`Popularity`] law by rank over a
/// footprint, as the analytic Figure 7 model reads it: no permutation,
/// no seed.
#[derive(Debug, Clone)]
pub struct RankCdf {
    /// Cumulative mass by rank; the last entry is exactly 1.
    cdf: Vec<f64>,
}

impl RankCdf {
    /// Builds the rank CDF of `law` over `footprint` pages; panics as
    /// [`PopularitySampler::new`] does.
    pub fn new(law: Popularity, footprint: u64) -> Self {
        check_footprint(footprint);
        let mut total = 0.0;
        let mut cdf: Vec<f64> = rank_weights(law, footprint)
            .map(|w| {
                total += w;
                total
            })
            .collect();
        for w in &mut cdf {
            *w /= total;
        }
        // Guard against floating-point shortfall at the top.
        *cdf.last_mut().expect("footprint is nonzero") = 1.0;
        RankCdf { cdf }
    }

    /// Probability mass of the `rank`-th most popular page.
    pub fn rank_probability(&self, rank: usize) -> f64 {
        match rank {
            0 => self.cdf[0],
            r if r < self.cdf.len() => self.cdf[r] - self.cdf[r - 1],
            _ => 0.0,
        }
    }

    /// Probability mass covered by the `ranks` most popular pages
    /// (prefix CDF). Returns 1 when `ranks` meets the footprint.
    pub fn coverage(&self, ranks: u64) -> f64 {
        match ranks {
            0 => 0.0,
            r => self.cdf[(r as usize).min(self.cdf.len()) - 1],
        }
    }
}

fn check_footprint(footprint: u64) {
    assert!(footprint > 0, "footprint must be nonzero");
    assert!(
        footprint <= u32::MAX as u64,
        "footprint too large for the sampler"
    );
}

/// The unnormalized weight of every rank, hottest first.
fn rank_weights(law: Popularity, footprint: u64) -> impl Iterator<Item = f64> {
    match law {
        Popularity::Uniform => {}
        Popularity::Zipf { alpha } => assert!(alpha >= 0.0, "alpha must be non-negative"),
        Popularity::Exponential { lambda } => assert!(lambda > 0.0, "lambda must be positive"),
    }
    (0..footprint as usize).map(move |i| match law {
        Popularity::Uniform => 1.0,
        Popularity::Zipf { alpha } => ((i + 1) as f64).powf(-alpha),
        Popularity::Exponential { lambda } => (-lambda * i as f64).exp(),
    })
}

/// Builds a Walker alias table over ranks (Vose's stable
/// construction): row `i` keeps probability `prob` of returning rank
/// `i` itself and otherwise returns its alias rank, so a single uniform
/// split into (row, fraction) samples the exact discrete distribution
/// in O(1).
fn build_alias(law: Popularity, footprint: u64) -> Vec<AliasSlot> {
    let mut rows: Vec<AliasSlot> = rank_weights(law, footprint)
        .enumerate()
        .map(|(i, prob)| AliasSlot {
            prob,
            page: i as u32,
            alias_page: 0,
        })
        .collect();
    let total: f64 = rows.iter().map(|r| r.prob).sum();
    let scale = rows.len() as f64 / total;
    let mut small: Vec<u32> = Vec::new();
    let mut large: Vec<u32> = Vec::new();
    for (i, row) in rows.iter_mut().enumerate() {
        row.prob *= scale;
        if row.prob < 1.0 {
            small.push(i as u32);
        } else {
            large.push(i as u32);
        }
    }
    while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
        small.pop();
        rows[s as usize].alias_page = l;
        // The large row donates the mass the small row lacks.
        rows[l as usize].prob -= 1.0 - rows[s as usize].prob;
        if rows[l as usize].prob < 1.0 {
            large.pop();
            small.push(l);
        }
    }
    // Leftovers are 1.0 up to round-off: always accept.
    for &i in small.iter().chain(large.iter()) {
        rows[i as usize].prob = 1.0;
    }
    rows
}

/// The rank→page permutation of a sampler built with `seed`: a
/// deterministic Fisher–Yates shuffle of `0..footprint`.
fn permutation(footprint: u64, seed: u64) -> Vec<u32> {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut perm: Vec<u32> = (0..footprint as u32).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    perm.shuffle(&mut rng);
    perm
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    impl RankCdf {
        /// Draws one page number by inverse-CDF binary search, ranks
        /// mapped to pages through `permutation` — with a sampler's
        /// seed's [`permutation`], the reference its alias draw is tested
        /// against.
        fn sample_cdf<R: Rng + ?Sized>(&self, permutation: &[u32], rng: &mut R) -> u64 {
            let u: f64 = rng.gen();
            let rank = match self
                .cdf
                .binary_search_by(|w| w.partial_cmp(&u).expect("weights are finite"))
            {
                Ok(i) => i,
                Err(i) => i.min(self.cdf.len() - 1),
            };
            permutation[rank] as u64
        }
    }

    fn histogram(s: &PopularitySampler, n: usize, seed: u64) -> HashMap<u64, u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut h = HashMap::new();
        for _ in 0..n {
            *h.entry(s.sample(&mut rng)).or_insert(0) += 1;
        }
        h
    }

    #[test]
    fn uniform_covers_range_evenly() {
        let s = PopularitySampler::new(Popularity::Uniform, 16, 1);
        let h = histogram(&s, 16_000, 2);
        assert_eq!(h.len(), 16);
        for (&page, &count) in &h {
            assert!(page < 16);
            assert!((800..1200).contains(&count), "page {page}: {count}");
        }
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let s = PopularitySampler::new(Popularity::Zipf { alpha: 1.2 }, 10_000, 3);
        let h = histogram(&s, 50_000, 4);
        let max = *h.values().max().unwrap();
        let distinct = h.len();
        // Hot page dominates, and far fewer than all pages are touched.
        assert!(max > 2_000, "max={max}");
        assert!(distinct < 9_000, "distinct={distinct}");
        assert!(h.keys().all(|&p| p < 10_000));
    }

    #[test]
    fn higher_alpha_is_more_skewed() {
        let low = RankCdf::new(Popularity::Zipf { alpha: 0.8 }, 10_000);
        let high = RankCdf::new(Popularity::Zipf { alpha: 1.6 }, 10_000);
        // The 100 hottest pages carry more of the mass under the steeper law.
        assert!(low.coverage(100) < high.coverage(100));
    }

    #[test]
    fn exponential_concentrates_on_few_pages() {
        let s = RankCdf::new(Popularity::Exponential { lambda: 0.1 }, 100_000);
        // 90% of mass within ~23 ranks (ln(10)/0.1).
        assert!(s.coverage(15) < 0.9, "15 ranks: {}", s.coverage(15));
        assert!(s.coverage(40) >= 0.9, "40 ranks: {}", s.coverage(40));
    }

    #[test]
    fn rank_probabilities_sum_to_one_and_decrease() {
        let s = RankCdf::new(Popularity::Zipf { alpha: 1.0 }, 1_000);
        let sum: f64 = (0..1_000).map(|i| s.rank_probability(i)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        for i in 1..1_000 {
            assert!(s.rank_probability(i) <= s.rank_probability(i - 1) + 1e-15);
        }
        assert_eq!(s.rank_probability(5_000), 0.0);
    }

    #[test]
    fn permutation_scatters_hot_pages() {
        let s = PopularitySampler::new(Popularity::Zipf { alpha: 1.6 }, 100_000, 8);
        let h = histogram(&s, 20_000, 9);
        let hottest = h.iter().max_by_key(|(_, &c)| c).map(|(&p, _)| p).unwrap();
        // With a permutation the hottest page is almost surely not page 0.
        assert_ne!(hottest, 0);
    }

    #[test]
    fn alias_and_cdf_agree_on_rank_masses() {
        // Exact check, not statistical: summing each page's acceptance
        // mass over the alias table must recover the probability of the
        // rank that maps to it.
        let s = PopularitySampler::new(Popularity::Zipf { alpha: 1.2 }, 64, 12);
        let cdf = RankCdf::new(Popularity::Zipf { alpha: 1.2 }, 64);
        let n = s.alias_table.len();
        let mut mass = vec![0.0f64; n];
        for slot in &s.alias_table {
            mass[slot.page as usize] += slot.prob / n as f64;
            mass[slot.alias_page as usize] += (1.0 - slot.prob) / n as f64;
        }
        for (rank, &page) in permutation(64, 12).iter().enumerate() {
            let m = mass[page as usize];
            let p = cdf.rank_probability(rank);
            assert!((m - p).abs() < 1e-12, "rank {rank}: alias {m} vs cdf {p}");
        }
    }

    #[test]
    fn alias_table_is_well_formed() {
        let s = PopularitySampler::new(Popularity::Exponential { lambda: 0.1 }, 1_000, 13);
        assert_eq!(s.alias_table.len(), 1_000);
        for (i, slot) in s.alias_table.iter().enumerate() {
            assert!((0.0..=1.0).contains(&slot.prob), "prob[{i}]={}", slot.prob);
            assert!((slot.page as usize) < 1_000);
            assert!((slot.alias_page as usize) < 1_000);
        }
    }

    #[test]
    fn cdf_oracle_matches_old_sampling() {
        // The oracle still covers the range and skews like the law.
        let s = RankCdf::new(Popularity::Zipf { alpha: 1.2 }, 10_000);
        let permutation = permutation(10_000, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let mut h = HashMap::new();
        for _ in 0..50_000 {
            *h.entry(s.sample_cdf(&permutation, &mut rng))
                .or_insert(0u64) += 1;
        }
        assert!(*h.values().max().unwrap() > 2_000);
        assert!(h.keys().all(|&p| p < 10_000));
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
        let (cdf, permutation) = (RankCdf::new(law, FOOTPRINT), permutation(FOOTPRINT, 11));
        let mut alias_rng = StdRng::seed_from_u64(101);
        let mut cdf_rng = StdRng::seed_from_u64(202);
        let per_bucket = FOOTPRINT as usize / BUCKETS;
        let mut alias_counts = [0u64; BUCKETS];
        let mut cdf_counts = [0u64; BUCKETS];
        for _ in 0..DRAWS {
            alias_counts[sampler.sample(&mut alias_rng) as usize / per_bucket] += 1;
            cdf_counts[cdf.sample_cdf(&permutation, &mut cdf_rng) as usize / per_bucket] += 1;
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

    #[test]
    fn deterministic_across_instances() {
        let a = PopularitySampler::new(Popularity::Zipf { alpha: 1.2 }, 1_000, 10);
        let b = PopularitySampler::new(Popularity::Zipf { alpha: 1.2 }, 1_000, 10);
        let mut ra = StdRng::seed_from_u64(11);
        let mut rb = StdRng::seed_from_u64(11);
        for _ in 0..100 {
            assert_eq!(a.sample(&mut ra), b.sample(&mut rb));
        }
    }

    #[test]
    fn coverage_is_a_prefix_cdf() {
        let s = RankCdf::new(Popularity::Zipf { alpha: 1.2 }, 1_000);
        assert_eq!(s.coverage(0), 0.0);
        assert!((s.coverage(1_000) - 1.0).abs() < 1e-12);
        assert!((s.coverage(5_000) - 1.0).abs() < 1e-12);
        let mut prev = 0.0;
        for r in [1u64, 10, 100, 500, 1_000] {
            let c = s.coverage(r);
            assert!(c > prev);
            prev = c;
        }
        // One more rank adds exactly that rank's mass.
        let step = s.coverage(11) - s.coverage(10);
        assert!((step - s.rank_probability(10)).abs() < 1e-12);
        // Uniform coverage is linear.
        let u = RankCdf::new(Popularity::Uniform, 100);
        assert!((u.coverage(25) - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "footprint must be nonzero")]
    fn zero_footprint_rejected() {
        PopularitySampler::new(Popularity::Uniform, 0, 0);
    }
}
