//! Synthetic workload specifications and the trace generator.
//!
//! Reproduces Table 4 of the paper. The micro-benchmarks are exactly the
//! paper's distributions over a 512MB footprint. The macro workloads are
//! *synthesized* stand-ins for the UMass/dbt2/SPECWeb99 traces we cannot
//! redistribute: each preset documents the published characteristics it
//! preserves (working-set size where the paper states one, read/write
//! mix, popularity skew, and request sizes typical of the application
//! class). The cache experiments consume only the resulting page/op
//! stream, and the paper itself argues (§6.2) that its macro traces
//! behave like tailed (Zipf/exponential) distributions.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::popularity::{Popularity, PopularitySampler};
use crate::request::{DiskRequest, OpKind, PAGE_BYTES};

/// Benchmark class, mirroring Table 4's "type" column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Synthetic distribution micro-benchmark.
    Micro,
    /// Application-derived macro workload.
    Macro,
}

/// A synthetic disk workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Short name, matching Table 4 (`alpha1`, `dbt2`, ...).
    pub name: String,
    /// Micro or macro benchmark.
    pub kind: WorkloadKind,
    /// Footprint in 2KB disk pages.
    pub footprint_pages: u64,
    /// Fraction of requests that are writes.
    pub write_fraction: f64,
    /// Page popularity law.
    pub popularity: Popularity,
    /// Mean sequential run length in pages (geometric; 1 = purely random).
    pub mean_run_pages: f64,
    /// Fraction of write traffic drawn from the same popularity ranking
    /// as reads. The remainder is drawn from an independently permuted
    /// ranking, modelling workloads (databases especially) whose write
    /// set — logs, checkpoints — is largely disjoint from the read-hot
    /// set. `1.0` = fully shared.
    pub rw_overlap: f64,
}

const MIB: u64 = 1 << 20;

impl WorkloadSpec {
    fn micro(name: &str, popularity: Popularity) -> Self {
        WorkloadSpec {
            name: name.to_string(),
            kind: WorkloadKind::Micro,
            footprint_pages: 512 * MIB / PAGE_BYTES,
            // The paper does not state a mix for the micros; we use a
            // moderate 30% so that both wear (writes) and hit latency
            // (reads) are exercised.
            write_fraction: 0.3,
            popularity,
            mean_run_pages: 1.0,
            rw_overlap: 1.0,
        }
    }

    /// `uniform`: uniform distribution over 512MB.
    pub fn uniform() -> Self {
        WorkloadSpec::micro("uniform", Popularity::Uniform)
    }

    /// `alpha1`: Zipf(0.8) over 512MB.
    pub fn alpha1() -> Self {
        WorkloadSpec::micro("alpha1", Popularity::Zipf { alpha: 0.8 })
    }

    /// `alpha2`: Zipf(1.2) over 512MB.
    pub fn alpha2() -> Self {
        WorkloadSpec::micro("alpha2", Popularity::Zipf { alpha: 1.2 })
    }

    /// `alpha3`: Zipf(1.6) over 512MB.
    pub fn alpha3() -> Self {
        WorkloadSpec::micro("alpha3", Popularity::Zipf { alpha: 1.6 })
    }

    /// `exp1`: exponential(λ=0.01) over 512MB.
    pub fn exp1() -> Self {
        WorkloadSpec::micro("exp1", Popularity::Exponential { lambda: 0.01 })
    }

    /// `exp2`: exponential(λ=0.1) over 512MB.
    pub fn exp2() -> Self {
        WorkloadSpec::micro("exp2", Popularity::Exponential { lambda: 0.1 })
    }

    /// `dbt2`: OLTP over a 2GB database. TPC-C-like traffic: 8KB random
    /// I/O, write-heavy (~40% writes), sharply skewed like TPC-C's
    /// NURand customer/item selection (α = 1.2), with writes (log and
    /// checkpoint traffic) largely disjoint from the read-hot set.
    pub fn dbt2() -> Self {
        WorkloadSpec {
            name: "dbt2".to_string(),
            kind: WorkloadKind::Macro,
            footprint_pages: 2048 * MIB / PAGE_BYTES,
            write_fraction: 0.40,
            popularity: Popularity::Zipf { alpha: 1.2 },
            mean_run_pages: 4.0,
            rw_overlap: 0.2,
        }
    }

    /// `SPECWeb99`: static web serving over a 1.8GB image — read-almost-
    /// only, Zipf file popularity (α ≈ 1.2), ~16KB transfers.
    pub fn specweb99() -> Self {
        WorkloadSpec {
            name: "SPECWeb99".to_string(),
            kind: WorkloadKind::Macro,
            footprint_pages: 1843 * MIB / PAGE_BYTES,
            write_fraction: 0.05,
            popularity: Popularity::Zipf { alpha: 1.2 },
            mean_run_pages: 8.0,
            rw_overlap: 0.1,
        }
    }

    /// `WebSearch1`: search-engine index serving (UMass trace class):
    /// ≥99% reads, large working set (the paper states 5116.7MB),
    /// 8–32KB transfers, mild skew.
    pub fn websearch1() -> Self {
        WorkloadSpec {
            name: "WebSearch1".to_string(),
            kind: WorkloadKind::Macro,
            footprint_pages: (5116.7 * MIB as f64 / PAGE_BYTES as f64) as u64,
            write_fraction: 0.01,
            popularity: Popularity::Zipf { alpha: 0.8 },
            mean_run_pages: 8.0,
            rw_overlap: 0.5,
        }
    }

    /// `WebSearch2`: the second search trace, slightly smaller footprint.
    pub fn websearch2() -> Self {
        WorkloadSpec {
            name: "WebSearch2".to_string(),
            kind: WorkloadKind::Macro,
            footprint_pages: (4600.0 * MIB as f64 / PAGE_BYTES as f64) as u64,
            write_fraction: 0.01,
            popularity: Popularity::Zipf { alpha: 0.9 },
            mean_run_pages: 8.0,
            rw_overlap: 0.5,
        }
    }

    /// `Financial1`: OLTP at a financial institution (UMass trace class):
    /// strongly write-dominated (~77% writes), with the sharply
    /// concentrated hot set characteristic of transaction logs
    /// (short-tailed, exponential-like popularity).
    pub fn financial1() -> Self {
        WorkloadSpec {
            name: "Financial1".to_string(),
            kind: WorkloadKind::Macro,
            footprint_pages: 800 * MIB / PAGE_BYTES,
            write_fraction: 0.77,
            popularity: Popularity::Exponential { lambda: 3e-4 },
            mean_run_pages: 2.0,
            rw_overlap: 0.5,
        }
    }

    /// `Financial2`: the second financial trace — read-dominated
    /// (~82% reads), working set 443.8MB (stated in Figure 7), with a
    /// concentrated hot set (90% of accesses within ~45MB). The hot-set
    /// concentration is what lets Figure 7(a) dedicate ~70% of the die
    /// to SLC at half the working-set size.
    pub fn financial2() -> Self {
        WorkloadSpec {
            name: "Financial2".to_string(),
            kind: WorkloadKind::Macro,
            footprint_pages: (443.8 * MIB as f64 / PAGE_BYTES as f64) as u64,
            write_fraction: 0.18,
            popularity: Popularity::Exponential { lambda: 1e-4 },
            mean_run_pages: 2.0,
            rw_overlap: 0.5,
        }
    }

    /// Every Table 4 workload, micros first.
    pub fn all() -> Vec<WorkloadSpec> {
        vec![
            WorkloadSpec::uniform(),
            WorkloadSpec::alpha1(),
            WorkloadSpec::alpha2(),
            WorkloadSpec::alpha3(),
            WorkloadSpec::exp1(),
            WorkloadSpec::exp2(),
            WorkloadSpec::dbt2(),
            WorkloadSpec::specweb99(),
            WorkloadSpec::websearch1(),
            WorkloadSpec::websearch2(),
            WorkloadSpec::financial1(),
            WorkloadSpec::financial2(),
        ]
    }

    /// Footprint in bytes.
    pub fn footprint_bytes(&self) -> u64 {
        self.footprint_pages * PAGE_BYTES
    }

    /// Returns this workload with footprint divided by `factor`
    /// (popularity shape and mix preserved). Used to scale very large
    /// working sets down to tractable simulations, mirroring the paper's
    /// own "we scaled our benchmarks ... accordingly" methodology (§6.1).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero or at least the footprint.
    #[must_use]
    pub fn scaled(mut self, factor: u64) -> Self {
        assert!(factor > 0, "scale factor must be positive");
        assert!(
            self.footprint_pages / factor > 0,
            "scaling would leave no pages"
        );
        self.footprint_pages /= factor;
        self.name = format!("{}/{}", self.name, factor);
        self
    }

    /// Builds the request generator for this spec.
    pub fn generator(&self, seed: u64) -> TraceGenerator {
        TraceGenerator::new(self.clone(), seed)
    }
}

/// Infinite iterator of [`DiskRequest`]s following a [`WorkloadSpec`].
/// Pages are drawn through the O(1) Walker alias table
/// ([`PopularitySampler::sample`]) with the minimal-state `SmallRng`.
///
/// `next_request`, `fill` and `Iterator::next` all run the one
/// per-request body, `draw`, on a *copy* of the generator state and
/// write it back once: across a `fill` the eight bytes of SplitMix64
/// state stay in a register instead of round-tripping through `self`
/// on every draw.
#[derive(Debug)]
pub struct TraceGenerator {
    spec: WorkloadSpec,
    sampler: PopularitySampler,
    /// Independently permuted ranking for the disjoint share of writes.
    write_sampler: Option<PopularitySampler>,
    /// `ln(1 - 1/mean_run_pages)`, the denominator of the geometric run
    /// length; `None` when runs are a single page and draw nothing.
    ln_q: Option<f64>,
    rng: SmallRng,
}

impl TraceGenerator {
    /// Creates a generator with an explicit seed; identical seeds yield
    /// identical traces.
    pub fn new(spec: WorkloadSpec, seed: u64) -> Self {
        // The rank rows are built once; each ranking permutes its copy.
        let by_rank = PopularitySampler::by_rank(spec.popularity, spec.footprint_pages);
        let write_sampler =
            (spec.rw_overlap < 1.0).then(|| by_rank.clone().permuted(seed ^ 0x57A7_E0F0_57A7_E0F0));
        let sampler = by_rank.permuted(seed);
        // Geometric with mean `mean`: success probability 1/mean.
        let ln_q = if spec.mean_run_pages <= 1.0 {
            None
        } else {
            Some((1.0 - 1.0 / spec.mean_run_pages).ln())
        };
        let rng = SmallRng::seed_from_u64(seed.wrapping_mul(0xA24B_AED4_963E_E407));
        TraceGenerator {
            spec,
            sampler,
            write_sampler,
            ln_q,
            rng,
        }
    }

    /// The generating specification.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// The per-request body: op, page, run length, in that draw order.
    #[inline(always)]
    fn draw(&self, rng: &mut SmallRng) -> DiskRequest {
        let spec = &self.spec;
        let op = if rng.gen::<f64>() < spec.write_fraction {
            OpKind::Write
        } else {
            OpKind::Read
        };
        let page = match (&self.write_sampler, op) {
            (Some(ws), OpKind::Write) if rng.gen::<f64>() >= spec.rw_overlap => ws.sample(rng),
            _ => self.sampler.sample(rng),
        };
        let len = match self.ln_q {
            None => 1,
            Some(ln_q) => {
                let max = (spec.footprint_pages - page).min(256) as u32;
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                let len = (u.ln() / ln_q).floor() as u32 + 1;
                len.clamp(1, max.max(1))
            }
        };
        DiskRequest::new(page, len, op)
    }

    /// Generates the next request.
    pub fn next_request(&mut self) -> DiskRequest {
        let mut rng = self.rng.clone();
        let req = self.draw(&mut rng);
        self.rng = rng;
        req
    }

    /// Collects `n` requests into a vector.
    pub fn take_requests(&mut self, n: usize) -> Vec<DiskRequest> {
        let mut out = Vec::with_capacity(n);
        self.fill(n, &mut out);
        out
    }

    /// Appends `n` requests to `out` (not cleared) so replay loops
    /// refill their reusable buffer. Draw order is identical to `n`
    /// calls of [`TraceGenerator::next_request`], so the generated
    /// trace is too.
    pub fn fill(&mut self, n: usize, out: &mut Vec<DiskRequest>) {
        let mut rng = self.rng.clone();
        out.extend((0..n).map(|_| self.draw(&mut rng)));
        self.rng = rng;
    }
}

impl Iterator for TraceGenerator {
    type Item = DiskRequest;

    fn next(&mut self) -> Option<DiskRequest> {
        Some(self.next_request())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::TraceStats;

    #[test]
    fn table4_names_and_kinds() {
        let all = WorkloadSpec::all();
        assert_eq!(all.len(), 12);
        let micros = all.iter().filter(|w| w.kind == WorkloadKind::Micro).count();
        assert_eq!(micros, 6);
        assert_eq!(all[0].name, "uniform");
        assert_eq!(all[6].name, "dbt2");
    }

    #[test]
    fn micro_footprints_are_512mb() {
        for w in WorkloadSpec::all()
            .into_iter()
            .filter(|w| w.kind == WorkloadKind::Micro)
        {
            assert_eq!(w.footprint_bytes(), 512 * MIB, "{}", w.name);
        }
    }

    #[test]
    fn paper_stated_working_sets() {
        // Figure 7 states these two working-set sizes exactly.
        let f2 = WorkloadSpec::financial2();
        assert!((f2.footprint_bytes() as f64 / MIB as f64 - 443.8).abs() < 0.1);
        let ws1 = WorkloadSpec::websearch1();
        assert!((ws1.footprint_bytes() as f64 / MIB as f64 - 5116.7).abs() < 0.1);
    }

    #[test]
    fn generated_mix_matches_spec() {
        let mut g = WorkloadSpec::dbt2().scaled(16).generator(1);
        let stats = TraceStats::from_iter(g.take_requests(20_000));
        assert!((stats.write_fraction() - 0.40).abs() < 0.02);
        assert!(stats.max_page < WorkloadSpec::dbt2().footprint_pages / 16);
    }

    #[test]
    fn financial1_is_write_dominated() {
        let mut g = WorkloadSpec::financial1().scaled(8).generator(2);
        let stats = TraceStats::from_iter(g.take_requests(10_000));
        assert!(stats.write_fraction() > 0.7);
    }

    #[test]
    fn websearch_is_read_dominated_with_runs() {
        let mut g = WorkloadSpec::websearch1().scaled(64).generator(3);
        let stats = TraceStats::from_iter(g.take_requests(10_000));
        assert!(stats.write_fraction() < 0.03);
        // Mean run length near 8 pages.
        let mean_len = stats.pages as f64 / stats.requests as f64;
        assert!((6.0..10.0).contains(&mean_len), "mean_len={mean_len}");
    }

    #[test]
    fn requests_stay_inside_footprint() {
        let spec = WorkloadSpec::alpha2();
        let mut g = spec.generator(4);
        for _ in 0..20_000 {
            let r = g.next_request();
            assert!(r.page + r.len as u64 <= spec.footprint_pages);
        }
    }

    #[test]
    fn fill_matches_per_request_generation() {
        // `fill`, `next_request` and `Iterator::next` interleaved on one
        // generator must replay the exact trace of the one-at-a-time
        // path, across odd chunk splits, on every arm of the request
        // body: both samplers, run lengths, the uniform law.
        let mut dram_fit = WorkloadSpec::alpha1().scaled(64);
        dram_fit.write_fraction = 0.0;
        let mut specs = WorkloadSpec::all();
        specs.extend([WorkloadSpec::dbt2().scaled(4), dram_fit]);
        for spec in specs {
            let mut scalar = spec.generator(7);
            let mut g = spec.generator(7);
            let mut mixed = Vec::new();
            while mixed.len() < 10_000 {
                for chunk in [1usize, 2, 64, 256, 677] {
                    g.fill(chunk, &mut mixed);
                    mixed.push(g.next_request());
                    mixed.extend(g.next());
                }
            }
            for (i, got) in mixed.iter().enumerate() {
                assert_eq!(*got, scalar.next_request(), "{} request {i}", spec.name);
            }
        }
    }

    /// FNV-1a over (page, len, op) of the first 4096 requests of `spec`
    /// at `seed`.
    fn trace_hash(spec: &WorkloadSpec, seed: u64) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for r in spec.generator(seed).take_requests(4096) {
            eat(&r.page.to_le_bytes());
            eat(&r.len.to_le_bytes());
            eat(&[u8::from(r.is_write())]);
        }
        h
    }

    #[test]
    fn alpha1_trace_is_pinned() {
        // Hashes of sysbench's traces at its seed: a change of draw order
        // or of either ranking fails here, not three layers later in a
        // simulated metric. `alpha1`'s was computed on the commit before
        // the request body was inlined; `dbt2/4` (`oltp_write`) is the
        // one benchmarked trace with a separate write ranking, computed
        // before the two rankings shared their rank rows.
        assert_eq!(
            trace_hash(&WorkloadSpec::alpha1(), 24301),
            0x9716_937e_2de9_01a5
        );
        assert_eq!(
            trace_hash(&WorkloadSpec::dbt2().scaled(4), 24301),
            0xae35_778f_376b_0771
        );
    }

    #[test]
    fn same_seed_reproduces_trace() {
        let spec = WorkloadSpec::exp2();
        let a = spec.generator(9).take_requests(500);
        let b = spec.generator(9).take_requests(500);
        assert_eq!(a, b);
        let c = spec.generator(10).take_requests(500);
        assert_ne!(a, c);
    }

    #[test]
    fn scaled_renames_and_shrinks() {
        let s = WorkloadSpec::dbt2().scaled(4);
        assert_eq!(s.name, "dbt2/4");
        assert_eq!(s.footprint_pages, WorkloadSpec::dbt2().footprint_pages / 4);
    }

    #[test]
    #[should_panic(expected = "no pages")]
    fn overscaling_rejected() {
        let _ = WorkloadSpec::exp1().scaled(u64::MAX);
    }

    #[test]
    fn iterator_interface_works() {
        let reqs: Vec<DiskRequest> = WorkloadSpec::uniform().generator(5).take(10).collect();
        assert_eq!(reqs.len(), 10);
    }
}
