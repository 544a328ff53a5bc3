//! Figure 4: flash disk cache miss rate, unified vs split read/write
//! regions, across flash sizes, on the dbt2 (OLTP) trace.

use disk_trace::WorkloadSpec;
use flashcache_core::{FlashCache, SplitPolicy};

use super::driver::{cache_config_for_bytes, measure, page_ops};

/// One size point of Figure 4.
///
/// The figure's "Flash Miss rate" is reported as the *read* miss rate:
/// the split's benefit is protecting read-critical blocks from the
/// capacity damage of out-of-place writes (§3.5), and read latency is
/// what drives overall performance. Overall (read+write) miss rates are
/// included for completeness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitMissPoint {
    /// Flash capacity in bytes (MLC).
    pub flash_bytes: u64,
    /// Read miss rate of the unified ("RW unified") cache.
    pub unified_miss_rate: f64,
    /// Read miss rate of the split ("RW separate", 90/10) cache.
    pub split_miss_rate: f64,
    /// Overall miss rate (reads + writes), unified.
    pub unified_overall_miss_rate: f64,
    /// Overall miss rate (reads + writes), split.
    pub split_overall_miss_rate: f64,
    /// GC time share of flash work, unified (the Figure 3 cost).
    pub unified_gc_overhead: f64,
    /// GC time share of flash work, split.
    pub split_gc_overhead: f64,
}

/// Parameters of the sweep.
#[derive(Debug, Clone)]
pub struct SplitMissParams {
    /// Workload to replay (the paper uses dbt2).
    pub workload: WorkloadSpec,
    /// Flash sizes to evaluate.
    pub flash_sizes_bytes: Vec<u64>,
    /// Page accesses used to warm each cache.
    pub warmup_accesses: u64,
    /// Page accesses measured after warm-up.
    pub measured_accesses: u64,
    /// Trace seed.
    pub seed: u64,
}

impl Default for SplitMissParams {
    fn default() -> Self {
        const MIB: u64 = 1 << 20;
        SplitMissParams {
            workload: WorkloadSpec::dbt2(),
            flash_sizes_bytes: vec![128 * MIB, 256 * MIB, 384 * MIB, 512 * MIB, 640 * MIB],
            warmup_accesses: 2_000_000,
            measured_accesses: 2_000_000,
            seed: 0xF164,
        }
    }
}

impl SplitMissParams {
    /// A laptop-scale variant: sizes, footprint and trace length divided
    /// by `factor` (the miss-rate *comparison* is scale-invariant).
    #[must_use]
    pub fn scaled(mut self, factor: u64) -> Self {
        self.workload = self.workload.scaled(factor);
        for s in &mut self.flash_sizes_bytes {
            *s /= factor;
        }
        self.warmup_accesses /= factor;
        self.measured_accesses /= factor;
        self
    }
}

/// Runs the Figure 4 sweep.
pub fn split_miss_curve(params: &SplitMissParams) -> Vec<SplitMissPoint> {
    params
        .flash_sizes_bytes
        .iter()
        .map(|&bytes| {
            let (unified_miss_rate, unified_overall_miss_rate, unified_gc_overhead) =
                run_one(params, bytes, SplitPolicy::Unified);
            let (split_miss_rate, split_overall_miss_rate, split_gc_overhead) = run_one(
                params,
                bytes,
                SplitPolicy::Split {
                    write_fraction: 0.10,
                },
            );
            SplitMissPoint {
                flash_bytes: bytes,
                unified_miss_rate,
                split_miss_rate,
                unified_overall_miss_rate,
                split_overall_miss_rate,
                unified_gc_overhead,
                split_gc_overhead,
            }
        })
        .collect()
}

fn run_one(params: &SplitMissParams, bytes: u64, split: SplitPolicy) -> (f64, f64, f64) {
    let mut config = cache_config_for_bytes(bytes);
    config.split = split;
    let s = measure(
        &mut FlashCache::new(config).expect("valid config"),
        &mut page_ops(&params.workload, params.seed),
        params.warmup_accesses,
        params.measured_accesses,
    );
    (s.read_miss_rate(), s.miss_rate(), s.gc_overhead())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_wins_and_miss_rate_falls_with_size() {
        // Heavily scaled-down sweep for test budget.
        let params = SplitMissParams {
            // Enough blocks that the 10% write region is not a single
            // block (the paper's smallest point, 128MB, has 512 blocks).
            flash_sizes_bytes: vec![8 << 20, 20 << 20],
            warmup_accesses: 100_000,
            measured_accesses: 100_000,
            workload: WorkloadSpec::dbt2().scaled(64), // 32MB footprint
            seed: 11,
        };
        let points = split_miss_curve(&params);
        assert_eq!(points.len(), 2);
        // Bigger cache, fewer misses — both policies.
        assert!(points[1].unified_miss_rate < points[0].unified_miss_rate);
        assert!(points[1].split_miss_rate < points[0].split_miss_rate);
        for p in &points {
            // The split cache's read miss rate stays close to unified
            // (within a few points at this miniature scale — see
            // EXPERIMENTS.md for the full-scale discussion)...
            assert!(
                p.split_miss_rate <= p.unified_miss_rate + 0.04,
                "split {:.3} vs unified {:.3} at {} bytes",
                p.split_miss_rate,
                p.unified_miss_rate,
                p.flash_bytes
            );
            // ...while containing garbage collection, the Figure 3
            // mechanism the split exists for.
            assert!(
                p.split_gc_overhead <= p.unified_gc_overhead + 0.02,
                "split GC {:.3} vs unified {:.3} at {} bytes",
                p.split_gc_overhead,
                p.unified_gc_overhead,
                p.flash_bytes
            );
        }
    }
}
