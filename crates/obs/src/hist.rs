//! Bounded-memory latency statistics: a log-scaled histogram good for
//! percentile queries over microsecond-to-seconds request latencies.
//!
//! Promoted here from `flashcache-sim` so every layer of the stack can
//! record latency distributions; the simulator re-exports it for
//! compatibility.

/// Log-scaled latency histogram covering 0.01µs to ~100s.
///
/// Buckets are spaced at 5% multiplicative steps, bounding percentile
/// error to one step while using a few hundred counters regardless of
/// sample count.
///
/// A simulator records the same few values over and over (every DRAM
/// hit costs the same), so [`LatencyHistogram::record`] remembers the
/// bucket of the last sample and recomputes it (a division and a
/// logarithm) only when the sample's bits change. The memo is not part
/// of the histogram's value: equality ignores it.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum_us: f64,
    min_us: f64,
    max_us: f64,
    /// Bits of the last recorded sample and the bucket it fell in.
    last: (u64, usize),
}

impl PartialEq for LatencyHistogram {
    fn eq(&self, other: &Self) -> bool {
        self.buckets == other.buckets
            && self.count == other.count
            && self.sum_us == other.sum_us
            && self.min_us == other.min_us
            && self.max_us == other.max_us
    }
}

const MIN_US: f64 = 0.01;
const GROWTH: f64 = 1.05;
const NUM_BUCKETS: usize = 512;

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum_us: 0.0,
            min_us: f64::INFINITY,
            max_us: 0.0,
            last: (0f64.to_bits(), Self::bucket_of(0.0)),
        }
    }

    fn bucket_of(us: f64) -> usize {
        if us <= MIN_US {
            return 0;
        }
        let idx = (us / MIN_US).ln() / GROWTH.ln();
        (idx as usize).min(NUM_BUCKETS - 1)
    }

    /// Lower bound of a bucket, µs.
    fn bucket_floor(idx: usize) -> f64 {
        MIN_US * GROWTH.powi(idx as i32)
    }

    /// Records one latency sample in microseconds.
    ///
    /// Non-finite or negative samples are ignored.
    pub fn record(&mut self, us: f64) {
        if !us.is_finite() || us < 0.0 {
            return;
        }
        let bits = us.to_bits();
        if bits != self.last.0 {
            self.last = (bits, Self::bucket_of(us));
        }
        self.buckets[self.last.1] += 1;
        self.count += 1;
        self.sum_us += us;
        self.min_us = self.min_us.min(us);
        self.max_us = self.max_us.max(us);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean latency, µs (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us / self.count as f64
        }
    }

    /// Minimum sample, µs (0 when empty).
    pub fn min_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min_us
        }
    }

    /// Maximum sample, µs.
    pub fn max_us(&self) -> f64 {
        self.max_us
    }

    /// The `p`-quantile (`0 <= p <= 1`), µs.
    ///
    /// Edge behaviour: an empty histogram returns 0 for every `p`;
    /// `p = 0` returns the minimum recorded sample; `p = 1` returns the
    /// maximum recorded sample exactly. Interior quantiles are bucket
    /// midpoints, clamped to the observed maximum.
    ///
    /// # Panics
    ///
    /// Panics if `p` is NaN or outside `[0, 1]`.
    pub fn percentile_us(&self, p: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&p),
            "percentile must be in [0,1], got {p}"
        );
        if self.count == 0 {
            return 0.0;
        }
        if p == 0.0 {
            return self.min_us;
        }
        if p == 1.0 {
            return self.max_us;
        }
        let target = (p * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return (Self::bucket_floor(i) * (1.0 + GROWTH) / 2.0).min(self.max_us);
            }
        }
        self.max_us
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_us += other.sum_us;
        self.min_us = self.min_us.min(other.min_us);
        self.max_us = self.max_us.max(other.max_us);
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert!(h.is_empty());
        assert_eq!(h.mean_us(), 0.0);
        assert_eq!(h.min_us(), 0.0);
        // Every percentile of an empty histogram is 0, including the
        // boundary values.
        assert_eq!(h.percentile_us(0.0), 0.0);
        assert_eq!(h.percentile_us(0.99), 0.0);
        assert_eq!(h.percentile_us(1.0), 0.0);
    }

    #[test]
    fn boundary_percentiles_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in [3.0, 8.0, 21.0, 100.0] {
            h.record(v);
        }
        assert_eq!(h.percentile_us(0.0), 3.0, "p0 is the exact minimum");
        assert_eq!(h.percentile_us(1.0), 100.0, "p100 is the exact maximum");
        assert!(h.percentile_us(0.5) <= h.percentile_us(1.0));
    }

    #[test]
    fn interior_percentiles_never_exceed_max() {
        let mut h = LatencyHistogram::new();
        for _ in 0..10 {
            h.record(4200.0);
        }
        for &p in &[0.01, 0.5, 0.9, 0.999] {
            assert!(h.percentile_us(p) <= 4200.0, "p={p}");
        }
    }

    #[test]
    fn percentiles_bracket_known_distribution() {
        let mut h = LatencyHistogram::new();
        // 90 fast DRAM-ish hits, 10 slow disk-ish misses.
        for _ in 0..90 {
            h.record(0.5);
        }
        for _ in 0..10 {
            h.record(4200.0);
        }
        let p50 = h.percentile_us(0.50);
        let p99 = h.percentile_us(0.99);
        assert!((0.4..0.7).contains(&p50), "p50={p50}");
        assert!((3500.0..5000.0).contains(&p99), "p99={p99}");
        assert!((h.mean_us() - (90.0 * 0.5 + 10.0 * 4200.0) / 100.0).abs() < 1.0);
        assert_eq!(h.max_us(), 4200.0);
        assert_eq!(h.min_us(), 0.5);
    }

    #[test]
    fn percentile_error_is_bounded_by_bucket_width() {
        let mut h = LatencyHistogram::new();
        for i in 1..=10_000 {
            h.record(i as f64);
        }
        for &p in &[0.1, 0.5, 0.9, 0.999] {
            let exact = p * 10_000.0;
            let est = h.percentile_us(p);
            assert!(
                (est / exact - 1.0).abs() < 0.06,
                "p={p}: est {est} vs exact {exact}"
            );
        }
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut c = LatencyHistogram::new();
        for i in 0..1_000 {
            let v = (i % 37) as f64 + 0.1;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            c.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), c.count());
        assert!((a.percentile_us(0.9) - c.percentile_us(0.9)).abs() < 1e-9);
        assert!((a.mean_us() - c.mean_us()).abs() < 1e-9);
        assert_eq!(a.min_us(), c.min_us());
    }

    #[test]
    fn merge_into_empty_preserves_min() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        b.record(7.0);
        a.merge(&b);
        assert_eq!(a.min_us(), 7.0);
        assert_eq!(a.percentile_us(0.0), 7.0);
    }

    #[test]
    fn ignores_garbage_samples() {
        let mut h = LatencyHistogram::new();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(-1.0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn equality_and_export_ignore_the_bucket_memo() {
        // Dyadic samples, so the sum is exact in either order; the two
        // histograms end on different last samples.
        let samples = [0.5, 0.5, 4200.0, 0.25, 0.5, 4200.0, 64.0];
        let (mut a, mut b) = (LatencyHistogram::new(), LatencyHistogram::new());
        for &v in &samples {
            a.record(v);
        }
        for &v in samples.iter().rev() {
            b.record(v);
        }
        assert_ne!(a.last, b.last);
        assert_eq!(a, b);
        let json = |h: &LatencyHistogram| {
            let mut reg = crate::registry::Registry::new();
            reg.histogram_merge("h", h);
            reg.to_json().render()
        };
        assert_eq!(json(&a), json(&b));
        // A clone keeps the memo, and keeps recording through it.
        let mut c = a.clone();
        c.record(64.0);
        b.record(64.0);
        assert_eq!(c, b);
        assert_ne!(a, b);
    }

    proptest::proptest! {
        /// Through the memo, every sample of any interleaving of
        /// repeated and fresh values lands in `bucket_of(sample)`.
        #[test]
        fn memoised_record_lands_every_sample_in_its_bucket(
            samples in proptest::collection::vec(
                proptest::prop_oneof![
                    proptest::strategy::Just(0.0),
                    proptest::strategy::Just(MIN_US),
                    proptest::strategy::Just(0.436),
                    proptest::strategy::Just(4_200.0),
                    proptest::strategy::Just(1e12), // the top bucket
                    0.0f64..2.0 * MIN_US,
                    0.0f64..1e9,
                ],
                1..400,
            ),
        ) {
            let mut h = LatencyHistogram::new();
            let mut expect = LatencyHistogram::new();
            for &us in &samples {
                h.record(us);
                expect.buckets[LatencyHistogram::bucket_of(us)] += 1;
                expect.count += 1;
                expect.sum_us += us;
                expect.min_us = expect.min_us.min(us);
                expect.max_us = expect.max_us.max(us);
            }
            proptest::prop_assert_eq!(h, expect);
        }
    }

    #[test]
    #[should_panic(expected = "percentile must be in")]
    fn rejects_percentile_above_one() {
        LatencyHistogram::new().percentile_us(1.5);
    }

    #[test]
    #[should_panic(expected = "percentile must be in")]
    fn rejects_negative_percentile() {
        LatencyHistogram::new().percentile_us(-0.1);
    }

    #[test]
    #[should_panic(expected = "percentile must be in")]
    fn rejects_nan_percentile() {
        LatencyHistogram::new().percentile_us(f64::NAN);
    }
}
