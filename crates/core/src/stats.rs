//! Aggregate statistics of the flash disk cache.

use std::fmt;

/// Counters accumulated by a [`crate::cache::FlashCache`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CacheStats {
    /// Read lookups.
    pub reads: u64,
    /// Read hits.
    pub read_hits: u64,
    /// Write lookups.
    pub writes: u64,
    /// Writes that updated a page already cached (in either region).
    pub write_hits: u64,
    /// Flash page reads issued to the device, read from the device's
    /// own count ([`nand_flash::FlashStats::reads`]).
    pub flash_reads: u64,
    /// Flash page programs issued to the device, read from the device's
    /// own count ([`nand_flash::FlashStats::programs`]).
    pub flash_programs: u64,
    /// Block erases issued to the device, read from the device's own
    /// count ([`nand_flash::FlashStats::erases`]).
    pub erases: u64,
    /// Garbage-collection passes.
    pub gc_runs: u64,
    /// Valid pages relocated by GC.
    pub gc_moved_pages: u64,
    /// The subset of `gc_moved_pages` a write-region compaction moved
    /// into the read region (graduated read pages).
    pub gc_graduated_pages: u64,
    /// Valid pages a compaction evicted instead of relocating (dirty
    /// ones flushed): write-region pages never read since they were
    /// written, and pages that were unreadable or found no destination.
    pub gc_dropped_pages: u64,
    /// Time spent in background GC, µs.
    pub gc_time_us: f64,
    /// Whole-block evictions.
    pub evictions: u64,
    /// Dirty pages flushed to disk by evictions/GC.
    pub flushed_dirty_pages: u64,
    /// Wear-levelling migrations (newest-block content moved, §3.6).
    pub wear_migrations: u64,
    /// Controller reconfigurations that raised ECC strength.
    pub reconfig_ecc: u64,
    /// Controller reconfigurations that switched MLC→SLC density
    /// (both fault-driven and hot-page promotions).
    pub reconfig_density: u64,
    /// Hot-page promotions to SLC (subset of `reconfig_density`).
    pub hot_promotions: u64,
    /// Reads whose raw bit errors exceeded the configured ECC strength
    /// (data lost; satisfied from disk).
    pub uncorrectable_reads: u64,
    /// Blocks permanently retired.
    pub retired_blocks: u64,
    /// Foreground latency accumulated by cache operations, µs
    /// (flash + ECC; disk time is accounted by the caller).
    pub foreground_us: f64,
    /// Device queueing delay included in `foreground_us`, µs (zero
    /// under a serial channel shape).
    pub queue_wait_us: f64,
    /// Off-critical-path fill/migration time, µs (excludes GC time,
    /// which is tracked in `gc_time_us`).
    pub background_us: f64,
    /// ECC decode/encode latency included in `foreground_us`, µs.
    pub ecc_us: f64,
    /// Reclaim victim queries answered by the incremental index.
    pub reclaim_index_queries: u64,
    /// Index-answered queries that produced a victim.
    pub reclaim_index_hits: u64,
    /// Internal errors (a management table and the device disagreeing,
    /// or a device op failing mid-access) that
    /// [`FlashCache::op`](crate::FlashCache::op) degraded into bypassed
    /// outcomes.
    pub internal_errors: u64,
    /// Read-miss fills the admission policy kept out of flash (the
    /// request was still served from disk; nothing was cached).
    pub admission_rejected_fills: u64,
    /// Times the admission policy's frequency sketch (and its bar) aged:
    /// once per ten counted reads per cache slot.
    pub admission_sketch_halvings: u64,
    /// Always 0: host writes are never rejected and nothing increments
    /// this; it stays because `benchmark/src/traced.rs` reads it.
    pub admission_rejected_writes: u64,
}

impl CacheStats {
    /// Read miss rate.
    pub fn read_miss_rate(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            1.0 - self.read_hits as f64 / self.reads as f64
        }
    }

    /// Overall miss rate across reads and writes, counting a write to an
    /// uncached page as a miss (the metric of Figure 4).
    pub fn miss_rate(&self) -> f64 {
        let total = self.reads + self.writes;
        if total == 0 {
            0.0
        } else {
            1.0 - (self.read_hits + self.write_hits) as f64 / total as f64
        }
    }

    /// Accumulates `other` into `self`, field by field.
    ///
    /// Used by the sharded engine to report paper-faithful totals across
    /// shard-partitioned caches: every counter and accumulated duration
    /// is additive, so the merged value equals what a single cache
    /// serving the union of the traffic would have counted for the same
    /// per-shard event sequences.
    pub fn merge(&mut self, other: &CacheStats) {
        self.reads += other.reads;
        self.read_hits += other.read_hits;
        self.writes += other.writes;
        self.write_hits += other.write_hits;
        self.flash_reads += other.flash_reads;
        self.flash_programs += other.flash_programs;
        self.erases += other.erases;
        self.gc_runs += other.gc_runs;
        self.gc_moved_pages += other.gc_moved_pages;
        self.gc_graduated_pages += other.gc_graduated_pages;
        self.gc_dropped_pages += other.gc_dropped_pages;
        self.gc_time_us += other.gc_time_us;
        self.evictions += other.evictions;
        self.flushed_dirty_pages += other.flushed_dirty_pages;
        self.wear_migrations += other.wear_migrations;
        self.reconfig_ecc += other.reconfig_ecc;
        self.reconfig_density += other.reconfig_density;
        self.hot_promotions += other.hot_promotions;
        self.uncorrectable_reads += other.uncorrectable_reads;
        self.retired_blocks += other.retired_blocks;
        self.foreground_us += other.foreground_us;
        self.queue_wait_us += other.queue_wait_us;
        self.background_us += other.background_us;
        self.ecc_us += other.ecc_us;
        self.reclaim_index_queries += other.reclaim_index_queries;
        self.reclaim_index_hits += other.reclaim_index_hits;
        self.internal_errors += other.internal_errors;
        self.admission_rejected_fills += other.admission_rejected_fills;
        self.admission_sketch_halvings += other.admission_sketch_halvings;
    }

    /// GC overhead: GC time relative to all time the cache spent working
    /// (the Figure 1(b) metric). Work is service time: foreground queue
    /// wait is left out, as it already is from GC and background time.
    pub fn gc_overhead(&self) -> f64 {
        let foreground_us = self.foreground_us - self.queue_wait_us;
        let total = foreground_us + self.background_us + self.gc_time_us;
        if total == 0.0 {
            0.0
        } else {
            self.gc_time_us / total
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "reads {} (hit {:.1}%), writes {} (hit {:.1}%)",
            self.reads,
            100.0 * (1.0 - self.read_miss_rate()),
            self.writes,
            if self.writes == 0 {
                0.0
            } else {
                100.0 * self.write_hits as f64 / self.writes as f64
            }
        )?;
        writeln!(
            f,
            "flash: {} reads, {} programs, {} erases",
            self.flash_reads, self.flash_programs, self.erases
        )?;
        writeln!(
            f,
            "gc: {} runs moved {} pages, dropped {} ({:.2}% time overhead); {} evictions, {} flushed",
            self.gc_runs,
            self.gc_moved_pages,
            self.gc_dropped_pages,
            100.0 * self.gc_overhead(),
            self.evictions,
            self.flushed_dirty_pages
        )?;
        writeln!(
            f,
            "controller: +ecc {} / density {} (hot {}), uncorrectable {}, retired blocks {}, wear migrations {}",
            self.reconfig_ecc,
            self.reconfig_density,
            self.hot_promotions,
            self.uncorrectable_reads,
            self.retired_blocks,
            self.wear_migrations
        )?;
        write!(
            f,
            "admission: {} fills rejected, {} sketch halvings",
            self.admission_rejected_fills, self.admission_sketch_halvings
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_empty() {
        let s = CacheStats::default();
        assert_eq!(s.read_miss_rate(), 0.0);
        assert_eq!(s.miss_rate(), 0.0);
        assert_eq!(s.gc_overhead(), 0.0);
    }

    #[test]
    fn miss_rates_computed() {
        let s = CacheStats {
            reads: 100,
            read_hits: 80,
            writes: 100,
            write_hits: 40,
            ..CacheStats::default()
        };
        assert!((s.read_miss_rate() - 0.2).abs() < 1e-12);
        assert!((s.miss_rate() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn gc_overhead_fraction() {
        let s = CacheStats {
            foreground_us: 900.0,
            gc_time_us: 100.0,
            ..CacheStats::default()
        };
        assert!((s.gc_overhead() - 0.1).abs() < 1e-12);
    }

    /// Queue wait is not work: two runs that differ only in how long
    /// their foreground reads queued have the same GC overhead.
    #[test]
    fn gc_overhead_leaves_out_queue_wait() {
        let calm = CacheStats {
            foreground_us: 900.0,
            background_us: 400.0,
            gc_time_us: 300.0,
            ..CacheStats::default()
        };
        let queued = CacheStats {
            foreground_us: 900.0 + 250.0,
            queue_wait_us: 250.0,
            ..calm
        };
        assert_eq!(calm.gc_overhead(), 300.0 / 1600.0);
        assert_eq!(queued.gc_overhead().to_bits(), calm.gc_overhead().to_bits());
    }

    #[test]
    fn merge_is_fieldwise_additive() {
        let a = CacheStats {
            reads: 3,
            read_hits: 2,
            gc_time_us: 1.5,
            gc_dropped_pages: 5,
            internal_errors: 1,
            ..CacheStats::default()
        };
        let b = CacheStats {
            reads: 4,
            writes: 7,
            gc_time_us: 0.5,
            gc_dropped_pages: 2,
            admission_rejected_fills: 3,
            admission_sketch_halvings: 6,
            ..CacheStats::default()
        };
        let mut m = a;
        m.merge(&b);
        assert_eq!(m.admission_sketch_halvings, 6);
        assert_eq!(m.reads, 7);
        assert_eq!(m.read_hits, 2);
        assert_eq!(m.writes, 7);
        assert_eq!(m.gc_dropped_pages, 7);
        assert_eq!(m.internal_errors, 1);
        assert_eq!(m.admission_rejected_fills, 3);
        assert!((m.gc_time_us - 2.0).abs() < 1e-12);
        // Merging the zero stats is the identity.
        let mut z = a;
        z.merge(&CacheStats::default());
        assert_eq!(z, a);
    }

    #[test]
    fn display_mentions_key_counters() {
        let s = CacheStats {
            reads: 5,
            gc_runs: 2,
            gc_dropped_pages: 9,
            admission_rejected_fills: 7,
            admission_sketch_halvings: 3,
            ..CacheStats::default()
        };
        let text = s.to_string();
        assert!(text.contains("reads 5"));
        assert!(text.contains("gc: 2 runs moved 0 pages, dropped 9"));
        assert!(text.contains("admission: 7 fills rejected, 3 sketch halvings"));
    }
}
