//! Reading the device's makespan is a query: a replay that reads
//! `Hierarchy::device_makespan_us` between batches runs exactly as one
//! that never reads it.
//!
//! The shape is where a read could move something: 8 channels × 2
//! planes at depth 8 book background work ahead of the clock, so a
//! read that advanced the clock to the makespan would retire that work
//! early and shorten later queue waits.

use disk_trace::{DiskRequest, WorkloadSpec};
use flashcache_core::{CacheStats, FlashCacheConfig};
use flashcache_sim::hierarchy::{Hierarchy, HierarchyConfig, HierarchyReport};
use nand_flash::{ChannelConfig, FlashConfig, FlashGeometry};

const REQUESTS: usize = 5_000;
const BATCH: usize = 64;
/// Batches between two reads of the makespan.
const PROBE_EVERY: usize = 10;

/// Replays the dbt2 trace (scaled by 64) with 2 MB of DRAM over 64 MB
/// of flash on 8 × 2 planes at depth 8, reading the makespan after
/// every `PROBE_EVERY`-th batch when `probe` is set.
fn replay(probe: bool) -> (HierarchyReport, CacheStats) {
    let channel = ChannelConfig::builder()
        .channels(8)
        .planes(2)
        .queue_depth(8)
        .build()
        .expect("valid channel config");
    let flash = FlashCacheConfig::builder()
        .flash(FlashConfig {
            geometry: FlashGeometry::for_mlc_capacity(64 << 20),
            channel,
            ..FlashConfig::default()
        })
        .build()
        .expect("valid flash config");
    let mut h = Hierarchy::new(HierarchyConfig {
        dram_bytes: 2 << 20,
        flash: Some(flash),
        ..HierarchyConfig::default()
    });
    let trace: Vec<DiskRequest> = WorkloadSpec::dbt2()
        .scaled(64)
        .generator(0x1507_2008)
        .take(REQUESTS)
        .collect();
    let mut outs = Vec::with_capacity(BATCH);
    for (i, batch) in trace.chunks(BATCH).enumerate() {
        outs.clear();
        h.submit_batch_into(batch, &mut outs);
        if probe && i % PROBE_EVERY == PROBE_EVERY - 1 {
            assert!(h.device_makespan_us().expect("flash is present") > 0.0);
        }
    }
    let stats = h.flash_engine().expect("flash is present").stats();
    (h.report().clone(), stats)
}

#[test]
fn reading_the_makespan_leaves_the_run_unchanged() {
    let (quiet, quiet_stats) = replay(false);
    let (probed, probed_stats) = replay(true);
    assert!(quiet.flash_queue_wait.mean_us() > 0.0, "the run must queue");
    assert_eq!(
        probed.avg_latency_us().to_bits(),
        quiet.avg_latency_us().to_bits(),
        "mean latency {} vs {}",
        probed.avg_latency_us(),
        quiet.avg_latency_us()
    );
    assert_eq!(probed.latency, quiet.latency);
    assert_eq!(probed.flash_latency, quiet.flash_latency);
    assert_eq!(probed.disk_latency, quiet.disk_latency);
    assert_eq!(probed.flash_queue_wait, quiet.flash_queue_wait);
    assert_eq!(probed_stats, quiet_stats);
}
