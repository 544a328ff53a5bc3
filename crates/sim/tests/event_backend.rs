//! Hierarchy-level behaviour of the NAND scheduler.
//!
//! Pins the three observable contracts it gives the simulator:
//!
//! * every flash hit records its queue wait (`flash.queue_wait_us`),
//!   and on the serial channel shape the wait is identically zero;
//! * on a parallel channel shape, write-storm bursts create real
//!   contention, which the queue-wait histogram records, but a flash
//!   hit suspends the storm's programs and erases, so tail flash
//!   latency stays within the suspend cost of the same read traffic
//!   without the storm;
//! * a flash hit, a foreground read, waits for at most the suspend
//!   cost or one running read.

use disk_trace::{DiskRequest, WorkloadSpec};
use flashcache_core::FlashCacheConfig;
use flashcache_sim::hierarchy::{Hierarchy, HierarchyConfig};
use nand_flash::{ChannelConfig, FlashConfig, FlashGeometry, FlashTiming};

fn flash_config(channel: ChannelConfig) -> FlashCacheConfig {
    FlashCacheConfig::builder()
        .flash(FlashConfig {
            geometry: FlashGeometry {
                blocks: 128,
                pages_per_block: 32,
            },
            channel,
            ..FlashConfig::default()
        })
        .build()
        .expect("test geometry is valid")
}

fn hierarchy(channel: ChannelConfig) -> Hierarchy {
    Hierarchy::new(HierarchyConfig {
        // Small DRAM so flash actually sees traffic.
        dram_bytes: 1 << 20,
        flash: Some(flash_config(channel)),
        ..HierarchyConfig::default()
    })
}

/// Read-mostly foreground traffic, optionally interrupted every
/// `burst_every` requests by a burst of sequential writes (the storm).
fn drive(h: &mut Hierarchy, storm: bool) {
    let spec = WorkloadSpec::alpha1().scaled(64);
    let mut generator = spec.generator(0x0607_2026);
    for i in 0..12_000u64 {
        let req = generator.next_request();
        h.submit(DiskRequest::new(
            req.page,
            req.len,
            disk_trace::OpKind::Read,
        ));
        if storm && i % 64 == 0 {
            for k in 0..32u64 {
                h.submit(DiskRequest::write((i * 37 + k * 5) % 3_000));
            }
        }
    }
    h.drain();
}

#[test]
fn oracle_path_reports_zero_queue_wait() {
    let mut h = hierarchy(ChannelConfig::default());
    drive(&mut h, true);
    let r = h.report();
    assert!(r.flash_hit_pages > 0, "trace must exercise flash hits");
    assert!(!r.flash_queue_wait.is_empty());
    assert_eq!(
        r.flash_queue_wait.max_us(),
        0.0,
        "the serial shape never queues, so recorded wait must be exactly zero"
    );
    // One wait sample per flash hit.
    assert_eq!(r.flash_queue_wait.count(), r.flash_latency.count());

    // And the registry exports the wait histogram under its canonical
    // name.
    let reg = h.export_metrics();
    let dump = format!("{reg:?}");
    assert!(
        dump.contains("flash.queue_wait_us"),
        "missing wait histogram: {dump}"
    );
}

#[test]
fn write_storm_raises_tail_flash_latency() {
    let channel = ChannelConfig::builder()
        .channels(4)
        .planes(2)
        .queue_depth(4)
        .build()
        .expect("valid channel config");

    let mut calm = hierarchy(channel);
    drive(&mut calm, false);
    let mut storm = hierarchy(channel);
    drive(&mut storm, true);

    let calm_p99 = calm.report().flash_latency.percentile_us(0.99);
    let storm_p99 = storm.report().flash_latency.percentile_us(0.99);
    assert!(
        suspensions(&storm) > 0,
        "the storm's programs and erases must be running when hits arrive"
    );
    assert!(
        storm.report().flash_queue_wait.max_us() > 0.0,
        "storm bursts must produce visible queue wait"
    );
    assert!(
        storm_p99 <= calm_p99 + FlashTiming::SUSPEND_US,
        "a hit suspends the storm's work: calm p99 {calm_p99} vs storm {storm_p99}"
    );
}

/// Programs and erases foreground reads suspended, over every shard.
fn suspensions(h: &Hierarchy) -> u64 {
    let engine = h.flash_engine().expect("flash is configured");
    engine
        .shards()
        .iter()
        .map(|s| s.device().stats().suspensions)
        .sum()
}

/// Foreground reads go first: a flash hit suspends the program or
/// erase running on its plane and waits out a running read, so even
/// under the write storm no hit waits longer than the suspend cost or
/// one MLC read.
#[test]
fn flash_hits_wait_for_at_most_one_op() {
    let channel = ChannelConfig::builder()
        .channels(8)
        .planes(2)
        .queue_depth(8)
        .build()
        .expect("valid channel config");
    let mut h = hierarchy(channel);
    drive(&mut h, true);
    let wait = &h.report().flash_queue_wait;
    assert!(wait.max_us() > 0.0, "the storm must produce queue wait");
    assert!(
        wait.max_us() <= FlashTiming::SUSPEND_US.max(FlashTiming::MLC_READ_US),
        "max wait {} µs",
        wait.max_us()
    );
}
