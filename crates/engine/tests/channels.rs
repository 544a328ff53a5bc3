//! Modeled device time at the engine level, read through
//! `device_makespan_us`: more channels must shorten the makespan (i.e.
//! raise modeled pages/s) for the same Zipf trace, and on one
//! read-heavy trace four shards must finish at least 2.5x sooner than
//! one and eight channels at least 3x sooner than the serial device.

use disk_trace::{DiskRequest, OpKind, WorkloadSpec};
use flashcache_core::{CacheOp, FlashCacheConfig};
use flashcache_engine::ShardedCache;
use nand_flash::{ChannelConfig, FlashConfig, FlashGeometry};

fn config(channels: u32) -> FlashCacheConfig {
    let channel = ChannelConfig::builder()
        .channels(channels)
        .planes(2)
        .queue_depth(8)
        .build()
        .expect("valid channel config");
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

/// Replays a Zipf-popularity trace and returns the drained device
/// makespan (µs of modeled NAND time until every resource idles).
fn makespan(cfg: FlashCacheConfig, n: usize) -> f64 {
    let mut engine = ShardedCache::new(cfg, 1).expect("single shard");
    let reqs = WorkloadSpec::alpha1()
        .scaled(64)
        .generator(0x0401_2026)
        .take_requests(n);
    for req in &reqs {
        for page in req.pages() {
            engine.op(match req.op {
                OpKind::Read => CacheOp::read(page),
                OpKind::Write => CacheOp::write(page),
            });
        }
    }
    engine.device_makespan_us()
}

#[test]
fn four_channels_beat_one_channel_on_modeled_throughput() {
    let n = 20_000;
    let one = makespan(config(1), n);
    let four = makespan(config(4), n);
    assert!(one > 0.0 && four > 0.0);
    // Measures 1.40x. Both devices have two planes per channel, and 30%
    // of this trace is writes into a 13-block write region whose
    // frontier is one block wide, so that region's programs serialize
    // whatever the channel count.
    assert!(
        four * 1.3 <= one,
        "4-channel makespan {four} must be <= 1/1.3 of 1-channel {one} ({:.2}x)",
        one / four
    );
}

/// The read-heavy Zipf trace of the two scaling floors below: alpha1 at
/// 1/8 footprint, 5% writes, 20k requests.
fn scaling_trace() -> Vec<DiskRequest> {
    let mut spec = WorkloadSpec::alpha1().scaled(8);
    spec.write_fraction = 0.05;
    spec.generator(0x5EED).take_requests(20_000)
}

/// Replays [`scaling_trace`] in 512-request batches over a 512-block
/// device and returns the drained device makespan.
fn scaling_makespan(flash: FlashConfig, shards: usize) -> f64 {
    let cfg = FlashCacheConfig::builder()
        .flash(FlashConfig {
            geometry: FlashGeometry {
                blocks: 512,
                pages_per_block: 64,
            },
            ..flash
        })
        .build()
        .expect("test geometry is valid");
    let mut engine = ShardedCache::new(cfg, shards).expect("512 blocks divide by 4");
    for chunk in scaling_trace().chunks(512) {
        engine.submit(chunk);
    }
    engine.device_makespan_us()
}

/// Shard-scaling floor: shards are concurrently operating devices, so
/// the busiest of four must drain in at most 1/2.5 of the single
/// device's time. Hash imbalance and per-shard GC keep it short of the
/// ideal 4x.
#[test]
fn four_shards_cut_the_device_makespan_by_2_5x() {
    let (one, four) = (
        scaling_makespan(FlashConfig::default(), 1),
        scaling_makespan(FlashConfig::default(), 4),
    );
    assert!(one > 0.0 && four > 0.0);
    assert!(
        four * 2.5 <= one,
        "4-shard makespan {four} must be <= 1/2.5 of 1-shard {one} ({:.2}x)",
        one / four
    );
}

/// Lane-scaling floor: sysbench's `channels8` shape (8 channels x 2
/// planes, depth 8) against the serial one-channel device. The striped
/// write frontier spreads the trace's fills over the sixteen cell
/// arrays; with every fill on one open block it was 1.22x. Measures
/// 4.59x; what is left is foreground reads, issued one at a time.
#[test]
fn eight_channels_cut_the_device_makespan_by_3x() {
    let eight = FlashConfig {
        channel: ChannelConfig::builder()
            .channels(8)
            .planes(2)
            .queue_depth(8)
            .build()
            .expect("valid channel config"),
        ..FlashConfig::default()
    };
    let (one, eight) = (
        scaling_makespan(FlashConfig::default(), 1),
        scaling_makespan(eight, 1),
    );
    assert!(one > 0.0 && eight > 0.0);
    assert!(
        eight * 3.0 <= one,
        "8-channel makespan {eight} must be <= 1/3 of 1-channel {one} ({:.2}x)",
        one / eight
    );
}
