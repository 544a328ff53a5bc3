//! Modeled device time at the engine level, read through
//! `device_makespan_us`: more channels must shorten the makespan (i.e.
//! raise modeled pages/s) for the same Zipf trace, the serial event
//! configuration must agree with the closed-form backend, and four
//! shards must finish the same trace at least 2.5x sooner than one.

use disk_trace::{DiskRequest, OpKind, WorkloadSpec};
use flashcache_core::{CacheOp, FlashCacheConfig};
use flashcache_engine::ShardedCache;
use nand_flash::{ChannelConfig, FlashConfig, FlashGeometry, TimingBackend};

fn config(backend: TimingBackend, channels: u32) -> FlashCacheConfig {
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
                ..FlashGeometry::default()
            },
            timing_backend: backend,
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
    let one = makespan(config(TimingBackend::EventDriven, 1), n);
    let four = makespan(config(TimingBackend::EventDriven, 4), n);
    assert!(one > 0.0 && four > 0.0);
    // Same page count over a shorter makespan = strictly higher modeled
    // pages/s. Demand a real win, not float noise.
    assert!(
        four < one * 0.9,
        "4-channel makespan {four} must undercut 1-channel {one} by >10%"
    );
}

#[test]
fn event_makespan_at_one_channel_matches_closed_form_modeled_time() {
    // A depth-8 single-channel event model still serializes every op on
    // the one bus/plane pair, so its drained makespan cannot exceed the
    // closed-form running clock (which is the exact serial sum), and a
    // serial-mimic config reproduces it bit for bit.
    let n = 5_000;
    let closed = makespan(config(TimingBackend::ClosedForm, 1), n);
    let serial_cfg = {
        let mut cfg = config(TimingBackend::EventDriven, 1);
        cfg.flash.channel = ChannelConfig::default();
        cfg
    };
    let serial = makespan(serial_cfg, n);
    assert_eq!(
        serial.to_bits(),
        closed.to_bits(),
        "serial event makespan must equal the closed-form clock bit-for-bit"
    );
}

/// Shard-scaling floor on a read-heavy Zipf trace (alpha1 at 1/8
/// footprint, 5% writes, 20k requests in 512-request batches over a
/// 512-block device): shards are concurrently operating devices, so the
/// busiest of four must drain in at most 1/2.5 of the single device's
/// time. Hash imbalance and per-shard GC keep it short of the ideal 4x.
#[test]
fn four_shards_cut_the_device_makespan_by_2_5x() {
    let cfg = || {
        FlashCacheConfig::builder()
            .flash(FlashConfig {
                geometry: FlashGeometry {
                    blocks: 512,
                    pages_per_block: 64,
                    ..FlashGeometry::default()
                },
                ..FlashConfig::default()
            })
            .build()
            .expect("test geometry is valid")
    };
    let mut spec = WorkloadSpec::alpha1().scaled(8);
    spec.write_fraction = 0.05;
    let trace: Vec<DiskRequest> = spec.generator(0x5EED).take_requests(20_000);
    let run = |shards: usize| {
        let mut engine = ShardedCache::new(cfg(), shards).expect("512 blocks divide by 4");
        for chunk in trace.chunks(512) {
            engine.submit(chunk);
        }
        engine.device_makespan_us()
    };
    let (one, four) = (run(1), run(4));
    assert!(one > 0.0 && four > 0.0);
    assert!(
        four * 2.5 <= one,
        "4-shard makespan {four} must be <= 1/2.5 of 1-shard {one} ({:.2}x)",
        one / four
    );
}
