//! Modeled device-time behaviour of the event-driven backend at the
//! engine level: more channels must shorten the device makespan (i.e.
//! raise modeled pages/s) for the same Zipf trace, and the serial
//! event configuration must agree with the closed-form oracle.

use disk_trace::{OpKind, WorkloadSpec};
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
