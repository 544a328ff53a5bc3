//! Criterion micro-benchmarks of the NAND scheduler: schedule + drain
//! cycles at queue depths 1, 8, and 64, plus the serial configuration —
//! the scheduler hot path itself, isolated from the cache layers above
//! it.

use criterion::{criterion_group, criterion_main, Criterion};

use nand_flash::sched::{ChannelConfig, EventDriven, OpClass, OpRequest};
use nand_flash::CellMode;

const CHANNELS: u32 = 4;
const PLANES: u32 = 2;

fn config(queue_depth: u32) -> ChannelConfig {
    ChannelConfig::builder()
        .channels(CHANNELS)
        .planes(PLANES)
        .queue_depth(queue_depth)
        .build()
        .expect("bench channel config is valid")
}

/// One schedule/drain cycle: a burst of mixed fore/background ops (the
/// read-heavy 8:2 mix the replay path produces) followed by a drain, on
/// a model constructed per-iteration so queue state never accumulates
/// across cycles.
fn cycle(cfg: ChannelConfig, burst: u32) -> f64 {
    let mut model = EventDriven::new(cfg);
    for i in 0..burst {
        let req = if i % 5 == 4 {
            OpRequest {
                class: OpClass::Program,
                mode: CellMode::Slc,
                block: i % 64,
                background: true,
            }
        } else {
            OpRequest {
                class: OpClass::Read,
                mode: CellMode::Mlc,
                block: (i * 3) % 64,
                background: false,
            }
        };
        std::hint::black_box(model.op(&req));
    }
    model.drain()
}

fn bench_sched(c: &mut Criterion) {
    for depth in [1u32, 8, 64] {
        let cfg = config(depth);
        c.bench_function(&format!("sched_cycle_depth{depth}"), |b| {
            b.iter(|| std::hint::black_box(cycle(cfg, 256)))
        });
    }
    // The serial configuration: what a default device runs.
    let serial = ChannelConfig::builder()
        .build()
        .expect("serial config is valid");
    c.bench_function("sched_cycle_serial", |b| {
        b.iter(|| std::hint::black_box(cycle(serial, 256)))
    });
}

criterion_group!(flashcache_sched, bench_sched);
criterion_main!(flashcache_sched);
