//! Criterion micro-benchmarks of the NAND scheduler: schedule cycles,
//! each read out by its makespan, at queue depths 1, 8, and 64, the
//! serial configuration, and foreground reads suspending and overtaking
//! background programs — the scheduler hot path itself, isolated from
//! the cache layers above it.

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

/// One schedule cycle: a burst of mixed fore/background ops (the
/// read-heavy 8:2 mix the replay path produces) and its makespan, on
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
    model.makespan_us()
}

/// One overtaking cycle on a long-lived model: bursts of three
/// background programs on one of four lanes, each followed by a
/// foreground read there that suspends the running program and goes
/// ahead of every program on that lane not yet started. A foreground
/// program on each lane then waits its backlog out, so the next cycle
/// starts on idle lanes. The model is reused, so its timelines stay at
/// their high-water mark and nothing is allocated.
fn overtake_cycle(model: &mut EventDriven, burst: u32) -> f64 {
    const LANES: [u32; 4] = [0, 1, CHANNELS, CHANNELS + 1];
    for i in 0..burst {
        let block = LANES[(i / 4 % 4) as usize];
        let req = OpRequest {
            class: if i % 4 == 3 {
                OpClass::Read
            } else {
                OpClass::Program
            },
            mode: CellMode::Mlc,
            block,
            background: i % 4 != 3,
        };
        std::hint::black_box(model.op(&req));
    }
    for block in LANES {
        std::hint::black_box(model.op(&OpRequest {
            class: OpClass::Program,
            mode: CellMode::Mlc,
            block,
            background: false,
        }));
    }
    model.makespan_us()
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
    let mut model = EventDriven::new(config(8));
    c.bench_function("sched_cycle_overtake", |b| {
        b.iter(|| std::hint::black_box(overtake_cycle(&mut model, 256)))
    });
}

criterion_group!(flashcache_sched, bench_sched);
criterion_main!(flashcache_sched);
