//! Property-based tests of the device scheduler (`nand_flash::sched`).
//!
//! Four contracts are pinned here:
//!
//! 1. **Closed form**: for *any* operation sequence, the scheduler
//!    under a serial config reports `(wait, service)` pairs, clock, and
//!    makespan byte-identical to a running sum over the latency table.
//! 2. **Determinism**: for *any* operation sequence and *any* valid
//!    channel configuration, replaying the run yields byte-identical
//!    timings and makespan — the scheduler is RNG-free.
//! 3. **No double-booking**: the makespan is at least every
//!    lane's sum of cell-phase times, and an unthrottled background
//!    burst costs exactly its busiest lane.
//! 4. **Reads go first**: a foreground read suspends the program or
//!    erase running on its plane, or waits out a running read, so it
//!    waits at most `max(SUSPEND_US, MLC read)`.
//! 5. **Parity**: a fixed, seeded mixed stream prices every op, counts
//!    and makespan to pinned values on three shapes, so a refactor of the
//!    scheduler's bookkeeping cannot move a number unnoticed.

use proptest::prelude::*;

use nand_flash::{
    CellMode, ChannelConfig, EventDriven, FlashTiming, OpClass, OpRequest, SchedCounts,
};

/// The paper's closed-form model as a reference: service is the Table
/// 2/3 latency (wait is zero, the clock is the running sum of these).
fn table_us(op: &OpRequest) -> f64 {
    type T = FlashTiming;
    match (op.class, op.mode) {
        (OpClass::Read, CellMode::Slc) => T::SLC_READ_US,
        (OpClass::Read, CellMode::Mlc) => T::MLC_READ_US,
        (OpClass::Program, CellMode::Slc) => T::SLC_PROGRAM_US,
        (OpClass::Program, CellMode::Mlc) => T::MLC_PROGRAM_US,
        (OpClass::Erase, CellMode::Slc) => T::SLC_ERASE_US,
        (OpClass::Erase, CellMode::Mlc) => T::MLC_ERASE_US,
    }
}

fn op_strategy() -> impl Strategy<Value = OpRequest> {
    (
        prop_oneof![
            4 => Just(OpClass::Read),
            4 => Just(OpClass::Program),
            1 => Just(OpClass::Erase),
        ],
        any::<bool>(),
        0..64u32,
        any::<bool>(),
    )
        .prop_map(|(class, slc, block, background)| OpRequest {
            class,
            mode: if slc { CellMode::Slc } else { CellMode::Mlc },
            block,
            background,
        })
}

fn channel_strategy() -> impl Strategy<Value = ChannelConfig> {
    (1..6u32, 1..4u32, 1..8u32).prop_map(|(channels, planes, queue_depth)| {
        ChannelConfig::builder()
            .channels(channels)
            .planes(planes)
            .queue_depth(queue_depth)
            .build()
            .expect("strategy only emits valid configs")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Closed-form contract: serial scheduling *is* the table sum, bit
    /// for bit, for arbitrary op sequences.
    #[test]
    fn serial_event_backend_is_the_closed_form_oracle(
        ops in prop::collection::vec(op_strategy(), 1..200),
    ) {
        let cfg = ChannelConfig::default();
        prop_assert!(cfg.is_serial());
        let mut clock_us = 0.0f64;
        let mut event = EventDriven::new(cfg);
        for (i, op) in ops.iter().enumerate() {
            let service_us = table_us(op);
            clock_us += service_us;
            let got = event.op(op);
            prop_assert_eq!(
                got.wait_us.to_bits(), 0.0f64.to_bits(),
                "wait diverged at op {} ({:?})", i, op
            );
            prop_assert_eq!(
                got.service_us.to_bits(), service_us.to_bits(),
                "service diverged at op {} ({:?})", i, op
            );
            prop_assert_eq!(clock_us.to_bits(), event.now_us().to_bits());
        }
        prop_assert_eq!(clock_us.to_bits(), event.makespan_us().to_bits());
        prop_assert_eq!(clock_us.to_bits(), event.now_us().to_bits());
        prop_assert_eq!(event.counts(), SchedCounts::default());
    }

    /// Determinism contract: same config + same ops ⇒ byte-identical
    /// per-op timings and makespan across independent runs.
    #[test]
    fn event_backend_is_deterministic(
        ops in prop::collection::vec(op_strategy(), 1..200),
        cfg in channel_strategy(),
    ) {
        let run = || {
            let mut model = EventDriven::new(cfg);
            let timings: Vec<(u64, u64)> = ops
                .iter()
                .map(|op| {
                    let t = model.op(op);
                    (t.wait_us.to_bits(), t.service_us.to_bits())
                })
                .collect();
            let makespan = model.makespan_us().to_bits();
            (timings, makespan)
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.0, b.0, "per-op timings diverged");
        prop_assert_eq!(a.1, b.1, "makespan diverged");
    }

    /// Sanity envelope for every backend/config: waits are non-negative
    /// and finite, service times are positive table sums, the clock
    /// never runs backwards, and the makespan bounds the clock without
    /// moving it.
    #[test]
    fn timings_stay_in_the_physical_envelope(
        ops in prop::collection::vec(op_strategy(), 1..200),
        cfg in channel_strategy(),
    ) {
        let mut model = EventDriven::new(cfg);
        let mut last_now = model.now_us();
        for op in &ops {
            let t = model.op(op);
            prop_assert!(t.wait_us >= 0.0 && t.wait_us.is_finite(), "wait {}", t.wait_us);
            prop_assert!(t.service_us > 0.0 && t.service_us.is_finite());
            let now = model.now_us();
            prop_assert!(now >= last_now, "clock ran backwards: {} -> {}", last_now, now);
            last_now = now;
        }
        let makespan = model.makespan_us();
        prop_assert!(makespan >= last_now);
        prop_assert_eq!(model.now_us().to_bits(), last_now.to_bits(), "reading the makespan moved the clock");
    }

    /// Foreground reads go first: a read never waits for a window slot
    /// or a booked op, and it suspends a running program or erase, so
    /// it waits at most the suspend cost or one running read.
    #[test]
    fn foreground_read_waits_for_at_most_one_op(
        ops in prop::collection::vec(op_strategy(), 1..200),
        cfg in channel_strategy(),
    ) {
        let mut model = EventDriven::new(cfg);
        let bound_us = FlashTiming::SUSPEND_US.max(FlashTiming::MLC_READ_US);
        for op in &ops {
            let t = model.op(op);
            if op.class == OpClass::Read && !op.background {
                prop_assert!(
                    t.wait_us <= bound_us,
                    "read waited {} on {:?}", t.wait_us, cfg
                );
            }
        }
    }

    /// No lane is double-booked and no op is dropped: whatever the op
    /// mix and channel shape, the makespan covers every lane's
    /// cell-phase total.
    #[test]
    fn makespan_covers_every_lane(
        ops in prop::collection::vec(op_strategy(), 1..200),
        cfg in channel_strategy(),
    ) {
        let mut model = EventDriven::new(cfg);
        let mut lane_us = vec![0.0f64; model.lanes()];
        for op in &ops {
            model.op(op);
            lane_us[model.lane_of(op.block)] += table_us(op);
        }
        let makespan = model.makespan_us();
        for (lane, &busy_us) in lane_us.iter().enumerate() {
            prop_assert!(makespan >= busy_us, "lane {}: {} < {}", lane, makespan, busy_us);
        }
    }

    /// With nothing to throttle it — every op background, a window as
    /// deep as the burst — a burst of reads, programs and erases costs
    /// exactly its busiest lane's running sum, bit for bit (generalises
    /// `channels_overlap_background_work`).
    #[test]
    fn unthrottled_background_burst_costs_its_busiest_lane(
        ops in prop::collection::vec(op_strategy(), 1..200),
        channels in 1..6u32,
        planes in 1..4u32,
    ) {
        let cfg = ChannelConfig::builder()
            .channels(channels)
            .planes(planes)
            .queue_depth(ops.len() as u32)
            .build()
            .expect("strategy only emits valid configs");
        let mut model = EventDriven::new(cfg);
        let mut lane_us = vec![0.0f64; model.lanes()];
        for op in &ops {
            let op = OpRequest { background: true, ..*op };
            model.op(&op);
            lane_us[model.lane_of(op.block)] += table_us(&op);
        }
        let busiest_us = lane_us.iter().fold(0.0f64, |m, &t| m.max(t));
        prop_assert_eq!(model.makespan_us().to_bits(), busiest_us.to_bits());
    }
}

/// SplitMix64: the parity stream's only source of variety.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut x = *state;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Replays 2 000 seeded ops (reads, programs and erases, each in the
/// foreground or background) on `cfg`. Returns an FNV-1a checksum of
/// every op's `(wait_us, service_us)` bits, the counts and the
/// makespan.
fn parity_run(cfg: ChannelConfig) -> (u64, SchedCounts, f64) {
    let mut state = 20_080_621u64;
    let mut model = EventDriven::new(cfg);
    let mut sum = 0xCBF2_9CE4_8422_2325u64;
    for _ in 0..2_000 {
        let r = splitmix(&mut state);
        let class = match r % 9 {
            0..=3 => OpClass::Read,
            4..=7 => OpClass::Program,
            _ => OpClass::Erase,
        };
        let op = OpRequest {
            class,
            mode: if r >> 8 & 1 == 0 {
                CellMode::Slc
            } else {
                CellMode::Mlc
            },
            block: (r >> 16) as u32 % 64,
            background: r >> 32 & 3 != 0,
        };
        let t = model.op(&op);
        for bits in [t.wait_us.to_bits(), t.service_us.to_bits()] {
            for byte in bits.to_le_bytes() {
                sum = (sum ^ u64::from(byte)).wrapping_mul(0x0100_0000_01B3);
            }
        }
    }
    let makespan_us = model.makespan_us();
    (sum, model.counts(), makespan_us)
}

/// Parity tripwire: the seeded stream's timings, counts and makespan
/// on a serial, a shallow and a deep parallel shape are pinned bit for
/// bit. A change that means to move them restates this test on purpose.
#[test]
fn a_seeded_mixed_stream_keeps_its_pinned_timings() {
    let shape = |channels, planes, queue_depth| {
        ChannelConfig::builder()
            .channels(channels)
            .planes(planes)
            .queue_depth(queue_depth)
            .build()
            .unwrap()
    };
    let pinned: [(ChannelConfig, u64, u64, u64, f64, f64); 3] = [
        (shape(1, 1, 1), 0x1872_a556_cfdd_a055, 0, 0, 0.0, 981_525.0),
        (shape(2, 4, 2), 0xcfcd_bfb9_b12f_6f60, 40, 0, 0.0, 499_870.0),
        (shape(8, 2, 8), 0x33ec_b251_c7bb_7934, 47, 0, 0.0, 316_330.0),
    ];
    for (cfg, sum, suspensions, host_stalls, host_stall_us, makespan_us) in pinned {
        let (got_sum, counts, got_makespan_us) = parity_run(cfg);
        let got = (
            got_sum,
            counts.suspensions,
            counts.host_stalls,
            counts.host_stall_us.to_bits(),
            got_makespan_us.to_bits(),
        );
        let want = (
            sum,
            suspensions,
            host_stalls,
            host_stall_us.to_bits(),
            makespan_us.to_bits(),
        );
        assert_eq!(
            got, want,
            "{cfg:?}: {got_sum:#x} {counts:?} {got_makespan_us}"
        );
    }
}

/// The delay the seeded stream's reads push onto booked ops, µs: the
/// sums the device took op by op before the delay became a
/// `SchedCounts` field.
#[test]
fn a_seeded_mixed_stream_pushes_its_pinned_delay() {
    for (channels, planes, queue_depth, pushed_us) in
        [(1, 1, 1, 0.0), (2, 4, 2, 1_250.0), (8, 2, 8, 1_630.0)]
    {
        let cfg = ChannelConfig {
            channels,
            planes,
            queue_depth,
        };
        assert_eq!(parity_run(cfg).1.pushed_us, pushed_us, "{cfg:?}");
    }
}
