//! Property-based tests of the device scheduler (`nand_flash::sched`).
//!
//! Three contracts are pinned here:
//!
//! 1. **Closed form**: for *any* operation sequence, the scheduler
//!    under a serial config reports `(wait, service)` pairs, clock, and
//!    makespan byte-identical to a running sum over the latency table.
//! 2. **Determinism**: for *any* operation sequence and *any* valid
//!    channel configuration, replaying the run yields byte-identical
//!    timings and makespan — the scheduler is RNG-free.
//! 3. **No double-booking**: the drained makespan is at least every
//!    lane's sum of cell-phase times and every channel's bus time, and
//!    an unthrottled background burst of programs and erases costs
//!    exactly its busiest lane.

use proptest::prelude::*;

use nand_flash::{CellMode, ChannelConfig, EventDriven, FlashTiming, OpClass, OpRequest};

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
    (
        1..6u32,
        1..4u32,
        1..8u32,
        prop_oneof![Just(0.0f64), Just(10.0)],
    )
        .prop_map(|(channels, planes, queue_depth, xfer_us)| {
            ChannelConfig::builder()
                .channels(channels)
                .planes(planes)
                .queue_depth(queue_depth)
                .xfer_us(xfer_us)
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
        prop_assert_eq!(clock_us.to_bits(), event.drain().to_bits());
        prop_assert_eq!(clock_us.to_bits(), event.now_us().to_bits());
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
            let makespan = model.drain().to_bits();
            (timings, makespan)
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.0, b.0, "per-op timings diverged");
        prop_assert_eq!(a.1, b.1, "makespan diverged");
    }

    /// Sanity envelope for every backend/config: waits are non-negative
    /// and finite, service times are positive table sums, the clock
    /// never runs backwards, and the drained makespan bounds the clock.
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
        let before = model.now_us();
        let makespan = model.drain();
        prop_assert!(makespan >= before);
        prop_assert_eq!(model.now_us().to_bits(), makespan.to_bits());
    }

    /// No lane or bus is double-booked and no op is dropped: whatever
    /// the op mix and channel shape, the drained makespan covers every
    /// lane's cell-phase total and every channel's bus total.
    #[test]
    fn makespan_covers_every_lane_and_bus(
        ops in prop::collection::vec(op_strategy(), 1..200),
        cfg in channel_strategy(),
    ) {
        let mut model = EventDriven::new(cfg);
        let mut lane_us = vec![0.0f64; model.lanes()];
        let mut transfers = vec![0u32; cfg.channels as usize];
        for op in &ops {
            model.op(op);
            let lane = model.lane_of(op.block);
            lane_us[lane] += table_us(op);
            if op.class != OpClass::Erase {
                transfers[lane / cfg.planes as usize] += 1;
            }
        }
        let makespan = model.drain();
        for (lane, &busy_us) in lane_us.iter().enumerate() {
            prop_assert!(makespan >= busy_us, "lane {}: {} < {}", lane, makespan, busy_us);
        }
        for (ch, &n) in transfers.iter().enumerate() {
            let bus_us = f64::from(n) * cfg.xfer_us;
            prop_assert!(makespan >= bus_us, "channel {}: {} < {}", ch, makespan, bus_us);
        }
    }

    /// With nothing to throttle it — every op background, a free bus, a
    /// window as deep as the burst — a burst of programs and erases
    /// costs exactly its busiest lane's running sum, bit for bit
    /// (generalises `channels_overlap_background_work`). Reads are left
    /// to the bound above: a read's transfer out queues behind the
    /// channel's previous transfer in submission order even at zero
    /// length, so on a multi-plane channel it may end later than its
    /// own lane's sum.
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
        for op in ops.iter().filter(|op| op.class != OpClass::Read) {
            let op = OpRequest { background: true, ..*op };
            model.op(&op);
            lane_us[model.lane_of(op.block)] += table_us(&op);
        }
        let busiest_us = lane_us.iter().fold(0.0f64, |m, &t| m.max(t));
        prop_assert_eq!(model.drain().to_bits(), busiest_us.to_bits());
    }
}
