//! Property-based tests of the device scheduler (`nand_flash::sched`).
//!
//! Two contracts are pinned here (the wheel-vs-heap queue lock-step
//! lives in-crate, next to the `#[cfg(test)]` heap queue):
//!
//! 1. **Closed form**: for *any* operation sequence, the scheduler
//!    under a serial config — through the closed-form arm of `op`
//!    (trace off) and through the general event path (trace on) —
//!    reports `(wait, service)` pairs, clock, and makespan
//!    byte-identical to a running sum over the latency table.
//! 2. **Determinism**: for *any* operation sequence and *any* valid
//!    channel configuration, replaying the run yields a byte-identical
//!    event trace and makespan — the scheduler is RNG-free and its
//!    event queue pops in `(time, seq)` order.

use proptest::prelude::*;

use nand_flash::{CellMode, ChannelConfig, EventDriven, FlashTiming, OpClass, OpRequest};

/// The paper's closed-form model as a reference: service is the Table
/// 2/3 latency (wait is zero, the clock is the running sum of these).
fn table_us(t: &FlashTiming, op: &OpRequest) -> f64 {
    match (op.class, op.mode) {
        (OpClass::Read, CellMode::Slc) => t.slc_read_us,
        (OpClass::Read, CellMode::Mlc) => t.mlc_read_us,
        (OpClass::Program, CellMode::Slc) => t.slc_program_us,
        (OpClass::Program, CellMode::Mlc) => t.mlc_program_us,
        (OpClass::Erase, CellMode::Slc) => t.slc_erase_us,
        (OpClass::Erase, CellMode::Mlc) => t.mlc_erase_us,
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
        (any::<bool>(), 0..16u64),
        any::<bool>(),
    )
        .prop_map(
            |(class, slc, block, (with_lba, lba), background)| OpRequest {
                class,
                mode: if slc { CellMode::Slc } else { CellMode::Mlc },
                block,
                lba: with_lba.then_some(lba),
                background,
            },
        )
}

fn channel_strategy() -> impl Strategy<Value = ChannelConfig> {
    (
        1..6u32,
        1..4u32,
        1..8u32,
        prop_oneof![Just(0.0f64), Just(100.0), Just(750.0)],
        prop_oneof![Just(0.0f64), Just(10.0)],
    )
        .prop_map(|(channels, planes, queue_depth, writeback_us, xfer_us)| {
            ChannelConfig::builder()
                .channels(channels)
                .planes(planes)
                .queue_depth(queue_depth)
                .writeback_us(writeback_us)
                .xfer_us(xfer_us)
                .trace_capacity(4096)
                .build()
                .expect("strategy only emits valid configs")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Closed-form contract: serial scheduling *is* the table sum, bit
    /// for bit, for arbitrary op sequences, on both paths through `op`.
    #[test]
    fn serial_event_backend_is_the_closed_form_oracle(
        ops in prop::collection::vec(op_strategy(), 1..200),
        trace_capacity in prop_oneof![Just(0u32), Just(4096)],
    ) {
        let timing = FlashTiming::default();
        let cfg = ChannelConfig::builder()
            .trace_capacity(trace_capacity)
            .build()
            .expect("serial default is valid");
        prop_assert!(cfg.is_serial());
        let mut clock_us = 0.0f64;
        let mut event = EventDriven::new(timing, cfg);
        for (i, op) in ops.iter().enumerate() {
            let service_us = table_us(&timing, op);
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
    /// event trace, clock, and makespan across independent runs.
    #[test]
    fn event_backend_is_deterministic(
        ops in prop::collection::vec(op_strategy(), 1..200),
        cfg in channel_strategy(),
    ) {
        let timing = FlashTiming::default();
        let run = || {
            let mut model = EventDriven::new(timing, cfg);
            let timings: Vec<(u64, u64)> = ops
                .iter()
                .map(|op| {
                    let t = model.op(op);
                    (t.wait_us.to_bits(), t.service_us.to_bits())
                })
                .collect();
            let makespan = model.drain().to_bits();
            (timings, makespan, model.trace().to_vec())
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.0, b.0, "per-op timings diverged");
        prop_assert_eq!(a.1, b.1, "makespan diverged");
        prop_assert_eq!(a.2, b.2, "event trace diverged");
    }

    /// Sanity envelope for every backend/config: waits are non-negative
    /// and finite, service times are positive table sums, the clock
    /// never runs backwards, and the drained makespan bounds the clock.
    #[test]
    fn timings_stay_in_the_physical_envelope(
        ops in prop::collection::vec(op_strategy(), 1..200),
        cfg in channel_strategy(),
    ) {
        let timing = FlashTiming::default();
        let mut model = EventDriven::new(timing, cfg);
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
        prop_assert_eq!(model.buffered_writes(), 0, "drain must flush the write buffer");
    }
}
