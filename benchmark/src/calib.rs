//! Host-speed calibration.
//!
//! The sandbox this benchmark is run in alternates, in phases of tens of
//! seconds, between two clock speeds about 26% apart: a register-only
//! integer chain, a trace replay and the BCH decoder all slow down by
//! the same factor at the same moments (CPU time moves with wall time,
//! so it is not preemption). Ten-second runs land wholly inside one
//! phase, and no statistic over repetitions can remove that.
//!
//! So every repetition is bracketed by a short reference kernel, and
//! host times are reported as they would read on a host that runs the
//! kernel at [`NOMINAL_STEPS_PER_S`]. The kernel is a latency-bound
//! multiply-xorshift chain: it shares no code with the simulator, so a
//! change to the simulator cannot move it, and on a steady host the
//! factor is a constant.

use std::hint::black_box;
use std::time::Instant;

/// Steps per second of the reference chain on the nominal host; chosen
/// between the sandbox's two speeds (535 M/s and 675 M/s), so that
/// normalised numbers stay close to raw ones.
pub const NOMINAL_STEPS_PER_S: f64 = 600e6;

/// The chain is timed in segments of about 5 ms and the fastest one
/// counts: a neighbour can only slow a segment down, so the fastest is
/// the one that saw the clock undisturbed.
const SEGMENTS: u32 = 10;
const STEPS_PER_SEGMENT: u64 = 3_000_000;

/// Speed of the host right now, as a multiple of the nominal host.
pub fn host_speed() -> f64 {
    let mut x = black_box(1u64);
    let mut fastest = f64::INFINITY;
    for _ in 0..SEGMENTS {
        let clock = Instant::now();
        for _ in 0..STEPS_PER_SEGMENT {
            x = (x ^ (x >> 30))
                .wrapping_mul(0xBF58_476D_1CE4_E5B9)
                .wrapping_add(0x9E37_79B9_7F4A_7C15);
        }
        fastest = fastest.min(clock.elapsed().as_secs_f64());
    }
    black_box(x);
    STEPS_PER_SEGMENT as f64 / fastest / NOMINAL_STEPS_PER_S
}
