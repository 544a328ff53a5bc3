//! Device timing: one deterministic resource-timeline NAND scheduler.
//!
//! [`EventDriven`] is the only modeled clock, and the device's
//! [`ChannelConfig`] is its only input besides the Table 2/3 latency
//! table. It places every operation, at submission, on a per-plane cell
//! free-time array behind a bounded per-channel admission window, in
//! the spirit of the multi-channel interleaving literature. There is no
//! event queue: an op starts when it is admitted and its plane falls
//! idle, and nothing is deferred. The scheduler is RNG-free and
//! allocates nothing after construction, so the same op stream always
//! yields the same timings.
//!
//! # Closed-form contract
//!
//! A serial config ([`ChannelConfig::is_serial`], the default: 1
//! channel, 1 plane, queue depth 1) makes every operation — fore- or
//! background — block and advance the clock, and makes every stall term
//! exactly `0.0`, so the one path *is* the running sum of table
//! latencies: the paper's closed-form model. `sched_props`'
//! `serial_event_backend_is_the_closed_form_oracle` pins waits,
//! services, the clock after every op and the drained makespan against
//! an in-test running sum, bit for bit.
//!
//! # Scheduling disciplines
//!
//! * Channel of a block: `block % channels`; plane within the channel:
//!   `(block / channels) % planes` — consecutive blocks stripe across
//!   channels first, then planes. A *lane* is one cell array, i.e. one
//!   (channel, plane) pair; [`EventDriven::lanes`] and
//!   [`EventDriven::lane_of`] expose the count and this mapping, and no
//!   other module restates it.
//! * The scheduler places ops where their block lives; spreading work
//!   over lanes is the allocator's job. The flash cache keeps a *write
//!   frontier* of `width` open blocks per region,
//!   `width = min(lanes, max(1, region_blocks / 8))`; a round-robin
//!   cursor hands consecutive slots to consecutive frontier
//!   positions, and an exhausted position reopens on the first free
//!   block whose lane no open block of the region occupies (else the
//!   front of the free list), so consecutive programs land on different
//!   lanes and their cell phases overlap. A serial configuration has
//!   one lane, hence width 1: the paper's single log head.
//! * Reads, programs and erases each occupy their plane for the table
//!   latency. Cell phases on different planes overlap; the model has no
//!   bus, so a page transfer costs nothing and orders nothing.
//! * At most `queue_depth` ops may be outstanding per channel; excess
//!   submissions stall until a slot frees (FIFO admission).
//! * Background ops (GC traffic, fills) consume plane time without
//!   advancing the foreground clock, so later foreground ops observe
//!   genuine queue wait.

use std::error::Error;
use std::fmt;

use crate::geometry::CellMode;
use crate::timing::FlashTiming;

/// The device clock. `EventDriven` is the only variant and the default;
/// the enum stays because `benchmark/src/workloads.rs` and
/// `benchmark/src/probes.rs` name it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimingBackend {
    /// The scheduler built from the device's `channel`.
    #[default]
    EventDriven,
}

/// Channel-level geometry and scheduling parameters of the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelConfig {
    /// Independent channels (each with its own admission window).
    pub channels: u32,
    /// Planes per channel (cell ops on different planes overlap).
    pub planes: u32,
    /// Outstanding ops admitted per channel before submissions stall.
    pub queue_depth: u32,
}

impl Default for ChannelConfig {
    fn default() -> Self {
        ChannelConfig {
            channels: 1,
            planes: 1,
            queue_depth: 1,
        }
    }
}

/// Invalid [`ChannelConfig`] description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelConfigError(&'static str);

impl fmt::Display for ChannelConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid channel config: {}", self.0)
    }
}

impl Error for ChannelConfigError {}

impl ChannelConfig {
    /// Starts a fluent builder seeded with the serial default; call
    /// [`ChannelConfigBuilder::build`] to validate and obtain the
    /// finished config.
    ///
    /// ```
    /// use nand_flash::sched::ChannelConfig;
    ///
    /// let cfg = ChannelConfig::builder()
    ///     .channels(4)
    ///     .planes(2)
    ///     .queue_depth(8)
    ///     .build()
    ///     .expect("valid channel config");
    /// assert_eq!(cfg.channels, 4);
    /// assert!(!cfg.is_serial());
    /// ```
    pub fn builder() -> ChannelConfigBuilder {
        ChannelConfigBuilder {
            config: ChannelConfig::default(),
        }
    }

    /// Validates invariants, returning a description of the first
    /// violation.
    ///
    /// # Errors
    ///
    /// [`ChannelConfigError`] describing the violated constraint.
    pub fn validate(&self) -> Result<(), ChannelConfigError> {
        if self.channels == 0 {
            return Err(ChannelConfigError("channels must be >= 1"));
        }
        if self.planes == 0 {
            return Err(ChannelConfigError("planes must be >= 1"));
        }
        if self.queue_depth == 0 {
            return Err(ChannelConfigError("queue_depth must be >= 1"));
        }
        Ok(())
    }

    /// Whether this configuration mimics serial execution: one channel,
    /// one plane, depth one. In this mode the scheduler is the
    /// closed-form model, byte for byte.
    pub fn is_serial(&self) -> bool {
        self.channels == 1 && self.planes == 1 && self.queue_depth <= 1
    }
}

/// Fluent constructor for [`ChannelConfig`], obtained from
/// [`ChannelConfig::builder`]. Follows the `FlashCacheConfig::builder`
/// style: each setter overrides one field,
/// [`build`](ChannelConfigBuilder::build) validates.
#[derive(Debug, Clone)]
pub struct ChannelConfigBuilder {
    config: ChannelConfig,
}

impl ChannelConfigBuilder {
    /// Sets the channel count.
    pub fn channels(mut self, channels: u32) -> Self {
        self.config.channels = channels;
        self
    }

    /// Sets planes per channel.
    pub fn planes(mut self, planes: u32) -> Self {
        self.config.planes = planes;
        self
    }

    /// Sets the per-channel outstanding-op limit.
    pub fn queue_depth(mut self, queue_depth: u32) -> Self {
        self.config.queue_depth = queue_depth;
        self
    }

    /// Validates and returns the finished configuration.
    ///
    /// # Errors
    ///
    /// [`ChannelConfigError`] for a zero channel, plane or depth count.
    pub fn build(self) -> Result<ChannelConfig, ChannelConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// Operation class, as the scheduler sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// Page read.
    Read,
    /// Page program.
    Program,
    /// Block erase.
    Erase,
}

/// One operation submitted to the scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpRequest {
    /// What the op does.
    pub class: OpClass,
    /// Cell mode (for erase: the block's worst programmed mode).
    pub mode: CellMode,
    /// Target block, used for channel/plane placement.
    pub block: u32,
    /// Background ops (GC, fills) consume device time without
    /// advancing the foreground clock.
    pub background: bool,
}

/// The timing verdict for one operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpTiming {
    /// Queueing delay before service began, µs. Exactly `0.0` under a
    /// serial [`ChannelConfig`].
    pub wait_us: f64,
    /// Device service time (the cell phase), µs.
    pub service_us: f64,
}

/// The Table 2/3 cell latency of one op, µs.
fn cell_us(class: OpClass, mode: CellMode) -> f64 {
    type T = FlashTiming;
    match (class, mode) {
        (OpClass::Read, CellMode::Slc) => T::SLC_READ_US,
        (OpClass::Read, CellMode::Mlc) => T::MLC_READ_US,
        (OpClass::Program, CellMode::Slc) => T::SLC_PROGRAM_US,
        (OpClass::Program, CellMode::Mlc) => T::MLC_PROGRAM_US,
        (OpClass::Erase, CellMode::Slc) => T::SLC_ERASE_US,
        (OpClass::Erase, CellMode::Mlc) => T::MLC_ERASE_US,
    }
}

#[inline]
fn channel_of(cfg: &ChannelConfig, block: u32) -> usize {
    (block % cfg.channels) as usize
}

#[inline]
fn plane_of(cfg: &ChannelConfig, block: u32) -> usize {
    let ch = channel_of(cfg, block);
    ch * cfg.planes as usize + ((block / cfg.channels) % cfg.planes) as usize
}

/// NAND scheduler with channel/plane parallelism over per-plane
/// free-time arrays.
///
/// See the module docs for the scheduling disciplines and the
/// closed-form contract. The scheduler is RNG-free: determinism is
/// structural. Scheduling allocates nothing.
#[derive(Debug)]
pub struct EventDriven {
    cfg: ChannelConfig,
    serial: bool,
    now_us: f64,
    /// Per-plane (channel-major) time at which the cell array falls idle.
    plane_free_us: Vec<f64>,
    /// Flat admission windows: `queue_depth` completion-time slots per
    /// channel, linearly scanned (the window is small and contiguous —
    /// no per-op heap churn).
    out_ends: Vec<f64>,
    out_len: Vec<u32>,
    depth: usize,
}

impl EventDriven {
    /// A scheduler over the Table 2/3 latencies ([`FlashTiming`]) and
    /// the given channel configuration.
    ///
    /// # Panics
    ///
    /// Panics with the [`ChannelConfigError`] text if `cfg` fails
    /// [`ChannelConfig::validate`] (a zero channel, plane or depth
    /// count would otherwise reach a remainder by zero at the first op).
    pub fn new(cfg: ChannelConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        let channels = cfg.channels as usize;
        let depth = cfg.queue_depth as usize;
        EventDriven {
            serial: cfg.is_serial(),
            now_us: 0.0,
            plane_free_us: vec![0.0; channels * cfg.planes as usize],
            out_ends: vec![0.0; channels * depth],
            out_len: vec![0; channels],
            depth,
            cfg,
        }
    }

    /// Number of lanes: cell arrays (planes, across all channels) whose
    /// phases overlap. One under a serial configuration.
    pub fn lanes(&self) -> usize {
        self.plane_free_us.len()
    }

    /// The lane (channel-major plane index, `< lanes()`) on which ops to
    /// `block` are placed — the mapping `op` uses, exposed so
    /// allocators can stripe without restating it.
    pub fn lane_of(&self, block: u32) -> usize {
        plane_of(&self.cfg, block)
    }

    /// FIFO queue-depth admission over the flat window: drop
    /// completions at or before `arrival_us`, then, while the window is
    /// still full, free the earliest completion and stall to it.
    #[inline]
    fn admit(&mut self, ch: usize, arrival_us: f64) -> f64 {
        let n = self.out_len[ch] as usize;
        let base = ch * self.depth;
        let slots = &mut self.out_ends[base..base + n];
        let mut kept = 0;
        for i in 0..n {
            let t = slots[i];
            if t > arrival_us {
                slots[kept] = t;
                kept += 1;
            }
        }
        let mut admit_us = arrival_us;
        while kept >= self.depth {
            // Remove the earliest completion; admission stalls to it.
            let slots = &mut self.out_ends[base..base + kept];
            let mut min_i = 0;
            for i in 1..kept {
                if slots[i] < slots[min_i] {
                    min_i = i;
                }
            }
            let t = slots[min_i];
            slots[min_i] = slots[kept - 1];
            kept -= 1;
            if t > admit_us {
                admit_us = t;
            }
        }
        self.out_len[ch] = kept as u32;
        admit_us
    }

    /// Prices one operation and advances internal state: the op is
    /// admitted to its channel's window no earlier than the clock, then
    /// starts once its plane falls idle. Each stall term is a
    /// `max(ready, free) - ready`, never `end - arrival - service`,
    /// which is what keeps serial-mode waits exactly `0.0`.
    /// Deterministic: the same op sequence yields the same timings and
    /// clock.
    pub fn op(&mut self, req: &OpRequest) -> OpTiming {
        let ch = channel_of(&self.cfg, req.block);
        let plane = plane_of(&self.cfg, req.block);
        let arrival_us = self.now_us;
        let admit_us = self.admit(ch, arrival_us);
        let start_us = self.plane_free_us[plane].max(admit_us);
        let service_us = cell_us(req.class, req.mode);
        let end_us = start_us + service_us;
        self.plane_free_us[plane] = end_us;
        let n = self.out_len[ch] as usize;
        self.out_ends[ch * self.depth + n] = end_us;
        self.out_len[ch] = (n + 1) as u32;
        if self.serial || !req.background {
            self.now_us = end_us;
        }
        OpTiming {
            wait_us: (admit_us - arrival_us) + (start_us - admit_us),
            service_us,
        }
    }

    /// Current modeled clock, µs: the foreground completion time.
    pub fn now_us(&self) -> f64 {
        self.now_us
    }

    /// Returns the makespan: the time at which every plane falls idle.
    /// Advances the clock to it.
    pub fn drain(&mut self) -> f64 {
        self.now_us = self
            .plane_free_us
            .iter()
            .fold(self.now_us, |latest, &t| latest.max(t));
        self.now_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fg(class: OpClass, mode: CellMode, block: u32) -> OpRequest {
        OpRequest {
            class,
            mode,
            block,
            background: false,
        }
    }

    fn bg(class: OpClass, mode: CellMode, block: u32) -> OpRequest {
        OpRequest {
            background: true,
            ..fg(class, mode, block)
        }
    }

    #[test]
    fn builder_validates() {
        assert!(ChannelConfig::builder().channels(0).build().is_err());
        assert!(ChannelConfig::builder().planes(0).build().is_err());
        assert!(ChannelConfig::builder().queue_depth(0).build().is_err());
        let cfg = ChannelConfig::builder()
            .channels(4)
            .planes(2)
            .queue_depth(8)
            .build()
            .unwrap();
        assert_eq!((cfg.channels, cfg.planes, cfg.queue_depth), (4, 2, 8));
        assert!(!cfg.is_serial());
        assert!(ChannelConfig::default().is_serial());
    }

    #[test]
    fn serial_event_model_matches_closed_form_bitwise() {
        let ops = [
            fg(OpClass::Read, CellMode::Slc, 0),
            bg(OpClass::Program, CellMode::Mlc, 1),
            fg(OpClass::Read, CellMode::Mlc, 1),
            bg(OpClass::Erase, CellMode::Mlc, 0),
            bg(OpClass::Program, CellMode::Slc, 2),
            fg(OpClass::Read, CellMode::Slc, 2),
        ];
        let mut clock_us = 0.0;
        let mut event = EventDriven::new(ChannelConfig::default());
        for op in &ops {
            let service_us = cell_us(op.class, op.mode);
            clock_us += service_us;
            let got = event.op(op);
            assert_eq!(got.wait_us.to_bits(), 0.0f64.to_bits());
            assert_eq!(got.service_us.to_bits(), service_us.to_bits());
            assert_eq!(clock_us.to_bits(), event.now_us().to_bits());
        }
        assert_eq!(clock_us.to_bits(), event.drain().to_bits());
        assert_eq!(clock_us.to_bits(), event.now_us().to_bits());
    }

    #[test]
    fn channels_overlap_background_work() {
        let cfg = ChannelConfig::builder()
            .channels(4)
            .queue_depth(8)
            .build()
            .unwrap();
        let mut event = EventDriven::new(cfg);
        // Four background programs striped across four channels overlap;
        // serially they would cost 4 * 200µs.
        for block in 0..4 {
            event.op(&bg(OpClass::Program, CellMode::Slc, block));
        }
        let makespan = event.drain();
        assert_eq!(makespan, 200.0, "four channels run four programs in one");

        let mut serial = EventDriven::new(ChannelConfig::default());
        for block in 0..4 {
            serial.op(&bg(OpClass::Program, CellMode::Slc, block));
        }
        assert_eq!(serial.drain(), 800.0);
    }

    #[test]
    fn background_traffic_delays_foreground_reads() {
        let cfg = ChannelConfig::builder()
            .channels(1)
            .queue_depth(8)
            .build()
            .unwrap();
        let mut event = EventDriven::new(cfg);
        // A background erase occupies the sole plane...
        event.op(&bg(OpClass::Erase, CellMode::Mlc, 0));
        // ...so a foreground read on the same plane waits out the erase.
        let t = event.op(&fg(OpClass::Read, CellMode::Slc, 0));
        assert_eq!(t.wait_us, 3300.0);
        assert_eq!(t.service_us, 25.0);
    }

    #[test]
    fn queue_depth_throttles_admission() {
        let deep = ChannelConfig::builder()
            .channels(1)
            .planes(4)
            .queue_depth(4)
            .build()
            .unwrap();
        let shallow = ChannelConfig::builder()
            .channels(1)
            .planes(4)
            .queue_depth(1)
            .build()
            .unwrap();
        // Four erases on four planes: deep queue overlaps them, a
        // depth-1 queue serializes admission.
        let mut a = EventDriven::new(deep);
        let mut b = EventDriven::new(shallow);
        for block in 0..4 {
            a.op(&bg(OpClass::Erase, CellMode::Slc, block));
            b.op(&bg(OpClass::Erase, CellMode::Slc, block));
        }
        assert_eq!(a.drain(), 1500.0);
        assert_eq!(b.drain(), 4.0 * 1500.0);
    }

    /// Two reads on the two planes of one channel overlap: each ends at
    /// its own cell time, the shorter one not held behind the longer.
    #[test]
    fn reads_on_sibling_planes_end_at_their_own_cell_time() {
        let cfg = ChannelConfig::builder()
            .planes(2)
            .queue_depth(2)
            .build()
            .unwrap();
        let mut event = EventDriven::new(cfg);
        assert_ne!(event.lane_of(0), event.lane_of(1));
        event.op(&bg(OpClass::Read, CellMode::Mlc, 0));
        let t = event.op(&fg(OpClass::Read, CellMode::Slc, 1));
        assert_eq!((t.wait_us, t.service_us), (0.0, FlashTiming::SLC_READ_US));
        assert_eq!(event.now_us(), FlashTiming::SLC_READ_US);
        assert_eq!(event.drain(), FlashTiming::MLC_READ_US);
    }

    #[test]
    fn closed_form_clock_sums_services() {
        let mut model = EventDriven::new(ChannelConfig::default());
        model.op(&fg(OpClass::Read, CellMode::Slc, 0));
        model.op(&fg(OpClass::Program, CellMode::Mlc, 0));
        assert_eq!(model.now_us(), 25.0 + 680.0);
        assert_eq!(model.drain(), 25.0 + 680.0);
    }
}
