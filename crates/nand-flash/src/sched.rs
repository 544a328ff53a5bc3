//! Device timing: one deterministic resource-timeline NAND scheduler.
//!
//! [`EventDriven`] is the only modeled clock, and the device's
//! [`ChannelConfig`] is its only input besides the Table 2/3 latency
//! table. It places every operation, at submission, on a per-plane
//! timeline behind a bounded per-channel admission window, in the
//! spirit of the multi-channel interleaving literature. There is no
//! event queue: only a foreground read moves what is already booked,
//! only an op advances the clock, and [`EventDriven::makespan_us`] is a
//! query. The scheduler is RNG-free and allocates nothing past each
//! plane's high-water mark, so the same op stream always yields the
//! same timings.
//!
//! # Closed-form contract: a serial device books nothing ahead
//!
//! A serial config ([`ChannelConfig::is_serial`], the default: 1
//! channel, 1 plane, queue depth 1) has depth 0 (see the next section),
//! so every op blocks, nothing is booked ahead of an arrival and every
//! stall term is exactly `0.0`: the one path *is* the running sum of
//! table latencies, the paper's closed-form model. `sched_props`'
//! `serial_event_backend_is_the_closed_form_oracle` pins waits,
//! services, the clock after every op and the makespan against
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
//! * All ops but foreground reads are admitted FIFO, at most
//!   `queue_depth` outstanding per channel, then wait for their plane.
//!   A background op (GC, a fill) is booked on its plane, and its slot
//!   in the channel's window refers to that booking (plane, sequence
//!   number): the plane's booked deque is the one record of an op's
//!   times, and an op that has left it has ended by the clock, so its
//!   slot is free. While the plane holds more than its depth
//!   (`BOOKED_CAP`, 0 when serial) the clock advances to the end of the
//!   oldest, which leaves the timeline (on a parallel plane, a host
//!   stall: [`SchedCounts::host_stalls`]). A foreground program or
//!   erase takes no slot: the host waits it out, so it has ended before
//!   any later admission.
//! * A foreground read goes first: it takes no slot and starts ahead of
//!   every op booked on its plane that has not started, which moves
//!   later, slot and all, by what the read occupies
//!   ([`SchedCounts::pushed_us`]). A program or erase running there
//!   with more than [`FlashTiming::SUSPEND_US`] left is suspended: the
//!   read starts `SUSPEND_US` after it arrives, and the op, slot and
//!   all, ends later by `SUSPEND_US` plus the read (a later read may
//!   suspend it again). A running read, or an op at most `SUSPEND_US`
//!   from its end, is waited out. So a read waits at most
//!   `max(SUSPEND_US, MLC read)`. A slot an admission stall freed
//!   before its op ended stays freed: the op admitted on it keeps its
//!   time, so a channel may briefly hold more than `queue_depth`.

use std::collections::VecDeque;
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
    /// Outstanding ops per channel, foreground reads aside.
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
    /// The deepest window a channel may have: the NVMe queue limit.
    pub const MAX_QUEUE_DEPTH: u32 = 65_536;

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
        if self.queue_depth > Self::MAX_QUEUE_DEPTH {
            return Err(ChannelConfigError("queue_depth must be <= 65536"));
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

    /// Sets the per-channel window for all ops but foreground reads.
    pub fn queue_depth(mut self, queue_depth: u32) -> Self {
        self.config.queue_depth = queue_depth;
        self
    }

    /// Validates and returns the finished configuration.
    ///
    /// # Errors
    ///
    /// [`ChannelConfigError`] for a config [`ChannelConfig::validate`] rejects.
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
    /// Background ops (GC, fills) are booked on their plane and hold
    /// the foreground clock only past its depth (module docs).
    pub background: bool,
}

/// The timing verdict for one operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpTiming {
    /// Queueing delay before service began, µs; exactly `0.0` if serial.
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

/// Booked ops past which a parallel plane makes the host wait. Unbounded,
/// `flashcache simulate --channels 8 --planes 2 --requests 200000` books
/// 23 214 on a plane; `channels8` peaks at 2 128 and never waits, and a
/// higher depth lengthens every read's push walk.
const BOOKED_CAP: usize = 4096;

/// An op as booked on its plane's timeline: the one record of its times.
#[derive(Debug, Clone, Copy)]
struct Booked {
    start_us: f64,
    end_us: f64,
    /// A program or erase, which a foreground read may suspend.
    suspendable: bool,
}

/// A window slot: the op booked `seq`-th on lane `plane`.
#[derive(Debug, Clone, Copy)]
struct Slot {
    plane: usize,
    seq: u64,
}

/// What the scheduler did to running ops and to the host clock, beyond
/// pricing each op, since it was built or its counts were last reset.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SchedCounts {
    /// Background programs and erases a foreground read suspended.
    pub suspensions: u64,
    /// Background ops that found their plane past its depth and held
    /// the host clock to the end of the plane's oldest booked op (never
    /// on a serial shape, whose depth-0 plane holds only the op itself).
    pub host_stalls: u64,
    /// Host-clock time those holds cost, µs.
    pub host_stall_us: f64,
    /// Delay foreground reads pushed onto the starts of the booked ops
    /// they overtook, µs.
    pub pushed_us: f64,
}

/// One cell array's booked work.
#[derive(Debug, Clone, Default)]
struct Plane {
    /// Time at which the cell array falls idle.
    free_us: f64,
    /// Background ops booked here and not yet seen to end, in order.
    booked: VecDeque<Booked>,
    /// Sequence number of `booked`'s front: the ops booked here that
    /// have left it.
    retired: u64,
}

impl Plane {
    /// End of the op booked `seq`-th here; an op that has left the
    /// timeline ended by the clock, so it reads as ended long ago.
    fn end_us(&self, seq: u64) -> f64 {
        seq.checked_sub(self.retired)
            .and_then(|i| self.booked.get(i as usize))
            .map_or(f64::NEG_INFINITY, |b| b.end_us)
    }

    /// Removes the oldest booked op.
    fn retire(&mut self) -> Option<Booked> {
        let oldest = self.booked.pop_front()?;
        self.retired += 1;
        Some(oldest)
    }

    /// Removes the booked ops that end at or before `now_us`.
    fn retire_ended(&mut self, now_us: f64) {
        while self.booked.front().is_some_and(|b| b.end_us <= now_us) {
            self.retire();
        }
    }
}

/// NAND scheduler with channel/plane parallelism over per-plane
/// timelines.
///
/// See the module docs for the scheduling disciplines and the
/// closed-form contract. RNG-free: determinism is structural.
#[derive(Debug)]
pub struct EventDriven {
    cfg: ChannelConfig,
    depth: usize,
    now_us: f64,
    /// Per-plane (channel-major) timelines.
    planes: Vec<Plane>,
    /// Per-channel admission windows, at most `queue_depth` slots each,
    /// in admission order but for stalls, which move the last slot into
    /// the one they free.
    windows: Vec<Vec<Slot>>,
    counts: SchedCounts,
}

impl EventDriven {
    /// A scheduler over the Table 2/3 latencies ([`FlashTiming`]) and
    /// the given channel configuration.
    ///
    /// # Panics
    ///
    /// Panics with the [`ChannelConfigError`] text if `cfg` fails
    /// [`ChannelConfig::validate`] (a zero count would reach a remainder
    /// by zero at the first op, an unbounded depth an allocation failure).
    pub fn new(cfg: ChannelConfig) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        let channels = cfg.channels as usize;
        EventDriven {
            depth: if cfg.is_serial() { 0 } else { BOOKED_CAP },
            now_us: 0.0,
            planes: vec![Plane::default(); channels * cfg.planes as usize],
            windows: vec![Vec::new(); channels],
            counts: SchedCounts::default(),
            cfg,
        }
    }

    /// Number of lanes: cell arrays (planes, across all channels) whose
    /// phases overlap. One under a serial configuration.
    pub fn lanes(&self) -> usize {
        self.planes.len()
    }

    /// The lane (channel-major plane index, `< lanes()`) on which ops to
    /// `block` are placed — the mapping `op` uses, exposed so
    /// allocators can stripe without restating it.
    pub fn lane_of(&self, block: u32) -> usize {
        plane_of(&self.cfg, block)
    }

    /// FIFO queue-depth admission: drop the slots whose ops end at or
    /// before `arrival_us`, then, if the window is still full, free the
    /// earliest completion and stall to it. A window holds at most
    /// `queue_depth` slots, so one freed slot admits the op.
    #[inline]
    fn admit(&mut self, ch: usize, arrival_us: f64) -> f64 {
        let planes = &self.planes;
        let window = &mut self.windows[ch];
        // One pass: each op's end is read once, and the first earliest
        // kept slot is found where it lands.
        let (mut kept, mut earliest, mut earliest_us) = (0, 0, f64::INFINITY);
        window.retain(|s| {
            let end_us = planes[s.plane].end_us(s.seq);
            if end_us <= arrival_us {
                return false;
            }
            if end_us < earliest_us {
                (earliest, earliest_us) = (kept, end_us);
            }
            kept += 1;
            true
        });
        if kept < self.cfg.queue_depth as usize {
            return arrival_us;
        }
        window.swap_remove(earliest);
        earliest_us
    }

    /// Prices one operation and advances internal state. A foreground
    /// read goes first (see the module docs).
    /// Every other op is admitted to its channel's window no earlier
    /// than the clock, then starts once its plane falls idle. Each
    /// stall term is a `max(ready, free) - ready`, never
    /// `end - arrival - service`, which is what keeps serial-mode waits
    /// exactly `0.0`. Deterministic: the same op sequence yields the
    /// same timings and clock.
    pub fn op(&mut self, req: &OpRequest) -> OpTiming {
        let ch = channel_of(&self.cfg, req.block);
        let plane = plane_of(&self.cfg, req.block);
        let service_us = cell_us(req.class, req.mode);
        if !req.background && req.class == OpClass::Read {
            return self.read_first(plane, service_us);
        }
        let arrival_us = self.now_us;
        let admit_us = self.admit(ch, arrival_us);
        let lane = &mut self.planes[plane];
        let start_us = lane.free_us.max(admit_us);
        let op = Booked {
            start_us,
            end_us: start_us + service_us,
            suspendable: req.class != OpClass::Read,
        };
        lane.free_us = op.end_us;
        if req.background {
            lane.retire_ended(arrival_us);
            if lane.booked.len() == lane.booked.capacity() {
                // Grow by a quarter, not double: with reads suspending
                // its work a plane books thousands of ops, and doubling
                // would leave up to half of that peak allocated unused.
                lane.booked.reserve_exact(lane.booked.len() / 4 + 1);
            }
            let seq = lane.retired + lane.booked.len() as u64;
            lane.booked.push_back(op);
            if lane.booked.len() > self.depth {
                self.now_us = lane.retire().map_or(arrival_us, |b| b.end_us);
                if self.depth > 0 {
                    self.counts.host_stalls += 1;
                    self.counts.host_stall_us += self.now_us - arrival_us;
                }
            }
            self.windows[ch].push(Slot { plane, seq });
        } else {
            // The host waits this op out, so it has ended before any
            // later admission: it takes no slot.
            self.now_us = op.end_us;
        }
        OpTiming {
            wait_us: (admit_us - arrival_us) + (start_us - admit_us),
            service_us,
        }
    }

    /// Places a foreground read on its plane ahead of every booked op
    /// that has not started (none on a serial shape). A running program
    /// or erase with more than [`FlashTiming::SUSPEND_US`] left is
    /// suspended for it; any other running op is waited out.
    fn read_first(&mut self, plane: usize, service_us: f64) -> OpTiming {
        let arrival_us = self.now_us;
        let lane = &mut self.planes[plane];
        lane.retire_ended(arrival_us);
        let mut pending = 0;
        let mut start_us = arrival_us;
        let mut ready_us = arrival_us + service_us;
        if let Some(running) = lane.booked.front_mut().filter(|b| b.start_us <= arrival_us) {
            pending = 1;
            if running.suspendable && running.end_us - arrival_us > FlashTiming::SUSPEND_US {
                start_us = arrival_us + FlashTiming::SUSPEND_US;
                running.end_us += FlashTiming::SUSPEND_US + service_us;
                ready_us = running.end_us;
                self.counts.suspensions += 1;
            } else {
                start_us = running.end_us;
                ready_us = start_us + service_us;
            }
        }
        let end_us = start_us + service_us;
        for b in lane.booked.range_mut(pending..) {
            if b.start_us >= ready_us {
                break;
            }
            let delay_us = ready_us - b.start_us;
            b.start_us = ready_us;
            b.end_us += delay_us;
            self.counts.pushed_us += delay_us;
            ready_us = b.end_us;
        }
        lane.free_us = lane.free_us.max(ready_us);
        self.now_us = end_us;
        OpTiming {
            wait_us: start_us - arrival_us,
            service_us,
        }
    }

    /// Suspensions, host stalls and pushed delay since construction or
    /// the device's last statistics reset.
    pub fn counts(&self) -> SchedCounts {
        self.counts
    }

    /// Zeroes [`counts`](Self::counts).
    pub(crate) fn reset_counts(&mut self) {
        self.counts = SchedCounts::default();
    }

    /// Current modeled clock, µs: the foreground completion time.
    pub fn now_us(&self) -> f64 {
        self.now_us
    }

    /// The makespan, µs: the time at which every plane falls idle.
    /// Reading it moves nothing; only ops advance the clock.
    pub fn makespan_us(&self) -> f64 {
        self.planes
            .iter()
            .fold(self.now_us, |latest, p| latest.max(p.free_us))
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
        let deepest = ChannelConfig::MAX_QUEUE_DEPTH;
        assert!(ChannelConfig::builder()
            .queue_depth(deepest)
            .build()
            .is_ok());
        let err = ChannelConfig::builder()
            .queue_depth(deepest + 1)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("queue_depth"), "{err}");
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
        assert_eq!(clock_us.to_bits(), event.makespan_us().to_bits());
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
        let makespan = event.makespan_us();
        assert_eq!(makespan, 200.0, "four channels run four programs in one");

        let mut serial = EventDriven::new(ChannelConfig::default());
        for block in 0..4 {
            serial.op(&bg(OpClass::Program, CellMode::Slc, block));
        }
        assert_eq!(serial.makespan_us(), 800.0);
    }

    /// A 1 × 1 plane of depth 8 running a background MLC erase: a read
    /// that arrives with it suspends it and is delayed by the suspend
    /// cost alone; the erase ends later by that cost plus the read.
    #[test]
    fn background_traffic_delays_foreground_reads() {
        let cfg = ChannelConfig::builder()
            .channels(1)
            .queue_depth(8)
            .build()
            .unwrap();
        let mut event = EventDriven::new(cfg);
        event.op(&bg(OpClass::Erase, CellMode::Mlc, 0));
        let t = event.op(&fg(OpClass::Read, CellMode::Slc, 0));
        assert_eq!(t.wait_us, FlashTiming::SUSPEND_US);
        assert_eq!((t.wait_us, t.service_us), (20.0, 25.0));
        assert_eq!(event.now_us(), 45.0);
        assert_eq!(event.counts().pushed_us, 0.0);
        assert_eq!(event.counts().suspensions, 1);
        assert_eq!(event.makespan_us(), 3300.0 + 45.0);
    }

    /// A foreground read suspends the program running on its plane and
    /// goes ahead of the one booked behind it: the running program ends
    /// at 200 + 20 + 25 = 245, and the booked one moves from 200..400 to
    /// 245..445.
    #[test]
    fn foreground_read_overtakes_a_booked_program() {
        let cfg = ChannelConfig::builder().queue_depth(8).build().unwrap();
        let mut event = EventDriven::new(cfg);
        event.op(&bg(OpClass::Program, CellMode::Slc, 0));
        let booked = event.op(&bg(OpClass::Program, CellMode::Slc, 0));
        assert_eq!(booked.wait_us, 200.0);
        let t = event.op(&fg(OpClass::Read, CellMode::Slc, 0));
        assert_eq!((t.wait_us, event.counts().pushed_us), (20.0, 45.0));
        assert_eq!(event.now_us(), 45.0);
        assert_eq!(event.makespan_us(), 445.0);
    }

    /// The read takes no window slot, and the overtaken op's slot moves
    /// with it: a depth-1 window holding a booked program neither stalls
    /// the read nor admits the next op before the program, pushed, ends.
    #[test]
    fn overtaken_op_keeps_its_window_slot_and_the_read_takes_none() {
        let cfg = ChannelConfig::builder()
            .planes(2)
            .queue_depth(1)
            .build()
            .unwrap();
        let mut event = EventDriven::new(cfg);
        assert_eq!(event.lane_of(0), event.lane_of(2));
        assert_ne!(event.lane_of(0), event.lane_of(1));
        event.op(&bg(OpClass::Program, CellMode::Slc, 0));
        // Window full: the second program is admitted at 200.
        let booked = event.op(&bg(OpClass::Program, CellMode::Slc, 0));
        assert_eq!(booked.wait_us, 200.0);
        // The read is not held to that slot: it suspends the first
        // program (to 245) and pushes the second to 245..445.
        let t = event.op(&fg(OpClass::Read, CellMode::Slc, 2));
        assert_eq!((t.wait_us, event.counts().pushed_us), (20.0, 45.0));
        // An op on the idle sibling plane is admitted at 445, not 400.
        let next = event.op(&bg(OpClass::Read, CellMode::Slc, 1));
        assert_eq!(next.wait_us, 445.0 - 45.0);
        assert_eq!(event.makespan_us(), 470.0);
    }

    /// A foreground program or erase takes no window slot: the host
    /// waits it out, so it has ended before any later admission. On a
    /// depth-1 channel of two planes, a background op on the sibling
    /// plane issued right after one waits only for its own plane, while
    /// a background op does hold the slot a foreground op then waits for.
    #[test]
    fn a_foreground_program_or_erase_leaves_the_window_free() {
        let cfg = ChannelConfig::builder()
            .planes(2)
            .queue_depth(1)
            .build()
            .unwrap();
        let mut event = EventDriven::new(cfg);
        assert_ne!(event.lane_of(0), event.lane_of(1));
        event.op(&fg(OpClass::Program, CellMode::Slc, 0));
        let erase = event.op(&bg(OpClass::Erase, CellMode::Slc, 1));
        assert_eq!((erase.wait_us, event.now_us()), (0.0, 200.0));
        // The background erase holds the slot until 1 700.
        let held = event.op(&fg(OpClass::Erase, CellMode::Slc, 0));
        assert_eq!((held.wait_us, event.now_us()), (1500.0, 3200.0));
        let next = event.op(&bg(OpClass::Program, CellMode::Slc, 1));
        assert_eq!(next.wait_us, 0.0);
        assert_eq!(event.makespan_us(), 3400.0);
    }

    /// An admission stall evicts a booked program's slot before the
    /// program ends; a read then pushes the program, but the op
    /// admitted on that slot keeps its time. Depth 1 on 1 × 2: C is
    /// booked 200..400 behind A, D is admitted at 400, the read
    /// suspends A (to 270) and pushes C to 270..470, and C and D
    /// overlap from 400.
    #[test]
    fn an_op_admitted_on_an_evicted_slot_keeps_its_admission_time() {
        let cfg = ChannelConfig::builder()
            .planes(2)
            .queue_depth(1)
            .build()
            .unwrap();
        let mut event = EventDriven::new(cfg);
        event.op(&bg(OpClass::Program, CellMode::Slc, 0));
        let c = event.op(&bg(OpClass::Program, CellMode::Slc, 0));
        assert_eq!(c.wait_us, 200.0);
        let d = event.op(&bg(OpClass::Read, CellMode::Slc, 1));
        assert_eq!(d.wait_us, 400.0);
        let t = event.op(&fg(OpClass::Read, CellMode::Mlc, 0));
        assert_eq!((t.wait_us, event.counts().pushed_us), (20.0, 70.0));
        assert_eq!(event.now_us(), 70.0);
        // The window holds D alone: E is admitted at D's end, 425, not
        // at C's pushed end, 470.
        let e = event.op(&bg(OpClass::Read, CellMode::Slc, 1));
        assert_eq!(e.wait_us, 425.0 - 70.0);
        assert_eq!(event.makespan_us(), 470.0);
    }

    /// Past [`BOOKED_CAP`] booked ops a plane makes the host wait for
    /// its oldest: two programs over the depth hold the clock to the
    /// second one's end, two host stalls of 200 µs each. A read then
    /// suspends the one running program and pushes the rest.
    #[test]
    fn a_plane_past_its_depth_holds_the_host() {
        let cfg = ChannelConfig::builder().queue_depth(8).build().unwrap();
        let mut event = EventDriven::new(cfg);
        for _ in 0..BOOKED_CAP + 2 {
            event.op(&bg(OpClass::Program, CellMode::Slc, 0));
        }
        assert_eq!(event.now_us(), 2.0 * 200.0);
        assert_eq!(event.planes[0].booked.len(), BOOKED_CAP);
        let counts = event.counts();
        assert_eq!((counts.host_stalls, counts.host_stall_us), (2, 400.0));
        let t = event.op(&fg(OpClass::Read, CellMode::Slc, 0));
        assert_eq!(t.wait_us, 20.0);
        assert_eq!(event.now_us(), 2.0 * 200.0 + 45.0);
        assert_eq!(event.counts().pushed_us, (BOOKED_CAP - 1) as f64 * 45.0);
        assert_eq!(event.counts().suspensions, 1);
        assert_eq!(event.makespan_us(), (BOOKED_CAP + 2) as f64 * 200.0 + 45.0);
    }

    /// A 1 × 2 device books `running` on plane 0, runs the foreground
    /// ops `at` on plane 1 to move the clock into it, then reads a page
    /// on plane 0. Returns the read's timing and the scheduler.
    fn read_at(running: OpRequest, at: &[OpRequest], read: CellMode) -> (OpTiming, EventDriven) {
        let cfg = ChannelConfig::builder()
            .planes(2)
            .queue_depth(8)
            .build()
            .unwrap();
        let mut event = EventDriven::new(cfg);
        event.op(&running);
        for op in at {
            event.op(op);
        }
        let t = event.op(&fg(OpClass::Read, read, 0));
        (t, event)
    }

    /// A read 680 µs into an MLC erase suspends it: the read runs
    /// 700..725 and the erase ends at 3 300 + 45.
    #[test]
    fn a_read_mid_erase_suspends_it() {
        let (t, event) = read_at(
            bg(OpClass::Erase, CellMode::Mlc, 0),
            &[fg(OpClass::Program, CellMode::Mlc, 1)],
            CellMode::Slc,
        );
        assert_eq!((t.wait_us, t.service_us), (20.0, 25.0));
        assert_eq!(event.now_us(), 725.0);
        assert_eq!(event.counts().pushed_us, 0.0);
        assert_eq!(event.counts().suspensions, 1);
        assert_eq!(event.makespan_us(), 3345.0);
    }

    /// A read 100 µs into an MLC program suspends it: the read runs
    /// 120..170 and the program ends at 680 + 70.
    #[test]
    fn a_read_mid_program_suspends_it() {
        let (t, event) = read_at(
            bg(OpClass::Program, CellMode::Mlc, 0),
            &[fg(OpClass::Read, CellMode::Mlc, 1); 2],
            CellMode::Mlc,
        );
        assert_eq!((t.wait_us, t.service_us), (20.0, 50.0));
        assert_eq!(event.now_us(), 170.0);
        assert_eq!(event.counts().suspensions, 1);
        assert_eq!(event.makespan_us(), 750.0);
    }

    /// A running background read is never suspended: a read that
    /// arrives with it waits its 50 µs out.
    #[test]
    fn a_running_read_is_waited_out() {
        let (t, event) = read_at(bg(OpClass::Read, CellMode::Mlc, 0), &[], CellMode::Slc);
        assert_eq!((t.wait_us, t.service_us), (50.0, 25.0));
        assert_eq!(event.now_us(), 75.0);
        assert_eq!(event.counts().suspensions, 0);
        assert_eq!(event.makespan_us(), 75.0);
    }

    /// An erase with exactly [`FlashTiming::SUSPEND_US`] left (the clock
    /// at 680 + 4 × 200 = 1 480 of 1 500) is waited out, not suspended.
    #[test]
    fn an_op_within_the_suspend_cost_of_its_end_is_waited_out() {
        let mut at = vec![fg(OpClass::Program, CellMode::Mlc, 1)];
        at.extend([fg(OpClass::Program, CellMode::Slc, 1); 4]);
        let (t, event) = read_at(bg(OpClass::Erase, CellMode::Slc, 0), &at, CellMode::Slc);
        assert_eq!(t.wait_us, FlashTiming::SUSPEND_US);
        assert_eq!(event.now_us(), 1525.0);
        assert_eq!(event.counts().suspensions, 0);
        assert_eq!(event.makespan_us(), 1525.0);
    }

    /// An op can be suspended again: two reads in a row each suspend
    /// one MLC erase, which ends later by 45 µs per read.
    #[test]
    fn two_reads_suspend_one_erase() {
        let cfg = ChannelConfig::builder().queue_depth(8).build().unwrap();
        let mut event = EventDriven::new(cfg);
        event.op(&bg(OpClass::Erase, CellMode::Mlc, 0));
        let first = event.op(&fg(OpClass::Read, CellMode::Slc, 0));
        let second = event.op(&fg(OpClass::Read, CellMode::Slc, 0));
        assert_eq!((first.wait_us, second.wait_us), (20.0, 20.0));
        assert_eq!(event.now_us(), 90.0);
        assert_eq!(event.counts().suspensions, 2);
        assert_eq!(event.counts().pushed_us, 0.0);
        assert_eq!(event.makespan_us(), 3300.0 + 2.0 * 45.0);
    }

    /// A serial plane's depth is 0: after any op, fore- or background,
    /// nothing is left booked ahead of the next arrival, so no read
    /// suspends anything and no host stall is counted.
    #[test]
    fn a_serial_plane_holds_no_booked_op() {
        let mut event = EventDriven::new(ChannelConfig::default());
        for (i, class) in [OpClass::Program, OpClass::Read, OpClass::Erase]
            .into_iter()
            .cycle()
            .take(12)
            .enumerate()
        {
            let req = OpRequest {
                class,
                mode: if i % 2 == 0 {
                    CellMode::Slc
                } else {
                    CellMode::Mlc
                },
                block: i as u32,
                background: i % 4 != 1,
            };
            event.op(&req);
            assert!(event.planes.iter().all(|p| p.booked.is_empty()), "{req:?}");
            assert_eq!(event.counts().pushed_us, 0.0);
        }
        assert_eq!(event.counts(), SchedCounts::default());
    }

    /// On a serial shape the host waits out every background op, so a
    /// read never finds one running: nothing is suspended.
    #[test]
    fn a_serial_shape_never_suspends() {
        let mut event = EventDriven::new(ChannelConfig::default());
        event.op(&bg(OpClass::Erase, CellMode::Mlc, 0));
        let t = event.op(&fg(OpClass::Read, CellMode::Slc, 0));
        assert_eq!((t.wait_us, event.now_us()), (0.0, 3325.0));
        assert_eq!(event.counts().suspensions, 0);
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
        assert_eq!(a.makespan_us(), 1500.0);
        assert_eq!(b.makespan_us(), 4.0 * 1500.0);
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
        assert_eq!(event.makespan_us(), FlashTiming::MLC_READ_US);
    }

    #[test]
    fn closed_form_clock_sums_services() {
        let mut model = EventDriven::new(ChannelConfig::default());
        model.op(&fg(OpClass::Read, CellMode::Slc, 0));
        model.op(&fg(OpClass::Program, CellMode::Mlc, 0));
        assert_eq!(model.now_us(), 25.0 + 680.0);
        assert_eq!(model.makespan_us(), 25.0 + 680.0);
    }
}
