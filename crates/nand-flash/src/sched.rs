//! Device timing: one deterministic discrete-event NAND scheduler.
//!
//! [`EventDriven`] is the only modeled clock. It prices every operation
//! from the Table 2/3 latency table and places it on per-channel bus
//! and per-plane cell timelines, with bounded queue depth and a
//! coalescing write buffer, in the spirit of FTL-SIM's event loop and
//! the multi-channel interleaving literature. [`TimingBackend`] selects
//! the scheduler's *configuration*, not an implementation:
//! `ClosedForm` builds it with the serial [`ChannelConfig::default`],
//! `EventDriven` with the device's configured channel shape.
//!
//! The scheduler is one core — flat per-channel admission windows,
//! channel/plane placement, and a no-contention bypass that
//! materializes no event at all when nothing can observe it (tracing
//! off) — over a global timeline that is a bucketed calendar queue
//! (timer wheel) with a slab event arena. Steady-state scheduling
//! allocates nothing.
//!
//! Events are keyed on `(time, seq)` — ties broken by submission
//! sequence — so replaying the same op stream always pops events in the
//! same order and the event trace is byte-reproducible. The wheel
//! quantizes event *placement* (bucket index) but never event *times*:
//! within a bucket the exact `(time, seq)` minimum is selected, and
//! bucket order is consistent with time order because the tick mapping
//! is monotone, so drained times are bit-identical to a total-order
//! heap; the in-crate tests pin this against a `BinaryHeap` queue.
//!
//! # Closed-form contract
//!
//! With [`ChannelConfig::is_serial`] (1 channel, 1 plane, queue depth 1,
//! zero transfer time, zero writeback delay) every operation — fore- or
//! background — blocks and advances the clock, every stall term is
//! exactly `0.0`, service is the table latency and the clock is the
//! running sum of service times: the paper's closed-form model. With
//! tracing off, [`EventDriven::op`] takes a dedicated arm that is that
//! arithmetic and nothing else. Tests pin both the arm and the general
//! event path against an in-test running sum over the table.
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
//!   `width = min(lanes, max(1, region_blocks / 8))`; a round-robin cursor hands consecutive slots to consecutive frontier
//!   positions, and an exhausted position reopens on the first free
//!   block whose lane no open block of the region occupies (else the
//!   front of the free list), so consecutive programs land on different
//!   lanes and their cell phases overlap. A serial configuration has
//!   one lane, hence width 1: the paper's single log head.
//! * Reads occupy the plane for the cell access, then the channel bus
//!   for the transfer out. Programs transfer over the bus first, then
//!   occupy the plane for the cell program. Erases occupy only the
//!   plane. Cell phases on different planes overlap; the bus serializes
//!   per channel.
//! * At most `queue_depth` ops may be outstanding per channel; excess
//!   submissions stall until a slot frees (FIFO admission).
//! * Background programs carrying an LBA are held in a write buffer for
//!   `writeback_us`; a rewrite of the same LBA inside the window
//!   supersedes the pending flush (generation counter), so only the
//!   last version occupies the NAND. Foreground ops arriving before a
//!   flush deadline are dispatched ahead of it.
//! * Background ops (GC traffic, fills, buffered flushes) consume
//!   channel and plane time without advancing the foreground clock, so
//!   later foreground ops observe genuine queue wait.

use std::error::Error;
use std::fmt;

use crate::fxhash::FxHashMap;
use crate::geometry::CellMode;
use crate::timing::FlashTiming;

mod queue;
use queue::{Ev, EvKind, EventQueue, TimerWheel};

/// Which channel configuration a device builds its scheduler with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimingBackend {
    /// The serial [`ChannelConfig::default`], whatever the device's
    /// `channel` says: per-op table sums, wait always zero.
    #[default]
    ClosedForm,
    /// The device's configured `channel`: channel/plane parallelism,
    /// queueing, write buffering.
    EventDriven,
}

/// Channel-level geometry and scheduling parameters of the scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelConfig {
    /// Independent channels (each with its own bus).
    pub channels: u32,
    /// Planes per channel (cell ops on different planes overlap).
    pub planes: u32,
    /// Outstanding ops admitted per channel before submissions stall.
    pub queue_depth: u32,
    /// Write-buffer hold time before a background program is flushed to
    /// the NAND, µs. Zero disables buffering.
    pub writeback_us: f64,
    /// Bus transfer time per page op, µs. Zero makes the bus free.
    pub xfer_us: f64,
    /// Maximum retained event-trace entries (0 disables tracing).
    pub trace_capacity: u32,
}

impl Default for ChannelConfig {
    fn default() -> Self {
        ChannelConfig {
            channels: 1,
            planes: 1,
            queue_depth: 1,
            writeback_us: 0.0,
            xfer_us: 0.0,
            trace_capacity: 0,
        }
    }
}

/// Invalid [`ChannelConfig`] description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelConfigError(String);

impl ChannelConfigError {
    fn new(msg: String) -> Self {
        ChannelConfigError(msg)
    }
}

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
    ///     .writeback_us(500.0)
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
            return Err(ChannelConfigError::new("channels must be >= 1".into()));
        }
        if self.planes == 0 {
            return Err(ChannelConfigError::new("planes must be >= 1".into()));
        }
        if self.queue_depth == 0 {
            return Err(ChannelConfigError::new("queue_depth must be >= 1".into()));
        }
        if !self.writeback_us.is_finite() || self.writeback_us < 0.0 {
            return Err(ChannelConfigError::new(format!(
                "writeback_us must be finite and >= 0, got {}",
                self.writeback_us
            )));
        }
        if !self.xfer_us.is_finite() || self.xfer_us < 0.0 {
            return Err(ChannelConfigError::new(format!(
                "xfer_us must be finite and >= 0, got {}",
                self.xfer_us
            )));
        }
        Ok(())
    }

    /// Whether this configuration mimics serial execution: one channel,
    /// one plane, depth one, free bus, no write buffering. In this mode
    /// the scheduler is the closed-form model, byte for byte.
    pub fn is_serial(&self) -> bool {
        self.channels == 1
            && self.planes == 1
            && self.queue_depth <= 1
            && self.writeback_us == 0.0
            && self.xfer_us == 0.0
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

    /// Sets the write-buffer hold time, µs.
    pub fn writeback_us(mut self, writeback_us: f64) -> Self {
        self.config.writeback_us = writeback_us;
        self
    }

    /// Sets the per-op bus transfer time, µs.
    pub fn xfer_us(mut self, xfer_us: f64) -> Self {
        self.config.xfer_us = xfer_us;
        self
    }

    /// Sets the event-trace retention limit.
    pub fn trace_capacity(mut self, trace_capacity: u32) -> Self {
        self.config.trace_capacity = trace_capacity;
        self
    }

    /// Validates and returns the finished configuration.
    ///
    /// # Errors
    ///
    /// [`ChannelConfigError`] for zero channel/plane/depth counts or
    /// negative/non-finite times.
    pub fn build(self) -> Result<ChannelConfig, ChannelConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// Operation class, as the scheduler sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// Page read: cell access then bus transfer out.
    Read,
    /// Page program: bus transfer in then cell program.
    Program,
    /// Block erase: cell only.
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
    /// Logical (disk) address, when known — enables write-buffer
    /// coalescing for background programs.
    pub lba: Option<u64>,
    /// Background ops (GC, fills, flushes) consume device time without
    /// advancing the foreground clock.
    pub background: bool,
}

/// The timing verdict for one operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpTiming {
    /// Queueing delay before service began, µs. Exactly `0.0` under a
    /// serial [`ChannelConfig`].
    pub wait_us: f64,
    /// Device service time (cell phase plus bus transfer), µs.
    pub service_us: f64,
}

/// Trace record kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// An op was placed on channel/plane resources.
    Dispatch,
    /// An op's completion event fired.
    Complete,
    /// A buffered write flushed to the NAND.
    WbFlush,
    /// A buffered write was superseded by a rewrite and never flushed.
    WbCoalesce,
}

/// One entry of the bounded event trace. Times are stored as raw `f64`
/// bits so equality is byte-exact across runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Event time as `f64::to_bits`.
    pub t_bits: u64,
    /// Global event sequence number.
    pub seq: u64,
    /// What happened.
    pub kind: TraceKind,
    /// Channel involved.
    pub channel: u32,
}

fn table_read(t: &FlashTiming, mode: CellMode) -> f64 {
    match mode {
        CellMode::Slc => t.slc_read_us,
        CellMode::Mlc => t.mlc_read_us,
    }
}

fn table_program(t: &FlashTiming, mode: CellMode) -> f64 {
    match mode {
        CellMode::Slc => t.slc_program_us,
        CellMode::Mlc => t.mlc_program_us,
    }
}

fn table_erase(t: &FlashTiming, mode: CellMode) -> f64 {
    match mode {
        CellMode::Slc => t.slc_erase_us,
        CellMode::Mlc => t.mlc_erase_us,
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

/// Internal dispatch result.
#[derive(Debug, Clone, Copy)]
struct OpSpan {
    wait_us: f64,
    service_us: f64,
    end_us: f64,
}

/// Discrete-event NAND scheduler with channel/plane parallelism.
///
/// See the module docs for the scheduling disciplines and the
/// closed-form contract. The scheduler is RNG-free: determinism is
/// structural. The core is generic over its event timeline
/// ([`EventQueue`]); the product always runs the [`TimerWheel`], and
/// steady-state scheduling allocates nothing.
#[derive(Debug)]
pub struct EventDriven<Q: EventQueue = TimerWheel> {
    timing: FlashTiming,
    cfg: ChannelConfig,
    serial: bool,
    /// Whether trace retention is on. Off (the default), completion
    /// events are semantically inert — nothing observes them — so the
    /// bypass skips materializing them entirely.
    trace_on: bool,
    now_us: f64,
    seq: u64,
    queue: Q,
    /// Per-channel time at which the bus falls idle.
    bus_free_us: Vec<f64>,
    /// Per-plane (channel-major) time at which the cell array falls idle.
    plane_free_us: Vec<f64>,
    /// Flat admission windows: `queue_depth` completion-time slots per
    /// channel, linearly scanned (the window is small and contiguous —
    /// no per-op heap churn).
    out_ends: Vec<f64>,
    out_len: Vec<u32>,
    depth: usize,
    /// Write buffer: LBA → generation of the pending flush.
    wb_pending: FxHashMap<u64, u64>,
    wb_generation: u64,
    trace: Vec<TraceEntry>,
}

impl EventDriven {
    /// An event-driven model over the given latency table and channel
    /// configuration.
    pub fn new(timing: FlashTiming, cfg: ChannelConfig) -> Self {
        Self::with_queue(timing, cfg)
    }
}

impl<Q: EventQueue> EventDriven<Q> {
    fn with_queue(timing: FlashTiming, cfg: ChannelConfig) -> Self {
        let channels = cfg.channels.max(1) as usize;
        let planes = channels * cfg.planes.max(1) as usize;
        let depth = cfg.queue_depth.max(1) as usize;
        EventDriven {
            timing,
            serial: cfg.is_serial(),
            trace_on: cfg.trace_capacity > 0,
            now_us: 0.0,
            seq: 0,
            queue: Q::default(),
            bus_free_us: vec![0.0; channels],
            plane_free_us: vec![0.0; planes],
            out_ends: vec![0.0; channels * depth],
            out_len: vec![0; channels],
            depth,
            wb_pending: FxHashMap::default(),
            wb_generation: 0,
            trace: Vec::new(),
            cfg,
        }
    }

    /// Number of lanes: cell arrays (planes, across all channels) whose
    /// program/erase phases overlap. One under a serial configuration.
    pub fn lanes(&self) -> usize {
        self.plane_free_us.len()
    }

    /// The lane (channel-major plane index, `< lanes()`) on which ops to
    /// `block` are placed — the mapping `dispatch` uses, exposed so
    /// allocators can stripe without restating it.
    pub fn lane_of(&self, block: u32) -> usize {
        plane_of(&self.cfg, block)
    }

    /// Pending (not yet flushed or coalesced) write-buffer entries.
    pub fn buffered_writes(&self) -> usize {
        self.wb_pending.len()
    }

    fn push_trace(&mut self, kind: TraceKind, t: f64, seq: u64, channel: u32) {
        if self.trace.len() < self.cfg.trace_capacity as usize {
            self.trace.push(TraceEntry {
                t_bits: t.to_bits(),
                seq,
                kind,
                channel,
            });
        }
    }

    fn push_event(&mut self, t: f64, kind: EvKind) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Ev { t, seq, kind });
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

    /// Places one admitted op on the channel/plane timelines and
    /// returns `(service, end)`, accumulating stall terms into
    /// `wait_us`. Each stall term is a `max(ready, free) - ready`,
    /// never `end - arrival - service`, which is what keeps serial-mode
    /// waits exactly `0.0`.
    #[inline]
    fn place_op(
        &mut self,
        class: OpClass,
        mode: CellMode,
        ch: usize,
        plane: usize,
        admit_us: f64,
        wait_us: &mut f64,
    ) -> (f64, f64) {
        let xfer = self.cfg.xfer_us;
        let (bus_free_us, plane_free_us) = (&mut self.bus_free_us, &mut self.plane_free_us);
        let (service_us, end);
        match class {
            OpClass::Read => {
                let cell = table_read(&self.timing, mode);
                let cell_start = if plane_free_us[plane] > admit_us {
                    plane_free_us[plane]
                } else {
                    admit_us
                };
                *wait_us += cell_start - admit_us;
                let cell_end = cell_start + cell;
                let bus_start = if bus_free_us[ch] > cell_end {
                    bus_free_us[ch]
                } else {
                    cell_end
                };
                *wait_us += bus_start - cell_end;
                end = bus_start + xfer;
                bus_free_us[ch] = end;
                plane_free_us[plane] = end;
                service_us = cell + xfer;
            }
            OpClass::Program => {
                let cell = table_program(&self.timing, mode);
                let bus_start = if bus_free_us[ch] > admit_us {
                    bus_free_us[ch]
                } else {
                    admit_us
                };
                *wait_us += bus_start - admit_us;
                let bus_end = bus_start + xfer;
                bus_free_us[ch] = bus_end;
                let cell_start = if plane_free_us[plane] > bus_end {
                    plane_free_us[plane]
                } else {
                    bus_end
                };
                *wait_us += cell_start - bus_end;
                end = cell_start + cell;
                plane_free_us[plane] = end;
                service_us = xfer + cell;
            }
            OpClass::Erase => {
                let cell = table_erase(&self.timing, mode);
                let cell_start = if plane_free_us[plane] > admit_us {
                    plane_free_us[plane]
                } else {
                    admit_us
                };
                *wait_us += cell_start - admit_us;
                end = cell_start + cell;
                plane_free_us[plane] = end;
                service_us = cell;
            }
        }
        (service_us, end)
    }

    /// Places one op on the channel/plane timeline starting no earlier
    /// than `arrival_us`, returning `(wait, service, end)`.
    fn dispatch(&mut self, class: OpClass, mode: CellMode, block: u32, arrival_us: f64) -> OpSpan {
        let ch = channel_of(&self.cfg, block);
        let plane = plane_of(&self.cfg, block);
        let admit_us = self.admit(ch, arrival_us);
        let mut wait_us = admit_us - arrival_us;
        let (service_us, end) = self.place_op(class, mode, ch, plane, admit_us, &mut wait_us);
        let n = self.out_len[ch] as usize;
        self.out_ends[ch * self.depth + n] = end;
        self.out_len[ch] = (n + 1) as u32;
        if self.trace_on {
            // Trace retention makes completion events observable: emit
            // the dispatch record and materialize the completion.
            let seq = self.seq;
            self.push_trace(TraceKind::Dispatch, end, seq, ch as u32);
            self.push_event(end, EvKind::Complete { channel: ch as u32 });
        }
        OpSpan {
            wait_us,
            service_us,
            end_us: end,
        }
    }

    /// Fires every event due at or before `t_us`.
    #[inline]
    fn run_until(&mut self, t_us: f64) {
        while let Some(ev) = self.queue.pop_due(t_us) {
            self.fire(ev);
        }
    }

    fn fire(&mut self, ev: Ev) {
        match ev.kind {
            EvKind::Complete { channel } => {
                self.push_trace(TraceKind::Complete, ev.t, ev.seq, channel);
            }
            EvKind::WbFlush {
                lba,
                generation,
                mode,
                block,
            } => {
                if self.wb_pending.get(&lba) == Some(&generation) {
                    self.wb_pending.remove(&lba);
                    self.push_trace(
                        TraceKind::WbFlush,
                        ev.t,
                        ev.seq,
                        channel_of(&self.cfg, block) as u32,
                    );
                    self.dispatch(OpClass::Program, mode, block, ev.t);
                } else {
                    self.push_trace(
                        TraceKind::WbCoalesce,
                        ev.t,
                        ev.seq,
                        channel_of(&self.cfg, block) as u32,
                    );
                }
            }
        }
    }

    /// Prices one operation and advances internal state. Deterministic:
    /// the same op sequence yields the same timings, clock, and trace.
    pub fn op(&mut self, req: &OpRequest) -> OpTiming {
        let arrival_us = self.now_us;
        if self.serial && !self.trace_on {
            // The closed-form arm: a serial config forbids write buffering
            // (is_serial ⇒ writeback_us == 0) and with tracing off no
            // completion event is ever materialized, so the timeline is
            // permanently empty, every stall term is exactly 0.0, and
            // xfer_us == 0.0 makes every `+ xfer` a bit-exact no-op.
            // The admission window and free-time arrays are skipped
            // too: every entry they would hold is <= the advanced clock
            // and therefore unobservable.
            debug_assert!(self.queue.len() == 0);
            let (service_us, end) = match req.class {
                OpClass::Read => {
                    let cell = table_read(&self.timing, req.mode);
                    (
                        cell + self.cfg.xfer_us,
                        (arrival_us + cell) + self.cfg.xfer_us,
                    )
                }
                OpClass::Program => {
                    let cell = table_program(&self.timing, req.mode);
                    let bus_end = arrival_us + self.cfg.xfer_us;
                    (self.cfg.xfer_us + cell, bus_end + cell)
                }
                OpClass::Erase => {
                    let cell = table_erase(&self.timing, req.mode);
                    (cell, arrival_us + cell)
                }
            };
            self.now_us = end;
            return OpTiming {
                wait_us: 0.0,
                service_us,
            };
        }
        if self.queue.len() != 0 {
            self.run_until(arrival_us);
        }
        let blocking = self.serial || !req.background;
        if !blocking && req.class == OpClass::Program && self.cfg.writeback_us > 0.0 {
            if let Some(lba) = req.lba {
                // Buffer the write: the NAND occupancy happens at flush
                // time (or never, if a rewrite supersedes it), but the
                // service cost is reported now so device stats stay
                // monotone and backend-independent.
                self.wb_generation += 1;
                self.wb_pending.insert(lba, self.wb_generation);
                self.push_event(
                    arrival_us + self.cfg.writeback_us,
                    EvKind::WbFlush {
                        lba,
                        generation: self.wb_generation,
                        mode: req.mode,
                        block: req.block,
                    },
                );
                return OpTiming {
                    wait_us: 0.0,
                    service_us: table_program(&self.timing, req.mode) + self.cfg.xfer_us,
                };
            }
        }
        let span = self.dispatch(req.class, req.mode, req.block, arrival_us);
        if blocking {
            if self.queue.len() != 0 {
                self.run_until(span.end_us);
            }
            self.now_us = span.end_us;
        }
        OpTiming {
            wait_us: span.wait_us,
            service_us: span.service_us,
        }
    }

    /// Current modeled clock, µs: the foreground completion time.
    pub fn now_us(&self) -> f64 {
        self.now_us
    }

    /// Runs all pending events (including scheduled write-buffer
    /// flushes) and returns the makespan: the time at which every
    /// resource falls idle. Advances the clock to it.
    pub fn drain(&mut self) -> f64 {
        // Fire everything still scheduled — buffered writes flush at
        // their writeback deadlines and their dispatches enqueue further
        // completion events, all consumed here in (time, seq) order.
        self.run_until(f64::INFINITY);
        let mut makespan = self.now_us;
        for &t in &self.bus_free_us {
            if t > makespan {
                makespan = t;
            }
        }
        for &t in &self.plane_free_us {
            if t > makespan {
                makespan = t;
            }
        }
        self.now_us = makespan;
        makespan
    }

    /// The retained event trace (empty unless tracing is enabled).
    pub fn trace(&self) -> &[TraceEntry] {
        &self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::queue::{HeapQueue, WHEEL_BUCKETS, WHEEL_QUANTUM_US};
    use super::*;
    use proptest::prelude::*;

    fn fg(class: OpClass, mode: CellMode, block: u32) -> OpRequest {
        OpRequest {
            class,
            mode,
            block,
            lba: None,
            background: false,
        }
    }

    fn bg(class: OpClass, mode: CellMode, block: u32, lba: Option<u64>) -> OpRequest {
        OpRequest {
            class,
            mode,
            block,
            lba: Some(lba.unwrap_or(0)).filter(|_| lba.is_some()),
            background: true,
        }
    }

    #[test]
    fn builder_validates() {
        assert!(ChannelConfig::builder().channels(0).build().is_err());
        assert!(ChannelConfig::builder().planes(0).build().is_err());
        assert!(ChannelConfig::builder().queue_depth(0).build().is_err());
        assert!(ChannelConfig::builder().writeback_us(-1.0).build().is_err());
        assert!(ChannelConfig::builder().xfer_us(f64::NAN).build().is_err());
        let cfg = ChannelConfig::builder()
            .channels(4)
            .planes(2)
            .queue_depth(8)
            .writeback_us(500.0)
            .xfer_us(40.0)
            .trace_capacity(64)
            .build()
            .unwrap();
        assert_eq!((cfg.channels, cfg.planes, cfg.queue_depth), (4, 2, 8));
        assert!(!cfg.is_serial());
        assert!(ChannelConfig::default().is_serial());
    }

    /// The paper's closed-form model as a reference: service is the
    /// Table 2/3 latency (wait is zero, the clock is the running sum of
    /// these).
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

    #[test]
    fn serial_event_model_matches_closed_form_bitwise() {
        let timing = FlashTiming::default();
        let ops = [
            fg(OpClass::Read, CellMode::Slc, 0),
            bg(OpClass::Program, CellMode::Mlc, 1, Some(42)),
            fg(OpClass::Read, CellMode::Mlc, 1),
            bg(OpClass::Erase, CellMode::Mlc, 0, None),
            bg(OpClass::Program, CellMode::Slc, 2, Some(42)),
            fg(OpClass::Read, CellMode::Slc, 2),
        ];
        // Trace off takes the closed-form arm of `op`; trace on sends
        // the same serial config through the general event path.
        fn check<Q: EventQueue>(timing: FlashTiming, ops: &[OpRequest], trace_capacity: u32) {
            let cfg = ChannelConfig::builder()
                .trace_capacity(trace_capacity)
                .build()
                .unwrap();
            assert!(cfg.is_serial());
            let mut clock_us = 0.0;
            let mut event = EventDriven::<Q>::with_queue(timing, cfg);
            for op in ops {
                let service_us = table_us(&timing, op);
                clock_us += service_us;
                let got = event.op(op);
                assert_eq!(got.wait_us.to_bits(), 0.0f64.to_bits());
                assert_eq!(got.service_us.to_bits(), service_us.to_bits());
                assert_eq!(clock_us.to_bits(), event.now_us().to_bits());
            }
            assert_eq!(clock_us.to_bits(), event.drain().to_bits());
            assert_eq!(clock_us.to_bits(), event.now_us().to_bits());
        }
        for trace_capacity in [0, 64] {
            check::<HeapQueue>(timing, &ops, trace_capacity);
            check::<TimerWheel>(timing, &ops, trace_capacity);
        }
    }

    #[test]
    fn channels_overlap_background_work() {
        let timing = FlashTiming::default();
        let cfg = ChannelConfig::builder()
            .channels(4)
            .queue_depth(8)
            .build()
            .unwrap();
        let mut event = EventDriven::new(timing, cfg);
        // Four background programs striped across four channels overlap;
        // serially they would cost 4 * 200µs.
        for block in 0..4 {
            event.op(&bg(OpClass::Program, CellMode::Slc, block, None));
        }
        let makespan = event.drain();
        assert_eq!(makespan, 200.0, "four channels run four programs in one");

        let mut serial = EventDriven::new(timing, ChannelConfig::default());
        for block in 0..4 {
            serial.op(&bg(OpClass::Program, CellMode::Slc, block, None));
        }
        assert_eq!(serial.drain(), 800.0);
    }

    #[test]
    fn background_traffic_delays_foreground_reads() {
        let timing = FlashTiming::default();
        let cfg = ChannelConfig::builder()
            .channels(1)
            .queue_depth(8)
            .xfer_us(0.0)
            .build()
            .unwrap();
        let mut event = EventDriven::new(timing, cfg);
        // A background erase occupies the sole plane...
        event.op(&bg(OpClass::Erase, CellMode::Mlc, 0, None));
        // ...so a foreground read on the same plane waits out the erase.
        let t = event.op(&fg(OpClass::Read, CellMode::Slc, 0));
        assert_eq!(t.wait_us, 3300.0);
        assert_eq!(t.service_us, 25.0);
    }

    #[test]
    fn queue_depth_throttles_admission() {
        let timing = FlashTiming::default();
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
        let mut a = EventDriven::new(timing, deep);
        let mut b = EventDriven::new(timing, shallow);
        for block in 0..4 {
            a.op(&bg(OpClass::Erase, CellMode::Slc, block, None));
            b.op(&bg(OpClass::Erase, CellMode::Slc, block, None));
        }
        assert_eq!(a.drain(), 1500.0);
        assert_eq!(b.drain(), 4.0 * 1500.0);
    }

    #[test]
    fn write_buffer_coalesces_rewrites() {
        fn check<Q: EventQueue>() {
            let cfg = ChannelConfig::builder()
                .channels(1)
                .queue_depth(8)
                .writeback_us(500.0)
                .trace_capacity(64)
                .build()
                .unwrap();
            let mut event = EventDriven::<Q>::with_queue(FlashTiming::default(), cfg);
            // Three rewrites of the same LBA inside the window: only the
            // last flushes; the first two coalesce away.
            for block in 0..3 {
                event.op(&bg(OpClass::Program, CellMode::Slc, block, Some(7)));
            }
            assert_eq!(event.buffered_writes(), 1);
            let makespan = event.drain();
            assert_eq!(event.buffered_writes(), 0);
            // One program dispatched at its 500µs deadline.
            assert_eq!(makespan, 700.0);
            let flushes = event
                .trace()
                .iter()
                .filter(|e| e.kind == TraceKind::WbFlush)
                .count();
            let coalesced = event
                .trace()
                .iter()
                .filter(|e| e.kind == TraceKind::WbCoalesce)
                .count();
            assert_eq!((flushes, coalesced), (1, 2));
        }
        check::<HeapQueue>();
        check::<TimerWheel>();
    }

    #[test]
    fn trace_is_reproducible_and_bounded() {
        let timing = FlashTiming::default();
        let cfg = ChannelConfig::builder()
            .channels(2)
            .queue_depth(4)
            .writeback_us(100.0)
            .trace_capacity(8)
            .build()
            .unwrap();
        let run = |cfg: ChannelConfig| {
            let mut event = EventDriven::new(timing, cfg);
            for i in 0..16u32 {
                event.op(&bg(
                    OpClass::Program,
                    CellMode::Mlc,
                    i,
                    Some(u64::from(i % 4)),
                ));
                event.op(&fg(OpClass::Read, CellMode::Slc, i));
            }
            event.drain();
            event.trace().to_vec()
        };
        let a = run(cfg);
        let b = run(cfg);
        assert_eq!(a, b, "same config + same ops => byte-identical trace");
        assert!(a.len() <= 8);
        assert!(!a.is_empty());
    }

    #[test]
    fn heap_and_wheel_traces_are_byte_identical() {
        let timing = FlashTiming::default();
        let cfg = ChannelConfig::builder()
            .channels(3)
            .planes(2)
            .queue_depth(4)
            .writeback_us(250.0)
            .xfer_us(10.0)
            .trace_capacity(4096)
            .build()
            .unwrap();
        let mut heap = EventDriven::<HeapQueue>::with_queue(timing, cfg);
        let mut wheel = EventDriven::new(timing, cfg);
        for i in 0..200u32 {
            let op = match i % 5 {
                0 => fg(OpClass::Read, CellMode::Slc, i % 17),
                1 => bg(
                    OpClass::Program,
                    CellMode::Mlc,
                    i % 17,
                    Some(u64::from(i % 6)),
                ),
                2 => bg(OpClass::Erase, CellMode::Mlc, i % 17, None),
                3 => fg(OpClass::Program, CellMode::Slc, (i * 3) % 17),
                _ => bg(OpClass::Read, CellMode::Mlc, (i * 7) % 17, None),
            };
            let a = heap.op(&op);
            let b = wheel.op(&op);
            assert_eq!(a.wait_us.to_bits(), b.wait_us.to_bits(), "op {i} wait");
            assert_eq!(
                a.service_us.to_bits(),
                b.service_us.to_bits(),
                "op {i} service"
            );
        }
        assert_eq!(heap.drain().to_bits(), wheel.drain().to_bits());
        assert_eq!(heap.trace(), wheel.trace());
    }

    #[test]
    fn closed_form_clock_sums_services() {
        let mut model = EventDriven::new(FlashTiming::default(), ChannelConfig::default());
        model.op(&fg(OpClass::Read, CellMode::Slc, 0));
        model.op(&fg(OpClass::Program, CellMode::Mlc, 0));
        assert_eq!(model.now_us(), 25.0 + 680.0);
        assert_eq!(model.drain(), 25.0 + 680.0);
        assert!(model.trace().is_empty());
    }

    // ------------------------------------------------------------------
    // Timer-wheel internals: quantization boundaries, overflow cascade.
    // ------------------------------------------------------------------

    fn ev(t: f64, seq: u64) -> Ev {
        Ev {
            t,
            seq,
            kind: EvKind::Complete { channel: 0 },
        }
    }

    #[test]
    fn wheel_pops_bucket_edges_in_exact_time_order() {
        // Times straddling a bucket edge: exactly on the boundary, one
        // ULP below, one ULP above, plus same-bucket neighbours. The
        // wheel must pop in exact (t, seq) order regardless of which
        // side of the edge quantization lands each event on.
        let q = WHEEL_QUANTUM_US;
        let edge = 3.0 * q;
        let below = f64::from_bits(edge.to_bits() - 1);
        let above = f64::from_bits(edge.to_bits() + 1);
        assert_ne!(
            TimerWheel::tick_of(below),
            TimerWheel::tick_of(edge),
            "edge and edge-ulp must quantize to different buckets"
        );
        assert_eq!(TimerWheel::tick_of(edge), TimerWheel::tick_of(above));
        let mut wheel = TimerWheel::default();
        // Push out of order.
        for (t, seq) in [
            (above, 4),
            (edge, 2),
            (below, 1),
            (edge, 3),
            (0.5 * q, 0),
            (edge + 0.25 * q, 5),
        ] {
            wheel.push(ev(t, seq));
        }
        let mut popped = Vec::new();
        while let Some(e) = wheel.pop_due(f64::INFINITY) {
            popped.push((e.t.to_bits(), e.seq));
        }
        let mut sorted = popped.clone();
        sorted.sort();
        assert_eq!(popped, sorted, "pop order must be exact (t, seq) order");
        assert_eq!(popped.len(), 6);
        // Ties on t broke by seq: the two boundary events at `edge`.
        assert_eq!(popped[2], (edge.to_bits(), 2));
        assert_eq!(popped[3], (edge.to_bits(), 3));
    }

    #[test]
    fn wheel_pop_due_respects_the_limit_at_the_boundary() {
        let q = WHEEL_QUANTUM_US;
        let mut wheel = TimerWheel::default();
        wheel.push(ev(2.0 * q, 0));
        // An event exactly at the limit fires; one ULP past it does not.
        assert!(wheel
            .pop_due(f64::from_bits((2.0 * q).to_bits() - 1))
            .is_none());
        assert_eq!(wheel.pop_due(2.0 * q).map(|e| e.seq), Some(0));
        assert!(wheel.pop_due(f64::INFINITY).is_none());
    }

    #[test]
    fn wheel_cascades_overflow_beyond_one_wrap() {
        // Events far beyond one wheel wrap land on the overflow list
        // and must still pop in exact global order once the ring
        // empties into their window.
        let horizon = WHEEL_QUANTUM_US * WHEEL_BUCKETS as f64;
        let mut wheel = TimerWheel::default();
        let times = [
            (0.5 * horizon, 0u64),
            (1.5 * horizon, 1),
            (3.25 * horizon, 2),
            (3.25 * horizon, 3),
            (10.0 * horizon, 4),
        ];
        for &(t, seq) in &times {
            wheel.push(ev(t, seq));
        }
        assert_eq!(wheel.len(), times.len());
        let order: Vec<u64> = std::iter::from_fn(|| wheel.pop_due(f64::INFINITY))
            .map(|e| e.seq)
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
        assert_eq!(wheel.len(), 0);
    }

    #[test]
    fn wheel_steady_state_reuses_arena_nodes() {
        let mut wheel = TimerWheel::default();
        let mut t = 0.0;
        for seq in 0..64u64 {
            t += 7.0;
            wheel.push(ev(t, seq));
        }
        while wheel.pop_due(f64::INFINITY).is_some() {}
        let arena = wheel.nodes.len();
        // A second wave of equal depth must not grow the arena.
        for seq in 64..128u64 {
            t += 7.0;
            wheel.push(ev(t, seq));
        }
        assert_eq!(wheel.nodes.len(), arena, "free list must recycle nodes");
        while wheel.pop_due(f64::INFINITY).is_some() {}
        assert_eq!(wheel.len(), 0);
    }

    // ------------------------------------------------------------------
    // Lock-step reference: the wheel against the `BinaryHeap` queue.
    // ------------------------------------------------------------------

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

        /// The timer wheel *is* a total-order heap, bit for bit —
        /// per-op waits and services, the clock after every op, the
        /// full event trace, and the drained makespan — across
        /// arbitrary op mixes, queue depths, writeback windows, and
        /// channel shapes.
        #[test]
        fn wheel_backend_matches_the_heap_oracle(
            ops in prop::collection::vec(op_strategy(), 1..200),
            cfg in channel_strategy(),
        ) {
            let timing = FlashTiming::default();
            let mut heap = EventDriven::<HeapQueue>::with_queue(timing, cfg);
            let mut wheel = EventDriven::new(timing, cfg);
            for (i, op) in ops.iter().enumerate() {
                let a = heap.op(op);
                let b = wheel.op(op);
                prop_assert_eq!(
                    a.wait_us.to_bits(), b.wait_us.to_bits(),
                    "wait diverged at op {} ({:?})", i, op
                );
                prop_assert_eq!(
                    a.service_us.to_bits(), b.service_us.to_bits(),
                    "service diverged at op {} ({:?})", i, op
                );
                prop_assert_eq!(
                    heap.now_us().to_bits(), wheel.now_us().to_bits(),
                    "clock diverged at op {}", i
                );
            }
            prop_assert_eq!(heap.buffered_writes(), wheel.buffered_writes());
            prop_assert_eq!(heap.drain().to_bits(), wheel.drain().to_bits(), "makespan diverged");
            prop_assert_eq!(heap.trace(), wheel.trace(), "event trace diverged");
        }
    }
}
