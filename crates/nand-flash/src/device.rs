//! The NAND flash device model: a state machine over blocks, physical
//! pages and slots, enforcing erase-before-program, per-page SLC/MLC
//! mode, and out-of-place semantics, with timing, energy, and wear-driven
//! bit-error injection on every operation. A program may carry the raw
//! page (data ‖ spare), which a read hands back; a run whose programs
//! carry no bytes stores none.

use std::error::Error;
use std::fmt;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use flash_ecc::page::{PAGE_DATA_BYTES, PAGE_SPARE_BYTES};

use crate::geometry::{BlockId, CellMode, FlashGeometry, PageAddr};
use crate::sampling::NormalSource;
use crate::sched::{ChannelConfig, EventDriven, OpClass, OpRequest, TimingBackend};
use crate::timing::FlashPower;
use crate::wear::{PageWearState, WearConfig, WearModel};

/// Bytes of one raw page: data ‖ spare.
pub const RAW_PAGE_BYTES: usize = PAGE_DATA_BYTES + PAGE_SPARE_BYTES;

/// Errors returned by flash operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlashOpError {
    /// Address outside the device geometry.
    OutOfRange(PageAddr),
    /// Block id outside the device geometry.
    BlockOutOfRange(BlockId),
    /// Attempt to program a slot that is not erased (out-of-place write
    /// discipline: every write needs a prior erase).
    NotErased(PageAddr),
    /// Attempt to read a slot that holds no data.
    NotProgrammed(PageAddr),
    /// Slot unusable because its physical page was programmed in SLC
    /// mode (the odd half of an SLC page does not exist).
    SlcSibling(PageAddr),
    /// Mode conflicts with data already on the physical page.
    ModeConflict {
        /// The address being programmed.
        addr: PageAddr,
        /// The mode the physical page is already committed to.
        existing: CellMode,
    },
    /// Odd (upper) half cannot be programmed in SLC mode.
    UpperHalfSlc(PageAddr),
    /// Payload length does not match the raw page size.
    PayloadSize {
        /// Expected bytes.
        expected: usize,
        /// Provided bytes.
        got: usize,
    },
}

impl fmt::Display for FlashOpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlashOpError::OutOfRange(a) => write!(f, "address {a} out of range"),
            FlashOpError::BlockOutOfRange(b) => write!(f, "{b} out of range"),
            FlashOpError::NotErased(a) => {
                write!(
                    f,
                    "program to {a} requires an erased slot (out-of-place writes only)"
                )
            }
            FlashOpError::NotProgrammed(a) => write!(f, "read of {a}: slot not programmed"),
            FlashOpError::SlcSibling(a) => {
                write!(f, "slot {a} unusable: physical page is in SLC mode")
            }
            FlashOpError::ModeConflict { addr, existing } => {
                write!(
                    f,
                    "programming {addr}: physical page already in {existing} mode"
                )
            }
            FlashOpError::UpperHalfSlc(a) => {
                write!(f, "slot {a}: SLC mode must target the even (lower) slot")
            }
            FlashOpError::PayloadSize { expected, got } => {
                write!(f, "payload is {got} bytes, page holds {expected}")
            }
        }
    }
}

impl Error for FlashOpError {}

/// State of one 2KB slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    Erased,
    Programmed,
    /// Sibling of an SLC-programmed slot.
    Unusable,
}

/// Caller context for a device operation, threaded into the
/// scheduler: foreground ops block and advance the modeled clock, while
/// background work (GC traffic, cache fills) consumes device time that
/// later foreground ops wait out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpContext {
    /// Whether the op is background work.
    pub background: bool,
}

impl OpContext {
    /// A foreground (blocking) operation.
    pub fn foreground() -> Self {
        OpContext { background: false }
    }

    /// A background (non-blocking) operation.
    pub fn background() -> Self {
        OpContext { background: true }
    }
}

/// Result of a page read.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadOutcome {
    /// Raw latency of the array access, µs (ECC time is the controller's).
    pub latency_us: f64,
    /// Queueing delay before service, µs (zero under a serial channel
    /// shape).
    pub wait_us: f64,
    /// Energy consumed, millijoules.
    pub energy_mj: f64,
    /// Raw bit errors present in the page as read.
    pub raw_bit_errors: u32,
    /// Mode the page was read in.
    pub mode: CellMode,
    /// The raw page (data ‖ spare) as programmed, when the program
    /// carried bytes.
    pub data: Option<Vec<u8>>,
}

/// Result of a page program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgramOutcome {
    /// Program latency, µs.
    pub latency_us: f64,
    /// Queueing delay before service, µs (zero under a serial channel
    /// shape).
    pub wait_us: f64,
    /// Energy consumed, millijoules.
    pub energy_mj: f64,
}

/// Result of a block erase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EraseOutcome {
    /// Erase latency, µs.
    pub latency_us: f64,
    /// Queueing delay before service, µs (zero under a serial channel
    /// shape).
    pub wait_us: f64,
    /// Energy consumed, millijoules.
    pub energy_mj: f64,
    /// The block's total erase count after this erase.
    pub erase_count: u64,
}

/// Aggregate operation counters and busy time.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FlashStats {
    /// Page reads serviced.
    pub reads: u64,
    /// Page programs serviced.
    pub programs: u64,
    /// Block erases serviced.
    pub erases: u64,
    /// Raw bit errors observed across all page reads.
    pub bit_errors: u64,
    /// Total µs spent in operations.
    pub busy_us: f64,
    /// Total µs spent queued before service (zero under a serial
    /// channel shape).
    pub wait_us: f64,
    /// Total energy in millijoules.
    pub energy_mj: f64,
}

/// Configuration of a [`FlashDevice`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashConfig {
    /// Array shape.
    pub geometry: FlashGeometry,
    /// Wear and error-injection model.
    pub wear: WearConfig,
    /// RNG seed for quality sampling and error injection.
    pub seed: u64,
    /// Always [`TimingBackend::EventDriven`], which nothing reads; it
    /// stays because `benchmark/src/workloads.rs` and
    /// `benchmark/src/probes.rs` set it.
    pub timing_backend: TimingBackend,
    /// Channel/plane/queue shape the device's scheduler is built from;
    /// the serial default is the paper's closed-form clock.
    pub channel: ChannelConfig,
}

impl Default for FlashConfig {
    fn default() -> Self {
        FlashConfig {
            geometry: FlashGeometry::default(),
            wear: WearConfig::default(),
            seed: 0x1507_2008,
            timing_backend: TimingBackend::default(),
            channel: ChannelConfig::default(),
        }
    }
}

/// A dual-mode SLC/MLC NAND flash device.
///
/// # Examples
///
/// ```
/// use nand_flash::{FlashConfig, FlashDevice};
/// use nand_flash::geometry::{BlockId, CellMode, PageAddr};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut flash = FlashDevice::new(FlashConfig::default());
/// let addr = PageAddr::new(BlockId(0), 0);
/// flash.program_page(addr, CellMode::Slc, None)?;
/// let read = flash.read_page(addr)?;
/// assert_eq!(read.mode, CellMode::Slc);
/// // A second write to the same slot must be preceded by an erase.
/// assert!(flash.program_page(addr, CellMode::Slc, None).is_err());
/// flash.erase_block(BlockId(0))?;
/// flash.program_page(addr, CellMode::Mlc, None)?;
/// # Ok(())
/// # }
/// ```
pub struct FlashDevice {
    config: FlashConfig,
    wear_model: WearModel,
    /// The device's one modeled clock; all op latencies flow through
    /// it.
    model: EventDriven,
    /// Error-injection RNG (minimal-state: one draw per page read).
    rng: SmallRng,
    /// Per-block erase counts.
    erase_counts: Vec<u64>,
    /// Worst (slowest-erasing) mode programmed since the last erase.
    block_worst_mode: Vec<Option<CellMode>>,
    /// Per-slot state, indexed `block * slots_per_block + slot`.
    slots: Vec<SlotState>,
    /// Per-physical-page committed mode (None = uncommitted).
    modes: Vec<Option<CellMode>>,
    /// Per-physical-page wear state.
    wear: Vec<PageWearState>,
    /// Raw page bytes per slot, allocated by the first program that
    /// carries bytes.
    payloads: Vec<Option<Box<[u8]>>>,
    stats: FlashStats,
}

impl fmt::Debug for FlashDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlashDevice")
            .field("geometry", &self.config.geometry)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl FlashDevice {
    /// Creates a device with all blocks erased and per-page quality
    /// offsets sampled from the wear configuration.
    ///
    /// # Panics
    ///
    /// Panics with the [`ChannelConfig::validate`] error text if
    /// `config.channel` has a zero channel, plane or queue-depth count.
    pub fn new(config: FlashConfig) -> Self {
        let geometry = config.geometry;
        let wear_model = WearModel::new(config.wear);
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let phys = geometry.total_physical_pages() as usize;
        let slots = geometry.total_slots() as usize;
        let mut normals = NormalSource::new();
        let wear = (0..phys)
            .map(|_| PageWearState::with_quality(wear_model.sample_quality(&mut normals, &mut rng)))
            .collect();
        FlashDevice {
            wear_model,
            model: EventDriven::new(config.channel),
            rng,
            erase_counts: vec![0; geometry.blocks as usize],
            block_worst_mode: vec![None; geometry.blocks as usize],
            slots: vec![SlotState::Erased; slots],
            modes: vec![None; phys],
            wear,
            payloads: Vec::new(),
            stats: FlashStats::default(),
            config,
        }
    }

    /// The device geometry.
    pub fn geometry(&self) -> &FlashGeometry {
        &self.config.geometry
    }

    /// The device configuration.
    pub fn config(&self) -> &FlashConfig {
        &self.config
    }

    /// Aggregate operation statistics.
    pub fn stats(&self) -> FlashStats {
        self.stats
    }

    /// Current modeled device clock, µs: the foreground completion
    /// time, which under a serial channel configuration is the running
    /// sum of service times.
    pub fn modeled_time_us(&self) -> f64 {
        self.model.now_us()
    }

    /// Returns the makespan at which all planes fall idle, µs, and
    /// advances the modeled clock to it.
    pub fn drain_timing(&mut self) -> f64 {
        self.model.drain()
    }

    /// Number of lanes (cell arrays whose ops overlap) the scheduler
    /// places ops on: the `channels × planes` of `config.channel`, so
    /// one under the serial default.
    pub fn lanes(&self) -> usize {
        self.model.lanes()
    }

    /// The lane the scheduler places ops to `block` on (`< lanes()`).
    pub fn lane_of(&self, block: BlockId) -> usize {
        self.model.lane_of(block.0)
    }

    /// Resets the operation statistics (wear state is untouched).
    pub fn reset_stats(&mut self) {
        self.stats = FlashStats::default();
    }

    /// Number of erases performed on `block`.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    pub fn erase_count(&self, block: BlockId) -> u64 {
        self.erase_counts[block.0 as usize]
    }

    /// Committed mode of the physical page under `addr`, if programmed.
    pub fn physical_mode(&self, addr: PageAddr) -> Option<CellMode> {
        self.modes[self.config.geometry.physical_index(addr)]
    }

    /// Permanent failed-cell counts `(slc, mlc)` of the physical page
    /// under `addr`, as currently materialized.
    pub fn permanent_failures(&self, addr: PageAddr) -> (u32, u32) {
        let w = &self.wear[self.config.geometry.physical_index(addr)];
        (w.fail_slc, w.fail_mlc)
    }

    fn slot_index(&self, addr: PageAddr) -> usize {
        addr.block.0 as usize * self.config.geometry.slots_per_block() as usize + addr.slot as usize
    }

    fn check_addr(&self, addr: PageAddr) -> Result<(), FlashOpError> {
        if self.config.geometry.contains(addr) {
            Ok(())
        } else {
            Err(FlashOpError::OutOfRange(addr))
        }
    }

    /// Whether `addr` currently holds programmed data.
    pub fn is_programmed(&self, addr: PageAddr) -> bool {
        self.config.geometry.contains(addr)
            && self.slots[self.slot_index(addr)] == SlotState::Programmed
    }

    /// Programs one 2KB slot in the given mode.
    ///
    /// `data`, when provided, must be exactly one raw page
    /// ([`RAW_PAGE_BYTES`]: data ‖ spare); reads return it until the
    /// block is erased.
    ///
    /// # Errors
    ///
    /// Enforces NAND discipline: the slot must be erased; SLC mode must
    /// target the even slot and makes the sibling unusable; both halves
    /// of an MLC physical page must be MLC.
    pub fn program_page(
        &mut self,
        addr: PageAddr,
        mode: CellMode,
        data: Option<&[u8]>,
    ) -> Result<ProgramOutcome, FlashOpError> {
        self.program_page_with(addr, mode, data, OpContext::foreground())
    }

    /// Programs one 2KB slot with an explicit [`OpContext`]: background
    /// ops contend for plane time without advancing the foreground
    /// clock.
    ///
    /// # Errors
    ///
    /// Same discipline as [`FlashDevice::program_page`].
    pub fn program_page_with(
        &mut self,
        addr: PageAddr,
        mode: CellMode,
        data: Option<&[u8]>,
        ctx: OpContext,
    ) -> Result<ProgramOutcome, FlashOpError> {
        self.check_addr(addr)?;
        if let Some(d) = data {
            if d.len() != RAW_PAGE_BYTES {
                return Err(FlashOpError::PayloadSize {
                    expected: RAW_PAGE_BYTES,
                    got: d.len(),
                });
            }
        }
        let si = self.slot_index(addr);
        match self.slots[si] {
            SlotState::Programmed => return Err(FlashOpError::NotErased(addr)),
            SlotState::Unusable => return Err(FlashOpError::SlcSibling(addr)),
            SlotState::Erased => {}
        }
        let pi = self.config.geometry.physical_index(addr);
        match (mode, self.modes[pi]) {
            (CellMode::Slc, None) => {
                if addr.is_upper_half() {
                    return Err(FlashOpError::UpperHalfSlc(addr));
                }
                // Commit the physical page to SLC; retire the sibling.
                self.modes[pi] = Some(CellMode::Slc);
                let sib = self.slot_index(addr.sibling());
                self.slots[sib] = SlotState::Unusable;
            }
            (CellMode::Slc, Some(existing)) => {
                // Even if existing == Slc the slot would have to be the
                // programmed one; reaching here with Erased means the
                // sibling path, which SLC forbids.
                return Err(FlashOpError::ModeConflict { addr, existing });
            }
            (CellMode::Mlc, None) => {
                self.modes[pi] = Some(CellMode::Mlc);
            }
            (CellMode::Mlc, Some(CellMode::Mlc)) => {}
            (CellMode::Mlc, Some(existing @ CellMode::Slc)) => {
                return Err(FlashOpError::ModeConflict { addr, existing });
            }
        }
        self.slots[si] = SlotState::Programmed;
        if data.is_some() && self.payloads.is_empty() {
            self.payloads = vec![None; self.slots.len()];
        }
        if let Some(stored) = self.payloads.get_mut(si) {
            *stored = data.map(Box::from);
        }
        let b = addr.block.0 as usize;
        self.block_worst_mode[b] = Some(match (self.block_worst_mode[b], mode) {
            (Some(CellMode::Mlc), _) | (_, CellMode::Mlc) => CellMode::Mlc,
            _ => CellMode::Slc,
        });
        let t = self.model.op(&OpRequest {
            class: OpClass::Program,
            mode,
            block: addr.block.0,
            background: ctx.background,
        });
        let latency_us = t.service_us;
        let energy_mj = FlashPower::op_energy_mj(latency_us);
        self.stats.programs += 1;
        self.stats.busy_us += latency_us;
        self.stats.wait_us += t.wait_us;
        self.stats.energy_mj += energy_mj;
        Ok(ProgramOutcome {
            latency_us,
            wait_us: t.wait_us,
            energy_mj,
        })
    }

    /// Reads one programmed slot, injecting wear-driven bit errors.
    ///
    /// # Errors
    ///
    /// [`FlashOpError::NotProgrammed`] if the slot holds no data;
    /// [`FlashOpError::OutOfRange`] for bad addresses.
    pub fn read_page(&mut self, addr: PageAddr) -> Result<ReadOutcome, FlashOpError> {
        self.read_page_with(addr, OpContext::foreground())
    }

    /// Reads one programmed slot with an explicit [`OpContext`];
    /// foreground reads observe queue wait behind in-flight background
    /// traffic on a parallel channel shape.
    ///
    /// # Errors
    ///
    /// Same discipline as [`FlashDevice::read_page`].
    pub fn read_page_with(
        &mut self,
        addr: PageAddr,
        ctx: OpContext,
    ) -> Result<ReadOutcome, FlashOpError> {
        self.check_addr(addr)?;
        let si = self.slot_index(addr);
        if self.slots[si] != SlotState::Programmed {
            return Err(FlashOpError::NotProgrammed(addr));
        }
        let pi = self.config.geometry.physical_index(addr);
        let mode = self.modes[pi].expect("programmed slot always has a committed mode");
        let erases = self.erase_counts[addr.block.0 as usize];
        let raw_bit_errors =
            self.wear[pi].observe_read_errors(&self.wear_model, mode, erases, &mut self.rng);
        let t = self.model.op(&OpRequest {
            class: OpClass::Read,
            mode,
            block: addr.block.0,
            background: ctx.background,
        });
        let latency_us = t.service_us;
        let energy_mj = FlashPower::op_energy_mj(latency_us);
        self.stats.reads += 1;
        self.stats.bit_errors += raw_bit_errors as u64;
        self.stats.busy_us += latency_us;
        self.stats.wait_us += t.wait_us;
        self.stats.energy_mj += energy_mj;
        let data = self
            .payloads
            .get(si)
            .and_then(|p| p.as_deref().map(<[u8]>::to_vec));
        Ok(ReadOutcome {
            latency_us,
            wait_us: t.wait_us,
            energy_mj,
            raw_bit_errors,
            mode,
            data,
        })
    }

    /// Materializes the wear state of the physical page under `addr` at
    /// the block's current erase count and returns its permanent
    /// failed-cell counts `(fail_slc, fail_mlc)`.
    ///
    /// Controllers use this after an erase to decide whether a page can
    /// still be protected at any available configuration, without paying
    /// for a data read.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    pub fn probe_page_health(&mut self, addr: PageAddr) -> (u32, u32) {
        assert!(self.config.geometry.contains(addr), "address out of range");
        let pi = self.config.geometry.physical_index(addr);
        let erases = self.erase_counts[addr.block.0 as usize];
        self.wear[pi].advance(&self.wear_model, erases, &mut self.rng);
        (self.wear[pi].fail_slc, self.wear[pi].fail_mlc)
    }

    /// Erases a block: all slots return to the erased state, the erase
    /// count increments, and physical pages become mode-uncommitted.
    ///
    /// # Errors
    ///
    /// [`FlashOpError::BlockOutOfRange`] for bad block ids.
    pub fn erase_block(&mut self, block: BlockId) -> Result<EraseOutcome, FlashOpError> {
        self.erase_block_with(block, OpContext::foreground())
    }

    /// Erases a block with an explicit [`OpContext`]; background erases
    /// (GC) contend for plane time without advancing the foreground
    /// clock.
    ///
    /// # Errors
    ///
    /// [`FlashOpError::BlockOutOfRange`] for bad block ids.
    pub fn erase_block_with(
        &mut self,
        block: BlockId,
        ctx: OpContext,
    ) -> Result<EraseOutcome, FlashOpError> {
        if block.0 >= self.config.geometry.blocks {
            return Err(FlashOpError::BlockOutOfRange(block));
        }
        let b = block.0 as usize;
        let spb = self.config.geometry.slots_per_block() as usize;
        let ppb = self.config.geometry.pages_per_block as usize;
        for s in &mut self.slots[b * spb..(b + 1) * spb] {
            *s = SlotState::Erased;
        }
        for m in &mut self.modes[b * ppb..(b + 1) * ppb] {
            *m = None;
        }
        if let Some(bytes) = self.payloads.get_mut(b * spb..(b + 1) * spb) {
            bytes.fill_with(|| None);
        }
        self.erase_counts[b] += 1;
        let worst = self.block_worst_mode[b].take().unwrap_or(CellMode::Slc);
        let t = self.model.op(&OpRequest {
            class: OpClass::Erase,
            mode: worst,
            block: block.0,
            background: ctx.background,
        });
        let latency_us = t.service_us;
        let energy_mj = FlashPower::op_energy_mj(latency_us);
        self.stats.erases += 1;
        self.stats.busy_us += latency_us;
        self.stats.wait_us += t.wait_us;
        self.stats.energy_mj += energy_mj;
        Ok(EraseOutcome {
            latency_us,
            wait_us: t.wait_us,
            energy_mj,
            erase_count: self.erase_counts[b],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_device() -> FlashDevice {
        FlashDevice::new(FlashConfig {
            geometry: FlashGeometry {
                blocks: 4,
                pages_per_block: 4,
            },
            ..FlashConfig::default()
        })
    }

    #[test]
    fn fresh_device_is_fully_erased() {
        let d = small_device();
        for b in d.geometry().iter_blocks() {
            assert_eq!(d.erase_count(b), 0);
            for slot in 0..d.geometry().slots_per_block() {
                assert!(!d.is_programmed(PageAddr::new(b, slot)));
            }
        }
    }

    #[test]
    fn program_then_read_roundtrip_with_payload() {
        let mut d = FlashDevice::new(FlashConfig {
            geometry: FlashGeometry {
                blocks: 1,
                pages_per_block: 2,
            },
            ..FlashConfig::default()
        });
        let addr = PageAddr::new(BlockId(0), 0);
        // The whole raw page round-trips, spare included.
        let data: Vec<u8> = (0..RAW_PAGE_BYTES).map(|i| (i * 7) as u8).collect();
        d.program_page(addr, CellMode::Mlc, Some(&data)).unwrap();
        let out = d.read_page(addr).unwrap();
        assert_eq!(out.data.as_deref(), Some(&data[..]));
        assert_eq!(out.mode, CellMode::Mlc);
        assert_eq!(out.latency_us, 50.0);
        // A reprogram after an erase replaces the bytes; one without
        // bytes leaves none behind.
        d.erase_block(BlockId(0)).unwrap();
        let other = vec![0xA5u8; RAW_PAGE_BYTES];
        d.program_page(addr, CellMode::Mlc, Some(&other)).unwrap();
        assert_eq!(d.read_page(addr).unwrap().data, Some(other));
        d.erase_block(BlockId(0)).unwrap();
        d.program_page(addr, CellMode::Mlc, None).unwrap();
        assert_eq!(d.read_page(addr).unwrap().data, None);
    }

    #[test]
    fn out_of_place_discipline_enforced() {
        let mut d = small_device();
        let addr = PageAddr::new(BlockId(1), 2);
        d.program_page(addr, CellMode::Mlc, None).unwrap();
        assert_eq!(
            d.program_page(addr, CellMode::Mlc, None),
            Err(FlashOpError::NotErased(addr))
        );
        d.erase_block(BlockId(1)).unwrap();
        assert!(d.program_page(addr, CellMode::Mlc, None).is_ok());
        assert_eq!(d.erase_count(BlockId(1)), 1);
    }

    #[test]
    fn slc_retires_sibling_slot() {
        let mut d = small_device();
        let lower = PageAddr::new(BlockId(0), 0);
        let upper = lower.sibling();
        d.program_page(lower, CellMode::Slc, None).unwrap();
        assert_eq!(
            d.program_page(upper, CellMode::Mlc, None),
            Err(FlashOpError::SlcSibling(upper))
        );
        // After erase the page may be recommitted in MLC mode.
        d.erase_block(BlockId(0)).unwrap();
        d.program_page(upper, CellMode::Mlc, None).unwrap();
        d.program_page(lower, CellMode::Mlc, None).unwrap();
    }

    #[test]
    fn slc_must_use_lower_slot() {
        let mut d = small_device();
        let upper = PageAddr::new(BlockId(0), 1);
        assert_eq!(
            d.program_page(upper, CellMode::Slc, None),
            Err(FlashOpError::UpperHalfSlc(upper))
        );
    }

    #[test]
    fn mode_conflicts_rejected() {
        let mut d = small_device();
        let a = PageAddr::new(BlockId(0), 4);
        d.program_page(a, CellMode::Mlc, None).unwrap();
        // Sibling in SLC mode would conflict with the committed MLC page.
        assert!(matches!(
            d.program_page(a.sibling(), CellMode::Slc, None),
            Err(FlashOpError::ModeConflict { .. }) | Err(FlashOpError::UpperHalfSlc(_))
        ));
    }

    #[test]
    fn read_of_unwritten_slot_fails() {
        let mut d = small_device();
        let addr = PageAddr::new(BlockId(0), 0);
        assert_eq!(d.read_page(addr), Err(FlashOpError::NotProgrammed(addr)));
    }

    #[test]
    fn bounds_are_checked() {
        let mut d = small_device();
        let bad = PageAddr::new(BlockId(99), 0);
        assert_eq!(
            d.program_page(bad, CellMode::Slc, None),
            Err(FlashOpError::OutOfRange(bad))
        );
        assert_eq!(
            d.erase_block(BlockId(99)),
            Err(FlashOpError::BlockOutOfRange(BlockId(99)))
        );
    }

    #[test]
    fn payload_size_validated() {
        let mut d = small_device();
        let addr = PageAddr::new(BlockId(0), 0);
        assert_eq!(
            d.program_page(addr, CellMode::Slc, Some(&[0u8; 100])),
            Err(FlashOpError::PayloadSize {
                expected: 2112,
                got: 100
            })
        );
        // The data half alone is not a raw page either.
        assert!(matches!(
            d.program_page(addr, CellMode::Slc, Some(&[0u8; 2048])),
            Err(FlashOpError::PayloadSize { got: 2048, .. })
        ));
    }

    #[test]
    fn erase_latency_tracks_worst_mode() {
        let mut d = small_device();
        // Pure SLC block erases at the SLC latency.
        d.program_page(PageAddr::new(BlockId(0), 0), CellMode::Slc, None)
            .unwrap();
        let out = d.erase_block(BlockId(0)).unwrap();
        assert_eq!(out.latency_us, 1500.0);
        // A block touched by MLC pays the MLC erase cost.
        d.program_page(PageAddr::new(BlockId(0), 0), CellMode::Mlc, None)
            .unwrap();
        let out = d.erase_block(BlockId(0)).unwrap();
        assert_eq!(out.latency_us, 3300.0);
        // Untouched blocks default to the SLC erase cost.
        let out = d.erase_block(BlockId(2)).unwrap();
        assert_eq!(out.latency_us, 1500.0);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut d = small_device();
        d.program_page(PageAddr::new(BlockId(0), 0), CellMode::Slc, None)
            .unwrap();
        d.read_page(PageAddr::new(BlockId(0), 0)).unwrap();
        d.erase_block(BlockId(0)).unwrap();
        let s = d.stats();
        assert_eq!((s.reads, s.programs, s.erases), (1, 1, 1));
        assert!((s.busy_us - (200.0 + 25.0 + 1500.0)).abs() < 1e-9);
        assert!(s.energy_mj > 0.0);
        d.reset_stats();
        assert_eq!(d.stats(), FlashStats::default());
    }

    #[test]
    fn worn_blocks_show_bit_errors() {
        let mut d = FlashDevice::new(FlashConfig {
            geometry: FlashGeometry {
                blocks: 2,
                pages_per_block: 2,
            },
            wear: WearConfig::default().accelerated(1e4),
            ..FlashConfig::default()
        });
        let addr = PageAddr::new(BlockId(0), 0);
        // Hammer the block with erase/program cycles.
        let mut total_errors = 0u64;
        for _ in 0..3_000 {
            d.program_page(addr, CellMode::Mlc, None).unwrap();
            d.erase_block(BlockId(0)).unwrap();
        }
        d.program_page(addr, CellMode::Mlc, None).unwrap();
        total_errors += d.read_page(addr).unwrap().raw_bit_errors as u64;
        assert!(total_errors > 0, "3000 accelerated cycles must show wear");
        // The untouched block still reads clean.
        let fresh = PageAddr::new(BlockId(1), 0);
        d.program_page(fresh, CellMode::Mlc, None).unwrap();
        assert_eq!(d.read_page(fresh).unwrap().raw_bit_errors, 0);
    }

    #[test]
    #[should_panic(expected = "channels must be >= 1")]
    fn zero_channels_are_rejected_at_construction() {
        FlashDevice::new(FlashConfig {
            channel: ChannelConfig {
                channels: 0,
                ..ChannelConfig::default()
            },
            ..FlashConfig::default()
        });
    }

    #[test]
    fn debug_is_nonempty() {
        let d = small_device();
        assert!(format!("{d:?}").contains("FlashDevice"));
    }
}
