//! Dual-mode SLC/MLC NAND flash device model.
//!
//! Implements the flash substrate of *Improving NAND Flash Based Disk
//! Caches* (ISCA 2008): the §2.1/Figure 1(a) array organization (2KB
//! pages + 64B spare, 64-SLC-page blocks that can hold 128 MLC pages),
//! erase-before-program discipline, per-page SLC/MLC density selection
//! (§4.2), Table 2/3 timing and power, and wear-driven bit-error
//! injection backed by the `flash-reliability` lifetime model.
//!
//! * [`fxhash`] — vendored deterministic hasher for integer-keyed hot
//!   paths;
//! * [`geometry`] — blocks, physical pages, slots, capacity math;
//! * [`timing`] — per-operation latency and energy constants;
//! * [`sched`] — device timing: the one channel/plane scheduler, whose
//!   serial configuration is the closed-form model;
//! * [`wear`] — permanent/transient bit-error injection as erase counts
//!   grow, with MLC-vs-SLC endurance coupling;
//! * [`device`] — the [`FlashDevice`] state machine tying it together;
//! * [`sampling`] — Poisson/binomial/normal sampling helpers.
//!
//! # Examples
//!
//! ```
//! use nand_flash::{FlashConfig, FlashDevice};
//! use nand_flash::geometry::{BlockId, CellMode, PageAddr};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut flash = FlashDevice::new(FlashConfig::default());
//! // One physical page holds two 2KB pages in MLC mode...
//! flash.program_page(PageAddr::new(BlockId(0), 0), CellMode::Mlc, None)?;
//! flash.program_page(PageAddr::new(BlockId(0), 1), CellMode::Mlc, None)?;
//! // ...and MLC reads are slower than SLC reads (50µs vs 25µs).
//! let out = flash.read_page(PageAddr::new(BlockId(0), 1))?;
//! assert_eq!(out.latency_us, 50.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod device;
pub mod fxhash;
pub mod geometry;
pub mod sampling;
pub mod sched;
pub mod timing;
pub mod verified;
pub mod wear;

pub use device::{
    EraseOutcome, FlashConfig, FlashDevice, FlashOpError, FlashStats, OpContext, ProgramOutcome,
    ReadOutcome,
};
pub use geometry::{BlockId, CellMode, FlashGeometry, PageAddr};
pub use sched::{
    ChannelConfig, ChannelConfigBuilder, ChannelConfigError, EventDriven, OpClass, OpRequest,
    OpTiming, TimingBackend,
};
pub use timing::{FlashPower, FlashTiming};
pub use verified::{VerifiedError, VerifiedFlash, VerifiedRead};
pub use wear::{PageWearState, WearConfig, WearModel};
