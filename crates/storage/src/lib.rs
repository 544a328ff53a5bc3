//! Storage-hierarchy device models: DDR2 DRAM and hard disk drives.
//!
//! Provides the timing and power constants of Table 2/3 of *Improving
//! NAND Flash Based Disk Caches* (ISCA 2008), plus small accounting
//! helpers the simulator uses to produce the power breakdowns of
//! Figure 9. The NAND flash device itself lives in the `nand-flash`
//! crate; this crate covers the devices flash is compared against.
//!
//! # Examples
//!
//! ```
//! use storage_model::{DramModel, HddModel};
//!
//! let dram = DramModel::default();
//! let disk = HddModel::travelstar();
//! // The latency gap flash bridges: DRAM ~55ns vs disk ~4.2ms.
//! assert!(disk.access_latency_us(2048) > 1000.0 * dram.access_latency_us(2048));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dram;
pub mod energy;
pub mod hdd;

pub use dram::{DramModel, DramPowerBreakdown};
pub use energy::ActivityTracker;
pub use hdd::HddModel;
