//! Error correction and detection for NAND flash pages.
//!
//! This crate implements the coding layer of the programmable flash memory
//! controller from *Improving NAND Flash Based Disk Caches* (Kgil, Roberts
//! & Mudge, ISCA 2008, §4.1):
//!
//! * [`gf`] — table-driven GF(2^m) finite-field arithmetic (2 ≤ m ≤ 16);
//! * [`bch`] — `t`-error-correcting shortened binary BCH codes
//!   (systematic LFSR encoder; division remainder → syndromes →
//!   Berlekamp–Massey → closed-form roots or Chien search decoder), the
//!   paper's variable-strength corrector;
//! * [`crc`] — CRC32 (IEEE) detection to catch BCH miscorrections;
//! * [`page`] — the combined 2KB-page codec with the paper's 64-byte
//!   spare-area layout (4B CRC32 + up to 23B BCH parity, t ≤ 12);
//! * [`latency`] — the timing model of the paper's 100MHz hardware
//!   accelerator (Fig. 6(a), Table 3), used by the simulator for
//!   latency accounting.
//!
//! # Examples
//!
//! Protect a flash page at strength 4 and recover from bit errors:
//!
//! ```
//! use flash_ecc::page::{PageCodec, PageDecodeOutcome, PAGE_DATA_BYTES};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let codec = PageCodec::new(4)?;
//! let mut page = vec![0u8; PAGE_DATA_BYTES];
//! page[0] = 0xDE;
//! let spare = codec.encode(&page);
//!
//! page[512] ^= 0x40; // wear-induced bit error
//! assert_eq!(
//!     codec.decode(&mut page, &spare)?,
//!     PageDecodeOutcome::Corrected { corrected: 1 }
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bch;
pub mod bitpoly;
pub mod crc;
pub mod gf;
pub mod latency;
pub mod page;

pub use bch::{BchCode, DecodeError, DecodeReport};
pub use crc::{crc32, Crc32};
pub use latency::EccLatencyModel;
pub use page::{PageCodec, PageDecodeError, PageDecodeOutcome};
