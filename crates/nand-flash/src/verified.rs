//! End-to-end verified flash: real data, real BCH parity in the spare
//! area, real bit corruption.
//!
//! [`VerifiedFlash`] wraps a [`FlashDevice`] and closes the loop that
//! the statistical simulator leaves open: a program encodes the page
//! with an actual [`flash_ecc::PageCodec`] at a chosen strength, writing
//! CRC and parity into the spare behind the data, and hands the device
//! the one raw page (data ‖ spare) to store. A read takes that raw page
//! back, materializes the device's wear-driven error *count* as
//! concrete, repeatable bit flips across both halves, and runs the real
//! decoder. The only state of its own is the controller's record of
//! each slot's strength, which stays out of the spare because the
//! corruption flips spare bits too. A cell that has failed keeps
//! failing at the same position ("fail consistently", §5.2.1), and data
//! survives wear exactly as long as the code strength covers the
//! failures — the paper's §4.1 contract, demonstrated in software.

use std::error::Error;
use std::fmt;

use flash_ecc::page::{
    PageCodec, PageDecodeError, PageDecodeOutcome, MAX_PAGE_STRENGTH, PAGE_DATA_BYTES,
    PAGE_SPARE_BYTES,
};

use crate::device::{
    EraseOutcome, FlashConfig, FlashDevice, FlashOpError, ProgramOutcome, RAW_PAGE_BYTES,
};
use crate::geometry::{BlockId, CellMode, PageAddr};

/// Errors from the verified-flash layer.
#[derive(Debug)]
pub enum VerifiedError {
    /// The underlying device rejected the operation.
    Device(FlashOpError),
    /// Wear has corrupted more bits than the page's code can correct;
    /// the data is lost (CRC/BCH detected it).
    Uncorrectable {
        /// Raw bit errors the device reported.
        raw_bit_errors: u32,
        /// Strength the page was protected with.
        strength: u8,
    },
    /// Requested ECC strength outside 1..=12.
    BadStrength(u8),
}

impl fmt::Display for VerifiedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifiedError::Device(e) => write!(f, "device error: {e}"),
            VerifiedError::Uncorrectable {
                raw_bit_errors,
                strength,
            } => write!(
                f,
                "uncorrectable: {raw_bit_errors} raw bit errors exceed BCH t={strength}"
            ),
            VerifiedError::BadStrength(t) => write!(f, "ECC strength {t} outside 1..=12"),
        }
    }
}

impl Error for VerifiedError {}

impl From<FlashOpError> for VerifiedError {
    fn from(e: FlashOpError) -> Self {
        VerifiedError::Device(e)
    }
}

/// Result of a verified read.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifiedRead {
    /// The recovered page payload.
    pub data: Vec<u8>,
    /// Bit errors the decoder fixed.
    pub corrected: usize,
    /// Raw bit errors present before decoding.
    pub raw_bit_errors: u32,
    /// Array latency plus nothing — ECC time is the caller's model.
    pub latency_us: f64,
}

/// A flash device with a real software ECC pipeline attached.
///
/// # Examples
///
/// ```
/// use nand_flash::verified::VerifiedFlash;
/// use nand_flash::{FlashConfig, BlockId, CellMode, PageAddr};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut flash = VerifiedFlash::new(FlashConfig::default());
/// let addr = PageAddr::new(BlockId(0), 0);
/// let data = vec![0xAB; 2048];
/// flash.program(addr, CellMode::Slc, 4, &data)?;
/// let read = flash.read(addr)?;
/// assert_eq!(read.data, data);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct VerifiedFlash {
    device: FlashDevice,
    /// Page codecs indexed by strength, each built on first use.
    codecs: Vec<Option<PageCodec>>,
    /// The strength each slot was last programmed at, indexed like the
    /// device's slots.
    strengths: Vec<u8>,
}

impl VerifiedFlash {
    /// Creates the device.
    pub fn new(config: FlashConfig) -> Self {
        let device = FlashDevice::new(config);
        VerifiedFlash {
            strengths: vec![0; device.geometry().total_slots() as usize],
            device,
            codecs: vec![None; MAX_PAGE_STRENGTH + 1],
        }
    }

    /// The wrapped device.
    pub fn device(&self) -> &FlashDevice {
        &self.device
    }

    fn slot_index(&self, addr: PageAddr) -> usize {
        self.device.geometry().slot_index(addr)
    }

    /// Encodes and programs one page at the given BCH strength.
    ///
    /// # Errors
    ///
    /// [`VerifiedError::BadStrength`] for strengths outside 1..=12, or
    /// the underlying [`FlashOpError`] (erase-before-program, mode
    /// conflicts, bounds).
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly one page (2048 bytes).
    pub fn program(
        &mut self,
        addr: PageAddr,
        mode: CellMode,
        strength: u8,
        data: &[u8],
    ) -> Result<ProgramOutcome, VerifiedError> {
        assert_eq!(data.len(), PAGE_DATA_BYTES, "payload must be one 2KB page");
        let codec = codec(&mut self.codecs, strength)?;
        let mut raw = [0u8; RAW_PAGE_BYTES];
        let (page, spare) = raw.split_at_mut(PAGE_DATA_BYTES);
        page.copy_from_slice(data);
        codec.encode_into(page, spare);
        let outcome = self.device.program_page(addr, mode, Some(&raw))?;
        let si = self.slot_index(addr);
        self.strengths[si] = strength;
        Ok(outcome)
    }

    /// Reads one page: fetches the stored raw page, applies the
    /// device's wear-driven corruption as concrete bit flips across data
    /// and spare, and runs the real decoder on the two halves.
    ///
    /// # Errors
    ///
    /// [`VerifiedError::Uncorrectable`] when wear exceeded the code
    /// strength (the data is genuinely lost and the CRC knows it), or a
    /// device error for unprogrammed/out-of-range addresses.
    pub fn read(&mut self, addr: PageAddr) -> Result<VerifiedRead, VerifiedError> {
        let out = self.device.read_page(addr)?;
        // The raw page is moved out of the read outcome and becomes the
        // returned buffer, truncated to its data.
        let mut data = out
            .data
            .expect("every program through VerifiedFlash stores its raw page");
        let strength = self.strengths[self.slot_index(addr)];
        let (page, spare) = data.split_at_mut(PAGE_DATA_BYTES);
        // Materialize the error count as consistent bit positions.
        corrupt_bits(
            page,
            spare,
            out.raw_bit_errors,
            page_corruption_seed(self.device.config().seed, addr),
        );
        let decoded = codec(&mut self.codecs, strength)?.decode(page, spare);
        data.truncate(PAGE_DATA_BYTES);
        match decoded {
            Ok(PageDecodeOutcome::Clean) => Ok(VerifiedRead {
                data,
                corrected: 0,
                raw_bit_errors: out.raw_bit_errors,
                latency_us: out.latency_us,
            }),
            Ok(PageDecodeOutcome::Corrected { corrected }) => Ok(VerifiedRead {
                data,
                corrected,
                raw_bit_errors: out.raw_bit_errors,
                latency_us: out.latency_us,
            }),
            Err(PageDecodeError::Uncorrectable | PageDecodeError::CrcMismatch) => {
                Err(VerifiedError::Uncorrectable {
                    raw_bit_errors: out.raw_bit_errors,
                    strength,
                })
            }
            Err(PageDecodeError::BadLength(e)) => {
                unreachable!("fixed page geometry cannot mismatch: {e}")
            }
        }
    }

    /// Erases a block; its pages, spares included, go with it.
    ///
    /// # Errors
    ///
    /// Propagates device bounds errors.
    pub fn erase(&mut self, block: BlockId) -> Result<EraseOutcome, VerifiedError> {
        Ok(self.device.erase_block(block)?)
    }
}

/// The codec for `strength` out of `codecs`, built on first use.
fn codec(codecs: &mut [Option<PageCodec>], strength: u8) -> Result<&PageCodec, VerifiedError> {
    let t = usize::from(strength);
    let slot = codecs
        .get_mut(t)
        .filter(|_| t > 0)
        .ok_or(VerifiedError::BadStrength(strength))?;
    Ok(slot.get_or_insert_with(|| PageCodec::new(t).expect("strength is within 1..=12")))
}

/// Stable per-page corruption seed: the same page always fails at the
/// same bit positions, and growing error counts extend the same
/// sequence.
fn page_corruption_seed(device_seed: u64, addr: PageAddr) -> u64 {
    splitmix64_finalize(
        device_seed
            ^ (addr.block.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ ((addr.physical_page() as u64) << 32),
    )
}

/// The SplitMix64 finalizer.
fn splitmix64_finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Flips `count` distinct bits across data and spare, positions drawn
/// from a deterministic SplitMix64 stream.
///
/// Duplicate positions are tracked in a stack-allocated bitset sized
/// for a page plus its spare area (the most either buffer holds), so
/// the hot read path does no hashing and no per-call allocation. The
/// position stream and skip-duplicates rule preserve every historical
/// corruption pattern (same-seed determinism and the prefix-subset
/// property of growing counts).
fn corrupt_bits(data: &mut [u8], spare: &mut [u8], count: u32, seed: u64) {
    let total_bits = (data.len() + spare.len()) * 8;
    let mut seen = [0u64; (PAGE_DATA_BYTES + PAGE_SPARE_BYTES) * 8 / 64];
    let target = (count as usize).min(total_bits);
    let mut flipped = 0usize;
    let mut state = seed;
    while flipped < target {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let bit = (splitmix64_finalize(state) as usize) % total_bits;
        let (w, mask) = (bit / 64, 1u64 << (bit % 64));
        if seen[w] & mask != 0 {
            continue;
        }
        seen[w] |= mask;
        flipped += 1;
        if bit < data.len() * 8 {
            data[bit / 8] ^= 1 << (7 - bit % 8);
        } else {
            let b = bit - data.len() * 8;
            spare[b / 8] ^= 1 << (7 - b % 8);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::FlashGeometry;
    use crate::wear::WearConfig;

    fn fresh() -> VerifiedFlash {
        VerifiedFlash::new(FlashConfig {
            geometry: FlashGeometry {
                blocks: 2,
                pages_per_block: 4,
            },
            ..FlashConfig::default()
        })
    }

    fn page(fill: u8) -> Vec<u8> {
        (0..PAGE_DATA_BYTES)
            .map(|i| (i as u8).wrapping_mul(7).wrapping_add(fill))
            .collect()
    }

    #[test]
    fn clean_roundtrip() {
        let mut f = fresh();
        let addr = PageAddr::new(BlockId(0), 0);
        let data = page(1);
        f.program(addr, CellMode::Mlc, 4, &data).unwrap();
        let r = f.read(addr).unwrap();
        assert_eq!(r.data, data);
        assert_eq!(r.corrected, 0);
        assert_eq!(r.raw_bit_errors, 0);
    }

    #[test]
    fn device_discipline_still_enforced() {
        let mut f = fresh();
        let addr = PageAddr::new(BlockId(0), 0);
        f.program(addr, CellMode::Slc, 2, &page(2)).unwrap();
        assert!(matches!(
            f.program(addr, CellMode::Slc, 2, &page(3)),
            Err(VerifiedError::Device(FlashOpError::NotErased(_)))
        ));
        f.erase(BlockId(0)).unwrap();
        f.program(addr, CellMode::Slc, 2, &page(3)).unwrap();
        assert_eq!(f.read(addr).unwrap().data, page(3));
    }

    #[test]
    fn reprogrammed_slot_decodes_at_its_new_strength() {
        // Each strength's parity fills a different share of the spare,
        // so a clean read decodes only under the strength the page was
        // last programmed at.
        let mut f = VerifiedFlash::new(FlashConfig {
            geometry: FlashGeometry {
                blocks: 2,
                pages_per_block: 4,
            },
            wear: WearConfig {
                transient_errors_per_read: 0.0,
                ..WearConfig::default()
            },
            ..FlashConfig::default()
        });
        let addr = PageAddr::new(BlockId(1), 3);
        for (fill, strength) in [(1u8, 12u8), (2, 2), (3, 12), (4, 1)] {
            f.program(addr, CellMode::Mlc, strength, &page(fill))
                .unwrap();
            let r = f.read(addr).unwrap();
            assert_eq!(r.data, page(fill), "strength {strength}");
            assert_eq!((r.corrected, r.raw_bit_errors), (0, 0));
            f.erase(BlockId(1)).unwrap();
        }
    }

    #[test]
    fn bad_strength_rejected() {
        let mut f = fresh();
        let addr = PageAddr::new(BlockId(0), 0);
        assert!(matches!(
            f.program(addr, CellMode::Slc, 0, &page(0)),
            Err(VerifiedError::BadStrength(0))
        ));
        assert!(matches!(
            f.program(addr, CellMode::Slc, 13, &page(0)),
            Err(VerifiedError::BadStrength(13))
        ));
    }

    #[test]
    fn wear_errors_are_really_corrected_until_strength_is_exceeded() {
        // Accelerate wear so bit errors appear, protect at t=12, and
        // check that real decoding recovers the data as long as the
        // error count stays within strength.
        let mut f = VerifiedFlash::new(FlashConfig {
            geometry: FlashGeometry {
                blocks: 1,
                pages_per_block: 2,
            },
            // Acceleration tuned so the 1..12-error band spans tens of
            // integer erase cycles rather than being jumped over.
            wear: WearConfig {
                spatial_sigma_decades: 0.0,
                ..WearConfig::default()
            }
            .accelerated(3e4),
            ..FlashConfig::default()
        });
        let addr = PageAddr::new(BlockId(0), 0);
        let data = page(9);
        let mut saw_corrected = false;
        let mut saw_uncorrectable = false;
        for _ in 0..600 {
            f.program(addr, CellMode::Mlc, 12, &data).unwrap();
            match f.read(addr) {
                Ok(r) => {
                    assert_eq!(r.data, data, "corrected data must be exact");
                    if r.corrected > 0 {
                        saw_corrected = true;
                        assert!(r.corrected as u32 <= r.raw_bit_errors.max(12));
                    }
                }
                Err(VerifiedError::Uncorrectable {
                    raw_bit_errors,
                    strength,
                }) => {
                    assert!(raw_bit_errors > strength as u32);
                    saw_uncorrectable = true;
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
            f.erase(BlockId(0)).unwrap();
        }
        assert!(saw_corrected, "wear must produce correctable errors first");
        assert!(
            saw_uncorrectable,
            "600 accelerated cycles must exceed t=12 eventually"
        );
    }

    #[test]
    fn corruption_is_consistent_across_reads() {
        // The same worn page shows the same failed bits on every read
        // (transient noise aside — disabled here).
        let mut f = VerifiedFlash::new(FlashConfig {
            geometry: FlashGeometry {
                blocks: 1,
                pages_per_block: 2,
            },
            wear: WearConfig {
                transient_errors_per_read: 0.0,
                spatial_sigma_decades: 0.0,
                ..WearConfig::default()
            }
            .accelerated(1e6),
            ..FlashConfig::default()
        });
        let addr = PageAddr::new(BlockId(0), 0);
        // Age the block until a moderate error count appears.
        for _ in 0..60 {
            f.program(addr, CellMode::Mlc, 12, &page(5)).unwrap();
            let errs = f.device.read_page(addr).unwrap().raw_bit_errors;
            f.erase(BlockId(0)).unwrap();
            if errs >= 2 {
                break;
            }
        }
        f.program(addr, CellMode::Mlc, 12, &page(5)).unwrap();
        let a = f.read(addr);
        let b = f.read(addr);
        match (a, b) {
            (Ok(x), Ok(y)) => {
                assert_eq!(x.raw_bit_errors, y.raw_bit_errors);
                assert_eq!(x.corrected, y.corrected);
            }
            (Err(_), Err(_)) => {}
            other => panic!("reads disagreed: {other:?}"),
        }
    }

    #[test]
    fn corrupt_bits_flips_exactly_count_distinct_bits() {
        let mut data = vec![0u8; 64];
        let mut spare = vec![0u8; 8];
        corrupt_bits(&mut data, &mut spare, 17, 42);
        let ones: u32 = data.iter().map(|b| b.count_ones()).sum::<u32>()
            + spare.iter().map(|b| b.count_ones()).sum::<u32>();
        assert_eq!(ones, 17);
        // Deterministic: same seed, same flips.
        let mut d2 = vec![0u8; 64];
        let mut s2 = vec![0u8; 8];
        corrupt_bits(&mut d2, &mut s2, 17, 42);
        assert_eq!(data, d2);
        assert_eq!(spare, s2);
        // Prefix property: 5 flips are a subset of 17.
        let mut d3 = vec![0u8; 64];
        let mut s3 = vec![0u8; 8];
        corrupt_bits(&mut d3, &mut s3, 5, 42);
        for (a, b) in d3.iter().zip(&data) {
            assert_eq!(a & !b, 0, "smaller count must be a subset");
        }
    }
}
