//! End-to-end verified flash: real data, real BCH parity in the spare
//! area, real bit corruption.
//!
//! [`VerifiedFlash`] wraps a [`FlashDevice`] configured to retain
//! payloads and closes the loop that the statistical simulator leaves
//! open: programs encode the page with an actual
//! [`flash_ecc::PageCodec`] at a chosen strength, and reads materialize
//! the device's wear-driven error *count* as concrete, repeatable bit
//! flips before running the real decoder. A cell that has failed keeps
//! failing at the same position ("fail consistently", §5.2.1), and data
//! survives wear exactly as long as the code strength covers the
//! failures — the paper's §4.1 contract, demonstrated in software.

use std::error::Error;
use std::fmt;

use crate::fxhash::FxHashMap;

use flash_ecc::page::{
    PageCodec, PageDecodeError, PageDecodeOutcome, MAX_PAGE_STRENGTH, PAGE_DATA_BYTES,
    PAGE_SPARE_BYTES,
};

use crate::device::{EraseOutcome, FlashConfig, FlashDevice, FlashOpError, ProgramOutcome};
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
    /// Mode the page was stored in.
    pub mode: CellMode,
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
    /// Per-slot (strength, spare bytes) for programmed pages.
    spares: FxHashMap<u64, (u8, Vec<u8>)>,
    /// Reusable spare-area scratch for the read path, so each read does
    /// not clone the stored spare into a fresh allocation.
    spare_buf: Vec<u8>,
}

impl VerifiedFlash {
    /// Creates the device; payload storage is forced on.
    pub fn new(mut config: FlashConfig) -> Self {
        config.store_payloads = true;
        VerifiedFlash {
            device: FlashDevice::new(config),
            codecs: vec![None; MAX_PAGE_STRENGTH + 1],
            spares: FxHashMap::default(),
            spare_buf: vec![0u8; PAGE_SPARE_BYTES],
        }
    }

    /// The wrapped device.
    pub fn device(&self) -> &FlashDevice {
        &self.device
    }

    fn gidx(&self, addr: PageAddr) -> u64 {
        addr.block.0 as u64 * self.device.geometry().slots_per_block() as u64 + addr.slot as u64
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
        let gidx = self.gidx(addr);
        let codec = codec(&mut self.codecs, strength)?;
        let outcome = self.device.program_page(addr, mode, Some(data))?;
        // Encode straight into the slot's spare record, reusing its
        // allocation when the slot is reprogrammed.
        let entry = self
            .spares
            .entry(gidx)
            .or_insert_with(|| (strength, vec![0u8; PAGE_SPARE_BYTES]));
        entry.0 = strength;
        entry.1.resize(PAGE_SPARE_BYTES, 0);
        codec.encode_into(data, &mut entry.1);
        Ok(outcome)
    }

    /// Reads one page: fetches the stored payload, applies the device's
    /// wear-driven corruption as concrete bit flips, and runs the real
    /// decoder.
    ///
    /// # Errors
    ///
    /// [`VerifiedError::Uncorrectable`] when wear exceeded the code
    /// strength (the data is genuinely lost and the CRC knows it), or a
    /// device error for unprogrammed/out-of-range addresses.
    pub fn read(&mut self, addr: PageAddr) -> Result<VerifiedRead, VerifiedError> {
        let out = self.device.read_page(addr)?;
        // The payload is moved out of the read outcome (it becomes the
        // returned buffer), not cloned a second time.
        let mut data = out
            .data
            .expect("store_payloads is forced on; programmed pages have data");
        let gidx = self.gidx(addr);
        let (strength, stored_spare) = self
            .spares
            .get(&gidx)
            .expect("programmed pages have recorded parity");
        let strength = *strength;
        // Copy the stored spare into the reusable scratch (zero-padded to
        // the full spare area) instead of cloning it.
        self.spare_buf.clear();
        self.spare_buf.extend_from_slice(stored_spare);
        self.spare_buf.resize(PAGE_SPARE_BYTES, 0);
        // Materialize the error count as consistent bit positions.
        corrupt_bits(
            &mut data,
            &mut self.spare_buf,
            out.raw_bit_errors,
            page_corruption_seed(self.device.config().seed, addr),
        );
        let codec = codec(&mut self.codecs, strength)?;
        match codec.decode(&mut data, &self.spare_buf) {
            Ok(PageDecodeOutcome::Clean) => Ok(VerifiedRead {
                data,
                corrected: 0,
                raw_bit_errors: out.raw_bit_errors,
                latency_us: out.latency_us,
                mode: out.mode,
            }),
            Ok(PageDecodeOutcome::Corrected { corrected }) => Ok(VerifiedRead {
                data,
                corrected,
                raw_bit_errors: out.raw_bit_errors,
                latency_us: out.latency_us,
                mode: out.mode,
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

    /// Erases a block, discarding its parity records.
    ///
    /// # Errors
    ///
    /// Propagates device bounds errors.
    pub fn erase(&mut self, block: BlockId) -> Result<EraseOutcome, VerifiedError> {
        let outcome = self.device.erase_block(block)?;
        let spb = self.device.geometry().slots_per_block() as u64;
        let base = block.0 as u64 * spb;
        for slot in 0..spb {
            self.spares.remove(&(base + slot));
        }
        Ok(outcome)
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
    let mut x = device_seed
        ^ (addr.block.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ ((addr.physical_page() as u64) << 32);
    // SplitMix64 finalizer.
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
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
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let bit = (z as usize) % total_bits;
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
