//! Whole-flash-page codec: BCH correction + CRC32 detection in the 64-byte
//! spare area, exactly as laid out in the paper (§4.1).
//!
//! A 2048-byte flash page carries a 64-byte spare area. The paper assigns
//! 4 bytes to a CRC32 checksum and up to 23 bytes of BCH parity (t ≤ 12
//! over GF(2^15) needs 15·12 = 180 bits), leaving the rest unused.

use std::error::Error;
use std::fmt;

use crate::bch::{BchCode, DecodeError};
use crate::crc::crc32;

/// Payload size of a flash page in bytes.
pub const PAGE_DATA_BYTES: usize = 2048;
/// Spare-area size of a flash page in bytes.
pub const PAGE_SPARE_BYTES: usize = 64;
/// Spare bytes reserved for the CRC32 checksum.
pub const CRC_BYTES: usize = 4;
/// Maximum BCH strength that fits the spare area alongside the CRC
/// (the paper's controller limit).
pub const MAX_PAGE_STRENGTH: usize = 12;

/// Outcome of decoding a page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageDecodeOutcome {
    /// No errors were present.
    Clean,
    /// `corrected` bit errors were fixed and the CRC subsequently passed.
    Corrected {
        /// Number of bit errors corrected.
        corrected: usize,
    },
}

/// Error returned when a page cannot be recovered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageDecodeError {
    /// The BCH decoder reported an uncorrectable pattern.
    Uncorrectable,
    /// BCH "succeeded" but CRC32 still mismatched: a miscorrection
    /// (more errors occurred than the code strength).
    CrcMismatch,
    /// Buffers had the wrong length.
    BadLength(DecodeError),
}

impl fmt::Display for PageDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageDecodeError::Uncorrectable => write!(f, "uncorrectable BCH error pattern"),
            PageDecodeError::CrcMismatch => {
                write!(f, "CRC mismatch after BCH decode (miscorrection detected)")
            }
            PageDecodeError::BadLength(e) => write!(f, "bad buffer length: {e}"),
        }
    }
}

impl Error for PageDecodeError {}

/// A codec protecting one flash page at a fixed BCH strength.
///
/// Construction computes the code's generator polynomial, which is cheap
/// but not free; controllers cache one codec per strength (as
/// `nand_flash::VerifiedFlash` does).
///
/// # Examples
///
/// ```
/// use flash_ecc::page::{PageCodec, PageDecodeOutcome, PAGE_DATA_BYTES};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let codec = PageCodec::new(4)?;
/// let mut page = vec![0xA5u8; PAGE_DATA_BYTES];
/// let spare = codec.encode(&page);
///
/// page[100] ^= 0x08;
/// let outcome = codec.decode(&mut page, &spare)?;
/// assert_eq!(outcome, PageDecodeOutcome::Corrected { corrected: 1 });
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PageCodec {
    bch: BchCode,
}

/// Error constructing a [`PageCodec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrengthOutOfRange {
    /// The rejected strength.
    pub t: usize,
}

impl fmt::Display for StrengthOutOfRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "page BCH strength must be 1..={MAX_PAGE_STRENGTH}, got {}",
            self.t
        )
    }
}

impl Error for StrengthOutOfRange {}

impl PageCodec {
    /// Creates a page codec of strength `t` (1..=12).
    ///
    /// # Errors
    ///
    /// Returns [`StrengthOutOfRange`] when `t` is 0 or above
    /// [`MAX_PAGE_STRENGTH`] — the paper's controller fixes the block size
    /// at 2KB and caps correction at 12 bits to bound spare-area use.
    pub fn new(t: usize) -> Result<Self, StrengthOutOfRange> {
        if t == 0 || t > MAX_PAGE_STRENGTH {
            return Err(StrengthOutOfRange { t });
        }
        Ok(PageCodec {
            bch: BchCode::for_flash_page(t),
        })
    }

    /// The BCH strength of this codec.
    pub fn strength(&self) -> usize {
        self.bch.strength()
    }

    /// Encodes a page, producing the 64-byte spare area:
    /// `[CRC32 (4B) | BCH parity | zero padding]`.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly [`PAGE_DATA_BYTES`] long.
    pub fn encode(&self, data: &[u8]) -> Vec<u8> {
        let mut spare = vec![0u8; PAGE_SPARE_BYTES];
        self.encode_into(data, &mut spare);
        spare
    }

    /// Encodes a page into a caller-provided spare buffer, avoiding the
    /// per-page allocations of [`Self::encode`]. Bytes past the CRC and
    /// parity are zeroed.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not [`PAGE_DATA_BYTES`] long or `spare` is not
    /// [`PAGE_SPARE_BYTES`] long.
    pub fn encode_into(&self, data: &[u8], spare: &mut [u8]) {
        assert_eq!(
            data.len(),
            PAGE_DATA_BYTES,
            "page payload must be 2048 bytes"
        );
        assert_eq!(spare.len(), PAGE_SPARE_BYTES, "spare area must be 64 bytes");
        spare[..CRC_BYTES].copy_from_slice(&crc32(data).to_be_bytes());
        let parity_end = CRC_BYTES + self.bch.parity_bytes();
        self.bch
            .encode_into(data, &mut spare[CRC_BYTES..parity_end]);
        spare[parity_end..].fill(0);
    }

    /// Decodes a page in place against its spare area.
    ///
    /// # Errors
    ///
    /// - [`PageDecodeError::Uncorrectable`] if BCH decoding fails outright.
    /// - [`PageDecodeError::CrcMismatch`] if BCH produced a candidate
    ///   correction but the CRC32 check exposes it as a miscorrection.
    /// - [`PageDecodeError::BadLength`] for wrong buffer sizes.
    pub fn decode(
        &self,
        data: &mut [u8],
        spare: &[u8],
    ) -> Result<PageDecodeOutcome, PageDecodeError> {
        if spare.len() != PAGE_SPARE_BYTES {
            return Err(PageDecodeError::BadLength(DecodeError::LengthMismatch {
                expected: PAGE_SPARE_BYTES,
                got: spare.len(),
                which: "parity",
            }));
        }
        let stored_crc = u32::from_be_bytes([spare[0], spare[1], spare[2], spare[3]]);
        let parity = &spare[CRC_BYTES..CRC_BYTES + self.bch.parity_bytes()];
        let report = match self.bch.decode(data, parity) {
            Ok(r) => r,
            Err(DecodeError::TooManyErrors) => return Err(PageDecodeError::Uncorrectable),
            Err(e @ DecodeError::LengthMismatch { .. }) => {
                return Err(PageDecodeError::BadLength(e))
            }
        };
        if crc32(data) != stored_crc {
            return Err(PageDecodeError::CrcMismatch);
        }
        if report.corrected == 0 {
            Ok(PageDecodeOutcome::Clean)
        } else {
            Ok(PageDecodeOutcome::Corrected {
                corrected: report.corrected,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_page() -> Vec<u8> {
        (0..PAGE_DATA_BYTES).map(|i| (i % 256) as u8).collect()
    }

    #[test]
    fn strength_bounds_enforced() {
        assert!(PageCodec::new(0).is_err());
        assert!(PageCodec::new(13).is_err());
        assert!(PageCodec::new(1).is_ok());
        assert!(PageCodec::new(12).is_ok());
    }

    #[test]
    fn spare_layout() {
        let codec = PageCodec::new(12).unwrap();
        let page = test_page();
        let spare = codec.encode(&page);
        assert_eq!(spare.len(), PAGE_SPARE_BYTES);
        // CRC occupies the first 4 bytes.
        assert_eq!(
            u32::from_be_bytes([spare[0], spare[1], spare[2], spare[3]]),
            crate::crc::crc32(&page)
        );
        // t=12 parity = 23 bytes; bytes beyond 4+23 are zero padding.
        assert!(spare[CRC_BYTES + 23..].iter().all(|&b| b == 0));
    }

    #[test]
    fn clean_page_decodes_clean() {
        let codec = PageCodec::new(2).unwrap();
        let mut page = test_page();
        let spare = codec.encode(&page);
        assert_eq!(
            codec.decode(&mut page, &spare).unwrap(),
            PageDecodeOutcome::Clean
        );
    }

    #[test]
    fn corrects_up_to_strength() {
        let codec = PageCodec::new(3).unwrap();
        let mut page = test_page();
        let spare = codec.encode(&page);
        let original = page.clone();
        for &bit in &[17usize, 7777, 16383] {
            page[bit / 8] ^= 1 << (7 - bit % 8);
        }
        assert_eq!(
            codec.decode(&mut page, &spare).unwrap(),
            PageDecodeOutcome::Corrected { corrected: 3 }
        );
        assert_eq!(page, original);
    }

    #[test]
    fn overload_is_detected_not_silently_accepted() {
        // t=1 codec, 4 injected errors: either BCH flags it or the CRC does.
        let codec = PageCodec::new(1).unwrap();
        let mut page = test_page();
        let spare = codec.encode(&page);
        for &bit in &[3usize, 999, 7000, 15000] {
            page[bit / 8] ^= 1 << (7 - bit % 8);
        }
        let err = codec.decode(&mut page, &spare).unwrap_err();
        assert!(
            matches!(
                err,
                PageDecodeError::Uncorrectable | PageDecodeError::CrcMismatch
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn wrong_spare_length_rejected() {
        let codec = PageCodec::new(1).unwrap();
        let mut page = test_page();
        assert!(matches!(
            codec.decode(&mut page, &[0u8; 10]),
            Err(PageDecodeError::BadLength(_))
        ));
    }

    #[test]
    fn corrects_burst_errors_within_strength() {
        // t consecutive bit errors (a burst) are no harder than
        // scattered ones for a binary BCH code.
        let codec = PageCodec::new(8).unwrap();
        let mut page = test_page();
        let spare = codec.encode(&page);
        let original = page.clone();
        for bit in 5_000..5_008usize {
            page[bit / 8] ^= 1 << (7 - bit % 8);
        }
        assert_eq!(
            codec.decode(&mut page, &spare).unwrap(),
            PageDecodeOutcome::Corrected { corrected: 8 }
        );
        assert_eq!(page, original);
    }

    #[test]
    fn crc_catches_every_overload_in_sample() {
        // §4.1.2's reason for the CRC: BCH can miscorrect past its
        // strength. Over a sample of >t error patterns, the combined
        // codec must never return success with wrong data.
        let codec = PageCodec::new(2).unwrap();
        let clean = test_page();
        let spare = codec.encode(&clean);
        for seed in 0..40u64 {
            let mut page = clean.clone();
            let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
            for _ in 0..5 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let bit = (x % (PAGE_DATA_BYTES as u64 * 8)) as usize;
                page[bit / 8] ^= 1 << (7 - bit % 8);
            }
            match codec.decode(&mut page, &spare) {
                Err(_) => {} // detected — good
                Ok(_) => assert_eq!(
                    page, clean,
                    "seed {seed}: codec claimed success with corrupt data"
                ),
            }
        }
    }
}
