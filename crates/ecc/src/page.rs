//! Whole-flash-page codec: BCH correction + CRC32 detection in the 64-byte
//! spare area, exactly as laid out in the paper (§4.1).
//!
//! A 2048-byte flash page carries a 64-byte spare area. The paper assigns
//! 4 bytes to a CRC32 checksum and up to 23 bytes of BCH parity (t ≤ 12
//! over GF(2^15) needs 15·12 = 180 bits), leaving the rest unused.
//!
//! The BCH codeword is data ‖ CRC ‖ parity — the page and the spare in
//! the order they sit on the device — so a flipped CRC bit is corrected
//! like any other. The paper does not say whether its BCH covers the CRC;
//! when it does not, one failed CRC cell makes a correctable page
//! uncorrectable.

use std::error::Error;
use std::fmt;

use crate::bch::{BchCode, DecodeError};
use crate::crc::flip_difference;

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
    /// `corrected` bit errors were fixed (in the data, the CRC or the
    /// parity) and the CRC subsequently passed.
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
    /// BCH found a codeword, as received or after correction, but the
    /// CRC32 of its data disagrees with its CRC: a miscorrection (more
    /// errors occurred than the code strength).
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
        let bch = BchCode::new(15, t, PAGE_DATA_BYTES + CRC_BYTES)
            .expect("a page plus its CRC fits GF(2^15) at t <= 12");
        Ok(PageCodec { bch })
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
    /// One pass over the page computes its CRC32 and divides it by the
    /// BCH generator; the division then continues over the four CRC
    /// bytes.
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
        let (crc_out, rest) = spare.split_at_mut(CRC_BYTES);
        let (parity, padding) = rest.split_at_mut(self.bch.parity_bytes());
        self.bch.with_remainder::<true, _>(data, |reg, crc| {
            crc_out.copy_from_slice(&crc.to_be_bytes());
            self.bch.feed(reg, crc_out);
            BchCode::write_parity(reg, parity);
        });
        padding.fill(0);
    }

    /// Decodes a page in place against its spare area.
    ///
    /// One pass over the page divides the received word and computes the
    /// CRC32 of the received data. A correction flips data bits in place
    /// and moves that CRC by [`flip_difference`] per flipped bit, so the
    /// page is not read again; the CRC is compared on every path, clean
    /// or corrected.
    ///
    /// # Errors
    ///
    /// - [`PageDecodeError::Uncorrectable`] if BCH decoding fails outright.
    /// - [`PageDecodeError::CrcMismatch`] if BCH found a codeword but the
    ///   CRC32 check exposes it as a miscorrection.
    /// - [`PageDecodeError::BadLength`] for wrong buffer sizes.
    pub fn decode(
        &self,
        data: &mut [u8],
        spare: &[u8],
    ) -> Result<PageDecodeOutcome, PageDecodeError> {
        let mismatch = |expected, got, which| {
            Err(PageDecodeError::BadLength(DecodeError::LengthMismatch {
                expected,
                got,
                which,
            }))
        };
        if spare.len() != PAGE_SPARE_BYTES {
            return mismatch(PAGE_SPARE_BYTES, spare.len(), "parity");
        }
        if data.len() != PAGE_DATA_BYTES {
            return mismatch(PAGE_DATA_BYTES, data.len(), "data");
        }
        let (stored, rest) = spare.split_at(CRC_BYTES);
        let parity = &rest[..self.bch.parity_bytes()];
        let (powers, mut crc) = self.bch.with_remainder::<true, _>(data, |reg, crc| {
            self.bch.feed(reg, stored);
            (self.bch.locate(reg, parity), crc)
        });
        let powers = powers.ok_or(PageDecodeError::Uncorrectable)?;
        let mut stored_crc = u32::from_be_bytes(stored.try_into().expect("four CRC bytes"));
        for &power in powers.iter() {
            match self.bch.message_bit(power) {
                Some(j) if j < PAGE_DATA_BYTES * 8 => {
                    data[j / 8] ^= 0x80 >> (j % 8);
                    crc ^= flip_difference(PAGE_DATA_BYTES, j);
                }
                Some(j) => stored_crc ^= 1 << (31 - (j - PAGE_DATA_BYTES * 8)),
                None => {}
            }
        }
        if crc != stored_crc {
            Err(PageDecodeError::CrcMismatch)
        } else if powers.is_empty() {
            Ok(PageDecodeOutcome::Clean)
        } else {
            Ok(PageDecodeOutcome::Corrected {
                corrected: powers.len(),
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
    fn every_stored_crc_bit_is_corrected() {
        // BCH covers the CRC: a failed CRC cell costs one correction, not
        // the page.
        for t in [1, 8, 12] {
            let codec = PageCodec::new(t).unwrap();
            let original = test_page();
            let spare = codec.encode(&original);
            for bit in 0..CRC_BYTES * 8 {
                let (mut page, mut bad) = (original.clone(), spare.clone());
                bad[bit / 8] ^= 0x80 >> (bit % 8);
                assert_eq!(
                    codec.decode(&mut page, &bad),
                    Ok(PageDecodeOutcome::Corrected { corrected: 1 }),
                    "t={t} bit {bit}"
                );
                assert_eq!(page, original);
            }
        }
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
