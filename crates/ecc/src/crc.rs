//! CRC32 (IEEE 802.3 polynomial) error *detection*.
//!
//! BCH codes can miscorrect when more errors occur than the design
//! strength; the paper (§4.1.2) pairs the BCH corrector with a 32-bit CRC
//! checker to catch those false positives. This is a table-driven,
//! reflected CRC32 identical to the one used by Ethernet, zlib and PNG.

/// The reflected IEEE 802.3 polynomial.
const CRC32_POLY_REFLECTED: u32 = 0xEDB8_8320;

/// Builds the slicing-by-8 lookup tables at first use: slice 0 is the
/// classic byte table, slice `k` row `i` is row `i` of slice `k − 1`
/// advanced by one zero byte.
fn tables() -> &'static [[u32; 256]; 8] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, entry) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    (c >> 1) ^ CRC32_POLY_REFLECTED
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        for k in 1..8 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    })
}

/// An incremental CRC32 hasher.
///
/// # Examples
///
/// ```
/// use flash_ecc::crc::Crc32;
///
/// let mut h = Crc32::new();
/// h.update(b"123456789");
/// // The canonical CRC32 check value.
/// assert_eq!(h.finalize(), 0xCBF4_3926);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Creates a hasher in the initial state.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds bytes into the hasher, eight per step (slicing-by-8): the
    /// state XORs into the first four, and byte `j` of the eight takes its
    /// row from slice `7 − j`. A tail shorter than eight goes bytewise.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = tables();
        let mut c = self.state;
        let (words, tail) = bytes.as_chunks::<8>();
        for word in words {
            let v = (u64::from_le_bytes(*word) ^ u64::from(c)).to_le_bytes();
            c = 0;
            for (j, &b) in v.iter().enumerate() {
                c ^= t[7 - j][b as usize];
            }
        }
        for &b in tail {
            c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    /// Returns the CRC of everything fed so far. The hasher may continue
    /// to be updated afterwards.
    pub fn finalize(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// One-shot CRC32 of a byte slice.
///
/// # Examples
///
/// ```
/// assert_eq!(flash_ecc::crc::crc32(b""), 0);
/// ```
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"abc"), 0x3524_41C2);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data = b"hello, flash disk cache world";
        let mut h = Crc32::new();
        h.update(&data[..5]);
        h.update(&data[5..17]);
        h.update(&data[17..]);
        assert_eq!(h.finalize(), crc32(data));
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = vec![0x77u8; 256];
        let clean = crc32(&data);
        for bit in 0..data.len() * 8 {
            let mut corrupted = data.clone();
            corrupted[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32(&corrupted), clean, "bit {bit} undetected");
        }
    }

    #[test]
    fn detects_burst_errors_up_to_32_bits() {
        let data = vec![0xABu8; 64];
        let clean = crc32(&data);
        for start in 0..32 {
            let mut corrupted = data.clone();
            for b in start..start + 32 {
                corrupted[b / 8] ^= 1 << (b % 8);
            }
            assert_ne!(crc32(&corrupted), clean, "burst at {start} undetected");
        }
    }

    #[test]
    fn default_is_new() {
        assert_eq!(Crc32::default(), Crc32::new());
    }
}
