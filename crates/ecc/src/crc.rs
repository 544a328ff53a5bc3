//! CRC32 (IEEE 802.3 polynomial) error *detection*.
//!
//! BCH codes can miscorrect when more errors occur than the design
//! strength; the paper (§4.1.2) pairs the BCH corrector with a 32-bit CRC
//! checker to catch those false positives. This is a table-driven,
//! reflected CRC32 identical to the one used by Ethernet, zlib and PNG.

/// The reflected IEEE 802.3 polynomial: bit 31 is the coefficient of
/// `x^0`, bit 0 that of `x^31`, and `x^32` is implicit.
const CRC32_POLY_REFLECTED: u32 = 0xEDB8_8320;

/// The slicing-by-8 lookup tables, built at compile time: slice 0 is the
/// classic byte table, slice `k` row `i` is row `i` of slice `k − 1`
/// advanced by one zero byte.
static TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = (c >> 1) ^ (CRC32_POLY_REFLECTED & (c & 1).wrapping_neg());
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// Eight message bytes through the CRC state `c`, `word` being the bytes
/// read little-endian: the state XORs into the first four, and byte `j`
/// of the eight takes its row from slice `7 − j`.
#[inline(always)]
pub(crate) fn step8(c: u32, word: u64) -> u32 {
    let v = (word ^ u64::from(c)).to_le_bytes();
    let mut c = 0;
    for (j, &b) in v.iter().enumerate() {
        c ^= TABLES[7 - j][b as usize];
    }
    c
}

/// One message byte through the CRC state `c`.
#[inline(always)]
pub(crate) fn step1(c: u32, byte: u8) -> u32 {
    TABLES[0][((c ^ u32::from(byte)) & 0xFF) as usize] ^ (c >> 8)
}

/// `a·b mod P` for two reflected polynomials (zlib's `multmodp`).
const fn mul_mod_p(a: u32, mut b: u32) -> u32 {
    let mut p = 0;
    let mut m = 1u32 << 31;
    while m != 0 {
        if a & m != 0 {
            p ^= b;
        }
        b = (b >> 1) ^ (CRC32_POLY_REFLECTED & (b & 1).wrapping_neg());
        m >>= 1;
    }
    p
}

/// `X_POW[k][d] = x^(d·16^k) mod P`: one row per hex digit of an
/// exponent.
static X_POW: [[u32; 16]; 16] = {
    let mut t = [[0u32; 16]; 16];
    let mut base = 1u32 << 30; // x^(16^0)
    let mut k = 0;
    while k < 16 {
        let mut p = 1u32 << 31; // x^0
        let mut d = 0;
        while d < 16 {
            t[k][d] = p;
            p = mul_mod_p(base, p);
            d += 1;
        }
        base = p; // x^(16^(k+1))
        k += 1;
    }
    t
};

/// What flipping bit `bit` of a `len`-byte message does to its CRC32:
/// `crc32(m) ^ flip_difference(len, bit)` is the CRC32 of `m` with that
/// bit flipped. Bits are numbered MSB-first, as everywhere in this crate
/// (byte `bit / 8`, mask `0x80 >> bit % 8`).
///
/// The CRC is affine in the message, so the difference is the CRC of
/// the one-bit message alone with no initial or final XOR: `x^(32 + bit
/// % 8)` for the bit's byte, times `x^(8·k)` for the `k` bytes that
/// follow it, mod P — the `x^n mod P` of zlib's `crc32_combine`, one
/// multiplication per nonzero hex digit of the exponent (at most four
/// for a 2 KB page).
///
/// # Panics
///
/// Panics if `bit` is not inside the message.
///
/// # Examples
///
/// ```
/// use flash_ecc::crc::{crc32, flip_difference};
///
/// let mut page = *b"flash page";
/// let before = crc32(&page);
/// page[3] ^= 0x10; // bit 3·8 + 3
/// assert_eq!(crc32(&page), before ^ flip_difference(page.len(), 27));
/// ```
pub fn flip_difference(len: usize, bit: usize) -> u32 {
    assert!(bit < len * 8, "bit {bit} is outside a {len}-byte message");
    let mut n = 32 + bit % 8 + 8 * (len - 1 - bit / 8);
    let mut p = 1u32 << 31;
    let mut k = 0;
    while n != 0 {
        let d = n & 15;
        if d != 0 {
            p = mul_mod_p(X_POW[k][d], p);
        }
        n >>= 4;
        k += 1;
    }
    p
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

    /// Feeds bytes into the hasher, eight per step (slicing-by-8); a tail
    /// shorter than eight goes bytewise.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut c = self.state;
        let (words, tail) = bytes.as_chunks::<8>();
        for word in words {
            c = step8(c, u64::from_le_bytes(*word));
        }
        for &b in tail {
            c = step1(c, b);
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
    fn flip_difference_of_every_bit_of_a_short_message() {
        let data = *b"CRC32 rides along";
        let clean = crc32(&data);
        for bit in 0..data.len() * 8 {
            let mut flipped = data;
            flipped[bit / 8] ^= 0x80 >> (bit % 8);
            let difference = flip_difference(data.len(), bit);
            assert_eq!(crc32(&flipped), clean ^ difference, "bit {bit}");
        }
    }

    #[test]
    fn default_is_new() {
        assert_eq!(Crc32::default(), Crc32::new());
    }
}
