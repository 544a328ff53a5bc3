//! Binary BCH codes: construction, systematic encoding, and decoding via
//! the division remainder, Berlekamp–Massey, and closed-form roots or
//! Chien search.
//!
//! This is the error-correction engine of the paper's programmable flash
//! memory controller (§4.1). The controller corrects up to `t` bit errors
//! in a 2KB flash page; `t` is programmable per page (1..=12 in the paper,
//! this implementation accepts larger `t` as well).
//!
//! The code is a *shortened* binary BCH code over GF(2^m): data bits that
//! the page does not use are implicitly zero, which keeps the parity size
//! at `m·t` bits regardless of shortening.

use std::error::Error;
use std::fmt;

use crate::bitpoly::BitPoly;
use crate::crc;
use crate::gf::GfField;

/// Error constructing a [`BchCode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodeConstructionError {
    /// `t` must be at least 1.
    ZeroStrength,
    /// The requested data length plus parity does not fit in the code's
    /// natural block length `2^m - 1`.
    BlockTooSmall {
        /// Bits required (data + parity).
        required_bits: usize,
        /// The natural block length of the field, `2^m - 1`.
        block_bits: usize,
    },
    /// `data_bytes` must be at least 1.
    EmptyData,
}

impl fmt::Display for CodeConstructionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodeConstructionError::ZeroStrength => {
                write!(f, "BCH code strength t must be at least 1")
            }
            CodeConstructionError::BlockTooSmall {
                required_bits,
                block_bits,
            } => write!(
                f,
                "data plus parity needs {required_bits} bits but the block length is only {block_bits} bits"
            ),
            CodeConstructionError::EmptyData => write!(f, "data length must be at least 1 byte"),
        }
    }
}

impl Error for CodeConstructionError {}

/// Error returned when decoding fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// More errors occurred than the code can correct, and the decoder
    /// detected it (no consistent error locator exists).
    TooManyErrors,
    /// The caller passed a data or parity buffer of the wrong length.
    LengthMismatch {
        /// What the code expects, in bytes.
        expected: usize,
        /// What the caller provided, in bytes.
        got: usize,
        /// Which buffer was wrong: `"data"` or `"parity"`.
        which: &'static str,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::TooManyErrors => {
                write!(f, "uncorrectable: more errors than the code strength")
            }
            DecodeError::LengthMismatch {
                expected,
                got,
                which,
            } => write!(f, "{which} buffer is {got} bytes, expected {expected}"),
        }
    }
}

impl Error for DecodeError {}

/// Outcome of a successful decode.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DecodeReport {
    /// Number of bit errors corrected (in data and parity combined).
    pub corrected: usize,
    /// Bit positions (within the data buffer, MSB-first numbering) that
    /// were flipped. Parity-area corrections are not listed.
    pub data_bit_positions: Vec<usize>,
}

/// A `t`-error-correcting shortened binary BCH code over GF(2^m).
///
/// # Examples
///
/// ```
/// use flash_ecc::bch::BchCode;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // A small code protecting 32 bytes against 2-bit errors.
/// let code = BchCode::new(9, 2, 32)?;
/// let mut data = *b"All your disk cache experiments!";
/// let parity = code.encode(&data);
///
/// data[7] ^= 0x10; // inject two bit errors
/// data[20] ^= 0x01;
/// let report = code.decode(&mut data, &parity)?;
/// assert_eq!(report.corrected, 2);
/// assert_eq!(&data, b"All your disk cache experiments!");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BchCode {
    field: GfField,
    t: usize,
    data_bytes: usize,
    data_bits: usize,
    /// Parity length in bits = degree of the generator polynomial.
    parity_bits: usize,
    /// Generator polynomial over GF(2).
    generator: BitPoly,
    /// Generator with the leading `x^r` term cleared, pre-split into words
    /// for the bit-serial encoding LFSR (kept as the differential-test
    /// oracle for the table-driven encoder).
    feedback: Vec<u64>,
    /// Number of 64-bit words in the left-aligned remainder register.
    enc_words: usize,
    /// Remainder-update tables of the division LFSR, eight slices of 256
    /// rows of `enc_words` words: slice `k` row `b` is what byte `b`
    /// entering the register contributes after `k` further zero bytes.
    /// Slice 0 alone drives the byte step; all eight, the 8-byte step.
    enc_table: Vec<u64>,
    /// `syn_alpha[p·t + k] = α^(p·(2k+1))`: what remainder coefficient
    /// `x^p` adds to the odd syndrome `S_(2k+1)`.
    syn_alpha: Vec<u32>,
}

impl BchCode {
    /// Constructs a `t`-error-correcting BCH code over GF(2^m) protecting
    /// `data_bytes` bytes of payload.
    ///
    /// # Errors
    ///
    /// Returns [`CodeConstructionError`] if `t == 0`, `data_bytes == 0`, or
    /// the payload plus parity exceeds the natural block length `2^m - 1`.
    pub fn new(m: u32, t: usize, data_bytes: usize) -> Result<Self, CodeConstructionError> {
        if t == 0 {
            return Err(CodeConstructionError::ZeroStrength);
        }
        if data_bytes == 0 {
            return Err(CodeConstructionError::EmptyData);
        }
        let field = GfField::new(m);
        let generator = generator_poly(&field, t);
        let parity_bits = generator
            .degree()
            .expect("generator polynomial is never zero");
        let data_bits = data_bytes * 8;
        let block_bits = field.group_order() as usize;
        if data_bits + parity_bits > block_bits {
            return Err(CodeConstructionError::BlockTooSmall {
                required_bits: data_bits + parity_bits,
                block_bits,
            });
        }
        // feedback = generator without the x^r term, packed LSB-first.
        let mut feedback = vec![0u64; parity_bits.div_ceil(64)];
        for e in generator.iter_exponents() {
            if e < parity_bits {
                feedback[e / 64] |= 1 << (e % 64);
            }
        }
        let enc_words = parity_bits.div_ceil(64);
        let enc_table = build_enc_table(&generator, parity_bits, enc_words);
        let syn_alpha = (0..parity_bits)
            .flat_map(|p| (0..t).map(move |k| (p * (2 * k + 1)) as i64))
            .map(|e| field.alpha_pow(e))
            .collect();
        Ok(BchCode {
            field,
            t,
            data_bytes,
            data_bits,
            parity_bits,
            generator,
            feedback,
            enc_words,
            enc_table,
            syn_alpha,
        })
    }

    /// The standard flash-page code from the paper: a 2048-byte payload
    /// over GF(2^15), correcting `t` bit errors with `15·t` parity bits.
    ///
    /// The paper limits its controller to `t <= 12` so that CRC32 (4 bytes)
    /// plus BCH parity (≤ 23 bytes) fit the 64-byte spare area; this
    /// constructor accepts any `t` that fits the block length.
    ///
    /// # Panics
    ///
    /// Panics if `t == 0` or `t` is too large for the block length
    /// (`t` ≈ 1092 for 2KB payloads).
    pub fn for_flash_page(t: usize) -> Self {
        BchCode::new(15, t, 2048).expect("flash page code parameters are valid")
    }

    /// Correction strength `t` (maximum number of correctable bit errors).
    pub fn strength(&self) -> usize {
        self.t
    }

    /// Payload size in bytes.
    pub fn data_bytes(&self) -> usize {
        self.data_bytes
    }

    /// Parity size in bits (`m·t` for most parameter choices).
    pub fn parity_bits(&self) -> usize {
        self.parity_bits
    }

    /// Parity size in bytes (rounded up).
    pub fn parity_bytes(&self) -> usize {
        self.parity_bits.div_ceil(8)
    }

    /// The generator polynomial over GF(2).
    pub fn generator(&self) -> &BitPoly {
        &self.generator
    }

    /// Encodes `data`, returning the parity bytes.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from [`Self::data_bytes`].
    pub fn encode(&self, data: &[u8]) -> Vec<u8> {
        let mut out = vec![0u8; self.parity_bytes()];
        self.encode_into(data, &mut out);
        out
    }

    /// Encodes `data` into a caller-provided parity buffer, avoiding the
    /// per-call allocation of [`Self::encode`].
    ///
    /// Uses the table-driven division LFSR (CRC-style, slicing-by-8): the
    /// remainder register is kept left-aligned in 64-bit words and
    /// advanced eight input bytes per step through remainder-update
    /// tables built at construction time.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from [`Self::data_bytes`] or
    /// `parity_out.len()` differs from [`Self::parity_bytes`].
    pub fn encode_into(&self, data: &[u8], parity_out: &mut [u8]) {
        assert_eq!(
            data.len(),
            self.data_bytes,
            "encode: data must be exactly {} bytes",
            self.data_bytes
        );
        assert_eq!(
            parity_out.len(),
            self.parity_bytes(),
            "encode: parity buffer must be exactly {} bytes",
            self.parity_bytes()
        );
        self.with_remainder::<false, _>(data, |reg, _| Self::write_parity(reg, parity_out))
    }

    /// Runs the division LFSR over `data` and hands `f` the left-aligned
    /// register holding `data(x)·x^r mod g(x)` — the one kernel encode
    /// and decode share — and, when `CRC`, the CRC32 of `data`, computed
    /// from the same loads in the same pass (0 otherwise). `f` may
    /// [`Self::feed`] the register the rest of a longer message.
    pub(crate) fn with_remainder<const CRC: bool, R>(
        &self,
        data: &[u8],
        f: impl FnOnce(&mut [u64], u32) -> R,
    ) -> R {
        // A register on the stack, its width known to the inlined kernel,
        // covers every practical code (flash-page codes at t <= 12 need at
        // most 3 words).
        macro_rules! run {
            ($reg:expr) => {{
                let reg = $reg;
                let crc = lfsr::<CRC>(reg, &self.enc_table, data);
                f(reg, crc)
            }};
        }
        match self.enc_words {
            1 => run!(&mut [0; 1]),
            2 => run!(&mut [0; 2]),
            3 => run!(&mut [0; 3]),
            4 => run!(&mut [0; 4]),
            w => run!(&mut vec![0; w]),
        }
    }

    /// Continues the division in `reg` over `bytes`, one byte step each.
    pub(crate) fn feed(&self, reg: &mut [u64], bytes: &[u8]) {
        for &byte in bytes {
            byte_step(reg, &self.enc_table, byte);
        }
    }

    /// Serialises the remainder in `reg` as the MSB-first parity byte
    /// stream: byte 0 = highest-power coefficients. Register bits below
    /// `enc_words·64 − parity_bits` are always zero, so padding bits in
    /// the last byte come out zero.
    pub(crate) fn write_parity(reg: &[u64], parity_out: &mut [u8]) {
        let w = reg.len();
        for (k, byte) in parity_out.iter_mut().enumerate() {
            *byte = (reg[w - 1 - k / 8] >> (56 - 8 * (k % 8))) as u8;
        }
    }

    /// Reference bit-serial encoder: one LFSR step per data bit.
    ///
    /// Retained as the differential-test oracle for the table-driven
    /// [`Self::encode_into`].
    #[doc(hidden)]
    pub fn encode_bitserial(&self, data: &[u8]) -> Vec<u8> {
        assert_eq!(
            data.len(),
            self.data_bytes,
            "encode: data must be exactly {} bytes",
            self.data_bytes
        );
        let r = self.parity_bits;
        let words = r.div_ceil(64);
        let top_word = (r - 1) / 64;
        let top_bit = (r - 1) % 64;
        let mut reg = vec![0u64; words];
        // Shift data bits in MSB-first order through the division LFSR.
        for &byte in data {
            for bit in (0..8).rev() {
                let din = (byte >> bit) & 1 == 1;
                let feedback = din ^ ((reg[top_word] >> top_bit) & 1 == 1);
                // reg <<= 1 (multi-word).
                for w in (1..words).rev() {
                    reg[w] = (reg[w] << 1) | (reg[w - 1] >> 63);
                }
                reg[0] <<= 1;
                if feedback {
                    for (r, f) in reg.iter_mut().zip(&self.feedback) {
                        *r ^= f;
                    }
                }
            }
        }
        // Mask off bits above r-1 in the top word.
        if !r.is_multiple_of(64) {
            let keep = r % 64;
            reg[words - 1] &= (1u64 << keep) - 1;
        }
        // Serialize: parity byte 0 carries the highest-power coefficients
        // (MSB-first), mirroring how the data was shifted in.
        let nbytes = self.parity_bytes();
        let mut out = vec![0u8; nbytes];
        for i in 0..r {
            // Coefficient of x^(r-1-i) becomes bit i (MSB-first stream).
            let power = r - 1 - i;
            if (reg[power / 64] >> (power % 64)) & 1 == 1 {
                out[i / 8] |= 1 << (7 - i % 8);
            }
        }
        out
    }

    /// Decodes in place: corrects up to `t` bit errors across `data` and
    /// `parity`, returning how many were corrected.
    ///
    /// # Errors
    ///
    /// [`DecodeError::TooManyErrors`] if the error pattern exceeds the code
    /// strength *and* the decoder can tell. Patterns beyond `t` errors may
    /// also be silently miscorrected — that is inherent to BCH codes and is
    /// why the paper pairs BCH with a CRC32 check (see
    /// [`crate::page::PageCodec`]).
    /// [`DecodeError::LengthMismatch`] if a buffer has the wrong size.
    pub fn decode(&self, data: &mut [u8], parity: &[u8]) -> Result<DecodeReport, DecodeError> {
        if data.len() != self.data_bytes {
            return Err(DecodeError::LengthMismatch {
                expected: self.data_bytes,
                got: data.len(),
                which: "data",
            });
        }
        if parity.len() != self.parity_bytes() {
            return Err(DecodeError::LengthMismatch {
                expected: self.parity_bytes(),
                got: parity.len(),
                which: "parity",
            });
        }
        let powers = self
            .with_remainder::<false, _>(data, |reg, _| self.locate(reg, parity))
            .ok_or(DecodeError::TooManyErrors)?;
        let mut report = DecodeReport {
            corrected: powers.len(),
            data_bit_positions: Vec::with_capacity(powers.len()),
        };
        for power in powers {
            // Parity-area errors need no fix: the caller's data is already
            // correct once data-area flips are applied.
            if let Some(j) = self.message_bit(power) {
                data[j / 8] ^= 1 << (7 - j % 8);
                report.data_bit_positions.push(j);
            }
        }
        report.data_bit_positions.sort_unstable();
        Ok(report)
    }

    /// The codeword powers of the errors in a received word, ascending:
    /// `reg` holds its message's division remainder and `parity` is its
    /// received parity. Empty for a codeword; `None` when the pattern is
    /// detectably uncorrectable (a locator of degree above `t`, or one
    /// with fewer roots inside the shortened length than its degree).
    pub(crate) fn locate(&self, reg: &mut [u64], parity: &[u8]) -> Option<Vec<usize>> {
        let Some(syndromes) = self.syndromes_of(reg, parity) else {
            return Some(Vec::new());
        };
        let sigma = self.berlekamp_massey(&syndromes);
        let num_errors = sigma.len() - 1;
        if num_errors > self.t {
            return None;
        }
        let roots = self.locator_roots(&sigma);
        (roots.len() == num_errors).then_some(roots)
    }

    /// The message bit at codeword power `power` — message bit `j` has
    /// power `r + data_bits − 1 − j` — or `None` in the parity area.
    pub(crate) fn message_bit(&self, power: usize) -> Option<usize> {
        let r = self.parity_bits;
        (power >= r).then(|| r + self.data_bits - 1 - power)
    }

    /// Syndromes S_1..S_2t of the received word, or `None` when it is a
    /// codeword (every syndrome zero).
    ///
    /// Remainder-first: re-encode the received data, XOR the received
    /// parity in — that is `r(x) = c'(x) mod g(x)`, zero exactly for a
    /// codeword, found without a field operation or an allocation. Every
    /// `α^i` is a root of `g`, so otherwise `S_i = c'(α^i) = r(α^i)` is
    /// evaluated over the at most `m·t` bits of `r`; even syndromes come
    /// from squaring (S_2i = S_i² for binary codes). The buffers must have
    /// the code's lengths ([`Self::decode`] checks them).
    #[doc(hidden)]
    pub fn remainder_syndromes(&self, data: &[u8], parity: &[u8]) -> Option<Vec<u32>> {
        self.with_remainder::<false, _>(data, |reg, _| self.syndromes_of(reg, parity))
    }

    /// [`Self::remainder_syndromes`] from the message remainder in `reg`.
    fn syndromes_of(&self, reg: &mut [u64], parity: &[u8]) -> Option<Vec<u32>> {
        let t = self.t;
        let w = reg.len();
        for (k, &byte) in parity.iter().enumerate() {
            reg[w - 1 - k / 8] ^= u64::from(byte) << (56 - 8 * (k % 8));
        }
        // The remainder has no bits below the register's alignment
        // shift: what is there now is the received padding of the last
        // parity byte, ignored as the reference ignores positions >= r.
        let shift = w * 64 - self.parity_bits;
        reg[0] &= !0u64 << shift;
        if reg.iter().all(|&word| word == 0) {
            return None;
        }
        let mut syn = vec![0u32; 2 * t];
        for (wi, &word) in reg.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let p = wi * 64 + bits.trailing_zeros() as usize - shift;
                bits &= bits - 1;
                let row = &self.syn_alpha[p * t..][..t];
                for (s, &a) in syn.iter_mut().step_by(2).zip(row) {
                    *s ^= a;
                }
            }
        }
        for i in 1..=t {
            syn[2 * i - 1] = self.field.mul(syn[i - 1], syn[i - 1]);
        }
        Some(syn)
    }

    /// Reference syndrome computation: per-bit modular exponent products.
    ///
    /// Retained as the differential-test oracle for
    /// [`Self::remainder_syndromes`].
    #[doc(hidden)]
    pub fn syndromes_reference(&self, data: &[u8], parity: &[u8]) -> Vec<u32> {
        let f = &self.field;
        let n = f.group_order() as i64;
        let r = self.parity_bits as i64;
        let two_t = 2 * self.t;
        let mut syn = vec![0u32; two_t];
        // Odd syndromes by direct evaluation over set bits; even ones by
        // squaring (S_2i = S_i^2 for binary codes).
        let add_position = |syn: &mut Vec<u32>, power: i64| {
            for i in (1..=two_t).step_by(2) {
                let e = (power * i as i64) % n;
                syn[i - 1] ^= f.alpha_pow(e);
            }
        };
        for (byte_idx, &byte) in data.iter().enumerate() {
            if byte == 0 {
                continue;
            }
            for bit in 0..8 {
                if (byte >> (7 - bit)) & 1 == 1 {
                    let j = (byte_idx * 8 + bit) as i64;
                    let power = r + self.data_bits as i64 - 1 - j;
                    add_position(&mut syn, power);
                }
            }
        }
        for i in 0..self.parity_bits {
            if (parity[i / 8] >> (7 - i % 8)) & 1 == 1 {
                let power = r - 1 - i as i64;
                add_position(&mut syn, power);
            }
        }
        for i in 1..=self.t {
            syn[2 * i - 1] = f.mul(syn[i - 1], syn[i - 1]);
        }
        syn
    }

    /// Berlekamp–Massey: returns the error-locator polynomial
    /// `sigma(x) = 1 + sigma_1 x + ... + sigma_L x^L` (index = degree),
    /// trimmed so `sigma.len() - 1` is its degree.
    #[doc(hidden)]
    pub fn berlekamp_massey(&self, syndromes: &[u32]) -> Vec<u32> {
        let f = &self.field;
        let two_t = syndromes.len();
        let mut sigma = vec![0u32; two_t + 2];
        let mut prev = vec![0u32; two_t + 2];
        // Scratch for the length-change branch; allocated once, reused.
        let mut scratch = vec![0u32; two_t + 2];
        sigma[0] = 1;
        prev[0] = 1;
        let mut l = 0usize; // current LFSR length
        let mut shift = 1usize; // x^shift multiplier for prev
        let mut b = 1u32; // last nonzero discrepancy
        for n_iter in 0..two_t {
            // Discrepancy d = S_n + sum_{i=1..L} sigma_i * S_{n-i}.
            let mut d = syndromes[n_iter];
            for i in 1..=l {
                d ^= f.mul(sigma[i], syndromes[n_iter - i]);
            }
            if d == 0 {
                shift += 1;
            } else if 2 * l <= n_iter {
                scratch.copy_from_slice(&sigma);
                let coef = f.div(d, b);
                for (i, &p) in prev.iter().enumerate() {
                    if p != 0 && i + shift < sigma.len() {
                        sigma[i + shift] ^= f.mul(coef, p);
                    }
                }
                l = n_iter + 1 - l;
                // Old sigma (in scratch) becomes the new prev; the stale
                // prev buffer becomes next iteration's scratch.
                std::mem::swap(&mut prev, &mut scratch);
                b = d;
                shift = 1;
            } else {
                // sigma and prev are distinct buffers, so prev can be read
                // directly while sigma is updated.
                let coef = f.div(d, b);
                for (i, &p) in prev.iter().enumerate() {
                    if p != 0 && i + shift < sigma.len() {
                        sigma[i + shift] ^= f.mul(coef, p);
                    }
                }
                shift += 1;
            }
        }
        // Trim to the actual degree.
        let mut deg = 0;
        for (i, &c) in sigma.iter().enumerate() {
            if c != 0 {
                deg = i;
            }
        }
        sigma.truncate(deg + 1);
        sigma
    }

    /// Codeword powers `p` with `sigma(α^(−p)) = 0` inside the shortened
    /// length, ascending — what [`Self::chien_search`] returns, but for a
    /// locator of degree up to 4 (at Poisson(0.5) raw errors per read, all
    /// but two reads in ten thousand) the roots are found in closed form,
    /// with no scan. `sigma` must be trimmed: its last coefficient nonzero.
    #[doc(hidden)]
    pub fn locator_roots(&self, sigma: &[u32]) -> Vec<usize> {
        let f = &self.field;
        // x = 0 is no codeword position: the factors of x drop out.
        let low = sigma.iter().position(|&c| c != 0);
        let roots = match low {
            Some(low) if sigma.last() != Some(&0) => self.field_roots(&sigma[low..]),
            _ => None,
        };
        let Some(roots) = roots else {
            return self.chien_search(sigma);
        };
        // x = α^(−p)  =>  p = −log x (mod n).
        let n = f.group_order();
        let mut powers: Vec<usize> = (roots.into_iter())
            .map(|x| ((n - f.log(x)) % n) as usize)
            .filter(|&p| p < self.data_bits + self.parity_bits)
            .collect();
        powers.sort_unstable();
        powers
    }

    /// The distinct roots in GF(2^m) of `s`, whose constant and leading
    /// coefficients are nonzero, or `None` from degree 5 up. Each degree
    /// is made monic and reduced to a form with a direct solution:
    ///
    /// - 1: `x + c = 0` at `x = c`;
    /// - 2: [`GfField::quadratic_roots`];
    /// - 3: `x³ + a·x² + b·x + c` times `x + a` is the affine
    ///   `x⁴ + (a² + b)·x² + (ab + c)·x + ac`, solved by
    ///   [`GfField::affine4_roots`]; its extra root `a` is dropped unless
    ///   it is a root of the cubic (`ab = c`, a repeated root);
    /// - 4: `x⁴ + a·x³ + b·x² + c·x + d` is already affine at `a = 0`.
    ///   Otherwise `x = z + e` with `e² = c/a` clears the linear term,
    ///   leaving `z⁴ + a·z³ + b'·z² + d'`; at `d' = 0` that is `z²` times
    ///   a quadratic, and otherwise `z = 1/y` turns it into the affine
    ///   `y⁴ + (b'/d')·y² + (a/d')·y + 1/d'`.
    ///
    /// Linux `lib/bch.c` (`find_poly_deg{1,2,3,4}_roots`) does the same
    /// but gives up on repeated roots; these return exactly the roots a
    /// scan of the field would find.
    fn field_roots(&self, s: &[u32]) -> Option<Vec<u32>> {
        let f = &self.field;
        let lead = s[s.len() - 1];
        let c = |i: usize| f.div(s[i], lead);
        Some(match s.len() - 1 {
            0 => Vec::new(),
            1 => vec![c(0)],
            2 => f.quadratic_roots(c(1), c(0)),
            3 => {
                let (a, b, c) = (c(2), c(1), c(0));
                let mut roots = f.affine4_roots(f.mul(a, a) ^ b, f.mul(a, b) ^ c, f.mul(a, c));
                if f.mul(a, b) != c {
                    roots.retain(|&x| x != a);
                }
                roots
            }
            4 => {
                let (a, b, c, d) = (c(3), c(2), c(1), c(0));
                if a == 0 {
                    return Some(f.affine4_roots(b, c, d));
                }
                let e = f.sqrt(f.div(c, a));
                let e2 = f.mul(e, e);
                let b1 = f.mul(a, e) ^ b;
                let d1 = f.mul(e2, e2) ^ f.mul(b, e2) ^ d;
                let mut zs = if d1 == 0 {
                    let mut zs = f.quadratic_roots(a, b1);
                    if b1 != 0 {
                        zs.push(0);
                    }
                    zs
                } else {
                    let ys = f.affine4_roots(f.div(b1, d1), f.div(a, d1), f.inv(d1));
                    ys.into_iter().map(|y| f.inv(y)).collect()
                };
                for z in &mut zs {
                    *z ^= e;
                }
                zs
            }
            _ => return None,
        })
    }

    /// Chien search: returns the codeword powers `p` (0-based exponent of
    /// `x` in the codeword polynomial) where errors occurred. Only
    /// positions inside the shortened length are returned; a root outside
    /// it is simply absent, which the caller detects as a count mismatch.
    ///
    /// Batched log-domain kernel: each nonzero term of sigma is tracked as
    /// an exponent (one add + compare + antilog lookup per position
    /// instead of a field multiply), zero terms are dropped up front,
    /// positions are evaluated four at a stride via precomputed
    /// `alpha^(-j·4)` jump exponents, and the scan exits early once
    /// deg(sigma) roots are found — a degree-L polynomial has at most L
    /// roots, so no later position can be a root.
    #[doc(hidden)]
    pub fn chien_search(&self, sigma: &[u32]) -> Vec<usize> {
        let f = &self.field;
        let n = f.group_order();
        let used_bits = self.data_bits + self.parity_bits;
        let deg = sigma.len() - 1;
        let mut roots = Vec::with_capacity(deg);
        if deg == 0 {
            // sigma is a nonzero constant: no roots anywhere.
            return roots;
        }
        const STRIDE: usize = 4;
        // Per nonzero term j >= 1: current exponent acc = log(sigma_j) +
        // p·step (mod n), per-position step (n − j) mod n, per-block jump
        // step·STRIDE mod n, and within-block adjustments step·o mod n.
        // All stay in [0, n), so acc + adj indexes the doubled exp table
        // directly.
        struct Term {
            acc: u32,
            step: u32,
            jump: u32,
            adj: [u32; STRIDE],
        }
        let mut terms: Vec<Term> = Vec::with_capacity(deg);
        for (j, &c) in sigma.iter().enumerate().skip(1) {
            if c == 0 {
                continue;
            }
            let step = (n - (j as u32 % n)) % n;
            let mut adj = [0u32; STRIDE];
            for (o, a) in adj.iter_mut().enumerate() {
                *a = ((step as u64 * o as u64) % n as u64) as u32;
            }
            terms.push(Term {
                acc: f.log(c),
                step,
                jump: ((step as u64 * STRIDE as u64) % n as u64) as u32,
                adj,
            });
        }
        let c0 = sigma[0];
        let mut p = 0usize;
        'scan: while p < used_bits {
            if p + STRIDE <= used_bits {
                let mut sums = [c0; STRIDE];
                for term in &mut terms {
                    for (s, &a) in sums.iter_mut().zip(&term.adj) {
                        *s ^= f.exp_raw((term.acc + a) as usize);
                    }
                    let mut acc = term.acc + term.jump;
                    if acc >= n {
                        acc -= n;
                    }
                    term.acc = acc;
                }
                for (o, &s) in sums.iter().enumerate() {
                    if s == 0 {
                        roots.push(p + o);
                        if roots.len() == deg {
                            break 'scan;
                        }
                    }
                }
                p += STRIDE;
            } else {
                let mut sum = c0;
                for term in &mut terms {
                    sum ^= f.exp_raw(term.acc as usize);
                    let mut acc = term.acc + term.step;
                    if acc >= n {
                        acc -= n;
                    }
                    term.acc = acc;
                }
                if sum == 0 {
                    roots.push(p);
                    if roots.len() == deg {
                        break 'scan;
                    }
                }
                p += 1;
            }
        }
        roots
    }

    /// Reference Chien search: one field multiply per term per position.
    ///
    /// Retained as the differential-test oracle for the batched
    /// [`Self::chien_search`] kernel.
    #[doc(hidden)]
    pub fn chien_search_reference(&self, sigma: &[u32]) -> Vec<usize> {
        let f = &self.field;
        let used_bits = self.data_bits + self.parity_bits;
        let mut roots = Vec::new();
        // terms[j] = sigma_j * alpha^(-j*p), updated incrementally over p.
        let mut terms: Vec<u32> = sigma.to_vec();
        let steps: Vec<u32> = (0..sigma.len()).map(|j| f.alpha_pow(-(j as i64))).collect();
        for p in 0..used_bits {
            if p > 0 {
                for j in 1..terms.len() {
                    terms[j] = f.mul(terms[j], steps[j]);
                }
            }
            let sum = terms.iter().fold(0u32, |acc, &t| acc ^ t);
            if sum == 0 {
                roots.push(p);
            }
        }
        roots
    }
}

/// Builds the eight remainder-update tables of the division LFSR.
/// Slice 0 row `b` is the remainder contribution of byte value `b`
/// entering the top of a left-aligned `words`-word register, computed by
/// eight exact bit-serial steps; slice `k` is slice `k − 1` advanced by one
/// zero byte. Linearity of the LFSR over GF(2) makes one row XOR per input
/// byte equivalent to eight serial steps, for any `r >= 1`: a register
/// narrower than a byte sits wholly inside the top byte.
fn build_enc_table(generator: &BitPoly, r: usize, words: usize) -> Vec<u64> {
    // Left-aligned feedback: coefficient x^e of (g − x^r) lands at
    // register bit (words·64 − r) + e.
    let shift = words * 64 - r;
    let mut fb = vec![0u64; words];
    for e in generator.iter_exponents() {
        if e < r {
            let b = shift + e;
            fb[b / 64] |= 1 << (b % 64);
        }
    }
    let mut table = vec![0u64; 8 * 256 * words];
    let mut reg = vec![0u64; words];
    for b in 0..256u64 {
        reg.fill(0);
        reg[words - 1] = b << 56;
        for _ in 0..8 {
            let msb = reg[words - 1] >> 63 == 1;
            for k in (1..words).rev() {
                reg[k] = (reg[k] << 1) | (reg[k - 1] >> 63);
            }
            reg[0] <<= 1;
            if msb {
                for (rk, fk) in reg.iter_mut().zip(&fb) {
                    *rk ^= fk;
                }
            }
        }
        table[b as usize * words..][..words].copy_from_slice(&reg);
    }
    for row in 256..8 * 256 {
        let (done, rest) = table.split_at_mut(row * words);
        rest[..words].copy_from_slice(&done[(row - 256) * words..][..words]);
        byte_step(&mut rest[..words], done, 0);
    }
    table
}

/// One byte of input through the left-aligned LFSR `reg`: the register
/// moves up eight bits and takes the slice-0 row picked by the input byte
/// XOR the byte that left the top.
fn byte_step(reg: &mut [u64], table: &[u64], byte: u8) {
    let w = reg.len();
    let idx = (byte ^ (reg[w - 1] >> 56) as u8) as usize * w;
    for k in (1..w).rev() {
        reg[k] = (reg[k] << 8) | (reg[k - 1] >> 56);
    }
    reg[0] <<= 8;
    for (rk, tk) in reg.iter_mut().zip(&table[idx..idx + w]) {
        *rk ^= tk;
    }
}

/// The division LFSR over the zeroed register `reg`, eight input bytes per
/// step (slicing-by-8): the top word XOR the input word leaves the
/// register as eight bytes, byte `j` of which still has `7 − j` bytes of
/// shifting ahead of it, so it takes its row from slice `7 − j`. The byte
/// step finishes a tail shorter than a word.
///
/// When `CRC`, the same loaded word also advances a CRC32 state, whose
/// chain is independent of the register's, so the two overlap; returns
/// the CRC32 of `data` then, 0 otherwise.
#[inline(always)]
fn lfsr<const CRC: bool>(reg: &mut [u64], table: &[u64], data: &[u8]) -> u32 {
    let w = reg.len();
    let mut crc = !0u32;
    let (words, tail) = data.as_chunks::<8>();
    for word in words {
        let word = u64::from_be_bytes(*word);
        if CRC {
            crc = crc::step8(crc, word.swap_bytes());
        }
        let out = (reg[w - 1] ^ word).to_be_bytes();
        reg.copy_within(..w - 1, 1);
        reg[0] = 0;
        for (j, &b) in out.iter().enumerate() {
            let row = &table[((7 - j) * 256 + b as usize) * w..][..w];
            for (rk, tk) in reg.iter_mut().zip(row) {
                *rk ^= tk;
            }
        }
    }
    for &byte in tail {
        if CRC {
            crc = crc::step1(crc, byte);
        }
        byte_step(reg, table, byte);
    }
    !crc
}

/// Computes the generator polynomial of a `t`-error-correcting binary BCH
/// code over `field`: the least common multiple of the minimal polynomials
/// of `alpha, alpha^3, ..., alpha^(2t-1)`.
fn generator_poly(field: &GfField, t: usize) -> BitPoly {
    let n = field.group_order() as usize;
    let mut seen_cosets: Vec<usize> = Vec::new();
    let mut gen = BitPoly::one();
    for i in (1..2 * t).step_by(2) {
        let i = i % n;
        // Cyclotomic coset of i mod n.
        let mut coset = Vec::new();
        let mut j = i;
        loop {
            coset.push(j);
            j = (j * 2) % n;
            if j == i {
                break;
            }
        }
        let rep = *coset.iter().min().expect("coset is nonempty");
        if seen_cosets.contains(&rep) {
            continue;
        }
        seen_cosets.push(rep);
        gen = gen.mul(&minimal_poly(field, &coset));
    }
    gen
}

/// Expands `prod_{j in coset} (x - alpha^j)`, which has GF(2) coefficients.
fn minimal_poly(field: &GfField, coset: &[usize]) -> BitPoly {
    // Coefficients in GF(2^m), index = degree.
    let mut coeffs: Vec<u32> = vec![1];
    for &j in coset {
        let root = field.alpha_pow(j as i64);
        let mut next = vec![0u32; coeffs.len() + 1];
        for (d, &c) in coeffs.iter().enumerate() {
            next[d + 1] ^= c; // x * c
            next[d] ^= field.mul(c, root); // root * c (== -root in char 2)
        }
        coeffs = next;
    }
    BitPoly::from_exponents(coeffs.iter().enumerate().filter_map(|(d, &c)| {
        debug_assert!(c <= 1, "minimal polynomial must have GF(2) coefficients");
        if c == 1 {
            Some(d)
        } else {
            None
        }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_generator_bch_15_1() {
        // The classic (15, 11) single-error-correcting BCH code over
        // GF(2^4) has generator x^4 + x + 1.
        let f = GfField::new(4);
        let g = generator_poly(&f, 1);
        assert_eq!(g, BitPoly::from_exponents([4, 1, 0]));
    }

    #[test]
    fn known_generator_bch_15_2() {
        // The (15, 7) double-error-correcting BCH code has generator
        // x^8 + x^7 + x^6 + x^4 + 1.
        let f = GfField::new(4);
        let g = generator_poly(&f, 2);
        assert_eq!(g, BitPoly::from_exponents([8, 7, 6, 4, 0]));
    }

    #[test]
    fn construction_errors() {
        assert_eq!(
            BchCode::new(8, 0, 16).unwrap_err(),
            CodeConstructionError::ZeroStrength
        );
        assert_eq!(
            BchCode::new(8, 1, 0).unwrap_err(),
            CodeConstructionError::EmptyData
        );
        // 255-bit block cannot hold 32 bytes of data + parity.
        assert!(matches!(
            BchCode::new(8, 2, 32).unwrap_err(),
            CodeConstructionError::BlockTooSmall { .. }
        ));
    }

    #[test]
    fn parity_size_is_m_times_t() {
        let code = BchCode::new(10, 3, 64).unwrap();
        assert_eq!(code.parity_bits(), 30);
        assert_eq!(code.parity_bytes(), 4);
        let page = BchCode::new(15, 12, 2048).unwrap();
        assert_eq!(page.parity_bits(), 180);
        // Paper: "a maximum of 23 bytes are needed for check bits".
        assert_eq!(page.parity_bytes(), 23);
    }

    #[test]
    fn clean_roundtrip_no_errors() {
        let code = BchCode::new(9, 3, 40).unwrap();
        let data: Vec<u8> = (0..40u8).collect();
        let parity = code.encode(&data);
        let mut received = data.clone();
        let report = code.decode(&mut received, &parity).unwrap();
        assert_eq!(report.corrected, 0);
        assert_eq!(received, data);
    }

    #[test]
    fn corrects_exactly_t_errors() {
        let code = BchCode::new(9, 4, 48).unwrap();
        let data: Vec<u8> = (0..48u8).map(|b| b.wrapping_mul(37)).collect();
        let parity = code.encode(&data);
        let mut received = data.clone();
        // Inject exactly t=4 errors at scattered positions.
        for &(byte, bit) in &[(0usize, 7u8), (13, 0), (25, 3), (47, 6)] {
            received[byte] ^= 1 << bit;
        }
        let report = code.decode(&mut received, &parity).unwrap();
        assert_eq!(report.corrected, 4);
        assert_eq!(received, data);
        assert_eq!(report.data_bit_positions.len(), 4);
    }

    #[test]
    fn corrects_error_in_parity_area() {
        let code = BchCode::new(9, 2, 32).unwrap();
        let data = vec![0xA5u8; 32];
        let mut parity = code.encode(&data);
        parity[0] ^= 0x80;
        let mut received = data.clone();
        let report = code.decode(&mut received, &parity).unwrap();
        assert_eq!(report.corrected, 1);
        assert!(report.data_bit_positions.is_empty());
        assert_eq!(received, data);
    }

    #[test]
    fn detects_more_than_t_errors_with_crc_style_check() {
        // With t=1, three errors must either be flagged TooManyErrors or
        // miscorrected to a *different* word — never silently "fixed" back
        // to the original.
        let code = BchCode::new(9, 1, 32).unwrap();
        let data = vec![0x5Au8; 32];
        let parity = code.encode(&data);
        let mut received = data.clone();
        received[0] ^= 0x01;
        received[1] ^= 0x02;
        received[2] ^= 0x04;
        match code.decode(&mut received, &parity) {
            Err(DecodeError::TooManyErrors) => {}
            Ok(_) => assert_ne!(received, data, "3 errors cannot be truly corrected at t=1"),
            Err(e) => panic!("unexpected error: {e}"),
        }
    }

    #[test]
    fn length_mismatch_reported() {
        let code = BchCode::new(9, 2, 32).unwrap();
        let mut short = vec![0u8; 31];
        let parity = vec![0u8; code.parity_bytes()];
        assert!(matches!(
            code.decode(&mut short, &parity),
            Err(DecodeError::LengthMismatch { which: "data", .. })
        ));
        let mut ok = vec![0u8; 32];
        assert!(matches!(
            code.decode(&mut ok, &[0u8; 1]),
            Err(DecodeError::LengthMismatch {
                which: "parity",
                ..
            })
        ));
    }

    #[test]
    fn flash_page_code_roundtrip() {
        // Full 2KB page over GF(2^15) with t=4: encode, corrupt, decode.
        let code = BchCode::for_flash_page(4);
        let mut data: Vec<u8> = (0..2048usize).map(|i| (i * 31 % 251) as u8).collect();
        let parity = code.encode(&data);
        let original = data.clone();
        for &pos in &[5usize, 1000, 9999, 16000] {
            data[pos / 8] ^= 1 << (7 - pos % 8);
        }
        let report = code.decode(&mut data, &parity).unwrap();
        assert_eq!(report.corrected, 4);
        assert_eq!(data, original);
    }

    #[test]
    fn all_single_bit_errors_corrected_small_code() {
        let code = BchCode::new(8, 1, 8).unwrap();
        let data: Vec<u8> = vec![0xC3, 0x00, 0xFF, 0x12, 0x34, 0x56, 0x78, 0x9A];
        let parity = code.encode(&data);
        for bit in 0..64 {
            let mut received = data.clone();
            received[bit / 8] ^= 1 << (7 - bit % 8);
            let report = code.decode(&mut received, &parity).unwrap();
            assert_eq!(report.corrected, 1, "bit {bit}");
            assert_eq!(received, data, "bit {bit}");
            assert_eq!(report.data_bit_positions, vec![bit]);
        }
    }

    /// `(1 + α^a·x)(1 + α^b·x)`: the locator of errors at powers a and b.
    fn locator(code: &BchCode, a: i64, b: i64) -> Vec<u32> {
        let f = &code.field;
        vec![
            1,
            f.alpha_pow(a) ^ f.alpha_pow(b),
            f.mul(f.alpha_pow(a), f.alpha_pow(b)),
        ]
    }

    #[test]
    fn closed_form_root_outside_shortened_length_is_dropped() {
        // 64 data + 16 parity bits of the 255-bit block are in use.
        let code = BchCode::new(8, 2, 8).unwrap();
        for p in 0..255 {
            let sigma = [1, code.field.alpha_pow(p)];
            let expected = if p < 80 { vec![p as usize] } else { vec![] };
            assert_eq!(code.locator_roots(&sigma), expected, "p={p}");
            assert_eq!(code.chien_search_reference(&sigma), expected, "p={p}");
        }
        assert_eq!(code.locator_roots(&locator(&code, 79, 5)), vec![5, 79]);
        assert_eq!(code.locator_roots(&locator(&code, 80, 5)), vec![5]);
        assert_eq!(code.locator_roots(&locator(&code, 254, 80)), vec![]);
        // At t = 1 every nonzero syndrome is a degree-1 locator: decode
        // rejects exactly the words whose S_1 points past the 72 bits.
        let code = BchCode::new(8, 1, 8).unwrap();
        let parity = code.encode(&[0; 8]);
        let mut rejected = 0;
        for first in 1..=255u8 {
            let mut data = [first, 0, 0, 0, 0, 0, 0, 0];
            let syn = code.remainder_syndromes(&data, &parity).unwrap();
            let outside = code.field.log(syn[0]) >= 72;
            let result = code.decode(&mut data, &parity);
            assert_eq!(result == Err(DecodeError::TooManyErrors), outside);
            rejected += usize::from(outside);
        }
        assert!(rejected > 0);
    }

    #[test]
    fn quadratic_without_root_in_the_field_is_too_many_errors() {
        let code = BchCode::new(8, 2, 8).unwrap();
        let f = &code.field;
        // sigma = 1 + x + c·x² is y² + y = c with x = y/c: half the field.
        let rootless: Vec<u32> = (1..256)
            .filter(|&c| f.solve_quadratic(c).is_none())
            .collect();
        assert_eq!(rootless.len(), 128);
        for &c in &rootless {
            assert_eq!(code.locator_roots(&[1, 1, c]), vec![]);
            assert_eq!(code.chien_search_reference(&[1, 1, c]), vec![]);
        }
        // S1 = 1, S3 = 1 + c makes Berlekamp–Massey return exactly that
        // locator; a word with those syndromes is the remainder itself.
        let c = rootless[0];
        let sigma = code.berlekamp_massey(&[1, 1, 1 ^ c, 1]);
        assert_eq!(sigma, [1, 1, c]);
        let mut hit = false;
        for pattern in 1..=u16::MAX {
            let mut data = [0u8; 8];
            if code.remainder_syndromes(&data, &pattern.to_be_bytes()) == Some(vec![1, 1, 1 ^ c, 1])
            {
                assert_eq!(
                    code.decode(&mut data, &pattern.to_be_bytes()),
                    Err(DecodeError::TooManyErrors)
                );
                hit = true;
            }
        }
        assert!(hit, "the 2^16 remainders reach every syndrome pair");
    }

    #[test]
    fn repeated_and_degenerate_locators_match_the_scan() {
        let code = BchCode::new(8, 2, 8).unwrap();
        let f = &code.field;
        // A double root is one position, which decode rejects as a count
        // mismatch; a locator with sigma_0 != 1 has the roots of its
        // normalised form; one with a zero coefficient, the reference's.
        assert_eq!(code.locator_roots(&locator(&code, 7, 7)), vec![7]);
        for scale in [2, 0x53, 0xFF] {
            let scaled: Vec<u32> = (locator(&code, 3, 60).iter())
                .map(|&c| f.mul(c, scale))
                .collect();
            assert_eq!(code.locator_roots(&scaled), vec![3, 60]);
            let linear = [scale, f.mul(scale, f.alpha_pow(60))];
            assert_eq!(code.locator_roots(&linear), vec![60]);
        }
        for c1 in 0..256 {
            for sigma in [vec![0, c1], vec![0, c1, 9], vec![1, c1, 0], vec![5, 0, c1]] {
                if sigma.last() != Some(&0) {
                    let expected = code.chien_search_reference(&sigma);
                    assert_eq!(code.locator_roots(&sigma), expected, "{sigma:?}");
                }
            }
        }
    }

    #[test]
    fn disk_sector_code_roundtrip() {
        // A 512-byte sector over GF(2^13), the geometry of
        // sector-granular flash controllers.
        let code = BchCode::new(13, 3, 512).unwrap();
        assert_eq!(code.data_bytes(), 512);
        assert_eq!(code.parity_bits(), 39);
        let data: Vec<u8> = (0..512usize).map(|i| (i % 256) as u8).collect();
        let parity = code.encode(&data);
        let mut received = data.clone();
        for &bit in &[0usize, 2048, 4095] {
            received[bit / 8] ^= 1 << (7 - bit % 8);
        }
        let report = code.decode(&mut received, &parity).unwrap();
        assert_eq!(report.corrected, 3);
        assert_eq!(received, data);
    }

    #[test]
    fn generator_accessor_nonzero() {
        let code = BchCode::new(8, 2, 16).unwrap();
        assert!(code.generator().degree().is_some());
        assert_eq!(code.strength(), 2);
        assert_eq!(code.data_bytes(), 16);
    }
}
