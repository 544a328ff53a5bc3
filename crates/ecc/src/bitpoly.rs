//! Dense polynomials over GF(2), bit-packed into `u64` words.
//!
//! Used to construct and store BCH generator polynomials, whose degree is
//! `m·t` at most (≤ 960 bits for the largest codes this crate builds), and
//! to run the systematic-encoding LFSR.

use std::fmt;

/// A polynomial over GF(2). Bit `i` of the backing storage is the
/// coefficient of `x^i`.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct BitPoly {
    words: Vec<u64>,
}

impl BitPoly {
    /// The zero polynomial.
    pub fn zero() -> Self {
        BitPoly { words: Vec::new() }
    }

    /// The constant polynomial `1`.
    pub fn one() -> Self {
        BitPoly { words: vec![1] }
    }

    /// Builds a polynomial from an iterator of exponents with coefficient 1.
    ///
    /// Duplicate exponents cancel (coefficients are in GF(2)).
    pub fn from_exponents<I: IntoIterator<Item = usize>>(exps: I) -> Self {
        let mut p = BitPoly::zero();
        for e in exps {
            p.flip(e);
        }
        p
    }

    /// Coefficient of `x^i`.
    #[inline]
    pub fn coeff(&self, i: usize) -> bool {
        let w = i / 64;
        w < self.words.len() && (self.words[w] >> (i % 64)) & 1 == 1
    }

    /// Toggles the coefficient of `x^i`.
    pub fn flip(&mut self, i: usize) {
        let w = i / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] ^= 1 << (i % 64);
    }

    /// Degree of the polynomial, or `None` for the zero polynomial.
    pub fn degree(&self) -> Option<usize> {
        for (w, &word) in self.words.iter().enumerate().rev() {
            if word != 0 {
                return Some(w * 64 + 63 - word.leading_zeros() as usize);
            }
        }
        None
    }

    /// `true` if this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Carry-less polynomial product over GF(2).
    pub fn mul(&self, other: &BitPoly) -> BitPoly {
        let (da, db) = match (self.degree(), other.degree()) {
            (Some(a), Some(b)) => (a, b),
            _ => return BitPoly::zero(),
        };
        let mut out = BitPoly {
            words: vec![0; (da + db) / 64 + 1],
        };
        for i in 0..=da {
            if self.coeff(i) {
                // out ^= other << i
                let word_shift = i / 64;
                let bit_shift = i % 64;
                for (j, &w) in other.words.iter().enumerate() {
                    if w == 0 {
                        continue;
                    }
                    out.words[j + word_shift] ^= w << bit_shift;
                    if bit_shift != 0 && j + word_shift + 1 < out.words.len() {
                        out.words[j + word_shift + 1] ^= w >> (64 - bit_shift);
                    }
                }
            }
        }
        out
    }

    /// Iterator over the exponents whose coefficient is 1, ascending.
    ///
    /// Walks set bits with `trailing_zeros` rather than probing all 64
    /// positions per word, so cost scales with the polynomial's weight.
    pub fn iter_exponents(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            std::iter::from_fn({
                let mut bits = word;
                move || {
                    if bits == 0 {
                        return None;
                    }
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(w * 64 + b)
                }
            })
        })
    }

    /// The backing words, bit `i` of word `i / 64` = coefficient of `x^i`.
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

impl fmt::Debug for BitPoly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "BitPoly(0)");
        }
        let terms: Vec<String> = self
            .iter_exponents()
            .map(|e| match e {
                0 => "1".to_string(),
                1 => "x".to_string(),
                _ => format!("x^{e}"),
            })
            .collect();
        write!(f, "BitPoly({})", terms.join(" + "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_one() {
        assert!(BitPoly::zero().is_zero());
        assert_eq!(BitPoly::zero().degree(), None);
        assert_eq!(BitPoly::one().degree(), Some(0));
        assert_eq!(BitPoly::one(), BitPoly::from_exponents([0]));
    }

    #[test]
    fn duplicate_exponents_cancel() {
        let p = BitPoly::from_exponents([3, 3]);
        assert!(p.is_zero());
    }

    #[test]
    fn degree_across_word_boundary() {
        let p = BitPoly::from_exponents([0, 70]);
        assert_eq!(p.degree(), Some(70));
        assert!(p.coeff(70));
        assert!(p.coeff(0));
        assert!(!p.coeff(64));
    }

    #[test]
    fn multiply_small() {
        // (x + 1)(x + 1) = x^2 + 1 over GF(2).
        let p = BitPoly::from_exponents([0, 1]);
        let sq = p.mul(&p);
        assert_eq!(sq, BitPoly::from_exponents([0, 2]));
    }

    #[test]
    fn multiply_by_zero_and_one() {
        let p = BitPoly::from_exponents([0, 5, 17]);
        assert!(p.mul(&BitPoly::zero()).is_zero());
        assert_eq!(p.mul(&BitPoly::one()), p);
    }

    #[test]
    fn multiply_spanning_words() {
        // x^63 * x^1 = x^64 exercises the cross-word carry path.
        let a = BitPoly::from_exponents([63]);
        let b = BitPoly::from_exponents([1]);
        assert_eq!(a.mul(&b), BitPoly::from_exponents([64]));
        // (x^63 + 1)(x^63 + 1) = x^126 + 1
        let c = BitPoly::from_exponents([63, 0]);
        assert_eq!(c.mul(&c), BitPoly::from_exponents([126, 0]));
    }

    #[test]
    fn iter_exponents_ascending() {
        let p = BitPoly::from_exponents([5, 130, 0]);
        let exps: Vec<usize> = p.iter_exponents().collect();
        assert_eq!(exps, vec![0, 5, 130]);
    }

    #[test]
    fn debug_format_nonempty() {
        assert_eq!(format!("{:?}", BitPoly::zero()), "BitPoly(0)");
        let p = BitPoly::from_exponents([0, 1, 4]);
        assert_eq!(format!("{p:?}"), "BitPoly(1 + x + x^4)");
    }
}
