//! Finite field arithmetic over GF(2^m).
//!
//! BCH codes used by NAND flash controllers operate over binary extension
//! fields. This module provides a table-driven implementation of GF(2^m)
//! for 2 ≤ m ≤ 16, using log/antilog tables generated from a fixed
//! primitive polynomial per field size.
//!
//! Elements are represented as `u32` values in `0..(1 << m)`; the zero
//! element is `0` and the multiplicative generator is `alpha = 2`
//! (the polynomial `x`).

use std::ops::{Deref, DerefMut};
use std::sync::OnceLock;

/// Primitive polynomials (including the `x^m` term) indexed by `m`.
///
/// Entry `PRIMITIVE_POLYS[m]` is a degree-`m` polynomial over GF(2),
/// primitive for GF(2^m). Index 0 and 1 are unused placeholders.
const PRIMITIVE_POLYS: [u32; 17] = [
    0,
    0,
    0b111,       // m=2: x^2+x+1
    0b1011,      // m=3: x^3+x+1
    0b1_0011,    // m=4: x^4+x+1
    0b10_0101,   // m=5: x^5+x^2+1
    0b100_0011,  // m=6: x^6+x+1
    0b1000_1001, // m=7: x^7+x^3+1
    0x11D,       // m=8: x^8+x^4+x^3+x^2+1
    0x211,       // m=9: x^9+x^4+1
    0x409,       // m=10: x^10+x^3+1
    0x805,       // m=11: x^11+x^2+1
    0x1053,      // m=12: x^12+x^6+x^4+x+1
    0x201B,      // m=13: x^13+x^4+x^3+x+1
    0x4443,      // m=14: x^14+x^10+x^6+x+1
    0x8003,      // m=15: x^15+x+1
    0x1100B,     // m=16: x^16+x^12+x^3+x+1
];

/// A binary extension field GF(2^m) with precomputed log/antilog tables.
///
/// # Examples
///
/// ```
/// use flash_ecc::gf::GfField;
///
/// let f = GfField::new(8);
/// let a = 0x53;
/// let b = 0xCA;
/// // Multiplication is commutative and distributes over addition (XOR).
/// assert_eq!(f.mul(a, b), f.mul(b, a));
/// assert_eq!(f.mul(a, b ^ 1), f.mul(a, b) ^ f.mul(a, 1));
/// ```
#[derive(Debug, Clone)]
pub struct GfField {
    m: u32,
    /// Field order minus one: 2^m - 1 (size of the multiplicative group).
    group_order: u32,
    /// `exp[i] = alpha^i` for `i` in `0..2*(2^m - 1)` (doubled to avoid
    /// a modulo reduction in `mul`).
    exp: Vec<u32>,
    /// `log[x]` = discrete log of `x` base alpha; `log[0]` is unused.
    log: Vec<u32>,
    /// `quad_base[i]` solves `y² + y = 2^i`, or `= 2^i + a_k` when `2^i`
    /// has trace 1 (`a_k`: one fixed basis element of trace 1). `y² + y`
    /// is GF(2)-linear, so XOR-ing the entries at the set bits of a
    /// trace-0 `u` solves `y² + y = u`.
    quad_base: Vec<u32>,
}

impl GfField {
    /// Constructs GF(2^m) using the crate's fixed primitive polynomial.
    ///
    /// # Panics
    ///
    /// Panics if `m` is outside `2..=16`.
    pub fn new(m: u32) -> Self {
        check_degree(m);
        let poly = PRIMITIVE_POLYS[m as usize];
        let size = 1u32 << m;
        let group_order = size - 1;
        let mut exp = vec![0u32; 2 * group_order as usize];
        let mut log = vec![0u32; size as usize];
        let mut x = 1u32;
        for i in 0..group_order {
            exp[i as usize] = x;
            log[x as usize] = i;
            x <<= 1;
            if x & size != 0 {
                x ^= poly;
            }
        }
        debug_assert_eq!(x, 1, "polynomial for m={m} is not primitive");
        for i in group_order..2 * group_order {
            exp[i as usize] = exp[(i - group_order) as usize];
        }
        let mut field = GfField {
            m,
            group_order,
            exp,
            log,
            quad_base: vec![0; m as usize],
        };
        // Tr(a) = a + a² + a⁴ + … + a^(2^(m−1)) is 0 or 1, and 0 on every
        // y² + y; it is onto, so some basis element has trace 1.
        let trace = |a: u32| (0..m).fold((0, a), |(s, p), _| (s ^ p, field.mul(p, p))).0;
        let ak = (0..m).map(|i| 1u32 << i).find(|&e| trace(e) == 1);
        let ak = ak.expect("the trace is not zero on a whole basis");
        for y in 0..size {
            let v = field.mul(y, y) ^ y;
            for e in [v, v ^ ak] {
                if e.is_power_of_two() {
                    field.quad_base[e.trailing_zeros() as usize] = y;
                }
            }
        }
        field
    }

    /// The process's one GF(2^m), built on first use: every code over
    /// GF(2^m) shares its tables (384 KB at m = 15).
    ///
    /// # Panics
    ///
    /// Panics if `m` is outside `2..=16`.
    pub(crate) fn shared(m: u32) -> &'static GfField {
        static FIELDS: [OnceLock<GfField>; 17] = [const { OnceLock::new() }; 17];
        check_degree(m);
        FIELDS[m as usize].get_or_init(|| GfField::new(m))
    }

    /// The order of the multiplicative group, `2^m - 1`.
    pub fn group_order(&self) -> u32 {
        self.group_order
    }

    /// Field multiplication.
    #[inline]
    pub fn mul(&self, a: u32, b: u32) -> u32 {
        if a == 0 || b == 0 {
            0
        } else {
            self.exp[(self.log[a as usize] + self.log[b as usize]) as usize]
        }
    }

    /// `alpha^e` for any integer exponent `e` (reduced mod `2^m - 1`).
    #[inline]
    pub fn alpha_pow(&self, e: i64) -> u32 {
        let n = self.group_order as i64;
        let mut r = e % n;
        if r < 0 {
            r += n;
        }
        self.exp[r as usize]
    }

    /// Direct antilog lookup: `alpha^idx` for `idx` in `0..2·(2^m − 1)`.
    ///
    /// Hot-path helper for the syndrome and Chien kernels, which keep
    /// exponents in `[0, 2n)` so a single table read replaces a modular
    /// reduction. The doubled `exp` table makes any such index valid.
    #[inline]
    pub(crate) fn exp_raw(&self, idx: usize) -> u32 {
        debug_assert!(idx < self.exp.len(), "exp_raw index {idx} out of range");
        self.exp[idx]
    }

    /// Discrete logarithm of a nonzero element.
    ///
    /// # Panics
    ///
    /// Panics if `a == 0` (zero has no logarithm).
    #[inline]
    pub fn log(&self, a: u32) -> u32 {
        assert!(a != 0, "log of zero");
        self.log[a as usize]
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if `a == 0`.
    #[inline]
    pub fn inv(&self, a: u32) -> u32 {
        assert!(a != 0, "inverse of zero");
        self.exp[(self.group_order - self.log[a as usize]) as usize]
    }

    /// Field division `a / b`.
    ///
    /// # Panics
    ///
    /// Panics if `b == 0`.
    #[inline]
    pub fn div(&self, a: u32, b: u32) -> u32 {
        assert!(b != 0, "division by zero");
        if a == 0 {
            0
        } else {
            self.exp[(self.log[a as usize] + self.group_order - self.log[b as usize]) as usize]
        }
    }

    /// A solution `y` of `y² + y = u` (the other is `y + 1`), or `None`
    /// when `u` has trace 1 and the field holds none.
    pub(crate) fn solve_quadratic(&self, u: u32) -> Option<u32> {
        let (mut y, mut bits) = (0, u);
        while bits != 0 {
            y ^= self.quad_base[bits.trailing_zeros() as usize];
            bits &= bits - 1;
        }
        (self.mul(y, y) ^ y == u).then_some(y)
    }

    /// The square root of `a`, which always exists and is unique: `2^m −
    /// 1` is odd, so `α^l = (α^(l/2))²` with `l` or `l + 2^m − 1` even.
    pub(crate) fn sqrt(&self, a: u32) -> u32 {
        if a == 0 {
            return 0;
        }
        let l = self.log[a as usize];
        self.exp[((l + (l & 1) * self.group_order) / 2) as usize]
    }

    /// The distinct roots of `x² + b·x + c`: `x = b·y` turns it into
    /// `y² + y = c/b²`, whose solutions, if the field has any, are `y` and
    /// `y + 1`; at `b = 0` the one root is `√c`.
    pub(crate) fn quadratic_roots(&self, b: u32, c: u32) -> Roots<u32> {
        if b == 0 {
            return Roots::from_slice(&[self.sqrt(c)]);
        }
        match self.solve_quadratic(self.div(c, self.mul(b, b))) {
            Some(y) => Roots::from_slice(&[self.mul(b, y), self.mul(b, y ^ 1)]),
            None => Roots::default(),
        }
    }

    /// The distinct `x` with `x⁴ + a·x² + b·x = c`. The left side is
    /// GF(2)-linear in `x`, so the solutions are one solution plus the
    /// kernel: eliminate over the images of the `m` basis elements,
    /// keeping with each reduced image the `x` it is the image of (Linux
    /// `lib/bch.c`'s `find_affine4_roots`, after Berlekamp, Rumsey &
    /// Solomon 1967). The kernel has at most four elements, the degree,
    /// so a basis of at most two.
    pub(crate) fn affine4_roots(&self, a: u32, b: u32, c: u32) -> Roots<u32> {
        // pivot[k] = (image with top bit k, its preimage).
        let mut pivot = [(0u32, 0u32); 16];
        let mut kernel = Roots::default();
        let top = |v: u32| (31 - v.leading_zeros()) as usize;
        for i in 0..self.m {
            let x = 1 << i;
            let x2 = self.mul(x, x);
            let (mut image, mut pre) = (self.mul(x2, x2) ^ self.mul(a, x2) ^ self.mul(b, x), x);
            while image != 0 && pivot[top(image)].0 != 0 {
                let (pi, pp) = pivot[top(image)];
                image ^= pi;
                pre ^= pp;
            }
            if image == 0 {
                kernel.push(pre);
            } else {
                pivot[top(image)] = (image, pre);
            }
        }
        let (mut rest, mut x0) = (c, 0);
        while rest != 0 {
            let (pi, pp) = pivot[top(rest)];
            if pi == 0 {
                return Roots::default();
            }
            rest ^= pi;
            x0 ^= pp;
        }
        let mut roots = Roots::from_slice(&[x0]);
        for &k in kernel.iter() {
            for i in 0..roots.len() {
                roots.push(roots[i] ^ k);
            }
        }
        roots
    }
}

/// At most four roots, held inline: what the closed-form root finders
/// return, so a decode of up to four errors allocates nothing.
#[derive(Clone, Copy, Default)]
pub(crate) struct Roots<T> {
    len: usize,
    slots: [T; 4],
}

impl<T: Copy + Default> Roots<T> {
    pub(crate) fn from_slice(xs: &[T]) -> Self {
        let mut roots = Roots::default();
        for &x in xs {
            roots.push(x);
        }
        roots
    }

    /// Appends `x`.
    ///
    /// # Panics
    ///
    /// Panics past four roots.
    pub(crate) fn push(&mut self, x: T) {
        self.slots[self.len] = x;
        self.len += 1;
    }

    /// Keeps the roots for which `keep` holds, in order.
    pub(crate) fn retain(&mut self, keep: impl Fn(&T) -> bool) {
        let all = *self;
        self.len = 0;
        for x in all.iter().filter(|x| keep(x)) {
            self.push(*x);
        }
    }
}

impl<T> Deref for Roots<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.slots[..self.len]
    }
}

impl<T> DerefMut for Roots<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.slots[..self.len]
    }
}

fn check_degree(m: u32) {
    assert!(
        (2..=16).contains(&m),
        "GF(2^m) supported only for 2 <= m <= 16, got m={m}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructs_all_supported_sizes() {
        for m in 2..=16 {
            let f = GfField::new(m);
            assert_eq!(f.group_order(), (1 << m) - 1);
        }
    }

    #[test]
    #[should_panic(expected = "supported only")]
    fn rejects_m_too_large() {
        let _ = GfField::new(17);
    }

    #[test]
    #[should_panic(expected = "supported only")]
    fn rejects_m_too_small() {
        let _ = GfField::new(1);
    }

    #[test]
    fn exp_log_are_inverse_bijections() {
        let f = GfField::new(10);
        for x in 1u32..(1 << 10) {
            assert_eq!(f.alpha_pow(f.log(x) as i64), x);
        }
    }

    #[test]
    fn multiplication_matches_schoolbook_gf16() {
        // Carry-less multiply reduced by x^4 + x + 1.
        fn slow_mul(mut a: u32, mut b: u32) -> u32 {
            let mut r = 0;
            while b != 0 {
                if b & 1 != 0 {
                    r ^= a;
                }
                b >>= 1;
                a <<= 1;
                if a & 0x10 != 0 {
                    a ^= 0b1_0011;
                }
            }
            r
        }
        let f = GfField::new(4);
        for a in 0..16 {
            for b in 0..16 {
                assert_eq!(f.mul(a, b), slow_mul(a, b), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn inverse_and_division() {
        let f = GfField::new(8);
        for a in 1u32..256 {
            assert_eq!(f.mul(a, f.inv(a)), 1, "a={a}");
            assert_eq!(f.div(a, a), 1);
            assert_eq!(f.div(0, a), 0);
        }
    }

    #[test]
    fn negative_alpha_powers_wrap() {
        let f = GfField::new(5);
        assert_eq!(f.alpha_pow(-1), f.inv(f.alpha_pow(1)));
        assert_eq!(f.alpha_pow(-(f.group_order() as i64)), 1);
    }

    #[test]
    fn quadratic_solver_solves_exactly_the_trace_zero_half() {
        for m in [2, 3, 4, 8, 13, 15] {
            let f = GfField::new(m);
            let mut solvable = vec![false; 1 << m];
            for y in 0..1u32 << m {
                solvable[(f.mul(y, y) ^ y) as usize] = true;
            }
            assert_eq!(solvable.iter().filter(|&&s| s).count(), 1 << (m - 1));
            for u in 0..1u32 << m {
                let y = f.solve_quadratic(u);
                assert_eq!(y.is_some(), solvable[u as usize], "m={m} u={u}");
                assert!(y.is_none_or(|y| f.mul(y, y) ^ y == u), "m={m} u={u}");
            }
        }
    }

    #[test]
    fn closed_form_roots_match_exhaustive_search() {
        for m in [2, 3, 4, 5] {
            let f = GfField::new(m);
            let size = 1u32 << m;
            let roots_of = |p: &dyn Fn(u32) -> u32| (0..size).filter(|&x| p(x) == 0).collect();
            for a in 0..size {
                let mut sqrt = f.sqrt(a);
                assert_eq!(f.mul(sqrt, sqrt), a, "m={m} a={a}");
                sqrt = f.sqrt(f.mul(a, a));
                assert_eq!(sqrt, a, "m={m} a={a}");
                for b in 0..size {
                    let mut got = f.quadratic_roots(a, b);
                    got.sort_unstable();
                    let want: Vec<u32> = roots_of(&|x| f.mul(x, x) ^ f.mul(a, x) ^ b);
                    assert_eq!(got[..], want, "m={m} x²+{a}x+{b}");
                    for c in 0..size {
                        let mut got = f.affine4_roots(a, b, c);
                        got.sort_unstable();
                        let want: Vec<u32> = roots_of(&|x| {
                            let x2 = f.mul(x, x);
                            f.mul(x2, x2) ^ f.mul(a, x2) ^ f.mul(b, x) ^ c
                        });
                        assert_eq!(got[..], want, "m={m} x⁴+{a}x²+{b}x+{c}");
                    }
                }
            }
        }
    }
}
