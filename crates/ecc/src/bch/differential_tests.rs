//! Differential tests of the ECC kernels against their oracles.
//!
//! The sliced table-driven encoder, the two-chain division, the
//! remainder-first syndromes, the step-skipping Berlekamp–Massey, the
//! closed-form locator roots and the batched Chien search must be
//! bit-identical to the straightforward reference implementations below
//! (`encode_bitserial`, one-chain `lfsr`, `syndromes_reference`,
//! `berlekamp_massey_reference`, `chien_search_reference`), across the
//! field sizes the crate ships codes for (m ∈ {8, 13, 15}), the paper's
//! strength range (t ∈ {1, 4, 12}) and the tiny (15, 11) code; the sliced
//! CRC32 must equal the bit-at-a-time recurrence, and its bit-flip
//! difference a recomputation. The one-pass page codec must equal the
//! same oracles composed by hand.

use proptest::prelude::*;

use super::{byte_step, lfsr, BchCode, DecodeError};
use crate::crc::{crc32, flip_difference, Crc32};
use crate::gf::GfField;
use crate::page::{
    PageCodec, PageDecodeError, PageDecodeOutcome, CRC_BYTES, PAGE_DATA_BYTES, PAGE_SPARE_BYTES,
};

/// The reference kernels, each the textbook form of one the decoder
/// runs.
impl BchCode {
    /// Bit-serial encoder: one LFSR step per data bit.
    pub(crate) fn encode_bitserial(&self, data: &[u8]) -> Vec<u8> {
        assert_eq!(data.len(), self.data_bytes);
        let r = self.parity_bits;
        let words = r.div_ceil(64);
        let top_word = (r - 1) / 64;
        let top_bit = (r - 1) % 64;
        // The generator without its x^r term, packed LSB-first.
        let mut feedback = vec![0u64; words];
        for e in self.generator.iter_exponents().filter(|&e| e < r) {
            feedback[e / 64] |= 1 << (e % 64);
        }
        let mut reg = vec![0u64; words];
        // Shift data bits in MSB-first order through the division LFSR.
        for &byte in data {
            for bit in (0..8).rev() {
                let din = (byte >> bit) & 1 == 1;
                let fb = din ^ ((reg[top_word] >> top_bit) & 1 == 1);
                for w in (1..words).rev() {
                    reg[w] = (reg[w] << 1) | (reg[w - 1] >> 63);
                }
                reg[0] <<= 1;
                if fb {
                    for (r, f) in reg.iter_mut().zip(&feedback) {
                        *r ^= f;
                    }
                }
            }
        }
        if !r.is_multiple_of(64) {
            reg[words - 1] &= (1u64 << (r % 64)) - 1;
        }
        // Parity byte 0 carries the highest-power coefficients
        // (MSB-first), mirroring how the data was shifted in.
        let mut out = vec![0u8; self.parity_bytes()];
        for i in 0..r {
            let power = r - 1 - i;
            if (reg[power / 64] >> (power % 64)) & 1 == 1 {
                out[i / 8] |= 1 << (7 - i % 8);
            }
        }
        out
    }

    /// The syndromes `decode` computes, from the remainder of `data` and
    /// the received `parity`, or `None` for a codeword. The buffers must
    /// have the code's lengths.
    pub(crate) fn remainder_syndromes(&self, data: &[u8], parity: &[u8]) -> Option<Vec<u32>> {
        self.with_remainder::<false, _>(data, |reg, _| {
            self.add_parity(reg, parity).then(|| {
                let mut syn = vec![0; 2 * self.t];
                self.syndromes_of(reg, &mut syn);
                syn
            })
        })
    }

    /// Syndromes by per-bit modular exponent products over the whole
    /// received word.
    pub(crate) fn syndromes_reference(&self, data: &[u8], parity: &[u8]) -> Vec<u32> {
        let f = self.field;
        let n = f.group_order() as i64;
        let r = self.parity_bits as i64;
        let two_t = 2 * self.t;
        let mut syn = vec![0u32; two_t];
        let add_position = |syn: &mut Vec<u32>, power: i64| {
            for i in (1..=two_t).step_by(2) {
                syn[i - 1] ^= f.alpha_pow((power * i as i64) % n);
            }
        };
        for j in 0..data.len() * 8 {
            if (data[j / 8] >> (7 - j % 8)) & 1 == 1 {
                add_position(&mut syn, r + self.data_bits as i64 - 1 - j as i64);
            }
        }
        for i in 0..self.parity_bits {
            if (parity[i / 8] >> (7 - i % 8)) & 1 == 1 {
                add_position(&mut syn, r - 1 - i as i64);
            }
        }
        for i in 1..=self.t {
            syn[2 * i - 1] = f.mul(syn[i - 1], syn[i - 1]);
        }
        syn
    }

    /// [`BchCode::berlekamp_massey`] into fresh rows, the locator owned.
    pub(crate) fn berlekamp_massey_owned(&self, syndromes: &[u32]) -> Vec<u32> {
        let mut work = vec![0; 3 * (syndromes.len() + 2)];
        self.berlekamp_massey(syndromes, &mut work).to_vec()
    }

    /// Berlekamp–Massey taking every step, odd syndromes' and even
    /// syndromes' alike.
    pub(crate) fn berlekamp_massey_reference(&self, syndromes: &[u32]) -> Vec<u32> {
        let f = self.field;
        let two_t = syndromes.len();
        let mut sigma = vec![0u32; two_t + 2];
        let mut prev = vec![0u32; two_t + 2];
        sigma[0] = 1;
        prev[0] = 1;
        let (mut l, mut shift, mut b) = (0usize, 1usize, 1u32);
        for n_iter in 0..two_t {
            let mut d = syndromes[n_iter];
            for i in 1..=l {
                d ^= f.mul(sigma[i], syndromes[n_iter - i]);
            }
            if d == 0 {
                shift += 1;
                continue;
            }
            let old = sigma.clone();
            let coef = f.div(d, b);
            for (i, &p) in prev.iter().enumerate() {
                if i + shift < sigma.len() {
                    sigma[i + shift] ^= f.mul(coef, p);
                }
            }
            if 2 * l <= n_iter {
                l = n_iter + 1 - l;
                prev = old;
                b = d;
                shift = 1;
            } else {
                shift += 1;
            }
        }
        let deg = sigma.iter().rposition(|&c| c != 0).unwrap_or(0);
        sigma.truncate(deg + 1);
        sigma
    }

    /// Chien search with one field multiply per term per position.
    pub(crate) fn chien_search_reference(&self, sigma: &[u32]) -> Vec<usize> {
        let f = self.field;
        let mut roots = Vec::new();
        // terms[j] = sigma_j * alpha^(-j*p), updated incrementally over p.
        let mut terms: Vec<u32> = sigma.to_vec();
        let steps: Vec<u32> = (0..sigma.len()).map(|j| f.alpha_pow(-(j as i64))).collect();
        for p in 0..self.data_bits + self.parity_bits {
            if p > 0 {
                for j in 1..terms.len() {
                    terms[j] = f.mul(terms[j], steps[j]);
                }
            }
            if terms.iter().fold(0u32, |acc, &t| acc ^ t) == 0 {
                roots.push(p);
            }
        }
        roots
    }
}

/// Largest payload (bytes) that fits the block length for (m, t), capped
/// so reference-kernel scans stay fast inside property tests.
fn payload_cap(m: u32, t: usize) -> usize {
    let block_bits = (1usize << m) - 1;
    let parity_bits = m as usize * t;
    ((block_bits - parity_bits) / 8).saturating_sub(1).min(192)
}

/// Derives `count` distinct bit positions below `nbits` from `seed`.
fn error_positions(seed: u64, count: usize, nbits: usize) -> Vec<usize> {
    let mut positions = std::collections::BTreeSet::new();
    let mut x = seed | 1;
    while positions.len() < count.min(nbits) {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        positions.insert((x >> 16) as usize % nbits);
    }
    positions.into_iter().collect()
}

/// Flips stream bit `pos` of the (data ++ parity) MSB-first bit stream.
fn flip_stream_bit(data: &mut [u8], parity: &mut [u8], pos: usize) {
    let data_bits = data.len() * 8;
    if pos < data_bits {
        data[pos / 8] ^= 1 << (7 - pos % 8);
    } else {
        let i = pos - data_bits;
        parity[i / 8] ^= 1 << (7 - i % 8);
    }
}

fn param_strategy() -> impl Strategy<Value = (u32, usize)> {
    (
        prop_oneof![Just(8u32), Just(13), Just(15)],
        prop_oneof![Just(1usize), Just(4), Just(12)],
    )
}

/// What `decode` feeds Berlekamp–Massey: the remainder syndromes, all
/// zero for a codeword.
fn syndromes(code: &BchCode, data: &[u8], parity: &[u8]) -> Vec<u32> {
    code.remainder_syndromes(data, parity)
        .unwrap_or_else(|| vec![0; 2 * code.strength()])
}

/// Asserts the remainder syndromes equal the per-bit reference, with and
/// without garbage in the last parity byte's padding bits.
fn assert_syndromes_match(code: &BchCode, data: &[u8], parity: &mut [u8]) {
    let reference = code.syndromes_reference(data, parity);
    assert_eq!(syndromes(code, data, parity), reference);
    assert_eq!(
        code.remainder_syndromes(data, parity).is_none(),
        reference.iter().all(|&s| s == 0)
    );
    if !code.parity_bits().is_multiple_of(8) {
        *parity.last_mut().unwrap() ^= (1u8 << (8 - code.parity_bits() % 8)) - 1;
        assert_eq!(syndromes(code, data, parity), reference);
        assert_eq!(code.syndromes_reference(data, parity), reference);
    }
}

/// Decodes a codeword of `code` with exactly the stream bits `flips`
/// flipped, checking every stage against its reference kernel and the
/// report against the flips.
fn assert_corrects(code: &BchCode, data: &[u8], parity: &[u8], flips: &[usize]) {
    let (mut bad, mut bad_parity) = (data.to_vec(), parity.to_vec());
    for &pos in flips {
        flip_stream_bit(&mut bad, &mut bad_parity, pos);
    }
    let syn = syndromes(code, &bad, &bad_parity);
    assert_eq!(syn, code.syndromes_reference(&bad, &bad_parity));
    let sigma = code.berlekamp_massey_owned(&syn);
    let roots = code.chien_search_reference(&sigma);
    assert_eq!(code.locator_roots(&sigma), roots, "flips {flips:?}");
    assert_eq!(code.chien_search(&sigma), roots, "flips {flips:?}");
    let report = code.decode(&mut bad, &bad_parity).unwrap();
    assert_eq!(report.corrected, flips.len(), "flips {flips:?}");
    let in_data: Vec<usize> = (flips.iter().copied())
        .filter(|&pos| pos < data.len() * 8)
        .collect();
    assert_eq!(report.data_bit_positions, in_data);
    assert_eq!(bad, data, "flips {flips:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Table-driven encode is bit-identical to the bit-serial oracle.
    #[test]
    fn encode_matches_bitserial_oracle(
        (m, t) in param_strategy(),
        raw in prop::collection::vec(any::<u8>(), 1..=192),
    ) {
        let len = raw.len().min(payload_cap(m, t)).max(1);
        let data = &raw[..len];
        let code = BchCode::new(m, t, len).unwrap();
        prop_assert_eq!(code.encode(data), code.encode_bitserial(data));
    }

    /// The remainder syndromes agree with the per-bit reference on
    /// corrupted codewords, including errors in the parity area and
    /// garbage in the last parity byte's padding bits.
    #[test]
    fn syndromes_match_reference(
        (m, t) in param_strategy(),
        raw in prop::collection::vec(any::<u8>(), 1..=192),
        nerrors in 0usize..=12,
        seed in any::<u64>(),
    ) {
        let len = raw.len().min(payload_cap(m, t)).max(1);
        let mut data = raw[..len].to_vec();
        let code = BchCode::new(m, t, len).unwrap();
        let mut parity = code.encode(&data);
        let stream_bits = len * 8 + code.parity_bits();
        for &pos in &error_positions(seed, nerrors, stream_bits) {
            flip_stream_bit(&mut data, &mut parity, pos);
        }
        assert_syndromes_match(&code, &data, &mut parity);
    }

    /// The closed forms and the batched early-exit Chien search find
    /// exactly the roots the reference scan finds, and decode corrects
    /// the injected errors.
    #[test]
    fn chien_matches_reference_and_decode_corrects(
        (m, t) in param_strategy(),
        raw in prop::collection::vec(any::<u8>(), 1..=192),
        nerrors in 1usize..=12,
        seed in any::<u64>(),
    ) {
        let len = raw.len().min(payload_cap(m, t)).max(1);
        let data = raw[..len].to_vec();
        let code = BchCode::new(m, t, len).unwrap();
        let mut parity = code.encode(&data);
        let nerrors = nerrors.min(t);
        let stream_bits = len * 8 + code.parity_bits();
        let mut corrupted = data.clone();
        for &pos in &error_positions(seed, nerrors, stream_bits) {
            flip_stream_bit(&mut corrupted, &mut parity, pos);
        }
        let syn = syndromes(&code, &corrupted, &parity);
        prop_assume!(syn.iter().any(|&s| s != 0));
        let sigma = code.berlekamp_massey_owned(&syn);
        let roots = code.chien_search_reference(&sigma);
        prop_assert_eq!(code.chien_search(&sigma), roots.clone());
        prop_assert_eq!(code.locator_roots(&sigma), roots);
        let report = code.decode(&mut corrupted, &parity);
        prop_assert!(report.is_ok(), "{:?}", report);
        prop_assert_eq!(corrupted, data);
    }

    /// Past the code strength the locator is arbitrary: whatever
    /// Berlekamp–Massey returns, closed forms and scan find the roots the
    /// reference finds, so every error report is the reference's too.
    #[test]
    fn overloaded_locators_match_reference(
        (m, t) in (prop_oneof![Just(8u32), Just(13), Just(15)], 1usize..=2),
        raw in prop::collection::vec(any::<u8>(), 1..=24),
        nerrors in 3usize..=6,
        seed in any::<u64>(),
    ) {
        let len = raw.len().min(payload_cap(m, t)).max(1);
        let mut data = raw[..len].to_vec();
        let code = BchCode::new(m, t, len).unwrap();
        let mut parity = code.encode(&data);
        let stream_bits = len * 8 + code.parity_bits();
        for &pos in &error_positions(seed, nerrors, stream_bits) {
            flip_stream_bit(&mut data, &mut parity, pos);
        }
        let sigma = code.berlekamp_massey_owned(&syndromes(&code, &data, &parity));
        let roots = code.chien_search_reference(&sigma);
        prop_assert_eq!(code.locator_roots(&sigma), roots.clone());
        if roots.len() != sigma.len() - 1 {
            prop_assert_eq!(code.decode(&mut data, &parity), Err(DecodeError::TooManyErrors));
        }
    }

    /// The sliced CRC32 equals the bit-at-a-time recurrence for every
    /// length up to a page plus a tail, however `update` is split.
    #[test]
    fn crc_sliced_matches_bitwise_recurrence(
        raw in prop::collection::vec(any::<u8>(), 0..=2055),
        cuts in prop::collection::vec(any::<u16>(), 0..=4),
    ) {
        let mut expected = 0xFFFF_FFFFu32;
        for &byte in &raw {
            expected ^= u32::from(byte);
            for _ in 0..8 {
                expected = (expected >> 1) ^ (0xEDB8_8320 & (expected & 1).wrapping_neg());
            }
        }
        let mut cuts: Vec<usize> = cuts.iter().map(|&c| c as usize % (raw.len() + 1)).collect();
        cuts.sort_unstable();
        let mut hasher = Crc32::new();
        let mut from = 0;
        for cut in cuts.into_iter().chain([raw.len()]) {
            hasher.update(&raw[from..cut]);
            from = cut;
        }
        prop_assert_eq!(hasher.finalize(), !expected);
    }
}

/// The page codec's spare area from the oracles: CRC32 of the data, then
/// `encode_bitserial` over data ‖ CRC, then zeros.
fn reference_page_encode(code: &BchCode, data: &[u8]) -> Vec<u8> {
    let crc = crc32(data).to_be_bytes();
    let parity = code.encode_bitserial(&[data, &crc].concat());
    let mut spare = [&crc[..], &parity].concat();
    spare.resize(PAGE_SPARE_BYTES, 0);
    spare
}

/// The page codec's decode from the oracles: `syndromes_reference` over
/// data ‖ CRC and the parity, Berlekamp–Massey, `chien_search_reference`,
/// the corrections applied to data and CRC, and a fresh `crc32` of the
/// corrected data.
fn reference_page_decode(
    code: &BchCode,
    data: &mut [u8],
    spare: &[u8],
) -> Result<PageDecodeOutcome, PageDecodeError> {
    let mut message = [&*data, &spare[..CRC_BYTES]].concat();
    let parity = &spare[CRC_BYTES..CRC_BYTES + code.parity_bytes()];
    let syn = code.syndromes_reference(&message, parity);
    let mut corrected = 0;
    if syn.iter().any(|&s| s != 0) {
        let sigma = code.berlekamp_massey_owned(&syn);
        let degree = sigma.len() - 1;
        if degree > code.strength() {
            return Err(PageDecodeError::Uncorrectable);
        }
        let roots = code.chien_search_reference(&sigma);
        if roots.len() != degree {
            return Err(PageDecodeError::Uncorrectable);
        }
        let r = code.parity_bits();
        for &p in roots.iter().filter(|&&p| p >= r) {
            let j = r + message.len() * 8 - 1 - p;
            message[j / 8] ^= 0x80 >> (j % 8);
        }
        corrected = degree;
    }
    data.copy_from_slice(&message[..PAGE_DATA_BYTES]);
    let stored = u32::from_be_bytes(message[PAGE_DATA_BYTES..].try_into().unwrap());
    if crc32(data) != stored {
        Err(PageDecodeError::CrcMismatch)
    } else if corrected == 0 {
        Ok(PageDecodeOutcome::Clean)
    } else {
        Ok(PageDecodeOutcome::Corrected { corrected })
    }
}

/// A page of bytes drawn from `seed`.
fn seeded_page(seed: u64) -> Vec<u8> {
    let mut x = seed;
    (0..PAGE_DATA_BYTES)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 56) as u8
        })
        .collect()
}

/// `(1 + α^p·x)` over `powers`, times `scale`: the locator of errors at
/// those codeword powers, repeats and powers past the code included.
fn locator_of(field: &GfField, powers: &[i64], scale: u32) -> Vec<u32> {
    let mut sigma = vec![scale];
    for &p in powers {
        let root = field.alpha_pow(p);
        sigma.push(0);
        for i in (1..sigma.len()).rev() {
            sigma[i] ^= field.mul(sigma[i - 1], root);
        }
    }
    sigma
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The one-pass page codec is the oracle composition, outcome for
    /// outcome and byte for byte, at 0..=t+3 flips anywhere in the page
    /// and its spare; one flip lands in a chosen region (data, CRC,
    /// parity and its padding, unused spare).
    #[test]
    fn page_codec_matches_reference_composition(
        t in prop_oneof![Just(1usize), Just(8), Just(12)],
        seed in any::<u64>(),
        nflips in 0usize..=15,
        region in 0usize..4,
    ) {
        let codec = PageCodec::new(t).unwrap();
        let code = BchCode::new(15, t, PAGE_DATA_BYTES + CRC_BYTES).unwrap();
        let data = seeded_page(seed);
        let spare = codec.encode(&data);
        prop_assert_eq!(&spare, &reference_page_encode(&code, &data));

        let parity_end = CRC_BYTES + code.parity_bytes();
        let (from, to) = [
            (0, PAGE_DATA_BYTES),
            (PAGE_DATA_BYTES, PAGE_DATA_BYTES + CRC_BYTES),
            (PAGE_DATA_BYTES + CRC_BYTES, PAGE_DATA_BYTES + parity_end),
            (PAGE_DATA_BYTES + parity_end, PAGE_DATA_BYTES + PAGE_SPARE_BYTES),
        ][region];
        let nflips = nflips.min(t + 3);
        let total_bits = (PAGE_DATA_BYTES + PAGE_SPARE_BYTES) * 8;
        let mut flips = error_positions(seed ^ 0x5EED, nflips, total_bits);
        if let Some(first) = flips.first_mut() {
            *first = from * 8 + *first % ((to - from) * 8);
        }
        flips.sort_unstable();
        flips.dedup();
        let (mut page, mut bad_spare) = (data.clone(), spare.clone());
        for &pos in &flips {
            flip_stream_bit(&mut page, &mut bad_spare, pos);
        }
        let mut expected_page = page.clone();
        let expected = reference_page_decode(&code, &mut expected_page, &bad_spare);
        prop_assert_eq!(codec.decode(&mut page, &bad_spare), expected);
        prop_assert_eq!(page, expected_page);
    }

    /// Flipping bits moves the CRC32 by the XOR of their
    /// `flip_difference`s, at every message length up to a page and its
    /// CRC.
    #[test]
    fn crc_flip_difference_matches_recomputation(
        raw in prop::collection::vec(any::<u8>(), 1..=2052),
        nflips in 1usize..=12,
        seed in any::<u64>(),
    ) {
        let mut flipped = raw.clone();
        let mut expected = crc32(&raw);
        for &bit in &error_positions(seed, nflips, raw.len() * 8) {
            flipped[bit / 8] ^= 0x80 >> (bit % 8);
            expected ^= flip_difference(raw.len(), bit);
        }
        prop_assert_eq!(crc32(&flipped), expected);
    }

    /// Degree-3 and degree-4 locators, from random roots (repeated ones
    /// and ones past the shortened length included) or random
    /// coefficients (rootless ones included): the closed forms find the
    /// roots the reference scan finds.
    #[test]
    fn degree_3_and_4_locators_match_reference(
        m in prop_oneof![Just(8u32), Just(13), Just(15)],
        degree in 3usize..=4,
        powers in prop::collection::vec(0i64..32767, 4),
        repeat in any::<bool>(),
        coefficients in prop::collection::vec(any::<u32>(), 5),
    ) {
        let code = BchCode::new(m, 2, 8).unwrap();
        let field = GfField::new(m);
        let mask = (1u32 << m) - 1;
        let mut powers = powers[..degree].to_vec();
        if repeat {
            powers[1] = powers[0];
        }
        let scale = (coefficients[0] & mask).max(1);
        let from_roots = locator_of(&field, &powers, scale);
        let mut random: Vec<u32> = coefficients[..=degree].iter().map(|&c| c & mask).collect();
        random[degree] = random[degree].max(1);
        for sigma in [from_roots, random] {
            prop_assert_eq!(
                code.locator_roots(&sigma),
                code.chien_search_reference(&sigma),
                "{:?}", sigma
            );
        }
    }
}

/// `BchCode::new(8, 3, 8)` corrects every triple error across its 88
/// data and parity bits, through the degree-3 closed form.
#[test]
fn small_code_corrects_every_triple_error() {
    let code = BchCode::new(8, 3, 8).unwrap();
    let data = [0x5A, 0x00, 0xFF, 0x21, 0x43, 0x65, 0x87, 0xA9];
    let parity = code.encode(&data);
    let stream_bits = 64 + code.parity_bits();
    assert_eq!(stream_bits, 88);
    for a in 0..stream_bits {
        for b in a + 1..stream_bits {
            for c in b + 1..stream_bits {
                assert_corrects(&code, &data, &parity, &[a, b, c]);
            }
        }
    }
}

/// `BchCode::new(6, 4, 2)` corrects every quadruple error across its 40
/// data and parity bits, through the degree-4 closed form.
#[test]
fn small_code_corrects_every_quadruple_error() {
    let code = BchCode::new(6, 4, 2).unwrap();
    let data = [0xC3, 0x3C];
    let parity = code.encode(&data);
    let stream_bits = 16 + code.parity_bits();
    assert_eq!(stream_bits, 40);
    for a in 0..stream_bits {
        for b in a + 1..stream_bits {
            for c in b + 1..stream_bits {
                for d in c + 1..stream_bits {
                    assert_corrects(&code, &data, &parity, &[a, b, c, d]);
                }
            }
        }
    }
}

/// Every cubic and quartic over GF(2^4) — rootless, repeated roots, zero
/// coefficients, roots past the (15, 11) code's twelve positions — at
/// two leading coefficients: the closed forms find the scan's roots.
#[test]
fn every_cubic_and_quartic_over_gf16_matches_the_scan() {
    let code = BchCode::new(4, 1, 1).unwrap();
    for lead in [1u32, 9] {
        for low in 0..1u32 << 16 {
            let nibble = |i: u32| (low >> (4 * i)) & 15;
            let quartic = [nibble(0), nibble(1), nibble(2), nibble(3), lead];
            let cubic = [nibble(0), nibble(1), nibble(2), lead];
            let sigmas: &[&[u32]] = if low < 1 << 12 {
                &[&quartic, &cubic]
            } else {
                &[&quartic]
            };
            for &sigma in sigmas {
                let expected = code.chien_search_reference(sigma);
                assert_eq!(code.locator_roots(sigma), expected, "{sigma:?}");
            }
        }
    }
}

/// Full 2KB pages at m = 15 with 1, 0 and 4 padding bits in the last
/// parity byte: remainder syndromes equal the reference at 0..=t+1 errors.
#[test]
fn flash_page_syndromes_match_reference() {
    let data: Vec<u8> = (0..2048usize).map(|i| (i * 29 % 253) as u8).collect();
    for (t, padding) in [(1usize, 1), (8, 0), (12, 4)] {
        let code = BchCode::for_flash_page(t);
        assert_eq!(code.parity_bytes() * 8 - code.parity_bits(), padding);
        let stream_bits = data.len() * 8 + code.parity_bits();
        for nerrors in 0..=t + 1 {
            let (mut bad, mut parity) = (data.clone(), code.encode(&data));
            for &pos in &error_positions(0xF1A5 + nerrors as u64, nerrors, stream_bits) {
                flip_stream_bit(&mut bad, &mut parity, pos);
            }
            assert_syndromes_match(&code, &bad, &mut parity);
        }
    }
}

/// The (15, 11) code — four parity bits, narrower than the LFSR's byte
/// step — corrects every single-bit error, parity bits included.
#[test]
fn tiny_code_corrects_every_single_error() {
    let code = BchCode::new(4, 1, 1).unwrap();
    assert_eq!((code.parity_bits(), code.parity_bytes()), (4, 1));
    for byte in 0..=255u8 {
        let parity = code.encode(&[byte]);
        assert_eq!(parity, code.encode_bitserial(&[byte]));
        assert_corrects(&code, &[byte], &parity, &[]);
        for pos in 0..12 {
            assert_corrects(&code, &[byte], &parity, &[pos]);
        }
    }
}

/// The word-stride LFSR at the register widths no shipped code has: 7
/// parity bits (narrower than a byte) and 270 (five words, past the
/// stack-register widths), both with whole words and a tail of data.
#[test]
fn register_width_extremes_match_oracles() {
    for (m, t, len) in [(7u32, 1usize, 15usize), (15, 18, 29)] {
        let code = BchCode::new(m, t, len).unwrap();
        assert_eq!(code.parity_bits(), m as usize * t);
        let data: Vec<u8> = (0..len).map(|i| (i * 83 + 5) as u8).collect();
        let parity = code.encode(&data);
        assert_eq!(parity, code.encode_bitserial(&data));
        let stream_bits = len * 8 + code.parity_bits();
        for nerrors in 0..=t {
            let flips = error_positions(0xB17 + nerrors as u64, nerrors, stream_bits);
            assert_corrects(&code, &data, &parity, &flips);
        }
    }
}

/// `BchCode::new(8, 2, 8)` corrects every single and every double error
/// across data and parity, through the closed-form roots.
#[test]
fn small_code_corrects_every_single_and_double_error() {
    let code = BchCode::new(8, 2, 8).unwrap();
    let data = [0xC3, 0x00, 0xFF, 0x12, 0x34, 0x56, 0x78, 0x9A];
    let parity = code.encode(&data);
    let stream_bits = 64 + code.parity_bits();
    for a in 0..stream_bits {
        assert_corrects(&code, &data, &parity, &[a]);
        for b in a + 1..stream_bits {
            assert_corrects(&code, &data, &parity, &[a, b]);
        }
    }
}

/// `VerifiedFlash::corrupt_bits` flips bits anywhere in the 64-byte spare:
/// garbage in the parity padding bits and in the bytes past the parity
/// must leave a clean page `Clean`.
#[test]
fn page_codec_ignores_padding_and_unused_spare() {
    for t in [1usize, 8, 12] {
        let codec = PageCodec::new(t).unwrap();
        let mut page: Vec<u8> = (0..PAGE_DATA_BYTES).map(|i| (i * 7 + t) as u8).collect();
        let original = page.clone();
        let mut spare = codec.encode(&page);
        let parity_bits = 15 * t;
        let parity_end = CRC_BYTES + parity_bits.div_ceil(8);
        spare[parity_end - 1] ^= (1u8 << (parity_bits.div_ceil(8) * 8 - parity_bits)) - 1;
        for byte in &mut spare[parity_end..] {
            *byte ^= 0xFF;
        }
        assert_eq!(
            codec.decode(&mut page, &spare),
            Ok(PageDecodeOutcome::Clean)
        );
        assert_eq!(page, original);
    }
}

/// Full-size flash-page check at the paper's maximum strength: the fast
/// kernels round-trip a 2KB page with 12 injected errors and agree with
/// every reference kernel along the way.
#[test]
fn flash_page_t12_full_differential() {
    let code = BchCode::for_flash_page(12);
    let data: Vec<u8> = (0..2048usize).map(|i| (i * 131 % 251) as u8).collect();
    let parity = code.encode(&data);
    assert_eq!(parity, code.encode_bitserial(&data));

    let mut corrupted = data.clone();
    let mut bad_parity = parity.clone();
    let stream_bits = data.len() * 8 + code.parity_bits();
    let flips = error_positions(0xDEC0DE, 12, stream_bits);
    for &pos in &flips {
        flip_stream_bit(&mut corrupted, &mut bad_parity, pos);
    }
    assert_syndromes_match(&code, &corrupted, &mut bad_parity);
    assert_corrects(&code, &data, &parity, &flips);
}

/// Codes whose registers are 1 to 5 words wide, the 270-bit one
/// included, and the payload cap of each.
fn lane_code(width: usize, data_bytes: usize) -> BchCode {
    let (m, t) = [(16u32, 4usize), (16, 8), (16, 12), (16, 16), (15, 18)][width];
    BchCode::new(m, t, data_bytes.min(payload_cap_uncapped(m, t))).unwrap()
}

/// Largest payload (bytes) that fits the block length for (m, t).
fn payload_cap_uncapped(m: u32, t: usize) -> usize {
    ((1usize << m) - 1 - m as usize * t) / 8
}

/// A message of `len` bytes drawn from `seed`.
fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed;
    (0..len)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 56) as u8
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The two-chain division (head and lane side by side, joined by the
    /// shift table and `crc32_combine`) leaves the register and CRC32 of
    /// one chain, `lfsr` and `crc32`, at every message length from 1 to
    /// 4 100 bytes: a message of two lanes or more splits, its head with
    /// a byte tail when the length is not a whole word, and a shorter one
    /// keeps one chain. Registers 1 to 5 words wide, the 270-bit one
    /// included, through the stack widths and the heap width alike.
    #[test]
    fn two_chain_division_matches_one_chain(
        width in 0usize..5,
        data_bytes in 1usize..=4100,
        len in prop_oneof![Just(0usize), Just(4), 1usize..=4100],
        seed in any::<u64>(),
    ) {
        let code = lane_code(width, data_bytes);
        prop_assert_eq!(code.enc_words, width + 1);
        // 0: the code's own length; 4: a page's data without its CRC.
        let len = match len {
            0 => code.data_bytes,
            4 => code.data_bytes.saturating_sub(4).max(1),
            len => len,
        };
        let message = seeded_bytes(seed, len);
        let mut one = vec![0u64; code.enc_words];
        let crc = lfsr::<true>(&mut one, &code.enc_table, &message);
        prop_assert_eq!(crc, crc32(&message));
        let (two, two_crc) = code.with_remainder::<true, _>(&message, |reg, crc| (reg.to_vec(), crc));
        prop_assert_eq!(&two, &one);
        prop_assert_eq!(two_crc, crc);
        let (plain, plain_crc) = code.with_remainder::<false, _>(&message, |reg, crc| (reg.to_vec(), crc));
        prop_assert_eq!(&plain, &one);
        prop_assert_eq!(plain_crc, 0);
    }

    /// Berlekamp–Massey skipping the steps at even syndromes returns the
    /// locator of the full iteration, for received words with 0..=t+3
    /// errors: past the strength too, where the locator is arbitrary.
    #[test]
    fn berlekamp_massey_matches_full_iteration(
        (m, t) in param_strategy(),
        raw in prop::collection::vec(any::<u8>(), 1..=192),
        nerrors in 0usize..=15,
        seed in any::<u64>(),
    ) {
        let len = raw.len().min(payload_cap(m, t)).max(1);
        let mut data = raw[..len].to_vec();
        let code = BchCode::new(m, t, len).unwrap();
        let mut parity = code.encode(&data);
        let stream_bits = len * 8 + code.parity_bits();
        for &pos in &error_positions(seed, nerrors.min(t + 3), stream_bits) {
            flip_stream_bit(&mut data, &mut parity, pos);
        }
        let syn = syndromes(&code, &data, &parity);
        prop_assert_eq!(code.berlekamp_massey_owned(&syn), code.berlekamp_massey_reference(&syn));
    }
}

/// Each shift-table row is its register nibble's value moved past one
/// lane by replaying `lane_bytes` zero byte steps, for every nibble and
/// value at register widths 1 to 5 words and on a page's lane.
#[test]
fn lane_table_rows_equal_zero_byte_replays() {
    let codes = [
        BchCode::new(15, 18, 40).unwrap(),
        BchCode::new(9, 1, 60).unwrap(),
        BchCode::new(15, 1, PAGE_DATA_BYTES).unwrap(),
        BchCode::new(15, 8, PAGE_DATA_BYTES + CRC_BYTES).unwrap(),
        BchCode::new(15, 12, PAGE_DATA_BYTES).unwrap(),
        BchCode::new(16, 16, 64).unwrap(),
    ];
    for code in &codes {
        let w = code.enc_words;
        let first = (w * 64 - code.parity_bits) / 4;
        assert!(code.lane_bytes > 0 && code.lane_bytes.is_multiple_of(8));
        assert_eq!(code.lane_table.len(), (w * 16 - first) * 16 * w);
        for (i, rows) in (first..w * 16).zip(code.lane_table.chunks_exact(16 * w)) {
            for v in 0..16 {
                let mut reg = vec![0u64; w];
                reg[i / 16] = (v as u64) << (4 * (i % 16));
                // A bit below the alignment shift is never set in a
                // remainder, and its row drops it.
                reg[0] &= !0u64 << (w * 64 - code.parity_bits);
                for _ in 0..code.lane_bytes {
                    byte_step(&mut reg, &code.enc_table, 0);
                }
                assert_eq!(&rows[v * w..][..w], &reg[..], "nibble {i} value {v:#x}");
            }
        }
        assert_eq!(code.lane_crc, crate::crc::x_pow(8 * code.lane_bytes));
    }
    // Below two words of payload there is no lane and no table.
    let short = BchCode::new(8, 2, 15).unwrap();
    assert_eq!((short.lane_bytes, short.lane_table.len()), (0, 0));
}

/// The page codec's division: 2 048 data bytes in two chains, then the
/// CRC fed into the register byte by byte, is one chain over data ‖ CRC,
/// and the CRC it returns is the page's.
#[test]
fn page_division_is_one_chain_over_data_and_crc() {
    for t in [1usize, 8, 12] {
        let code = BchCode::new(15, t, PAGE_DATA_BYTES + CRC_BYTES).unwrap();
        assert_eq!(code.lane_bytes, 1024);
        for seed in 0..4 {
            let page = seeded_page(seed);
            let (reg, crc) = code.with_remainder::<true, _>(&page, |reg, crc| {
                code.feed(reg, &crc.to_be_bytes());
                (reg.to_vec(), crc)
            });
            assert_eq!(crc, crc32(&page));
            let mut one = vec![0u64; code.enc_words];
            lfsr::<false>(
                &mut one,
                &code.enc_table,
                &[&page[..], &crc.to_be_bytes()].concat(),
            );
            assert_eq!(reg, one, "t={t} seed {seed}");
        }
    }
}
