//! Differential tests for the optimized ECC kernels.
//!
//! The sliced table-driven encoder, the remainder-first syndromes, the
//! closed-form locator roots and the batched Chien search must be
//! bit-identical to the straightforward reference implementations
//! (`encode_bitserial`, `syndromes_reference`, `chien_search_reference`),
//! across the field sizes the crate ships codes for (m ∈ {8, 13, 15}),
//! the paper's strength range (t ∈ {1, 4, 12}) and the tiny (15, 11)
//! code; the sliced CRC32 must equal the bit-at-a-time recurrence, and
//! its bit-flip difference a recomputation. The one-pass page codec must
//! equal the same oracles composed by hand.

use proptest::prelude::*;

use flash_ecc::bch::{BchCode, DecodeError};
use flash_ecc::crc::{crc32, flip_difference, Crc32};
use flash_ecc::gf::GfField;
use flash_ecc::page::{
    PageCodec, PageDecodeError, PageDecodeOutcome, CRC_BYTES, PAGE_DATA_BYTES, PAGE_SPARE_BYTES,
};

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
    let sigma = code.berlekamp_massey(&syn);
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
        let sigma = code.berlekamp_massey(&syn);
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
        let sigma = code.berlekamp_massey(&syndromes(&code, &data, &parity));
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
        let sigma = code.berlekamp_massey(&syn);
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
