//! Criterion micro-benchmarks of the real BCH/CRC implementation —
//! software counterparts of Figure 6(a)'s accelerator measurements.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flash_ecc::page::{PAGE_DATA_BYTES, PAGE_SPARE_BYTES};
use flash_ecc::{crc32, BchCode, PageCodec};

fn page_data() -> Vec<u8> {
    (0..2048usize).map(|i| (i * 131 % 251) as u8).collect()
}

fn bench_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("bch_encode_2kb");
    for t in [1usize, 4, 8, 12] {
        let code = BchCode::for_flash_page(t);
        let data = page_data();
        group.bench_with_input(BenchmarkId::from_parameter(t), &t, |b, _| {
            b.iter(|| code.encode(std::hint::black_box(&data)))
        });
    }
    group.finish();
}

fn bench_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("bch_decode_2kb");
    group.sample_size(20);
    for t in [1usize, 4, 8, 12] {
        let code = BchCode::for_flash_page(t);
        let data = page_data();
        let parity = code.encode(&data);
        // Inject t errors so the decoder does full correction work.
        let mut corrupted = data.clone();
        for e in 0..t {
            let bit = 1000 + e * 1201;
            corrupted[bit / 8] ^= 1 << (7 - bit % 8);
        }
        group.bench_with_input(BenchmarkId::from_parameter(t), &t, |b, _| {
            b.iter(|| {
                let mut work = corrupted.clone();
                code.decode(&mut work, std::hint::black_box(&parity))
                    .unwrap()
            })
        });
    }
    group.finish();
}

/// The traffic `verified_rw` carries: Poisson(0.5) raw errors per page
/// read at t = 8 is 61% clean, 30% one error, 8% two and 1.3% three or
/// more. Up to four errors the locator's roots are closed forms; the
/// Chien scan starts at five.
fn bench_decode_workload_mix(c: &mut Criterion) {
    let mut group = c.benchmark_group("bch_decode_2kb_t8");
    let code = BchCode::for_flash_page(8);
    let data = page_data();
    let parity = code.encode(&data);
    for (name, flips) in [
        ("clean", &[][..]),
        ("1_error", &[9_001][..]),
        ("2_errors", &[9_001, 14_777][..]),
        ("3_errors", &[9_001, 14_777, 3_210][..]),
        ("4_errors", &[9_001, 14_777, 3_210, 12][..]),
    ] {
        let mut received = data.clone();
        for &bit in flips {
            received[bit / 8] ^= 1 << (7 - bit % 8);
        }
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut work = received.clone();
                code.decode(&mut work, std::hint::black_box(&parity))
                    .unwrap()
            })
        });
    }
    group.finish();
}

/// The whole page through `PageCodec`: one pass computes the CRC32 and
/// the BCH remainder together, and a correction moves the CRC by the
/// flipped bits' differences instead of a second pass. `crc_bit` is a
/// flip in the stored CRC, which BCH corrects.
fn bench_page_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("page_codec_2kb_t8");
    let codec = PageCodec::new(8).unwrap();
    let data = page_data();
    let mut spare = vec![0u8; PAGE_SPARE_BYTES];
    group.bench_function("encode", |b| {
        b.iter(|| codec.encode_into(std::hint::black_box(&data), &mut spare))
    });
    let spare = codec.encode(&data);
    for (name, flips) in [
        ("clean", &[][..]),
        ("1_error", &[9_001][..]),
        ("3_errors", &[9_001, 14_777, 3_210][..]),
        ("crc_bit", &[PAGE_DATA_BYTES * 8 + 5][..]),
    ] {
        let (mut received, mut received_spare) = (data.clone(), spare.clone());
        for &bit in flips {
            match bit.checked_sub(PAGE_DATA_BYTES * 8) {
                None => received[bit / 8] ^= 1 << (7 - bit % 8),
                Some(s) => received_spare[s / 8] ^= 1 << (7 - s % 8),
            }
        }
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut work = received.clone();
                codec
                    .decode(&mut work, std::hint::black_box(&received_spare))
                    .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_crc(c: &mut Criterion) {
    let data = page_data();
    c.bench_function("crc32_2kb", |b| {
        b.iter(|| crc32(std::hint::black_box(&data)))
    });
}

fn bench_verified_roundtrip(c: &mut Criterion) {
    use nand_flash::verified::VerifiedFlash;
    use nand_flash::{BlockId, CellMode, FlashConfig, PageAddr};
    let mut flash = VerifiedFlash::new(FlashConfig::default());
    let data = page_data();
    let addr = PageAddr::new(BlockId(0), 0);
    c.bench_function("verified_flash_program_read_erase", |b| {
        b.iter(|| {
            flash.program(addr, CellMode::Slc, 4, &data).unwrap();
            let out = flash.read(addr).unwrap();
            flash.erase(BlockId(0)).unwrap();
            std::hint::black_box(out.corrected)
        })
    });
}

criterion_group!(
    benches,
    bench_encode,
    bench_decode,
    bench_decode_workload_mix,
    bench_page_codec,
    bench_crc,
    bench_verified_roundtrip
);
criterion_main!(benches);
