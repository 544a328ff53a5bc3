//! Direct probes of the layers the replay only reaches through the
//! cache: the device model (`FlashDevice::{read_page, program_page,
//! erase_block}` on the closed-form and on the event-driven 8-channel
//! backend) and the page codec (`PageCodec::{encode_into, decode}`).
//! A probe's cost per operation, multiplied by the run's own operation
//! counts, estimates what the layer cost inside the run.

use std::hint::black_box;
use std::time::Instant;

use flash_ecc::page::{PageCodec, PAGE_DATA_BYTES, PAGE_SPARE_BYTES};
use nand_flash::{
    BlockId, CellMode, ChannelConfig, FlashConfig, FlashDevice, PageAddr, TimingBackend,
};

use crate::metrics::Values;

const DEVICE_CYCLES: u32 = 4;
const READS_PER_SLOT: u32 = 4;
const CODEC_ROUNDS: usize = 64;

/// Host nanoseconds per device operation, by kind, and in total.
struct DeviceCost {
    read_ns: f64,
    program_ns: f64,
    erase_ns: f64,
    total_s: f64,
    ops: u64,
}

fn probe_device(config: FlashConfig) -> DeviceCost {
    let mut device = FlashDevice::new(config);
    let blocks = device.geometry().blocks;
    let slots = device.geometry().slots_per_block();
    let (mut read_s, mut program_s, mut erase_s) = (0.0, 0.0, 0.0);
    let (mut reads, mut programs, mut erases) = (0u64, 0u64, 0u64);
    for _ in 0..DEVICE_CYCLES {
        for block in (0..blocks).map(BlockId) {
            let t = Instant::now();
            for slot in 0..slots {
                black_box(device.program_page(PageAddr::new(block, slot), CellMode::Mlc, None))
                    .expect("programming an erased slot succeeds");
            }
            program_s += t.elapsed().as_secs_f64();
            programs += u64::from(slots);

            let t = Instant::now();
            for _ in 0..READS_PER_SLOT {
                for slot in 0..slots {
                    black_box(device.read_page(PageAddr::new(block, slot)))
                        .expect("reading a programmed slot succeeds");
                }
            }
            read_s += t.elapsed().as_secs_f64();
            reads += u64::from(slots * READS_PER_SLOT);

            let t = Instant::now();
            black_box(device.erase_block(block)).expect("erasing a block succeeds");
            erase_s += t.elapsed().as_secs_f64();
            erases += 1;
        }
    }
    DeviceCost {
        read_ns: read_s * 1e9 / reads as f64,
        program_ns: program_s * 1e9 / programs as f64,
        erase_ns: erase_s * 1e9 / erases as f64,
        total_s: read_s + program_s + erase_s,
        ops: reads + programs + erases,
    }
}

/// Flips `errors` distinct, deterministic bits of `data`.
fn flip(data: &mut [u8], errors: usize) {
    for i in 0..errors {
        let bit = (i * 1301 + 7) % (data.len() * 8);
        data[bit / 8] ^= 1 << (bit % 8);
    }
}

/// (encode ns, clean-decode ns, decode ns with `t` bit errors).
fn probe_codec(t: usize) -> (f64, f64, f64) {
    let codec = PageCodec::new(t).expect("strength within 1..=12");
    let mut data: Vec<u8> = (0..PAGE_DATA_BYTES).map(|i| (i * 131 + t) as u8).collect();
    let mut spare = vec![0u8; PAGE_SPARE_BYTES];

    let clock = Instant::now();
    for _ in 0..CODEC_ROUNDS {
        codec.encode_into(black_box(&data), &mut spare);
    }
    let encode_ns = clock.elapsed().as_secs_f64() * 1e9 / CODEC_ROUNDS as f64;

    let clock = Instant::now();
    for _ in 0..CODEC_ROUNDS {
        black_box(codec.decode(&mut data, &spare)).expect("a clean page decodes");
    }
    let clean_ns = clock.elapsed().as_secs_f64() * 1e9 / CODEC_ROUNDS as f64;

    let mut err_s = 0.0;
    for _ in 0..CODEC_ROUNDS {
        flip(&mut data, t);
        let clock = Instant::now();
        // Decoding corrects in place, so the page is clean again.
        black_box(codec.decode(&mut data, &spare)).expect("t errors are correctable");
        err_s += clock.elapsed().as_secs_f64();
    }
    (encode_ns, clean_ns, err_s * 1e9 / CODEC_ROUNDS as f64)
}

/// `reads`, `programs`, `erases` are the run's own device counts.
pub fn run(reads: u64, programs: u64, erases: u64) -> Values {
    let closed = probe_device(FlashConfig::default());
    let channel = ChannelConfig::builder()
        .channels(8)
        .planes(2)
        .queue_depth(8)
        .build()
        .expect("probe channel configuration is valid");
    let event = probe_device(FlashConfig {
        timing_backend: TimingBackend::EventDriven,
        channel,
        ..FlashConfig::default()
    });
    let (encode_t1, _, _) = probe_codec(1);
    let (encode_t8, clean_t8, err_t8) = probe_codec(8);
    let (encode_t12, _, err_t12) = probe_codec(12);
    vec![
        ("nand.read_ns", closed.read_ns),
        ("nand.program_ns", closed.program_ns),
        ("nand.erase_ns", closed.erase_ns),
        (
            "nand.est_busy_s",
            (reads as f64 * closed.read_ns
                + programs as f64 * closed.program_ns
                + erases as f64 * closed.erase_ns)
                / 1e9,
        ),
        ("sched.op_ns", event.total_s * 1e9 / event.ops as f64),
        ("sched.overhead_ratio", event.total_s / closed.total_s),
        ("ecc.encode_ns_t1", encode_t1),
        ("ecc.encode_ns_t8", encode_t8),
        ("ecc.encode_ns_t12", encode_t12),
        ("ecc.decode_clean_ns_t8", clean_t8),
        ("ecc.decode_err_ns_t8", err_t8),
        ("ecc.decode_err_ns_t12", err_t12),
    ]
}
