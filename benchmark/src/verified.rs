//! `verified_rw`: the real ECC data path with no cache in front of it.
//!
//! Per block: program every slot with a seeded payload through
//! `VerifiedFlash` (real BCH encode), read every slot back several
//! times in seeded order (wear-driven bit flips, real decode) comparing
//! the bytes with what was written, then erase. The phase timers cost
//! six clock reads per ~640 page operations, so the traced and the
//! untraced run are the same loop; tracing only keeps the spans.
//!
//! A read the decoder gives up on is retried, as a flash controller
//! retries a soft error: `VerifiedFlash` flips bits of the stored CRC
//! too, which BCH does not cover, so about one read in a thousand is
//! reported uncorrectable although the data could be recovered. The
//! attempts are counted (`ecc.uncorrectable`); the read fails only when
//! every attempt did.

use std::time::Instant;

use flash_obs::LatencyHistogram;
use nand_flash::{BlockId, CellMode, PageAddr, VerifiedError, VerifiedFlash};

use crate::metrics::Values;
use crate::spans::Spans;
use crate::workloads::Verified;

const PAGE_BYTES: usize = 2048;
/// Attempts per read. A weak page (first failing cell inside the CRC)
/// loses an attempt with probability P(Poisson(0.5) >= 1) = 0.39, so
/// all sixteen with 3e-7: no read fails in any run that will be made.
const READ_ATTEMPTS: u32 = 16;

/// A slice is one block cycle; every cycle does the same number of page
/// operations. `failed` counts reads that stayed uncorrectable or
/// returned wrong bytes, and operations the device refused.
pub type Rep = crate::metrics::Rep<Facts>;

/// Host seconds spent in the two phases of the cycles.
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    pub program_s: f64,
    pub read_s: f64,
}

/// Deterministic per (workload, seed); compared across repetitions.
#[derive(Debug, Clone, PartialEq)]
pub struct Facts {
    pub programs: u64,
    pub reads: u64,
    pub erases: u64,
    pub corrected_bits: u64,
    /// Read attempts the decoder gave up on (each was retried).
    pub uncorrectable: u64,
    /// Reads that exhausted their attempts.
    pub lost: u64,
    pub mismatched: u64,
    pub refused: u64,
}

/// SplitMix64: the payload and read-order RNG. The seed reaches
/// nothing else; the device keeps its own fixed seed.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

pub fn run_rep(v: &Verified, seed: u64, mut spans: Option<&mut Spans>) -> (Rep, Phases) {
    let t = Instant::now();
    let mut flash = VerifiedFlash::new(v.flash);
    let setup_s = t.elapsed().as_secs_f64();

    let blocks = flash.device().geometry().blocks;
    let slots = flash.device().geometry().slots_per_block();
    let mut rng = SplitMix(seed);
    let mut payloads = vec![[0u8; PAGE_BYTES]; slots as usize];
    let mut order: Vec<u32> = Vec::with_capacity((slots * v.reads_per_slot) as usize);
    let mut latency = LatencyHistogram::new();
    let mut facts = Facts {
        programs: 0,
        reads: 0,
        erases: 0,
        corrected_bits: 0,
        uncorrectable: 0,
        lost: 0,
        mismatched: 0,
        refused: 0,
    };
    let (mut program_s, mut read_s) = (0.0, 0.0);

    let mut slices = Vec::with_capacity(v.block_cycles as usize);
    for cycle in 0..v.block_cycles {
        let cycle_start = Instant::now();
        let block = BlockId(cycle % blocks);
        let chunk_id = u64::from(cycle);
        let chunk = open(&mut spans, "bench.chunk", None, chunk_id);

        let span = open(&mut spans, "verified.program", chunk, chunk_id);
        let t = Instant::now();
        for slot in 0..slots {
            let payload = &mut payloads[slot as usize];
            for word in payload.chunks_exact_mut(8) {
                word.copy_from_slice(&rng.next().to_le_bytes());
            }
            facts.programs += 1;
            match flash.program(
                PageAddr::new(block, slot),
                CellMode::Mlc,
                v.strength,
                payload,
            ) {
                Ok(out) => latency.record(out.latency_us),
                Err(_) => facts.refused += 1,
            }
        }
        program_s += t.elapsed().as_secs_f64();
        close(&mut spans, span);

        order.clear();
        for _ in 0..v.reads_per_slot {
            order.extend(0..slots);
        }
        for i in (1..order.len()).rev() {
            order.swap(i, (rng.next() % (i as u64 + 1)) as usize);
        }
        let span = open(&mut spans, "verified.read", chunk, chunk_id);
        let t = Instant::now();
        for &slot in &order {
            facts.reads += 1;
            let mut attempts = 0;
            loop {
                attempts += 1;
                match flash.read(PageAddr::new(block, slot)) {
                    Ok(read) => {
                        latency.record(read.latency_us);
                        facts.corrected_bits += read.corrected as u64;
                        if read.data != payloads[slot as usize] {
                            facts.mismatched += 1;
                        }
                    }
                    Err(VerifiedError::Uncorrectable { .. }) => {
                        facts.uncorrectable += 1;
                        if attempts < READ_ATTEMPTS {
                            continue;
                        }
                        facts.lost += 1;
                    }
                    Err(_) => facts.refused += 1,
                }
                break;
            }
        }
        read_s += t.elapsed().as_secs_f64();
        close(&mut spans, span);

        let span = open(&mut spans, "verified.erase", chunk, chunk_id);
        facts.erases += 1;
        if flash.erase(block).is_err() {
            facts.refused += 1;
        }
        close(&mut spans, span);
        close(&mut spans, chunk);
        slices.push(cycle_start.elapsed().as_secs_f64());
    }

    let page_ops = facts.programs + facts.reads;
    let device = flash.device();
    let sim = vec![
        ("sim_mean_latency_us", latency.mean_us()),
        ("sim_p99_latency_us", latency.percentile_us(0.99)),
        (
            "sim_programs_per_host_page",
            device.stats().programs as f64 / page_ops as f64,
        ),
        (
            "sim_device_pages_per_s",
            crate::replay::device_pages_per_s(page_ops, device.modeled_time_us()),
        ),
    ];
    let rep = Rep {
        setup_s,
        slices,
        work: page_ops,
        failed: facts.lost + facts.mismatched + facts.refused,
        sim,
        facts,
    };
    (rep, Phases { program_s, read_s })
}

fn open(
    spans: &mut Option<&mut Spans>,
    name: &'static str,
    parent: Option<usize>,
    chunk: u64,
) -> Option<usize> {
    spans.as_deref_mut().map(|s| s.open(name, parent, chunk))
}

fn close(spans: &mut Option<&mut Spans>, id: Option<usize>) {
    if let (Some(s), Some(id)) = (spans.as_deref_mut(), id) {
        s.close(id);
    }
}

/// Per-layer values of the traced run; every other per-layer metric is
/// zero on this workload.
pub fn layer_values(rep: &Rep, phases: Phases) -> Values {
    vec![
        ("verified.program_s", phases.program_s),
        ("verified.read_s", phases.read_s),
        ("ecc.corrected_bits", rep.facts.corrected_bits as f64),
        ("ecc.uncorrectable", rep.facts.uncorrectable as f64),
        // Every attempt is a device read; a lost read has no final one.
        (
            "nand.reads",
            (rep.facts.reads + rep.facts.uncorrectable - rep.facts.lost) as f64,
        ),
        ("nand.programs", rep.facts.programs as f64),
        ("nand.erases", rep.facts.erases as f64),
        ("core.failed_ops", rep.failed as f64),
    ]
}
