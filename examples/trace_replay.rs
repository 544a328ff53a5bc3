//! Trace round-trip: generate a synthetic workload, export it in the
//! UMass SPC format, read it back, and replay it — demonstrating that
//! the repository can consume the paper's original trace files when you
//! have them (§6.2).
//!
//! ```sh
//! cargo run --release -p flashcache --example trace_replay
//! # sharded replay: 4 concurrent flash shards, 256-request batches
//! cargo run --release -p flashcache --example trace_replay -- --shards 4 --batch 256
//! ```

use std::io::BufReader;

use flashcache::trace::spc::{write_spc, SpcReader};
use flashcache::{DiskRequest, Hierarchy, HierarchyConfig, WorkloadSpec};

fn parse_flag(name: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("flag value must be a number"))
        .unwrap_or(default)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let shards = parse_flag("--shards", 1);
    let batch = parse_flag("--batch", 1).max(1);

    // 1. Generate a Financial1-like OLTP burst.
    let workload = WorkloadSpec::financial1().scaled(512);
    let mut generator = workload.generator(2024);
    let requests: Vec<DiskRequest> = (0..20_000).map(|_| generator.next_request()).collect();
    println!(
        "generated {} requests of {} ({}MB footprint)",
        requests.len(),
        workload.name,
        workload.footprint_bytes() >> 20
    );

    // 2. Export as SPC text (what trace repositories distribute).
    let mut spc_bytes = Vec::new();
    write_spc(&mut spc_bytes, requests.iter().copied())?;
    println!(
        "exported {} bytes of SPC text; first line: {}",
        spc_bytes.len(),
        String::from_utf8_lossy(&spc_bytes[..spc_bytes.iter().position(|&b| b == b'\n').unwrap()])
    );

    // 3. Read it back and verify the round trip is lossless.
    let parsed: Result<Vec<DiskRequest>, _> = SpcReader::new(BufReader::new(&spc_bytes[..]))
        .map(|r| r.map(|rec| rec.to_request()))
        .collect();
    let parsed = parsed?;
    assert_eq!(parsed, requests, "SPC round trip must be lossless");
    println!("round trip verified: {} records identical", parsed.len());

    // 4. Replay the trace through the full hierarchy — streamed
    //    straight off the SPC reader in batches, so an arbitrarily
    //    long trace file never has to fit in memory. (For replay
    //    performance numbers see `benchmark/README.md`.)
    let mut hierarchy = Hierarchy::try_new(HierarchyConfig {
        dram_bytes: 1 << 20,
        flash_shards: shards,
        ..HierarchyConfig::default()
    })?;
    println!(
        "
replaying with {shards} flash shard(s), batches of {batch}"
    );
    let mut reader = SpcReader::new(BufReader::new(&spc_bytes[..]));
    let mut buf: Vec<DiskRequest> = Vec::with_capacity(batch);
    loop {
        buf.clear();
        for rec in reader.by_ref().take(batch) {
            buf.push(rec?.to_request());
        }
        if buf.is_empty() {
            break;
        }
        hierarchy.submit_batch(&buf);
    }
    hierarchy.drain();
    let report = hierarchy.report();
    println!(
        "\nreplay: {} requests, mean latency {:.1}us, p99 {:.1}us",
        report.requests,
        report.avg_latency_us(),
        report.latency.percentile_us(0.99)
    );
    println!(
        "served by DRAM {:.1}% | flash {:.1}% | disk {:.1}%",
        100.0 * report.dram_hit_pages as f64 / report.pages as f64,
        100.0 * report.flash_hit_pages as f64 / report.pages as f64,
        100.0 * report.disk_read_pages as f64 / report.pages as f64,
    );
    Ok(())
}
