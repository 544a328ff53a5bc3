//! A web server's storage stack: compare a DRAM-only disk cache with a
//! smaller DRAM + flash secondary cache on a SPECWeb99-like workload —
//! the scenario that motivates the paper (Figures 2 and 9).
//!
//! ```sh
//! cargo run --release -p flashcache --example web_server_cache
//! ```

use flashcache::core::FlashCacheConfig;
use flashcache::nand::{FlashConfig, FlashGeometry};
use flashcache::sim::server::run_server;
use flashcache::{HierarchyConfig, WorkloadSpec};

fn main() {
    // Scale the 1.8GB SPECWeb image down 32x so the example runs in
    // seconds; the comparison is shape-preserving.
    let workload = WorkloadSpec::specweb99().scaled(32);
    let warmup = 60_000;
    let requests = 40_000;

    println!(
        "workload: {} ({}MB working set)\n",
        workload.name,
        workload.footprint_bytes() >> 20
    );

    let baseline = run_server(
        HierarchyConfig {
            dram_bytes: 16 << 20, // 16MB DRAM page cache
            flash: None,
            ..HierarchyConfig::default()
        },
        &workload,
        warmup,
        requests,
        42,
    );
    let flash_cfg = FlashCacheConfig::builder()
        .flash(FlashConfig {
            geometry: FlashGeometry::for_mlc_capacity(64 << 20),
            ..FlashConfig::default()
        })
        .build()
        .expect("web-server flash config is valid");
    let with_flash = run_server(
        HierarchyConfig {
            dram_bytes: 4 << 20, // 4MB DRAM + 64MB flash
            flash: Some(flash_cfg),
            ..HierarchyConfig::default()
        },
        &workload,
        warmup,
        requests,
        42,
    );

    for (label, r) in [
        ("DRAM-only (16MB)", &baseline),
        ("DRAM 4MB + flash 64MB", &with_flash),
    ] {
        let (dram, disk_w, flash_w) = r.power_inputs.power_at(r.elapsed_s);
        println!("{label}:");
        println!(
            "  network bandwidth : {:>8.2} MB/s ({:?}-bound)",
            r.network_mbps, r.bottleneck
        );
        println!(
            "  disk busy         : {:>8.2} s",
            r.power_inputs.disk_busy_s
        );
        println!(
            "  memory+disk power : {:>8.2} W (mem idle {:.3} W, flash {:.3} W)",
            dram.total_w() + disk_w + flash_w,
            dram.idle_w,
            flash_w
        );
        println!(
            "  disk read share   : {:>7.1} %\n",
            r.disk_read_fraction * 100.0
        );
    }
    println!(
        "bandwidth gain: {:.2}x | disk work saved: {:.1}%",
        with_flash.network_mbps / baseline.network_mbps,
        100.0 * (1.0 - with_flash.power_inputs.disk_busy_s / baseline.power_inputs.disk_busy_s)
    );
}
