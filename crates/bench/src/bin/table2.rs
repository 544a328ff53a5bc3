//! Table 2: performance and power of DRAM, SLC/MLC NAND and HDD.

use flashcache_bench::RunArgs;
use nand_flash::{FlashPower, FlashTiming};
use storage_model::{DramModel, HddModel};

fn main() {
    let args = RunArgs::parse(1);
    args.announce("Table 2", "device performance and power constants");
    let dram = DramModel::default();
    let t = FlashTiming::default();
    let p = FlashPower::default();
    let hdd = HddModel::barracuda();
    println!(
        "{:<16}{:>14}{:>14}{:>14}{:>14}{:>14}",
        "device", "active", "idle", "read", "write", "erase"
    );
    println!(
        "{:<16}{:>14}{:>14}{:>14}{:>14}{:>14}",
        "1Gb DDR2 DRAM",
        format!("{:.0}mW", dram.active_mw_per_gbit),
        format!("{:.0}mW", dram.idle_mw_per_gbit),
        format!("{:.0}ns", dram.access_latency_ns + 5.0),
        format!("{:.0}ns", dram.access_latency_ns + 5.0),
        "N/A"
    );
    println!(
        "{:<16}{:>14}{:>14}{:>14}{:>14}{:>14}",
        "1Gb NAND-SLC",
        format!("{:.0}mW", p.active_mw),
        format!("{:.0}uW", p.idle_uw_per_gbit),
        format!("{:.0}us", t.slc_read_us),
        format!("{:.0}us", t.slc_program_us),
        format!("{:.1}ms", t.slc_erase_us / 1000.0)
    );
    println!(
        "{:<16}{:>14}{:>14}{:>14}{:>14}{:>14}",
        "4Gb NAND-MLC",
        "N/A",
        "N/A",
        format!("{:.0}us", t.mlc_read_us),
        format!("{:.0}us", t.mlc_program_us),
        format!("{:.1}ms", t.mlc_erase_us / 1000.0)
    );
    println!(
        "{:<16}{:>14}{:>14}{:>14}{:>14}{:>14}",
        "HDD (750GB)",
        format!("{:.1}W", hdd.active_w),
        format!("{:.1}W", hdd.idle_w),
        format!("{:.1}ms", hdd.avg_access_latency_us / 1000.0),
        format!("{:.1}ms", hdd.avg_access_latency_us / 1000.0 + 1.0),
        "N/A"
    );
}
