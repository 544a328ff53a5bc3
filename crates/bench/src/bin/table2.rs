//! Table 2: performance and power of DRAM, SLC/MLC NAND and HDD.

#![forbid(unsafe_code)]

use flashcache_bench::RunArgs;
use nand_flash::{FlashPower, FlashTiming};
use storage_model::{DramModel, HddModel};

fn main() {
    let args = RunArgs::parse(1);
    args.announce("Table 2", "device performance and power constants");
    let dram = DramModel::default();
    type T = FlashTiming;
    type P = FlashPower;
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
        format!("{:.0}mW", P::ACTIVE_MW),
        format!("{:.0}uW", P::IDLE_UW_PER_GBIT),
        format!("{:.0}us", T::SLC_READ_US),
        format!("{:.0}us", T::SLC_PROGRAM_US),
        format!("{:.1}ms", T::SLC_ERASE_US / 1000.0)
    );
    println!(
        "{:<16}{:>14}{:>14}{:>14}{:>14}{:>14}",
        "4Gb NAND-MLC",
        "N/A",
        "N/A",
        format!("{:.0}us", T::MLC_READ_US),
        format!("{:.0}us", T::MLC_PROGRAM_US),
        format!("{:.1}ms", T::MLC_ERASE_US / 1000.0)
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
