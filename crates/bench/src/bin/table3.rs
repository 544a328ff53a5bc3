//! Table 3: the simulator configuration parameters.

#![forbid(unsafe_code)]

use flash_ecc::EccLatencyModel;
use flashcache_bench::RunArgs;
use flashcache_sim::server::CORES;
use nand_flash::FlashTiming;
use storage_model::{DramModel, HddModel};

fn main() {
    let args = RunArgs::parse(1);
    args.announce("Table 3", "configuration parameters");
    type T = FlashTiming;
    let hdd = HddModel::travelstar();
    println!("processor:        {CORES} cores, in-order (modelled via bottleneck analysis)");
    println!(
        "DRAM:             128MB..512MB, tRC = {:.0}ns",
        DramModel::ACCESS_LATENCY_NS
    );
    println!(
        "NAND flash:       256MB..2GB; read {:.0}us(SLC)/{:.0}us(MLC); write {:.0}us/{:.0}us; erase {:.1}ms/{:.1}ms",
        T::SLC_READ_US, T::MLC_READ_US,
        T::SLC_PROGRAM_US, T::MLC_PROGRAM_US,
        T::SLC_ERASE_US / 1000.0, T::MLC_ERASE_US / 1000.0,
    );
    println!(
        "BCH code latency: {:.0}us (t=3) .. {:.0}us (t=26)",
        EccLatencyModel::decode_us(3),
        EccLatencyModel::decode_us(26)
    );
    println!(
        "IDE disk:         average access latency {:.1}ms",
        hdd.avg_access_latency_us / 1000.0
    );
}
