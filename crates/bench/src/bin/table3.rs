//! Table 3: the simulator configuration parameters.

use flash_ecc::EccLatencyModel;
use flashcache_bench::RunArgs;
use flashcache_sim::ServerConfig;
use nand_flash::FlashTiming;
use storage_model::{DramModel, HddModel};

fn main() {
    let args = RunArgs::parse(1);
    args.announce("Table 3", "configuration parameters");
    let server = ServerConfig::default();
    let dram = DramModel::default();
    let t = FlashTiming::default();
    let ecc = EccLatencyModel::default();
    let hdd = HddModel::travelstar();
    println!(
        "processor:        {} cores, in-order (modelled via bottleneck analysis)",
        server.cores
    );
    println!(
        "DRAM:             128MB..512MB, tRC = {:.0}ns",
        dram.access_latency_ns
    );
    println!(
        "NAND flash:       256MB..2GB; read {:.0}us(SLC)/{:.0}us(MLC); write {:.0}us/{:.0}us; erase {:.1}ms/{:.1}ms",
        t.slc_read_us, t.mlc_read_us,
        t.slc_program_us, t.mlc_program_us,
        t.slc_erase_us / 1000.0, t.mlc_erase_us / 1000.0,
    );
    println!(
        "BCH code latency: {:.0}us (t=3) .. {:.0}us (t=26)",
        ecc.decode_us(3),
        ecc.decode_us(26)
    );
    println!(
        "IDE disk:         average access latency {:.1}ms",
        hdd.avg_access_latency_us / 1000.0
    );
}
