//! Figure 10: average throughput as a function of (uniform) BCH code
//! strength, SPECWeb99 and dbt2, 256MB DRAM + 1GB flash.

#![forbid(unsafe_code)]

use disk_trace::WorkloadSpec;
use flashcache_bench::{Exhibit, RunArgs};
use flashcache_sim::experiments::ecc_throughput::{ecc_throughput_curve, EccThroughputParams};

fn main() {
    let args = RunArgs::parse(16);
    args.announce("Figure 10", "relative bandwidth vs BCH strength");
    for (name, workload) in [
        ("fig10_specweb99", WorkloadSpec::specweb99()),
        ("fig10_dbt2", WorkloadSpec::dbt2()),
    ] {
        let mut params = EccThroughputParams::paper(workload).scaled(args.scale);
        params.seed = args.seed;
        println!("-- {}", params.workload.name);
        let mut exhibit = Exhibit::new(name, &["strength", "network_mbps", "relative_bandwidth"]);
        for p in ecc_throughput_curve(&params) {
            exhibit.row([
                format!("{}", p.strength),
                format!("{:.2}", p.network_mbps),
                format!("{:.3}", p.relative_bandwidth),
            ]);
        }
        args.emit(&exhibit);
    }
}
