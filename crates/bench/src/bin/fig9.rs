//! Figure 9: system memory + disk power breakdown and network bandwidth
//! for DRAM-only vs DRAM+flash servers (dbt2 and SPECWeb99).

#![forbid(unsafe_code)]

use flashcache_bench::{Exhibit, RunArgs};
use flashcache_sim::experiments::power_bandwidth::{power_bandwidth, Fig9Params, Fig9Row};

fn push(exhibit: &mut Exhibit, r: &Fig9Row) {
    exhibit.row([
        r.label.replace(' ', "_"),
        format!("{:.3}", r.mem_read_w),
        format!("{:.3}", r.mem_write_w),
        format!("{:.3}", r.mem_idle_w),
        format!("{:.3}", r.flash_w),
        format!("{:.3}", r.disk_w),
        format!("{:.3}", r.total_power_w()),
        format!("{:.2}", r.normalized_bandwidth),
    ]);
}

fn main() {
    let args = RunArgs::parse(8);
    args.announce(
        "Figure 9",
        "power breakdown (W) and normalized network bandwidth",
    );
    for (name, mut params) in [
        ("fig9a_dbt2", Fig9Params::dbt2()),
        ("fig9b_specweb99", Fig9Params::specweb99()),
    ] {
        params = params.scaled(args.scale);
        params.seed = args.seed;
        println!("-- {name}");
        let (base, flash) = power_bandwidth(&params);
        let mut exhibit = Exhibit::new(
            name,
            &[
                "configuration",
                "mem_rd_w",
                "mem_wr_w",
                "mem_idle_w",
                "flash_w",
                "disk_w",
                "total_w",
                "norm_bandwidth",
            ],
        );
        push(&mut exhibit, &base);
        push(&mut exhibit, &flash);
        args.emit(&exhibit);
        println!(
            "power reduction: {:.2}x | flash hit fraction {:.2} | disk busy {:.1}s -> {:.1}s\n",
            base.total_power_w() / flash.total_power_w().max(1e-9),
            flash.report.flash_hit_fraction,
            base.report.power_inputs.disk_busy_s,
            flash.report.power_inputs.disk_busy_s,
        );
    }
}
