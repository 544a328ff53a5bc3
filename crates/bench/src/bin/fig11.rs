//! Figure 11: breakdown of page reconfiguration (descriptor update)
//! events — ECC strength increases vs MLC→SLC density switches.

#![forbid(unsafe_code)]

use flashcache_bench::{Exhibit, RunArgs};
use flashcache_sim::experiments::reconfig_breakdown::{
    fig11_workloads, reconfig_breakdown, ReconfigParams,
};

fn main() {
    let args = RunArgs::parse(64);
    let params = ReconfigParams {
        scale: args.scale,
        seed: args.seed,
        ..ReconfigParams::default()
    };
    args.announce(
        "Figure 11",
        "descriptor updates: code strength vs density, per workload",
    );
    let mut exhibit = Exhibit::new(
        "fig11_reconfig_breakdown",
        &[
            "workload",
            "ecc_events",
            "density_events",
            "hot_promotions",
            "ecc_pct",
            "density_pct",
        ],
    );
    for row in reconfig_breakdown(&fig11_workloads(), &params) {
        exhibit.row([
            row.workload.clone(),
            format!("{}", row.ecc_events),
            format!("{}", row.density_events),
            format!("{}", row.hot_promotions),
            format!("{:.1}", row.ecc_pct()),
            format!("{:.1}", 100.0 - row.ecc_pct()),
        ]);
    }
    args.emit(&exhibit);
}
