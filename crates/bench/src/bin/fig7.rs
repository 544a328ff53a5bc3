//! Figure 7: optimal access latency and SLC/MLC partition for various
//! multimode MLC flash sizes (die areas).

#![forbid(unsafe_code)]

use disk_trace::WorkloadSpec;
use flashcache_bench::{Exhibit, RunArgs};
use flashcache_sim::experiments::density_partition::{density_partition_curve, MLC_BYTES_PER_MM2};

fn main() {
    let args = RunArgs::parse(1);
    args.announce("Figure 7", "optimal SLC/MLC partition vs flash die area");
    // (a) Financial2, working set 443.8MB; (b) WebSearch1, 5116.7MB.
    for (which, workload) in [
        ("fig7a_financial2", WorkloadSpec::financial2()),
        ("fig7b_websearch1", WorkloadSpec::websearch1()),
    ] {
        let scaled = if args.scale > 1 {
            workload.clone().scaled(args.scale)
        } else {
            workload.clone()
        };
        let wss_mm2 = scaled.footprint_bytes() as f64 / MLC_BYTES_PER_MM2;
        println!(
            "-- {}: working set {:.1}MB ({:.0}mm^2 of MLC)",
            scaled.name,
            scaled.footprint_bytes() as f64 / (1 << 20) as f64,
            wss_mm2
        );
        let steps = 10;
        let areas: Vec<f64> = (1..=steps)
            .map(|i| wss_mm2 * i as f64 / steps as f64)
            .collect();
        let mut exhibit = Exhibit::new(which, &["area_mm2", "latency_us", "optimal_slc_pct"]);
        for p in density_partition_curve(&scaled, &areas) {
            exhibit.row([
                format!("{:.1}", p.die_area_mm2),
                format!("{:.1}", p.latency_us),
                format!("{:.0}", p.optimal_slc_fraction * 100.0),
            ]);
        }
        args.emit(&exhibit);
    }
}
