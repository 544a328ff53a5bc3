//! Figure 4: flash miss rate, unified vs split read/write disk cache,
//! executing a dbt2 (OLTP) trace.

#![forbid(unsafe_code)]

use flashcache_bench::{fmt_mb, Exhibit, RunArgs};
use flashcache_sim::experiments::split_miss::{split_miss_curve, SplitMissParams};

fn main() {
    let args = RunArgs::parse(8);
    let mut params = SplitMissParams::default().scaled(args.scale);
    params.seed = args.seed;
    args.announce(
        "Figure 4",
        "miss rate: unified vs split (90/10) flash disk cache, dbt2 trace",
    );
    println!(
        "workload: {} ({})\n",
        params.workload.name,
        fmt_mb(params.workload.footprint_bytes())
    );
    let mut exhibit = Exhibit::new(
        "fig4_split_miss",
        &[
            "flash_mb",
            "unified_read_miss_pct",
            "split_read_miss_pct",
            "unified_overall_pct",
            "split_overall_pct",
            "unified_gc_pct",
            "split_gc_pct",
        ],
    );
    for p in split_miss_curve(&params) {
        exhibit.row([
            format!("{}", p.flash_bytes >> 20),
            format!("{:.1}", p.unified_miss_rate * 100.0),
            format!("{:.1}", p.split_miss_rate * 100.0),
            format!("{:.1}", p.unified_overall_miss_rate * 100.0),
            format!("{:.1}", p.split_overall_miss_rate * 100.0),
            format!("{:.1}", p.unified_gc_overhead * 100.0),
            format!("{:.1}", p.split_gc_overhead * 100.0),
        ]);
    }
    args.emit(&exhibit);
}
