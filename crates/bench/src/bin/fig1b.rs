//! Figure 1(b): normalized garbage-collection overhead vs occupied
//! flash space.

#![forbid(unsafe_code)]

use flashcache_bench::{fmt_mb, Exhibit, RunArgs};
use flashcache_sim::experiments::gc_overhead::gc_overhead_curve;

fn main() {
    let args = RunArgs::parse(16); // paper: 2GB flash
    let flash_bytes = (2048u64 << 20) / args.scale;
    args.announce(
        "Figure 1(b)",
        "GC overhead vs occupied flash space (normalized to 10%)",
    );
    println!("flash: {}\n", fmt_mb(flash_bytes));
    let occupancies = [0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90, 0.95];
    let writes = (flash_bytes / 2048).clamp(50_000, 2_000_000);
    let mut exhibit = Exhibit::new(
        "fig1b_gc_overhead",
        &["used_pct", "gc_overhead_pct", "normalized_to_10pct"],
    );
    for p in gc_overhead_curve(flash_bytes, &occupancies, writes, args.seed) {
        exhibit.row([
            format!("{:.0}", p.occupancy * 100.0),
            format!("{:.2}", p.gc_overhead * 100.0),
            format!("{:.2}", p.normalized),
        ]);
    }
    args.emit(&exhibit);
}
