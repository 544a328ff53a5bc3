//! Figure 6(b): maximum tolerable write/erase cycles versus ECC code
//! strength, for spatial oxide-thickness variation of 0/5/10/20%.

#![forbid(unsafe_code)]

use flashcache_bench::{parallel::par_map, Exhibit, RunArgs};
use flashcache_sim::experiments::curves::lifetime_point;

fn main() {
    let args = RunArgs::parse(1);
    args.announce(
        "Figure 6(b)",
        "max tolerable W/E cycles vs correctable errors",
    );
    let mut exhibit = Exhibit::new(
        "fig6b_lifetime_vs_strength",
        &["t", "stdev_0", "stdev_5pct", "stdev_10pct", "stdev_20pct"],
    );
    let points = par_map((0..=10).collect(), args.threads, lifetime_point);
    for p in points {
        exhibit.row([
            format!("{}", p.t),
            format!("{:.3e}", p.cycles_by_stdev[0]),
            format!("{:.3e}", p.cycles_by_stdev[1]),
            format!("{:.3e}", p.cycles_by_stdev[2]),
            format!("{:.3e}", p.cycles_by_stdev[3]),
        ]);
    }
    args.emit(&exhibit);
}
