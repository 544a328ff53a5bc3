//! Figure 6(a): BCH decode latency versus number of correctable errors
//! on the 100MHz accelerator model.

#![forbid(unsafe_code)]

use flashcache_bench::{parallel::par_map, Exhibit, RunArgs};
use flashcache_sim::experiments::curves::decode_latency_point;

fn main() {
    let args = RunArgs::parse(1);
    args.announce("Figure 6(a)", "BCH decode latency vs code strength");
    let mut exhibit = Exhibit::new(
        "fig6a_decode_latency",
        &["t", "syndrome_us", "chien_us", "total_us"],
    );
    let points = par_map((2..=11).collect(), args.threads, decode_latency_point);
    for p in points {
        exhibit.row([
            format!("{}", p.t),
            format!("{:.1}", p.syndrome_us),
            format!("{:.1}", p.chien_us),
            format!("{:.1}", p.total_us),
        ]);
    }
    args.emit(&exhibit);
}
