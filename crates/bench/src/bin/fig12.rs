//! Figure 12: normalized lifetime — programmable flash memory controller
//! vs a fixed BCH-1 controller, per workload.

#![forbid(unsafe_code)]

use flashcache_bench::{parallel::par_map, Exhibit, RunArgs};
use flashcache_core::{ControllerPolicy, FlashCacheConfig};
use flashcache_sim::experiments::driver::{cache_config_for_bytes, half_working_set_bytes};
use flashcache_sim::experiments::lifetime::{
    fig12_workloads, lifetime_accesses, LifetimeParams, LifetimeRow,
};

fn main() {
    let args = RunArgs::parse(256);
    let params = LifetimeParams {
        seed: args.seed,
        ..LifetimeParams::default()
    };
    args.announce(
        "Figure 12",
        "accesses to total flash failure: programmable vs BCH-1",
    );
    // Fan the workloads across worker threads; every run is an
    // independent simulation, and rows come back in input order.
    let rows: Vec<LifetimeRow> = par_map(fig12_workloads(), args.threads, |w| {
        let workload = w.clone().scaled(args.scale);
        let run = |controller| {
            let config = FlashCacheConfig {
                controller,
                ..cache_config_for_bytes(half_working_set_bytes(&workload))
            };
            let (accesses, cache) = lifetime_accesses(config, &workload, &params);
            (accesses, !cache.is_dead())
        };
        let (programmable_accesses, trunc_a) = run(ControllerPolicy::Programmable);
        let (bch1_accesses, trunc_b) = run(ControllerPolicy::FixedEcc { strength: 1 });
        LifetimeRow {
            workload: w.name,
            programmable_accesses,
            bch1_accesses,
            truncated: trunc_a || trunc_b,
        }
    });
    let max_life = rows
        .iter()
        .map(|r| r.programmable_accesses)
        .max()
        .unwrap_or(1) as f64;
    let mut exhibit = Exhibit::new(
        "fig12_lifetime",
        &[
            "workload",
            "programmable",
            "bch1",
            "norm_programmable",
            "norm_bch1",
            "gain",
        ],
    );
    let mut gains = Vec::new();
    for r in &rows {
        exhibit.row([
            format!("{}{}", r.workload, if r.truncated { "*" } else { "" }),
            format!("{}", r.programmable_accesses),
            format!("{}", r.bch1_accesses),
            format!("{:.4}", r.programmable_accesses as f64 / max_life),
            format!("{:.5}", r.bch1_accesses as f64 / max_life),
            format!("{:.1}x", r.improvement()),
        ]);
        if !r.truncated {
            gains.push(r.improvement());
        }
    }
    args.emit(&exhibit);
    if !gains.is_empty() {
        let geo = gains.iter().map(|g| g.ln()).sum::<f64>() / gains.len() as f64;
        println!(
            "average lifetime extension (geometric mean): {:.1}x (paper: ~20x)",
            geo.exp()
        );
    }
    if rows.iter().any(|r| r.truncated) {
        println!("(* = access budget hit before total failure)");
    }
}
