//! Figure 12: normalized lifetime — programmable flash memory controller
//! vs a fixed BCH-1 controller, per workload.

use flashcache_bench::{parallel::par_map, Exhibit, RunArgs};
use flashcache_core::ControllerPolicy;
use flashcache_sim::experiments::lifetime::{
    fig12_workloads, lifetime_accesses, LifetimeParams, LifetimeRow,
};

fn main() {
    let args = RunArgs::parse(256);
    let params = LifetimeParams {
        scale: args.scale,
        seed: args.seed,
        ..LifetimeParams::default()
    };
    args.announce(
        "Figure 12",
        "accesses to total flash failure: programmable vs BCH-1",
    );
    // Fan each (workload, controller) run — two per workload — across
    // worker threads; every run is an independent simulation. Results
    // come back in input order, so rows reassemble pairwise exactly as a
    // serial loop would build them.
    let workloads = fig12_workloads();
    let runs: Vec<_> = workloads
        .iter()
        .flat_map(|w| {
            let scaled = w.clone().scaled(params.scale);
            [
                (scaled.clone(), ControllerPolicy::Programmable),
                (scaled, ControllerPolicy::FixedEcc { strength: 1 }),
            ]
        })
        .collect();
    let results = par_map(runs, args.threads, |(workload, controller)| {
        lifetime_accesses(&workload, controller, &params)
    });
    let rows: Vec<LifetimeRow> = workloads
        .iter()
        .zip(results.chunks_exact(2))
        .map(|(w, pair)| {
            let (programmable, trunc_a) = pair[0];
            let (bch1, trunc_b) = pair[1];
            LifetimeRow {
                workload: w.name.clone(),
                programmable_accesses: programmable,
                bch1_accesses: bch1,
                truncated: trunc_a || trunc_b,
            }
        })
        .collect();
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
