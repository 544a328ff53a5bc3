//! Ablation: controller policy — lifetime under Programmable, EccOnly,
//! DensityOnly, and fixed BCH-1 controllers.

use disk_trace::WorkloadSpec;
use flashcache_bench::RunArgs;
use flashcache_core::ControllerPolicy;
use flashcache_sim::experiments::lifetime::{lifetime_accesses, LifetimeParams};

fn main() {
    let args = RunArgs::parse(1024);
    let params = LifetimeParams {
        scale: 1, // workload pre-scaled below
        acceleration: 2e5,
        budget: 60_000_000 / args.scale.max(1),
        seed: args.seed,
    };
    args.announce(
        "Ablation: controller policy",
        "accesses to total failure per policy (alpha2)",
    );
    let workload = WorkloadSpec::alpha2().scaled(args.scale);
    println!("{:<16}{:>16}{:>10}", "policy", "accesses", "vs BCH-1");
    let (bch1, _) = lifetime_accesses(
        &workload,
        ControllerPolicy::FixedEcc { strength: 1 },
        &params,
    );
    for (name, policy) in [
        ("BCH-1 fixed", ControllerPolicy::FixedEcc { strength: 1 }),
        ("ECC only", ControllerPolicy::EccOnly),
        ("density only", ControllerPolicy::DensityOnly),
        ("programmable", ControllerPolicy::Programmable),
    ] {
        let (life, truncated) = lifetime_accesses(&workload, policy, &params);
        println!(
            "{:<16}{:>16}{:>9.1}x{}",
            name,
            life,
            life as f64 / bch1.max(1) as f64,
            if truncated { " (budget hit)" } else { "" }
        );
    }
}
