//! Ablation: admission control on top of the split cache — unified,
//! split (the paper's design and the baseline), split + the default
//! frequency admission — on alpha1 and on dbt2, reporting flash bytes
//! programmed, wear, read miss rate and the projected lifetime relative
//! to split (∝ 1 / mean block erases).

#![forbid(unsafe_code)]

use disk_trace::WorkloadSpec;
use flashcache_bench::{Exhibit, RunArgs};
use flashcache_sim::experiments::admission::{run_ablation, AblationParams};

fn main() {
    let args = RunArgs::parse(16);
    args.announce(
        "Ablation: admission",
        "flash writes, wear and read miss per variant (alpha1, dbt2)",
    );
    let measured_accesses = 3_200_000 / args.scale;
    for (name, workload) in [
        ("ablate_admission", WorkloadSpec::alpha1()),
        ("ablate_admission_dbt2", WorkloadSpec::dbt2()),
    ] {
        let params = AblationParams {
            workload: workload.scaled(args.scale),
            warmup_accesses: measured_accesses / 2,
            measured_accesses,
            seed: args.seed,
        };
        println!("workload: {}", params.workload.name);
        let rows = run_ablation(&params);
        let split = &rows[1];
        let mut exhibit = Exhibit::new(
            name,
            &[
                "variant",
                "read_miss",
                "flash_mb_written",
                "erases",
                "mean_wear",
                "rejected",
                "gc_moved",
                "lifetime_vs_split",
            ],
        );
        for row in &rows {
            exhibit.row([
                row.variant.clone(),
                format!("{:.4}", row.read_miss_rate),
                format!("{:.1}", row.flash_bytes_written as f64 / 1e6),
                row.erases.to_string(),
                format!("{:.2}", row.mean_block_erases),
                row.rejected_fills.to_string(),
                row.gc_moved_pages.to_string(),
                format!("{:.2}x", row.lifetime_vs(split)),
            ]);
        }
        args.emit(&exhibit);
    }
}
