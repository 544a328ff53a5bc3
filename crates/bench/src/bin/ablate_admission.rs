//! Ablation: admission control and longevity placement on top of the
//! split cache — unified, split (the baseline), split + re-reference
//! admission, split + admission + longevity bucketing — reporting flash
//! bytes programmed, wear, read miss rate and the projected lifetime
//! relative to split (∝ 1 / mean block erases).

use disk_trace::WorkloadSpec;
use flashcache_bench::{Exhibit, RunArgs};
use flashcache_sim::experiments::admission::{run_ablation, AblationParams};

fn main() {
    let args = RunArgs::parse(16);
    args.announce(
        "Ablation: admission + longevity",
        "flash writes, wear and read miss per variant (alpha1)",
    );
    let measured_accesses = 3_200_000 / args.scale;
    let params = AblationParams {
        workload: WorkloadSpec::alpha1().scaled(args.scale),
        warmup_accesses: measured_accesses / 2,
        measured_accesses,
        seed: args.seed,
        ..AblationParams::default()
    };
    let rows = run_ablation(&params);
    let split = &rows[1];
    let mut exhibit = Exhibit::new(
        "ablate_admission",
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
            (row.rejected_fills + row.rejected_writes).to_string(),
            row.gc_moved_pages.to_string(),
            format!("{:.2}x", row.lifetime_vs(split)),
        ]);
    }
    args.emit(&exhibit);
    args.finish();
}
