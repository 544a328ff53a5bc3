//! `cargo bench` entry that regenerates every paper exhibit at a quick
//! scale by running the sibling binaries through cargo. For full-scale
//! runs invoke a binary directly with `--paper`, e.g.
//! `cargo run --release -p flashcache-bench --bin fig4 -- --paper`.
//! The controller-policy ablation is a CLI command, not a binary here:
//! `flashcache lifetime --workload alpha2 --scale 1024 --admission all
//! --budget 58593`.

use std::process::Command;

fn main() {
    let exhibits = [
        "table1",
        "table2",
        "table3",
        "fig1b",
        "fig4",
        "fig6a",
        "fig6b",
        "fig7",
        "fig9",
        "fig10",
        "fig11",
        "fig12",
        "ablate_split",
        "ablate_wear",
        "ablate_admission",
    ];
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    for name in exhibits {
        println!("\n################ {name} ################");
        let status = Command::new(&cargo)
            .args([
                "run",
                "--release",
                "-q",
                "-p",
                "flashcache-bench",
                "--bin",
                name,
            ])
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {name}: {e}"));
        assert!(status.success(), "{name} exited with {status}");
    }
}
