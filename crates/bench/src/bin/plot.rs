//! Renders every `.dat` file in a directory (as produced by the exhibit
//! binaries' `--out`) into an SVG line chart next to it.
//!
//! ```sh
//! cargo run --release -p flashcache-bench --bin fig6b -- --out results
//! cargo run --release -p flashcache-bench --bin plot -- results
//! ```

#![forbid(unsafe_code)]

use flashcache_bench::svg::chart_from_dat;

fn main() {
    let dir = std::env::args().nth(1).unwrap_or_else(|| {
        eprintln!("usage: plot <directory-with-.dat-files>");
        std::process::exit(2);
    });
    let entries = match std::fs::read_dir(&dir) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: {dir}: {e}");
            std::process::exit(1);
        }
    };
    let mut rendered = 0;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("dat") {
            continue;
        }
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("exhibit")
            .to_string();
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("skipping {}: {e}", path.display());
                continue;
            }
        };
        // Lifetime-style series span decades: log-scale them.
        let log_y = name.contains("lifetime") || name.contains("fig6b");
        match chart_from_dat(&name, &text, log_y) {
            Some(chart) => {
                let out = path.with_extension("svg");
                if let Err(e) = std::fs::write(&out, chart.to_svg()) {
                    eprintln!("could not write {}: {e}", out.display());
                } else {
                    println!("rendered {}", out.display());
                    rendered += 1;
                }
            }
            None => eprintln!("skipping {name}: no numeric series"),
        }
    }
    if rendered == 0 {
        eprintln!("no .dat files rendered from {dir}");
        std::process::exit(1);
    }
}
