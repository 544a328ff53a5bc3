//! Tiny JSON validator for CI: parses each file argument with the
//! `flash-obs` parser and exits non-zero on the first failure.
//!
//! ```text
//! cargo run -p flash-obs --bin validate_json -- snapshot.json [...]
//! ```

#![forbid(unsafe_code)]

use std::process::ExitCode;

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: validate_json <file.json>...");
        return ExitCode::from(2);
    }
    for path in &paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match flash_obs::json::parse(&text) {
            Ok(doc) => {
                let metrics = doc
                    .get("metrics")
                    .and_then(|m| m.as_object())
                    .map(|p| p.len())
                    .unwrap_or(0);
                println!("{path}: valid JSON ({metrics} metrics)");
            }
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
