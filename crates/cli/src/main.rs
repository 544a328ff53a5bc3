//! `flashcache` — command-line front end for the NAND flash disk cache
//! reproduction (ISCA 2008).
//!
//! ```text
//! flashcache simulate  --workload dbt2 --scale 64 --dram-mb 8 --flash-mb 32
//! flashcache simulate  --spc trace.spc --dram-mb 256 --flash-mb 1024
//! flashcache sweep     --workload specweb99 --scale 64 --sizes-mb 8,16,32
//! flashcache lifetime  --workload alpha2 --scale 1024 --acceleration 2e5
//! flashcache export    --workload financial1 --scale 256 --requests 10000 --out t.spc
//! ```

#![forbid(unsafe_code)]

mod args;
mod commands;

use args::Args;

fn main() {
    let parsed = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => usage_error(e),
    };
    if parsed.flag("help") || parsed.command.is_empty() || parsed.command == "help" {
        println!("{}", commands::USAGE);
        return;
    }
    let Some(&(name, run, accepted)) = commands::COMMANDS
        .iter()
        .find(|(name, ..)| *name == parsed.command)
    else {
        eprintln!(
            "error: unknown command `{}`\n\n{}",
            parsed.command,
            commands::USAGE
        );
        std::process::exit(1);
    };
    if let Some(key) = parsed
        .keys()
        .find(|k| !accepted.split_whitespace().any(|a| a == *k))
    {
        usage_error(format!("{name} does not take --{key}"));
    }
    if let Err(e) = run(&parsed) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

/// Prints `e` and the usage, and exits 2.
fn usage_error(e: impl std::fmt::Display) -> ! {
    eprintln!("error: {e}\n");
    eprintln!("{}", commands::USAGE);
    std::process::exit(2);
}
