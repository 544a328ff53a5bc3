//! `sysbench`: one end-to-end and per-layer benchmark for the whole
//! request path (trace -> PDC -> engine -> flash cache -> NAND/ECC ->
//! disk). See `README.md` beside this package for the workloads, the
//! metrics and how they map onto each other.

mod calib;
mod metrics;
mod probes;
mod replay;
mod session;
mod single;
mod spans;
mod traced;
mod verified;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

const USAGE: &str = "\
usage:
  sysbench --workload NAME [--seed N] [--seconds N] [--trace 0|1] [--smoke] [--out DIR]
      one run of one workload; the last line printed is the result object
  sysbench run [--seed N] [--workloads a,b,...] [--smoke] [--out DIR]
      every workload, 7 repetitions round-robin, then one traced run each
  sysbench aa  [--seed N] [--workloads a,b,...] [--smoke] [--out DIR]
      `run` twice; fails if the two sessions disagree beyond the bounds
workloads: zipf_read oltp_write dram_fit shards4 channels8 verified_rw";

enum Command {
    Single(single::Args),
    Run(session::Args),
    Aa(session::Args),
}

fn number<T: FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} needs a whole number, got `{value}`"))
}

fn known_workload(name: &str) -> Result<String, String> {
    if workloads::NAMES.contains(&name) {
        Ok(name.to_string())
    } else {
        Err(format!("unknown workload `{name}`"))
    }
}

/// Strict: an unknown flag, an unknown workload or a malformed number
/// is an error, never ignored.
fn parse(args: &[String]) -> Result<Command, String> {
    let session = matches!(args.first().map(String::as_str), Some("run" | "aa"));
    let mut workload = None;
    let mut selected: Vec<String> = workloads::NAMES.iter().map(|s| s.to_string()).collect();
    let mut seed = workloads::DEFAULT_SEED;
    let mut seconds = 12;
    let mut trace = false;
    let mut smoke = false;
    let mut out = single::default_out_dir();

    let mut it = args.iter().skip(usize::from(session));
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match (flag.as_str(), session) {
            ("--seed", _) => seed = number(flag, value()?)?,
            ("--smoke", _) => smoke = true,
            ("--out", _) => out = PathBuf::from(value()?),
            ("--workload", false) => workload = Some(known_workload(value()?)?),
            ("--seconds", false) => seconds = number(flag, value()?)?,
            ("--trace", false) => {
                trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace needs 0 or 1, got `{other}`")),
                }
            }
            ("--workloads", true) => {
                selected = value()?
                    .split(',')
                    .map(known_workload)
                    .collect::<Result<_, _>>()?;
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if session {
        let a = session::Args {
            seed,
            workloads: selected,
            smoke,
            out,
        };
        return Ok(if args[0] == "run" {
            Command::Run(a)
        } else {
            Command::Aa(a)
        });
    }
    Ok(Command::Single(single::Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        smoke,
        out,
    }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse(&args) {
        Ok(c) => c,
        Err(message) => {
            eprintln!("sysbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match command {
        Command::Single(a) => {
            let workload = workloads::by_name(&a.workload, a.smoke).expect("name was checked");
            if single::run(&workload, &a) {
                Ok(())
            } else {
                Err("an output check failed".to_string())
            }
        }
        Command::Run(a) => session::run(&a),
        Command::Aa(a) => session::aa(&a),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("sysbench: {message}");
            ExitCode::FAILURE
        }
    }
}
