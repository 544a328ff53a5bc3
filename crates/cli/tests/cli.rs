//! End-to-end tests of the CLI binary: every subcommand runs, prints the
//! expected surfaces, and fails cleanly on bad input.

use std::process::Command;

fn run(args: &[&str]) -> (bool, String, String) {
    let exe = env!("CARGO_BIN_EXE_flashcache");
    let out = Command::new(exe).args(args).output().expect("spawn CLI");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn help_prints_usage() {
    let (ok, stdout, _) = run(&["help"]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
    assert!(stdout.contains("simulate"));
    let (ok2, stdout2, _) = run(&[]);
    assert!(ok2);
    assert!(stdout2.contains("USAGE"));
}

#[test]
fn simulate_synthetic_workload() {
    let (ok, stdout, stderr) = run(&[
        "simulate",
        "--workload",
        "exp2",
        "--scale",
        "512",
        "--requests",
        "5000",
        "--dram-mb",
        "1",
        "--flash-mb",
        "4",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("requests          : 5000"), "{stdout}");
    assert!(stdout.contains("served by"));
    assert!(stdout.contains("flash cache:"));
    assert!(stdout.contains("p99"));
}

#[test]
fn simulate_dram_only_baseline() {
    let (ok, stdout, _) = run(&[
        "simulate",
        "--workload",
        "alpha2",
        "--scale",
        "1024",
        "--requests",
        "2000",
        "--dram-mb",
        "1",
        "--flash-mb",
        "0",
    ]);
    assert!(ok);
    assert!(
        !stdout.contains("flash cache:"),
        "no flash section expected"
    );
}

#[test]
fn sweep_prints_each_size() {
    let (ok, stdout, stderr) = run(&[
        "sweep",
        "--workload",
        "dbt2",
        "--scale",
        "1024",
        "--requests",
        "8000",
        "--sizes-mb",
        "2,4",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("2MB"), "{stdout}");
    assert!(stdout.contains("4MB"));
    assert!(stdout.contains("unified miss"));
}

#[test]
fn lifetime_compares_policies() {
    let (ok, stdout, stderr) = run(&[
        "lifetime",
        "--workload",
        "alpha2",
        "--scale",
        "4096",
        "--acceleration",
        "1e6",
        "--budget",
        "3000000",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("bch1"));
    assert!(stdout.contains("programmable"));
    assert!(
        stdout.contains("x)"),
        "improvement factors printed: {stdout}"
    );
}

#[test]
fn export_then_simulate_roundtrip() {
    let dir = std::env::temp_dir().join("flashcache_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.spc");
    let path_str = path.to_str().unwrap();
    let (ok, _, stderr) = run(&[
        "export",
        "--workload",
        "financial2",
        "--scale",
        "1024",
        "--requests",
        "3000",
        "--out",
        path_str,
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stderr.contains("wrote 3000 records"));
    // The exported trace replays through simulate --spc.
    let (ok2, stdout, stderr2) = run(&[
        "simulate",
        "--spc",
        path_str,
        "--requests",
        "3000",
        "--dram-mb",
        "1",
        "--flash-mb",
        "4",
    ]);
    assert!(ok2, "stderr: {stderr2}");
    assert!(stdout.contains("replayed 3000 SPC records"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn bad_input_fails_with_nonzero_status() {
    let (ok, _, stderr) = run(&["simulate", "--workload", "nosuch"]);
    assert!(!ok);
    assert!(stderr.contains("unknown workload"));
    let (ok2, _, stderr2) = run(&["frobnicate"]);
    assert!(!ok2);
    assert!(stderr2.contains("unknown command"));
    let (ok3, _, stderr3) = run(&["simulate", "--dram-mb"]);
    assert!(!ok3);
    assert!(stderr3.contains("needs a value"));
}

#[test]
fn retired_scheduler_flag_is_rejected_with_usage() {
    let exe = env!("CARGO_BIN_EXE_flashcache");
    let out = Command::new(exe)
        .args(["simulate", "--sched-backend", "heap"])
        .output()
        .expect("spawn CLI");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown option --sched-backend"),
        "{stderr}"
    );
    assert!(stderr.contains("USAGE"), "{stderr}");
}
