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

/// The controller-policy ablation (DESIGN.md §5): accesses to total
/// failure on alpha2 at 1/1024 scale under each controller, at the
/// default seed and acceleration, pinned to the last access. Both axes
/// contribute and they compose.
#[test]
fn lifetime_controller_ablation_is_pinned() {
    let (ok, stdout, stderr) = run(&[
        "lifetime",
        "--workload",
        "alpha2",
        "--scale",
        "1024",
        "--admission",
        "all",
        "--budget",
        "58593",
    ]);
    assert!(ok, "stderr: {stderr}");
    let accesses: Vec<(&str, u64)> = stdout
        .lines()
        .skip_while(|l| !l.starts_with("controller"))
        .skip(1)
        .map(|l| {
            let mut cells = l.split_whitespace();
            let name = cells.next().unwrap();
            (name, cells.next().unwrap().parse().unwrap())
        })
        .collect();
    assert_eq!(
        accesses,
        [
            ("bch1", 2_322),
            ("ecc-only", 7_942),
            ("density-only", 12_443),
            ("programmable", 44_608),
        ],
        "{stdout}"
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
    let (ok4, _, stderr4) = run(&["simulate", "--shards", "0", "--requests", "2000"]);
    assert!(!ok4, "zero shards must not run as one shard");
    assert!(
        stderr4.contains("shard count must be >= 1, got 0"),
        "{stderr4}"
    );
    // An option the command does not read is refused, not ignored.
    let exe = env!("CARGO_BIN_EXE_flashcache");
    for (args, message) in [
        (
            &["simulate", "--controller", "bch1"][..],
            "simulate does not take --controller",
        ),
        (&["sweep", "--spc", "t.spc"], "sweep does not take --spc"),
        (
            &["export", "--shards", "4"],
            "export does not take --shards",
        ),
        (
            &["lifetime", "--requests", "9"],
            "lifetime does not take --requests",
        ),
        (&["simulate", "--paper"], "unknown option --paper"),
        (
            &["simulate", "--trace-events", "8"],
            "unknown option --trace-events",
        ),
    ] {
        let out = Command::new(exe).args(args).output().expect("spawn CLI");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} must not run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(stderr.contains("USAGE"), "{args:?}: {stderr}");
    }
}

#[test]
fn simulate_json_metrics_is_deterministic_and_parses() {
    let dir = std::env::temp_dir().join("flashcache_cli_metrics_test");
    std::fs::create_dir_all(&dir).unwrap();
    let snapshot = |name: &str| {
        let path = dir.join(name);
        let (ok, _, stderr) = run(&[
            "simulate",
            "--workload",
            "dbt2",
            "--scale",
            "512",
            "--requests",
            "5000",
            "--dram-mb",
            "1",
            "--flash-mb",
            "4",
            "--shards",
            "2",
            "--json-metrics",
            path.to_str().unwrap(),
        ]);
        assert!(ok, "stderr: {stderr}");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        text
    };
    let first = snapshot("a.json");
    assert_eq!(first, snapshot("b.json"), "same run, same bytes");
    let doc = flashcache::obs::json::parse(&first).expect("valid JSON");
    let metrics = doc.get("metrics").unwrap();
    let count = |name: &str| metrics.get(name).and_then(|v| v.as_u64()).unwrap();
    assert_eq!(count("hierarchy.requests"), 5000);
    assert_eq!(
        count("flash.reads"),
        count("flash.shard.0.reads") + count("flash.shard.1.reads")
    );
    assert!(doc.get("events").is_none());
}

#[test]
fn retired_scheduler_flag_is_rejected_with_usage() {
    let exe = env!("CARGO_BIN_EXE_flashcache");
    for (flag, value) in [("--sched-backend", "heap"), ("--writeback-us", "500")] {
        let out = Command::new(exe)
            .args(["simulate", flag, value])
            .output()
            .expect("spawn CLI");
        assert_eq!(out.status.code(), Some(2));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown option {flag}")),
            "{stderr}"
        );
        assert!(stderr.contains("USAGE"), "{stderr}");
    }
}

#[test]
fn retired_admission_preset_and_flag_are_refused() {
    let (ok, _, stderr) = run(&["simulate", "--admission", "writecap", "--requests", "2000"]);
    assert!(!ok, "a retired preset must not run as the default");
    assert!(
        stderr.contains("--admission must be all or reref, got writecap"),
        "{stderr}"
    );
    let (ok, _, stderr) = run(&["simulate", "--longevity-buckets", "4", "--requests", "2000"]);
    assert!(!ok);
    assert!(
        stderr.contains("unknown option --longevity-buckets"),
        "{stderr}"
    );
    assert!(stderr.contains("USAGE"), "{stderr}");
}

/// Pages per simulated second from `simulate`'s device-time line.
fn device_pages_per_sim_second(extra: &[&str]) -> f64 {
    let mut args = vec![
        "simulate",
        "--workload",
        "alpha1",
        "--scale",
        "64",
        "--requests",
        "20000",
        "--dram-mb",
        "1",
        "--flash-mb",
        "8",
    ];
    args.extend_from_slice(extra);
    let (ok, stdout, stderr) = run(&args);
    assert!(ok, "stderr: {stderr}");
    let line = stdout
        .lines()
        .find(|l| l.starts_with("flash device time :"))
        .unwrap_or_else(|| panic!("no device-time line in:\n{stdout}"));
    assert!(line.contains("makespan") && line.contains("queue wait mean"));
    let (figure, _) = line
        .split(" | ")
        .find_map(|part| part.split_once(" pages per sim-second"))
        .unwrap_or_else(|| panic!("no pages-per-sim-second figure in: {line}"));
    figure.parse().expect("a number")
}

#[test]
fn simulate_reports_device_time_and_channels_raise_it() {
    let one = device_pages_per_sim_second(&[]);
    let eight = device_pages_per_sim_second(&["--channels", "8", "--planes", "2"]);
    assert!(one > 0.0);
    assert!(
        eight > one,
        "8 channels x 2 planes: {eight} pages per sim-second must exceed one channel's {one}"
    );
}
