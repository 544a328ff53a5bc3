//! The exhibit binaries share `RunArgs::parse`: a mistyped flag must
//! stop the run, not silently fall back to the default experiment.

use std::process::Command;

#[test]
fn unknown_flag_on_a_figure_binary_exits_2_with_usage() {
    // `--json-metrics` is refused too: the binaries write no telemetry.
    for flag in ["--scael", "--json-metrics"] {
        let out = Command::new(env!("CARGO_BIN_EXE_fig6a"))
            .args([flag, "4"])
            .output()
            .expect("spawn fig6a");
        assert_eq!(out.status.code(), Some(2));
        assert!(
            out.stdout.is_empty(),
            "nothing may run before the rejection"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown argument `{flag}`")),
            "{stderr}"
        );
        assert!(stderr.contains("usage:"), "{stderr}");
    }
}
