//! A session: every workload, repeated, in one command (`run`), and the
//! same twice over with the two compared (`aa`).
//!
//! Host noise on a small sandbox drifts in phases of several seconds,
//! so a workload's samples are spread over the whole session: the
//! repetitions are scheduled round-robin across workloads (repetition 1
//! of all six, then repetition 2, ...). Each (workload, repetition) is
//! a fresh child process of this binary, so peak memory and allocator
//! state are per repetition. One more child per workload runs traced.

use std::path::{Path, PathBuf};
use std::process::Command;

use flash_obs::json::parse;
use flash_obs::JsonValue;

use crate::metrics::{summarize, Better, END_TO_END, PER_LAYER};
use crate::workloads;

const REPS: usize = 7;
const REP_SECONDS: u64 = 2;

#[derive(Debug, Clone)]
pub struct Args {
    pub seed: u64,
    pub workloads: Vec<String>,
    pub smoke: bool,
    pub out: PathBuf,
}

/// One workload's results: samples of every end-to-end metric over the
/// repetitions, and the traced run's per-layer values.
struct WorkloadResult {
    name: String,
    fingerprint: String,
    end_to_end: Vec<Vec<f64>>,
    per_layer: Vec<f64>,
}

struct SessionResult {
    workloads: Vec<WorkloadResult>,
    attempted: u64,
    failed: u64,
}

/// FNV-1a of the configuration's debug rendering.
fn fingerprint(text: &str) -> String {
    let hash = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{hash:016x}")
}

fn tool_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Runs one child and returns its result object.
fn child(a: &Args, workload: &str, seconds: u64, trace: bool) -> Result<JsonValue, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&a.out);
    if a.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end.
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result = parse(last).map_err(|e| {
        format!(
            "{workload} printed no result ({e}); exit {:?}\n{stdout}{}",
            output.status.code(),
            String::from_utf8_lossy(&output.stderr)
        )
    })?;
    if !output.status.success() || result.get("correct") != Some(&JsonValue::Bool(true)) {
        return Err(format!("{workload} failed its output checks:\n{stdout}"));
    }
    Ok(result)
}

fn metric(result: &JsonValue, name: &str) -> Result<f64, String> {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("result lacks metric {name}"))
}

fn count(result: &JsonValue, key: &str) -> u64 {
    result.get(key).and_then(JsonValue::as_u64).unwrap_or(0)
}

fn session(a: &Args) -> Result<SessionResult, String> {
    let (reps, seconds) = if a.smoke { (1, 0) } else { (REPS, REP_SECONDS) };
    let mut results: Vec<WorkloadResult> = a
        .workloads
        .iter()
        .map(|name| {
            let workload = workloads::by_name(name, a.smoke).expect("names were checked");
            WorkloadResult {
                name: name.clone(),
                fingerprint: fingerprint(&workload.config_debug()),
                end_to_end: vec![Vec::new(); END_TO_END.len()],
                per_layer: Vec::new(),
            }
        })
        .collect();
    let (mut attempted, mut failed) = (0, 0);
    for rep in 0..reps {
        for w in &mut results {
            eprintln!("repetition {}/{reps}: {}", rep + 1, w.name);
            let result = child(a, &w.name, seconds, false)?;
            attempted += count(&result, "attempted");
            failed += count(&result, "failed");
            for (m, samples) in END_TO_END.iter().zip(&mut w.end_to_end) {
                let value = metric(&result, m.name)?;
                if m.simulated
                    && samples
                        .first()
                        .is_some_and(|f: &f64| f.to_bits() != value.to_bits())
                {
                    return Err(format!(
                        "{}: simulated metric {} changed between repetitions: {} then {value}",
                        w.name, m.name, samples[0]
                    ));
                }
                samples.push(value);
            }
        }
    }
    for w in &mut results {
        eprintln!("traced run: {}", w.name);
        let result = child(a, &w.name, seconds, true)?;
        w.per_layer = PER_LAYER
            .iter()
            .map(|m| metric(&result, m.name))
            .collect::<Result<_, _>>()?;
    }
    Ok(SessionResult {
        workloads: results,
        attempted,
        failed,
    })
}

fn print(s: &SessionResult) {
    for w in &s.workloads {
        println!("\n== {} (config {}) ==", w.name, w.fingerprint);
        println!("  {}", workloads::why(&w.name));
        println!(
            "  {:<30} {:>16} {:>16} {:>16} {:>16}  unit, direction, bound",
            "end-to-end", "median", "min", "q1", "q3"
        );
        for (m, samples) in END_TO_END.iter().zip(&w.end_to_end) {
            let q = summarize(samples);
            println!(
                "  {:<30} {:>16.6} {:>16.6} {:>16.6} {:>16.6}  {}, {} is better, {}%",
                m.name,
                q.median,
                q.min,
                q.q1,
                q.q3,
                m.unit,
                m.better.as_str(),
                m.bound * 100.0
            );
        }
        println!("  per-layer (traced run)");
        for (m, value) in PER_LAYER.iter().zip(&w.per_layer) {
            println!(
                "  {:<30} {value:>16.6}  {}, {} is better",
                m.name,
                m.unit,
                m.better.as_str()
            );
        }
    }
    println!(
        "\nops_failed_frac = {} failed / {} attempted",
        s.failed, s.attempted
    );
}

fn to_json(a: &Args, s: &SessionResult) -> JsonValue {
    let number = JsonValue::Number;
    let text = |s: &str| JsonValue::String(s.to_string());
    let workloads = s
        .workloads
        .iter()
        .map(|w| {
            let end_to_end = END_TO_END
                .iter()
                .zip(&w.end_to_end)
                .map(|(m, samples)| {
                    let q = summarize(samples);
                    let entry = JsonValue::Object(vec![
                        ("unit".into(), text(m.unit)),
                        ("better".into(), text(m.better.as_str())),
                        ("bound".into(), number(m.bound)),
                        ("median".into(), number(q.median)),
                        ("min".into(), number(q.min)),
                        ("q1".into(), number(q.q1)),
                        ("q3".into(), number(q.q3)),
                        (
                            "samples".into(),
                            JsonValue::Array(samples.iter().copied().map(number).collect()),
                        ),
                    ]);
                    (m.name.to_string(), entry)
                })
                .collect();
            let per_layer = PER_LAYER
                .iter()
                .zip(&w.per_layer)
                .map(|(m, &value)| {
                    let entry = JsonValue::Object(vec![
                        ("value".into(), number(value)),
                        ("unit".into(), text(m.unit)),
                    ]);
                    (m.name.to_string(), entry)
                })
                .collect();
            JsonValue::Object(vec![
                ("name".into(), text(&w.name)),
                ("config_fingerprint".into(), text(&w.fingerprint)),
                ("end_to_end".into(), JsonValue::Object(end_to_end)),
                ("per_layer".into(), JsonValue::Object(per_layer)),
            ])
        })
        .collect();
    JsonValue::Object(vec![
        (
            "host_cpus".into(),
            JsonValue::UInt(workloads::host_cpus() as u64),
        ),
        (
            "shard_workers".into(),
            JsonValue::UInt(workloads::shard_workers() as u64),
        ),
        (
            "git_rev".into(),
            text(&tool_output("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc".into(), text(&tool_output("rustc", &["--version"]))),
        ("seed".into(), JsonValue::UInt(a.seed)),
        ("smoke".into(), JsonValue::Bool(a.smoke)),
        ("ops_attempted".into(), JsonValue::UInt(s.attempted)),
        ("ops_failed".into(), JsonValue::UInt(s.failed)),
        ("workloads".into(), JsonValue::Array(workloads)),
    ])
}

fn run_and_record(a: &Args, file: &str) -> Result<SessionResult, String> {
    let s = session(a)?;
    print(&s);
    let path: &Path = &a.out.join(file);
    std::fs::create_dir_all(&a.out)
        .and_then(|()| std::fs::write(path, to_json(a, &s).render() + "\n"))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("results written to {}", path.display());
    if s.failed > 0 {
        return Err(format!("{} of {} operations failed", s.failed, s.attempted));
    }
    Ok(s)
}

/// `run`: one session.
pub fn run(a: &Args) -> Result<(), String> {
    run_and_record(a, "results.json").map(|_| ())
}

/// `aa`: two sessions of the same code, compared by the benchmark's own
/// rule. Simulated metrics must not differ at all; a host-time median
/// may differ by no more than the metric's bound.
pub fn aa(a: &Args) -> Result<(), String> {
    let first = run_and_record(a, "results-a.json")?;
    let second = run_and_record(a, "results-b.json")?;
    let mut violations = Vec::new();
    println!("\n== A/A: second session against the first ==");
    for (wa, wb) in first.workloads.iter().zip(&second.workloads) {
        println!("{}", wa.name);
        for ((m, sa), sb) in END_TO_END.iter().zip(&wa.end_to_end).zip(&wb.end_to_end) {
            let (ma, mb) = (summarize(sa).median, summarize(sb).median);
            let diff = (mb - ma) / ma;
            let worse = match m.better {
                Better::Higher => -diff,
                Better::Lower => diff,
            };
            println!(
                "  {:<30} {ma:>16.6} {mb:>16.6} {:>+9.3}%",
                m.name,
                diff * 100.0
            );
            let broken = if m.simulated {
                ma.to_bits() != mb.to_bits()
            } else {
                // Set-up lasts milliseconds; the issue allows it 0.05 s.
                let floor = if m.name == "setup_s" { 0.05 / ma } else { 0.0 };
                worse.abs() > m.bound.max(floor)
            };
            if broken {
                violations.push(format!("{} {}: {ma} then {mb}", wa.name, m.name));
            }
        }
        for ((m, &va), &vb) in PER_LAYER.iter().zip(&wa.per_layer).zip(&wb.per_layer) {
            if m.simulated && va.to_bits() != vb.to_bits() {
                violations.push(format!("{} {}: {va} then {vb}", wa.name, m.name));
            }
        }
    }
    if violations.is_empty() {
        println!("A/A passed: simulated metrics identical, host-time medians within their bounds");
        Ok(())
    } else {
        Err(format!("A/A failed:\n  {}", violations.join("\n  ")))
    }
}
