//! One run of one workload: what the benchmark driver invokes, and what
//! a session runs as a fresh child process per (workload, repetition).
//!
//! Untraced (`--trace 0`): repetitions of a fixed amount of work until
//! `--seconds` have passed; host-time metrics are medians over the
//! repetitions, simulated metrics must be bit-identical across them.
//! Traced (`--trace 1`): the same repetitions for half the time (the
//! untraced baseline), then one traced pass and the layer probes.
//!
//! The last line of standard output is one JSON object with exactly the
//! keys `correct`, `attempted`, `failed` and `metrics`.

use std::fmt::Debug;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use flash_obs::JsonValue;

use crate::metrics::{self, value_of, Rep, Values, END_TO_END, PER_LAYER};
use crate::spans::Spans;
use crate::workloads::Workload;
use crate::{calib, probes, replay, traced, verified};

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub smoke: bool,
    pub out: PathBuf,
}

/// What one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// (name, value, unit) in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// One message per violated output check; empty when correct.
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                let entry = JsonValue::Object(vec![
                    ("value".into(), JsonValue::Number(value)),
                    ("unit".into(), JsonValue::String(unit.into())),
                ]);
                (name.to_string(), entry)
            })
            .collect();
        JsonValue::Object(vec![
            ("correct".into(), JsonValue::Bool(self.correct())),
            ("attempted".into(), JsonValue::UInt(self.attempted)),
            ("failed".into(), JsonValue::UInt(self.failed)),
            ("metrics".into(), JsonValue::Object(metrics)),
        ])
        .render()
    }
}

/// A repetition, bracketed by two host-speed measurements (`calib`).
struct Timed<F> {
    rep: Rep<F>,
    before: f64,
    after: f64,
}

/// How far the speed before and after a repetition may differ for the
/// repetition to count as steady; the sandbox's two speeds are 26% apart
/// and an undisturbed measurement repeats within 1%.
const STEADY_WITHIN: f64 = 0.03;

impl<F> Timed<F> {
    /// Host speed while the repetition ran.
    fn speed(&self) -> f64 {
        (self.before + self.after) / 2.0
    }

    /// The two measurements agree: the host did not change speed under
    /// the repetition, and neither measurement was disturbed.
    fn steady(&self) -> bool {
        (self.before - self.after).abs() <= STEADY_WITHIN * self.speed()
    }
}

/// Repeats `rep` until `budget` has passed (at least once).
fn repeat<F>(budget: Duration, mut rep: impl FnMut() -> Rep<F>) -> Vec<Timed<F>> {
    let started = Instant::now();
    let mut reps = Vec::new();
    let mut before = calib::host_speed();
    loop {
        let result = rep();
        let after = calib::host_speed();
        reps.push(Timed {
            rep: result,
            before,
            after,
        });
        before = after;
        if started.elapsed() >= budget {
            return reps;
        }
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok());
    kb.unwrap_or(0.0) / 1024.0
}

struct Folded {
    /// Host metrics and the repetitions' simulated metrics.
    values: Values,
    /// Median over the repetitions of the timed region, nominal host:
    /// what one more (traced) pass is compared with.
    median_wall_s: f64,
}

/// Folds the repetitions into the host metrics and the simulated
/// metrics, checking that the latter repeat exactly.
///
/// The simulator is deterministic and single-threaded, so slice `j`
/// costs the same in every repetition and everything that differs is
/// the host: interference only ever adds time. `host_pages_per_s` is
/// therefore taken over the lower envelope -- for each slice the
/// fastest steady repetition, on the nominal host -- which between
/// windows of seven repetitions moved 3 to 7% where the median of
/// repetition totals moved 17 to 45% (README, "Host noise").
fn fold<F: PartialEq + Debug>(reps: &[Timed<F>], out: &mut Outcome) -> Folded {
    let first = &reps[0].rep;
    for (i, rep) in reps.iter().map(|t| &t.rep).enumerate().skip(1) {
        let same_bits = rep
            .sim
            .iter()
            .zip(&first.sim)
            .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits());
        if !same_bits || rep.facts != first.facts {
            out.failures.push(format!(
                "repetition {i} is not bit-identical to repetition 0:\n  {:?} {:?}\n  {:?} {:?}",
                first.sim, first.facts, rep.sim, rep.facts
            ));
        }
    }
    out.attempted = reps.iter().map(|t| t.rep.work).sum();
    out.failed = reps.iter().map(|t| t.rep.failed).sum();

    let steady: Vec<&Timed<F>> = reps.iter().filter(|t| t.steady()).collect();
    let used: Vec<&Timed<F>> = if steady.is_empty() {
        reps.iter().collect()
    } else {
        steady
    };
    let floor_s: f64 = (0..first.slices.len())
        .map(|j| {
            used.iter()
                .map(|t| t.rep.slices[j] * t.speed())
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    let setups: Vec<f64> = reps.iter().map(|t| t.rep.setup_s * t.speed()).collect();
    let walls: Vec<f64> = reps
        .iter()
        .map(|t| t.rep.slices.iter().sum::<f64>() * t.speed())
        .collect();
    let mut values: Values = vec![
        ("host_pages_per_s", first.work as f64 / floor_s),
        ("setup_s", metrics::median(&setups)),
        ("peak_rss_mb", peak_rss_mb()),
    ];
    values.extend(first.sim.iter().copied());
    Folded {
        values,
        median_wall_s: metrics::median(&walls),
    }
}

fn verified_failures(f: &verified::Facts) -> Vec<String> {
    let mut failures = Vec::new();
    if f.mismatched > 0 {
        failures.push(format!(
            "{} reads returned bytes other than those written",
            f.mismatched
        ));
    }
    if f.refused > 0 {
        failures.push(format!("the device refused {} operations", f.refused));
    }
    failures
}

fn untraced(workload: &Workload, a: &Args) -> Outcome {
    let budget = Duration::from_secs(a.seconds);
    let mut out = Outcome::default();
    let values = match workload {
        Workload::Replay(w) => {
            let reps = repeat(budget, || replay::run_rep(w, a.seed));
            // Peak memory is read inside `fold`, before the shadow
            // replay allocates a second engine.
            let mut values = fold(&reps, &mut out).values;
            let shadow = replay::shadow_replay(w, a.seed);
            let first = &reps[0].rep;
            out.failures.extend(replay::check(
                w,
                &first.facts,
                &shadow.counts,
                &shadow.stats,
            ));
            values.push((
                "sim_device_pages_per_s",
                replay::device_pages_per_s(first.work, shadow.device_makespan_us),
            ));
            values
        }
        Workload::Verified(v) => {
            let reps = repeat(budget, || verified::run_rep(v, a.seed, None).0);
            out.failures.extend(verified_failures(&reps[0].rep.facts));
            fold(&reps, &mut out).values
        }
    };
    out.metrics = END_TO_END
        .iter()
        .map(|m| {
            let value = value_of(&values, m.name).expect("every end-to-end metric is measured");
            (m.name, value, m.unit)
        })
        .collect();
    out
}

fn spans_path(a: &Args) -> PathBuf {
    a.out.join(format!("spans-{}.json", a.workload))
}

fn traced(workload: &Workload, a: &Args) -> Outcome {
    // Half the time goes to the untraced baseline the overhead is
    // measured against.
    let budget = Duration::from_secs(a.seconds) / 2;
    let mut out = Outcome::default();
    let path = spans_path(a);
    let mut values = match workload {
        Workload::Replay(w) => {
            let reps = repeat(budget, || replay::run_rep(w, a.seed));
            let baseline = fold(&reps, &mut out);
            let run = traced::run(w, a.seed, baseline.median_wall_s, &path);
            out.failures.extend(run.failures);
            run.values
        }
        Workload::Verified(v) => {
            let reps = repeat(budget, || verified::run_rep(v, a.seed, None).0);
            let baseline = fold(&reps, &mut out);
            let mut spans = Spans::new();
            let before = calib::host_speed();
            let (rep, phases) = verified::run_rep(v, a.seed, Some(&mut spans));
            let speed = (before + calib::host_speed()) / 2.0;
            if let Err(e) = spans.write(&path) {
                out.failures
                    .push(format!("cannot write {}: {e}", path.display()));
            }
            if rep.facts != reps[0].rep.facts {
                out.failures
                    .push("the traced repetition diverged from the untraced ones".to_string());
            }
            out.failures.extend(verified_failures(&rep.facts));
            let mut values = verified::layer_values(&rep, phases);
            // No shadow here: the traced pass reconciles with the
            // untraced ones, counter for counter.
            values.push((
                "attr.stats_reconciled",
                f64::from(u8::from(out.failures.is_empty())),
            ));
            values.push((
                "attr.trace_overhead_frac",
                rep.slices.iter().sum::<f64>() * speed / baseline.median_wall_s - 1.0,
            ));
            values
        }
    };
    let count = |name| value_of(&values, name).unwrap_or(0.0) as u64;
    values.extend(probes::run(
        count("nand.reads"),
        count("nand.programs"),
        count("nand.erases"),
    ));
    // A layer the workload never enters reports zero.
    out.metrics = PER_LAYER
        .iter()
        .map(|m| (m.name, value_of(&values, m.name).unwrap_or(0.0), m.unit))
        .collect();
    out
}

/// Runs one workload and prints every metric by name, then the result
/// line. Returns whether every output check held.
pub fn run(workload: &Workload, a: &Args) -> bool {
    let out = if a.trace {
        traced(workload, a)
    } else {
        untraced(workload, a)
    };
    print(&out, a);
    out.correct()
}

fn print(out: &Outcome, a: &Args) {
    println!(
        "workload {} seed {} ({}), {} operations attempted, {} failed",
        a.workload,
        a.seed,
        if a.trace { "traced" } else { "untraced" },
        out.attempted,
        out.failed
    );
    for &(name, value, unit) in &out.metrics {
        let note = match END_TO_END.iter().find(|m| m.name == name) {
            Some(m) => format!(
                "{} is better, may worsen by {}%",
                m.better.as_str(),
                m.bound * 100.0
            ),
            None => String::new(),
        };
        println!("  {name:<32} {value:>18.6} {unit:<14} {note}");
    }
    if a.trace {
        println!("  spans written to {}", spans_path(a).display());
    }
    for failure in &out.failures {
        println!("CHECK FAILED: {failure}");
    }
    println!("{}", out.to_json());
}

pub fn default_out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}
