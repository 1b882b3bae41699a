//! `wrsn-perfbench`: the repository's end-to-end benchmark, with a
//! separate traced run for per-layer attribution.
//!
//! ```text
//! wrsn-perfbench --workload <solve-paper|serve-hot|serve-cold>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones, measured with no timers inside the
//! program's calls; with `--trace 1` they are the per-layer ones, timed
//! around calls into each layer's public functions from this crate.
//! The line before it (`{"context": …}`) carries run context that is not
//! a metric: the host-speed probe, sample counts, generator lateness and,
//! in a traced run, the end-to-end figures measured alongside the trace.
//! See `README.md` for the workloads, metrics and noise design.

mod layers;
mod serve;
mod solve;
mod speed;
mod stats;
mod wire;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Internal: a child process measuring one share of an untraced run.
    pub part: bool,
}

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that failed, were refused, or returned a wrong answer.
    pub failed: u64,
    /// The first few correctness mismatches, for the error report.
    pub mismatches: Vec<String>,
    /// End-to-end metrics (with `--trace 1`: those of the traced run).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (only with `--trace 1`).
    pub per_layer: Vec<Metric>,
    /// Run context: reported, never compared.
    pub context: Vec<Metric>,
}

impl Outcome {
    /// Records one failed or mismatched operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.mismatches.len() < 8 {
            self.mismatches.push(what);
        }
    }
}

const WORKLOADS: [&str; 3] = ["solve-paper", "serve-hot", "serve-cold"];

/// An untraced run measures in this many child processes of this binary,
/// one after another, each for an equal share of the time, and reports
/// the median of each metric across them. On the development host one
/// process's speed holds for its lifetime, but the next process can run
/// up to 40% faster or slower; with one process per run, the run-to-run
/// spread was mostly a draw of one process speed.
const PROCESSES: usize = 5;

/// Adds each `{name: {value, unit}}` entry of `metrics` to `into`.
fn collect(into: &mut Vec<(String, String, Vec<f64>)>, metrics: Option<&serde::Value>) {
    for (name, m) in metrics
        .and_then(serde::Value::as_object)
        .into_iter()
        .flatten()
    {
        let value = m
            .get("value")
            .and_then(serde::Value::as_f64)
            .unwrap_or(f64::NAN);
        match into.iter_mut().find(|(n, ..)| n == name) {
            Some((.., values)) => values.push(value),
            None => {
                let unit = m.get("unit").and_then(serde::Value::as_str).unwrap_or("");
                into.push((name.clone(), unit.to_string(), vec![value]));
            }
        }
    }
}

fn medians(collected: Vec<(String, String, Vec<f64>)>) -> Vec<Metric> {
    collected
        .into_iter()
        .map(|(name, unit, values)| Metric::new(name, stats::median(&values), &unit))
        .collect()
}

/// Runs the workload in `PROCESSES` child processes in turn and combines
/// them: counts add up, and every metric is the median across children.
fn in_children(args: &Args) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let share = args.seconds / PROCESSES as f64;
    let mut outcome = Outcome::default();
    let mut end_to_end = Vec::new();
    let mut context = Vec::new();
    for child in 0..PROCESSES {
        let output = std::process::Command::new(&exe)
            .args(["--workload", args.workload.as_str(), "--seed"])
            .arg(args.seed.to_string())
            .arg("--seconds")
            .arg(share.to_string())
            .args(["--trace", "0", "--part", "1"])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("child {child}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines = stdout.lines().rev();
        let result: serde::Value = lines
            .next()
            .and_then(|line| serde_json::from_str(line).ok())
            .ok_or_else(|| format!("child {child} printed no result ({})", output.status))?;
        let count = |key: &str| result.get(key).and_then(serde::Value::as_u64).unwrap_or(0);
        outcome.attempted += count("attempted");
        outcome.failed += count("failed");
        if result.get("correct").and_then(serde::Value::as_bool) != Some(true) {
            outcome.fail(format!("child {child} reported incorrect output"));
        }
        collect(&mut end_to_end, result.get("metrics"));
        let child_context: Option<serde::Value> = lines
            .next()
            .and_then(|line| serde_json::from_str(line).ok());
        collect(
            &mut context,
            child_context.as_ref().and_then(|c| c.get("context")),
        );
    }
    outcome.end_to_end = medians(end_to_end);
    outcome.context = medians(context);
    outcome
        .context
        .push(Metric::new("processes", PROCESSES as f64, "count"));
    Ok(outcome)
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut part = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value:?}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("{flag} {value:?}: {e}"))?,
                );
            }
            "--part" => part = value == "1",
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
        part,
    })
}

/// A fixed integer loop owned by the benchmark: its time tracks how fast
/// the host runs single-threaded code right now, so a reader can tell
/// machine drift from a regression. Run context, never a metric.
fn host_probe_ms() -> f64 {
    let start = std::time::Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    for _ in 0..20_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// The process's peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// This run's working directory for stores, inside the benchmark's own
/// directory; `main` removes it when the run ends.
fn work_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(".work")
        .join(std::process::id().to_string())
}

/// Creates this run's working directory, empty.
pub fn work_dir() -> Result<PathBuf, String> {
    let dir = work_path();
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn json_metrics(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // `{:?}` prints an f64 with every digit it carries.
        let value = if m.value.is_finite() {
            format!("{:?}", m.value)
        } else {
            "null".to_string()
        };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push('}');
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("wrsn-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !WORKLOADS.contains(&args.workload.as_str()) {
        eprintln!(
            "wrsn-perfbench: unknown workload {:?} ({})",
            args.workload,
            WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    }
    let probe_start = if args.part { f64::NAN } else { host_probe_ms() };
    let run = if !args.trace && !args.part {
        in_children(&args)
    } else {
        match args.workload.as_str() {
            "solve-paper" => solve::run(&args),
            "serve-hot" => serve::run(&args, serve::Mode::Hot),
            _ => serve::run(&args, serve::Mode::Cold),
        }
    };
    let work = work_path();
    let _ = std::fs::remove_dir_all(&work);
    // Also drops `.work` itself once no other run is using it.
    if let Some(parent) = work.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    let mut outcome = match run {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("wrsn-perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    if !args.part {
        outcome.context.extend([
            Metric::new("host_probe_ms_start", probe_start, "ms"),
            Metric::new("host_probe_ms_end", host_probe_ms(), "ms"),
            Metric::new(
                "nproc",
                std::thread::available_parallelism().map_or(1, usize::from) as f64,
                "count",
            ),
        ]);
    }
    for m in &outcome.mismatches {
        eprintln!("wrsn-perfbench: mismatch: {m}");
    }
    let mut context = outcome.context;
    let metrics = if args.trace {
        context.extend(outcome.end_to_end);
        outcome.per_layer
    } else {
        outcome.end_to_end
    };
    let unmeasured: Vec<&str> = metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name.as_str())
        .collect();
    if !unmeasured.is_empty() {
        eprintln!("wrsn-perfbench: no measurement for {unmeasured:?}");
    }
    let correct = outcome.failed == 0 && outcome.attempted > 0 && unmeasured.is_empty();
    println!("{{\"context\": {}}}", json_metrics(&context));
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        json_metrics(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// `seconds` as a `Duration`.
pub fn secs(seconds: f64) -> Duration {
    Duration::from_secs_f64(seconds)
}
