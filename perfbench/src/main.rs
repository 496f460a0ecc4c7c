//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload repro|serve_point|serve_bulk_reload|all --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Every workload derives its inputs from
//! `--seed`, checks every output against an oracle computed before timing,
//! and prints one JSON object as its last stdout line: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`, as
//! `BENCHMARK.json` lists them (`perfbench/ledger.json` adds the
//! end-to-end metric each per-layer one should move). Measured runs
//! execute in re-exec'd child processes so each peak-RSS figure is that
//! run's own high-water mark. Scratch files live under `.perfbench_tmp/`
//! and are removed on exit.

mod probes;
mod repro;
mod serve;

use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Scale of the generated world every workload derives its inputs from:
/// the canonical reproduction scale.
pub const SCALE: f64 = 0.02;

/// Control-ensemble trials of the canonical reproduction.
pub const TRIALS: usize = 1000;

/// The world every workload starts from: `run_all`'s default seed, so
/// `repro` is the reproduction exactly as users run it, and its outputs
/// can be pinned in `pinned_hashes.json`. `--seed` varies what the
/// benchmark derives from this world (query streams, hit picks, churn),
/// not the world itself: different worlds differ in size, and that
/// spread would swamp the run-to-run spread the gate compares.
pub const SCENARIO_SEED: u64 = 20061001;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["repro", "serve_point", "serve_bulk_reload"];

/// Parsed command line (top-level runs and re-exec'd children alike).
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Set on re-exec'd children: which child role to play.
    pub child: Option<String>,
    /// Scratch directory handed to a child.
    pub dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        child: None,
        dir: None,
    };
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("missing value for {}", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| "--seconds takes a number")?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--child" => args.child = Some(value.clone()),
            "--dir" => args.dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?} or all (got {:?})",
            args.workload
        ));
    }
    Ok(args)
}

/// One workload run's verdict and figures.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Name → (value, unit).
    pub metrics: BTreeMap<String, (f64, String)>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .insert(name.to_string(), (value, unit.to_string()));
    }

    /// Copy every metric of `other` in, counts included.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.metrics.extend(other.metrics);
    }

    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    /// Children report in the same shape (the repro child adds fields).
    pub fn to_value(&self) -> Value {
        let mut metrics = serde_json::Map::new();
        for (name, (value, unit)) in &self.metrics {
            metrics.insert(
                name.clone(),
                serde_json::json!({ "value": *value, "unit": unit.as_str() }),
            );
        }
        serde_json::json!({
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Value::Object(metrics),
        })
    }

    pub fn to_json(&self) -> String {
        serde_json::to_string(&self.to_value()).expect("result serializes")
    }
}

/// `BENCHMARK.json` at the repository root: the one list of metric names,
/// units and directions.
const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

/// `perfbench/ledger.json`: what `BENCHMARK.json` cannot hold, keyed by
/// metric name (per per-layer metric: what it should move, on which
/// workloads, and how it is measured).
const LEDGER: &str = include_str!("../ledger.json");

fn parse_json(text: &str, file: &str) -> Result<Value, String> {
    serde_json::from_str(text).map_err(|e| format!("{file}: {e}"))
}

fn field(row: &Value, key: &str) -> String {
    row.get(key)
        .and_then(Value::as_str)
        .unwrap_or("")
        .to_string()
}

/// `BENCHMARK.json`'s metrics of one kind (`end_to_end` or `per_layer`):
/// name → unit. Fails when `ledger.json` describes a different set, so
/// the two files cannot drift apart.
fn declared(kind: &str) -> Result<BTreeMap<String, String>, String> {
    let rows = parse_json(BENCHMARK, "BENCHMARK.json")?
        .get(kind)
        .and_then(Value::as_array)
        .cloned()
        .ok_or_else(|| format!("BENCHMARK.json has no {kind} list"))?;
    let units: BTreeMap<String, String> = rows
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect();
    let ledger = parse_json(LEDGER, "ledger.json")?;
    let described = ledger
        .get(kind)
        .and_then(Value::as_object)
        .ok_or_else(|| format!("ledger.json has no {kind} map"))?;
    let described: std::collections::BTreeSet<&String> = described.keys().collect();
    if !described.iter().copied().eq(units.keys()) {
        return Err(format!(
            "ledger.json's {kind} metrics differ from BENCHMARK.json's"
        ));
    }
    Ok(units)
}

/// Per-layer metric → (end-to-end metrics it should move, on which
/// workloads), from `ledger.json`.
fn ledger_moves() -> BTreeMap<String, (String, String)> {
    parse_json(LEDGER, "ledger.json")
        .ok()
        .as_ref()
        .and_then(|ledger| ledger.get("per_layer"))
        .and_then(Value::as_object)
        .map(|rows| {
            rows.iter()
                .map(|(name, m)| (name.clone(), (field(m, "moves"), field(m, "on"))))
                .collect()
        })
        .unwrap_or_default()
}

/// Refuse to print a result whose metrics differ from `BENCHMARK.json`'s
/// list for this mode, so a run that forgets or invents a metric fails
/// loudly instead of printing a result the gate cannot compare.
fn check_declared(outcome: &Outcome, trace: bool) -> Result<(), String> {
    let want = declared(if trace { "per_layer" } else { "end_to_end" })?;
    for (name, unit) in &want {
        match outcome.metrics.get(name) {
            None => return Err(format!("metric {name} was not measured")),
            Some((v, u)) if u != unit || !v.is_finite() => {
                return Err(format!(
                    "metric {name} = {v} {u}, BENCHMARK.json says unit {unit}"
                ))
            }
            Some(_) => {}
        }
    }
    if let Some(extra) = outcome.metrics.keys().find(|k| !want.contains_key(*k)) {
        return Err(format!("metric {extra} is not in BENCHMARK.json"));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile of a non-empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// This process's peak RSS (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    unclean_bench::peak_rss_kb().unwrap_or(0) as f64 / 1024.0
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Re-exec this binary as a child in role `role`, wait for it, and parse
/// the JSON object on its last stdout line. The child's stdout (the
/// experiments' tables) is kept out of ours; of its stderr, the
/// `[perfbench]` lines are passed on, and the tail when it fails.
pub fn run_child(
    role: &str,
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    dir: &Path,
) -> Result<Value, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--child", role, "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.max(1.0).to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--dir")
        .arg(dir)
        .output()
        .map_err(|e| format!("spawn {role} child: {e}"))?;
    let stderr = String::from_utf8_lossy(&output.stderr);
    for line in stderr.lines().filter(|l| l.starts_with("[perfbench]")) {
        eprintln!("{line}");
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().rev().find(|l| l.starts_with('{'));
    match (output.status.success(), last) {
        (true, Some(line)) => {
            serde_json::from_str(line).map_err(|e| format!("{role} child result: {e}"))
        }
        _ => {
            let tail: Vec<&str> = stderr.lines().rev().take(30).collect();
            for line in tail.iter().rev() {
                eprintln!("[{role}] {line}");
            }
            Err(format!("{role} child failed ({})", output.status))
        }
    }
}

/// The metrics and operation counts a child reported.
pub fn from_child(child: &Value) -> Outcome {
    let mut outcome = Outcome {
        attempted: num(child, "attempted") as u64,
        failed: num(child, "failed") as u64,
        ..Outcome::default()
    };
    if let Some(metrics) = child.get("metrics").and_then(Value::as_object) {
        for (name, m) in metrics {
            outcome.set(name, num(m, "value"), &field(m, "unit"));
        }
    }
    outcome
}

/// A number field of a child's JSON result.
pub fn num(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN)
}

/// Machine-wide (stolen, total) CPU ticks from `/proc/stat`: time the
/// hypervisor gave to other guests shows up as steal, and explains a
/// slow run.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// The scratch root, inside the checkout.
fn scratch_root() -> PathBuf {
    PathBuf::from(".perfbench_tmp")
}

fn run_top(args: &Args) -> Result<Outcome, String> {
    if !Path::new("crates/unclean-bench/Cargo.toml").exists() {
        return Err("run from the repository root".into());
    }
    declared("end_to_end")?;
    declared("per_layer")?;
    let dir = scratch_root().join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    eprintln!(
        "[perfbench] workload {} seed {} (scenario seed {}) seconds {} trace {} | nproc {} \
         worker threads {} | server shards {} client connections {}",
        args.workload,
        args.seed,
        SCENARIO_SEED,
        args.seconds,
        args.trace as u8,
        nproc(),
        nproc(),
        serve::SHARDS,
        serve::CONNECTIONS
    );
    let ticks_before = cpu_ticks();
    let result = match args.workload.as_str() {
        "repro" => repro::run(args, &dir),
        _ => serve::run(args, &dir),
    };
    let ticks_after = cpu_ticks();
    let steal_pct = (ticks_after.0 - ticks_before.0) as f64 * 100.0
        / (ticks_after.1 - ticks_before.1).max(1) as f64;
    eprintln!("[perfbench] CPU time stolen by other guests during the run: {steal_pct:.2}%");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(scratch_root());
    let mut outcome = result?;
    if args.trace {
        outcome.set("env.nproc", nproc() as f64, "count");
        outcome.set("env.worker_threads", nproc() as f64, "count");
        outcome.set("env.server_shards", serve::SHARDS as f64, "count");
        outcome.set("env.client_connections", serve::CONNECTIONS as f64, "count");
        outcome.set("env.steal_pct", steal_pct, "%");
        outcome.set(
            "error_rate",
            outcome.failed as f64 / outcome.attempted.max(1) as f64,
            "ratio",
        );
    }
    check_declared(&outcome, args.trace)?;
    Ok(outcome)
}

/// Run one workload and render its report (stderr) and result line.
fn workload_result(args: &Args) -> Result<String, String> {
    let outcome = run_top(args)?;
    eprintln!(
        "[perfbench] {}: attempted {} failed {} error_rate {}",
        args.workload,
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    let moves = ledger_moves();
    for (name, (value, unit)) in &outcome.metrics {
        let note = moves
            .get(name)
            .map(|(moves, on)| format!("  -> {moves} on {on}"))
            .unwrap_or_default();
        eprintln!("[perfbench]   {name:<28} {value:>16.6} {unit:<6}{note}");
    }
    Ok(outcome.to_json())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let results: Vec<Result<String, String>> = match args.child.as_deref() {
        // `--workload all` runs the three in turn, one result line each.
        None if args.workload == "all" => WORKLOADS
            .iter()
            .map(|w| {
                workload_result(&Args {
                    workload: w.to_string(),
                    ..args.clone()
                })
            })
            .collect(),
        None => vec![workload_result(&args)],
        Some("repro-rep") => vec![repro::child(&args, false)],
        Some("repro-probe") => vec![repro::child(&args, true)],
        Some("serve") => vec![serve::child(&args)],
        Some(other) => vec![Err(format!("unknown child role {other}"))],
    };
    let mut code = ExitCode::SUCCESS;
    for result in results {
        match result {
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("perfbench: {e}");
                code = ExitCode::FAILURE;
            }
        }
    }
    code
}
