//! The `repro` workload: `run_all --scale 0.02 --trials 1000` at one
//! worker per core, each repetition in a fresh child process, checked
//! against the output hashes pinned in `pinned_hashes.json`.

use crate::{median, num, peak_rss_mb, probes, run_child, serve, Args, Outcome, SCENARIO_SEED};
use serde_json::{json, Map, Value};
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use unclean_bench::runner::{self, Manifest, RunStatus, RunnerConfig};
use unclean_bench::{BenchOpts, ExperimentContext};
use unclean_detect::{build_reports_with, PipelineConfig};
use unclean_netmodel::{Scenario, ScenarioConfig};
use unclean_telemetry::Registry;

/// Repetitions per run, whatever `--seconds` says: the median of fewer
/// reproductions does not repeat.
const MIN_REPS: usize = 3;

/// Stop starting repetitions past this point, so a run ends within the
/// harness's time limit even with a large `--seconds`.
const MAX_ELAPSED_SECS: f64 = 120.0;

/// How long the traced run's serve phase lasts: it only feeds the
/// serve-layer metrics, which `repro` does not exercise.
const SERVE_PROBE_SECS: f64 = 3.0;

/// Operations per repetition: the experiments, plus the run itself
/// (exit code and the combined `all.json`).
fn ops_per_rep() -> u64 {
    unclean_bench::experiments::all().len() as u64 + 1
}

/// The options `run_all --scale 0.02 --trials 1000 --out DIR` parses to.
fn opts(out: &Path) -> BenchOpts {
    BenchOpts {
        scale: crate::SCALE,
        seed: SCENARIO_SEED,
        trials: crate::TRIALS,
        out_dir: Some(out.to_path_buf()),
        ..BenchOpts::default()
    }
}

/// The top-level `repro` run.
pub fn run(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let pinned = pinned()?;
    let score_rep = |rep: &Value| score(rep, &pinned);
    let start = Instant::now();
    let min_reps = if args.trace { MIN_REPS + 1 } else { MIN_REPS };
    let mut outcome = Outcome::default();
    let mut reps: Vec<Value> = Vec::new();
    while reps.len() < min_reps
        || (start.elapsed().as_secs_f64() < args.seconds
            && start.elapsed().as_secs_f64() < MAX_ELAPSED_SECS)
    {
        let i = reps.len();
        // Traced runs alternate untraced and traced repetitions, so the
        // tracing overhead is measured inside one run.
        let traced = args.trace && i % 2 == 1;
        let rep_dir = dir.join(format!("rep-{i}"));
        let rep = run_child("repro-rep", "repro", args.seed, 0.0, traced, &rep_dir)?;
        let (attempted, failed) = score_rep(&rep);
        eprintln!(
            "[perfbench] repro rep {i}{}: wall {:.3} s, setup {:.3} s, peak {:.1} MB, {failed} failed",
            if traced { " (traced)" } else { "" },
            num(&rep, "wall_s"),
            num(&rep, "setup_s"),
            num(&rep, "peak_rss_mb"),
        );
        outcome.attempted += attempted;
        outcome.failed += failed;
        reps.push(rep);
        if args.trace && reps.len() >= min_reps {
            break;
        }
    }
    let walls: Vec<f64> = reps.iter().map(|r| num(r, "wall_s")).collect();
    if !args.trace {
        let wall = median(&walls);
        outcome.set("op_time_ms", wall * 1e3, "ms");
        let setups: Vec<f64> = reps.iter().map(|r| num(r, "setup_s")).collect();
        let peaks: Vec<f64> = reps.iter().map(|r| num(r, "peak_rss_mb")).collect();
        outcome.set("setup_s", median(&setups), "s");
        outcome.set("peak_rss_mb", median(&peaks), "MB");
        return Ok(outcome);
    }

    // Traced: the serve-layer rows come from a short serve_point phase
    // over inputs derived from one more (traced) reproduction.
    let (layers, probe) = serve::traced_children("serve_point", args.seed, SERVE_PROBE_SECS, dir)?;
    outcome.absorb(layers);
    let untraced: Vec<f64> = walls.iter().step_by(2).copied().collect();
    let mut traced: Vec<f64> = walls.iter().skip(1).step_by(2).copied().collect();
    traced.push(num(&probe, "wall_s"));
    outcome.set(
        "trace_overhead_pct",
        (median(&traced) / median(&untraced) - 1.0) * 100.0,
        "%",
    );
    Ok(outcome)
}

/// The output hashes `run_all` wrote for [`SCENARIO_SEED`] when the
/// benchmark was defined (`outputs` of the run manifest plus `all.json`).
fn pinned() -> Result<Map, String> {
    let all: Value = serde_json::from_str(include_str!("../pinned_hashes.json"))
        .map_err(|e| format!("pinned_hashes.json: {e}"))?;
    all.get(&SCENARIO_SEED.to_string())
        .and_then(Value::as_object)
        .cloned()
        .ok_or_else(|| format!("no pinned hashes for scenario seed {SCENARIO_SEED}"))
}

/// Score a reproduction child against the pinned hashes: (attempted,
/// failed).
pub fn check(rep: &Value) -> Result<(u64, u64), String> {
    Ok(score(rep, &pinned()?))
}

/// Score one repetition against the pinned hashes: (attempted, failed).
/// An experiment fails when it is not `Ok`, took more than one attempt,
/// or any output's hash differs from the pinned one; the run-level
/// operation fails on a nonzero exit or a different `all.json`.
fn score(rep: &Value, pinned: &Map) -> (u64, u64) {
    let mut failed = 0;
    let outputs = rep.get("outputs").and_then(Value::as_object);
    let same = |file: &str| {
        let got = outputs.and_then(|o| o.get(file)).and_then(Value::as_str);
        got.is_some() && got == pinned.get(file).and_then(Value::as_str)
    };
    let records = rep.get("records").and_then(Value::as_array);
    for (id, _, _) in unclean_bench::experiments::all() {
        let record = records.and_then(|rs| {
            rs.iter()
                .find(|r| r.get("id").and_then(Value::as_str) == Some(id))
        });
        let ok = record.is_some_and(|r| {
            r.get("ok").and_then(Value::as_bool) == Some(true)
                && r.get("attempts").and_then(Value::as_u64) == Some(1)
                && r.get("files").and_then(Value::as_array).is_some_and(|fs| {
                    !fs.is_empty() && fs.iter().all(|f| same(f.as_str().unwrap_or("")))
                })
        });
        if !ok {
            eprintln!("[perfbench] repro: experiment {id} failed its check");
            failed += 1;
        }
    }
    let pinned_files = pinned.keys().all(|f| same(f));
    if rep.get("exit_ok").and_then(Value::as_bool) != Some(true) || !pinned_files {
        eprintln!("[perfbench] repro: run-level check failed (exit code or output hashes)");
        failed += 1;
    }
    (ops_per_rep(), failed)
}

/// `ExperimentContext::generate`, with each layer call timed from
/// outside: the same registry declarations, scenario config and
/// pipeline config, in the same order.
fn generate_traced(opts: BenchOpts, layers: &mut Outcome) -> ExperimentContext {
    let threads = crate::nproc();
    let registry = Registry::new(opts.telemetry);
    registry.counter("ingest.quarantined_lines");
    registry.counter("store.flows_dropped");
    registry.gauge("bench.scale").set(opts.scale);
    registry.gauge("bench.trials").set(opts.trials as f64);
    let mut scenario_config = ScenarioConfig::at_scale(opts.scale, opts.seed);
    scenario_config.threads = opts.threads;
    let t = Instant::now();
    let scenario = Scenario::generate_recorded(scenario_config, &registry);
    layers.set("netmodel.generate_s", t.elapsed().as_secs_f64(), "s");
    let mut pipeline = PipelineConfig::paper();
    pipeline.threads = threads;
    let rss_before = peak_rss_mb();
    let t = Instant::now();
    let reports = build_reports_with(&scenario, &pipeline, &registry);
    layers.set("detect.build_reports_s", t.elapsed().as_secs_f64(), "s");
    layers.set(
        "detect.build_reports_rss_mb",
        peak_rss_mb() - rss_before,
        "MB",
    );
    let shared_context = registry.snapshot();
    layers.set(
        "detect.flows",
        registry.counter_value("detect.flows_ingested") as f64,
        "count",
    );
    let spool_bytes = shared_context
        .spans
        .get("pipeline/detect")
        .and_then(|s| s.fields.get("spool_bytes"))
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(f64::NAN);
    layers.set("detect.spool_bytes", spool_bytes, "bytes");
    ExperimentContext {
        opts,
        threads,
        scenario,
        reports,
        registry,
        shared_context,
    }
}

/// Replay `run_all`'s scheduler (lowest registry index first, one
/// worker per context thread, no dependencies) over the manifest
/// durations: the time the experiments phase cannot go below.
fn scheduled_makespan(durations: &[f64], workers: usize) -> f64 {
    let mut free_at = vec![0.0f64; workers.max(1)];
    for d in durations {
        let w = free_at
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| i)
            .expect("one worker");
        free_at[w] += d;
    }
    free_at.into_iter().fold(0.0, f64::max)
}

/// A `repro-rep` / `repro-probe` child: one reproduction in this fresh
/// process, reported as JSON.
pub fn child(args: &Args, probe: bool) -> Result<String, String> {
    let dir = args.dir.clone().ok_or("child needs --dir")?;
    let out = dir.join("out");
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let opts = opts(&out);
    let mut layers = Outcome::default();
    let t0 = Instant::now();
    let ctx = if args.trace {
        generate_traced(opts, &mut layers)
    } else {
        ExperimentContext::generate(opts)
    };
    let setup_s = t0.elapsed().as_secs_f64();
    let ctx = Arc::new(ctx);
    let t_run = Instant::now();
    let exit = runner::run_all(Arc::clone(&ctx), &RunnerConfig::default());
    let run_all_s = t_run.elapsed().as_secs_f64();
    let wall_s = t0.elapsed().as_secs_f64();
    let peak = peak_rss_mb();

    let manifest = Manifest::load(&out).ok_or("run_all left no readable manifest")?;
    let mut outputs = Map::new();
    let mut records = Vec::new();
    for r in &manifest.runs {
        for f in &r.outputs {
            outputs.insert(f.file.clone(), json!(f.hash.as_str()));
        }
        let files: Vec<Value> = r.outputs.iter().map(|f| json!(f.file.as_str())).collect();
        records.push(json!({
            "id": r.id.as_str(),
            "ok": r.status == RunStatus::Ok,
            "attempts": r.attempts,
            "files": files,
        }));
    }
    if let Ok(hash) = runner::hash_file(&out.join("all.json")) {
        outputs.insert("all.json".into(), json!(hash.as_str()));
    }

    if args.trace {
        manifest_layers(&manifest, &ctx, &mut layers);
        let durations: Vec<f64> = manifest.runs.iter().map(|r| r.duration_secs).collect();
        let makespan = scheduled_makespan(&durations, ctx.threads);
        layers.set("bench.critical_path_s", makespan, "s");
        let generate = layers.metrics["netmodel.generate_s"].0;
        let build = layers.metrics["detect.build_reports_s"].0;
        let unaccounted = wall_s - generate - build - makespan;
        layers.set("bench.unaccounted_s", unaccounted, "s");
        eprintln!("[perfbench] layer accounting (self times, seconds):");
        for (name, secs) in [
            ("netmodel.generate_s", generate),
            ("detect.build_reports_s", build),
            ("context other", setup_s - generate - build),
            ("bench.critical_path_s", makespan),
            ("run_all other (audit, writes)", run_all_s - makespan),
        ] {
            eprintln!("[perfbench]   {name:<32} {secs:>9.3}");
        }
        eprintln!(
            "[perfbench]   {:<32} {wall_s:>9.3}\n[perfbench]   unaccounted by a layer metric: \
             {unaccounted:.3} s ({:.1}% of wall)",
            "wall_s",
            unaccounted / wall_s * 100.0
        );
    }
    if probe {
        probes::flow_layers(&ctx, &mut layers);
        probes::detect_layers(&ctx, &mut layers);
        serve::write_inputs(&ctx, &args.workload, args.seed, &dir)?;
    }
    let mut result = layers.to_value();
    for (key, value) in [
        ("setup_s", json!(setup_s)),
        ("wall_s", json!(wall_s)),
        ("peak_rss_mb", json!(peak)),
        ("exit_ok", json!(exit == ExitCode::SUCCESS)),
        ("outputs", Value::Object(outputs)),
        ("records", Value::Array(records)),
    ] {
        if let Value::Object(map) = &mut result {
            map.insert(key.to_string(), value);
        }
    }
    serde_json::to_string(&result).map_err(|e| e.to_string())
}

/// Per-experiment rows and the trial-ensemble counters from the manifest.
fn manifest_layers(manifest: &Manifest, ctx: &ExperimentContext, layers: &mut Outcome) {
    let mut trials = 0u64;
    let mut trial_secs = 0.0;
    let mut draws = 0u64;
    for r in &manifest.runs {
        layers.set(&format!("bench.{}_s", r.id), r.duration_secs, "s");
        let counters = r.telemetry.as_ref().map(|t| &t.counters);
        let get = |k: &str| counters.and_then(|c| c.get(k)).copied().unwrap_or(0);
        let shared = |k: &str| ctx.shared_context.counters.get(k).copied().unwrap_or(0);
        // Each record's telemetry is the shared context merged with the
        // experiment's own; only the experiment's part is its work.
        let own = |k: &str| get(k).saturating_sub(shared(k));
        let t = own("core.density.trials") + own("core.temporal.trials");
        if t > 0 {
            trials += t;
            trial_secs += r.duration_secs;
        }
        draws += own("core.sampling.draws");
    }
    layers.set(
        "stats.trials_per_s",
        trials as f64 / trial_secs.max(1e-9),
        "1/s",
    );
    layers.set("core.sampling_draws", draws as f64, "count");
}
