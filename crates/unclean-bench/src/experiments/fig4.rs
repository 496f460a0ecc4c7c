//! Figure 4: comparative predictive capacity of the five-month-old
//! `R_bot-test` against the present unclean reports — bots (i), phishing
//! (ii), spamming (iii), scanning (iv).
//!
//! The paper's findings, which the series here reproduce in shape:
//! bot-test beats 1000 random control draws (95% criterion) for bots,
//! spamming and scanning over a band of prefix lengths, and fails entirely
//! for phishing.

use crate::{row, rule, ExperimentSlot, RunError};
use serde_json::{json, Value};
use unclean_core::prelude::*;
use unclean_stats::{SeedTree, Verdict};

/// Run the Figure 4 experiment.
pub fn run(ctx: &ExperimentSlot) -> Result<Value, RunError> {
    println!("\n=== Figure 4: predictive capacity of R_bot-test ===");
    println!(
        "predictor: {} addresses from {} (five months before the window)",
        ctx.reports.bot_test.len(),
        ctx.reports.bot_test.period()
    );
    let control = ctx.reports.control.addresses();
    let analysis = TemporalAnalysis::with_config(TemporalConfig {
        trials: ctx.opts.trials,
        threads: ctx.threads,
        ..TemporalConfig::default()
    });
    let seeds = SeedTree::new(ctx.experiment_seed()).child("fig4");
    let registry = ctx.attempt_registry();

    let panels = [
        ("(i)", "bots", &ctx.reports.bot),
        ("(ii)", "phishing", &ctx.reports.phish_window),
        ("(iii)", "spamming", &ctx.reports.spam),
        ("(iv)", "scanning", &ctx.reports.scan),
    ];
    let mut json_panels = Vec::new();
    for (panel, name, present) in panels {
        let res = analysis.run_recorded(&ctx.reports.bot_test, present, control, &seeds, &registry);
        println!(
            "\n-- {panel} vs R_{} ({} addresses) — Eq. 5 holds: {} | band: {:?} --",
            present.tag(),
            present.len(),
            res.hypothesis_holds(),
            res.predictive_band()
        );
        let widths = [3, 9, 24, 9];
        println!(
            "{}",
            row(
                &[
                    "n".into(),
                    "observed".into(),
                    "control (med [min,max])".into(),
                    "verdict".into()
                ],
                &widths
            )
        );
        println!("{}", rule(&widths));
        let mut rows = Vec::new();
        let fives = res.control.five_numbers();
        for (i, &n) in res.xs.iter().enumerate() {
            let b = &fives[i].1;
            let verdict = match res.verdicts()[i] {
                Verdict::Better => "BETTER",
                Verdict::Worse => "worse",
                Verdict::Indistinguishable => "—",
            };
            if n % 2 == 0 {
                println!(
                    "{}",
                    row(
                        &[
                            n.to_string(),
                            res.observed[i].to_string(),
                            format!("{:.1} [{:.0}, {:.0}]", b.median, b.min, b.max),
                            verdict.into(),
                        ],
                        &widths
                    )
                );
            }
            rows.push(json!({
                "n": n,
                "observed": res.observed[i],
                "control_median": b.median,
                "control_min": b.min,
                "control_max": b.max,
                "verdict": verdict,
            }));
        }
        json_panels.push(json!({
            "panel": panel,
            "name": name,
            "present_tag": present.tag(),
            "present_size": present.len(),
            "holds": res.hypothesis_holds(),
            "predictive_band": res.predictive_band(),
            "rows": rows,
        }));
    }

    println!("\npaper comparison: bots/spam/scan predicted over a prefix band,");
    println!("phishing not predicted at any length (the multidimensionality result).");

    let result = json!({
        "experiment": "fig4",
        "scale": ctx.opts.scale,
        "seed": ctx.opts.seed,
        "trials": ctx.opts.trials,
        "bot_test_size": ctx.reports.bot_test.len(),
        "panels": json_panels,
    });
    ctx.write_result("fig4", &result)?;
    Ok(result)
}
