//! Remediation what-if runs.
//!
//! The AbuseHUB question, answered on the synthetic world: if the worst
//! networks are notified at day D and some comply, how fast does the
//! operational blocklist shrink, and what does the defender pay in
//! false positives meanwhile? The same seeded epidemic is replayed twice
//! — untouched, and with a [`Remediation`] campaign applied — and both
//! histories are pushed through identical period-by-period blocklist
//! construction on the deterministic executor, so the difference is
//! exactly the campaign's causal effect and every number is reproducible
//! at any thread count.

use std::collections::BTreeMap;

use crossbeam::executor::Executor;
use serde::{Deserialize, Serialize};
use unclean_core::{DateRange, Day};
use unclean_netmodel::population::CascadeConfig;
use unclean_netmodel::randutil::Purpose;
use unclean_netmodel::{
    calibrate_base_hazard, generate_infections, ChannelDirectory, CompromiseConfig, Infection,
    Remediation, RemediationOutcome, World, WorldConfig,
};
use unclean_stats::SeedTree;

use crate::series::DailySeries;

/// What-if run tunables.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimulateConfig {
    /// World/epidemic scale in `(0, 1]` (0.02 ≈ smoke).
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
    /// Simulated days (burn-in excluded).
    pub days: u32,
    /// Campaign day (offset into the span).
    pub remediate_day: i32,
    /// Probability a notified network complies.
    pub compliance: f64,
    /// Hygiene lift for complying networks.
    pub hygiene_lift: f64,
    /// How many worst-hygiene /16s the campaign targets.
    pub targets: usize,
    /// Blocklist rebuild period (days).
    pub period_days: u32,
    /// Reported host-days in a period required to list a /24.
    pub block_threshold: u32,
    /// Per-(host, day) reporting probability.
    pub report_prob: f64,
    /// Worker threads (0 = per core).
    pub threads: usize,
}

impl Default for SimulateConfig {
    fn default() -> SimulateConfig {
        SimulateConfig {
            scale: 0.02,
            seed: 42,
            days: 280,
            remediate_day: 140,
            compliance: 0.8,
            hygiene_lift: 0.7,
            targets: 24,
            period_days: 28,
            block_threshold: 3,
            report_prob: 0.35,
            threads: 0,
        }
    }
}

/// One blocklist rebuild period, both arms side by side.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PeriodRow {
    /// First day of the period.
    pub start_day: i32,
    /// /24s listed without the campaign.
    pub baseline_blocks: usize,
    /// /24s listed with the campaign.
    pub treated_blocks: usize,
    /// Affinity-weighted benign hosts caught by the baseline list (the
    /// §6 false-positive cost proxy).
    pub baseline_fp_cost: f64,
    /// Same, with the campaign.
    pub treated_fp_cost: f64,
}

/// Everything a what-if run measured.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimulateReport {
    /// The run's configuration.
    pub config: SimulateConfig,
    /// What the campaign changed in the infection history.
    pub outcome: RemediationOutcome,
    /// Per-period blocklists, first to last.
    pub periods: Vec<PeriodRow>,
    /// Treated/baseline blocklist-size ratio over the last period
    /// (< 1 = the campaign shrank the list).
    pub blocklist_decay: f64,
    /// Treated/baseline false-positive cost ratio over the last period.
    pub fp_cost_decay: f64,
    /// Days after the campaign until the targeted networks' smoothed
    /// daily report count halves (None = never within the span).
    pub score_half_life_days: Option<u32>,
}

/// Run the what-if: generate one seeded epidemic, apply the campaign to
/// a copy, and measure both arms.
pub fn run(config: &SimulateConfig) -> SimulateReport {
    let seeds = SeedTree::new(config.seed);
    let world_cfg = WorldConfig {
        cascade: CascadeConfig {
            target_hosts: ((1_500_000.0 * config.scale) as usize).max(20_000),
            ..CascadeConfig::default()
        },
        ..WorldConfig::default()
    };
    let world = World::generate(&world_cfg, &seeds);
    let mut ccfg = CompromiseConfig::default();
    ccfg.base_hazard =
        calibrate_base_hazard(&world, &ccfg, (150_000.0 * config.scale).max(500.0), 14.0);
    let channels = ChannelDirectory::generate(&world, &ccfg, &seeds);
    let span = DateRange::new(Day(0), Day(config.days as i32 - 1));
    let baseline = generate_infections(&world, &channels, span, &ccfg, &seeds);

    let campaign = Remediation::targeting_worst(
        &world,
        config.targets,
        Day(config.remediate_day),
        config.compliance,
        config.hygiene_lift,
    );
    let mut treated_world = world.clone();
    let mut treated = baseline.clone();
    let outcome = campaign.apply(&mut treated_world, &mut treated, &ccfg, &seeds);

    // Period-by-period blocklists, one executor job per (period, arm).
    let pool = Executor::new(config.threads);
    let period_days = config.period_days.max(1) as i32;
    let period_count = (config.days as i32 + period_days - 1) / period_days;
    let affinity_hosts = block_affinity_index(&world);
    let arms: [&[Infection]; 2] = [&baseline, &treated];
    let per_arm: Vec<(usize, f64)> = pool.run_indexed(period_count as usize * 2, |job| {
        let period = (job / 2) as i32;
        let infections = arms[job % 2];
        let range = DateRange::new(
            Day(period * period_days),
            Day(((period + 1) * period_days - 1).min(span.end.0)),
        );
        period_blocklist(infections, &range, config, &seeds, &affinity_hosts)
    });
    let periods: Vec<PeriodRow> = (0..period_count as usize)
        .map(|p| PeriodRow {
            start_day: p as i32 * period_days,
            baseline_blocks: per_arm[p * 2].0,
            treated_blocks: per_arm[p * 2 + 1].0,
            baseline_fp_cost: per_arm[p * 2].1,
            treated_fp_cost: per_arm[p * 2 + 1].1,
        })
        .collect();

    let last = periods.last().expect("at least one period");
    let blocklist_decay = last.treated_blocks as f64 / last.baseline_blocks.max(1) as f64;
    let fp_cost_decay = if last.baseline_fp_cost > 0.0 {
        last.treated_fp_cost / last.baseline_fp_cost
    } else {
        1.0
    };

    let score_half_life_days =
        targeted_score_half_life(&treated, span, config, &seeds, &campaign.targets);

    SimulateReport {
        config: config.clone(),
        outcome,
        periods,
        blocklist_decay,
        fp_cost_decay,
        score_half_life_days,
    }
}

/// Per-/24 `(affinity, hosts)` for the false-positive cost: blocking a
/// /24 costs its legitimate visit mass, affinity × active hosts.
fn block_affinity_index(world: &World) -> BTreeMap<u32, f64> {
    (0..world.population.block_count())
        .map(|i| {
            let block = world.population.block(i);
            (
                block.prefix,
                world.block_affinity(i) * block.hosts.len() as f64,
            )
        })
        .collect()
}

/// Build one period's blocklist for one arm: /24s whose reported
/// host-days in the period reach the threshold. Returns
/// `(listed /24s, false-positive cost)`.
fn period_blocklist(
    infections: &[Infection],
    range: &DateRange,
    config: &SimulateConfig,
    seeds: &SeedTree,
    affinity_hosts: &BTreeMap<u32, f64>,
) -> (usize, f64) {
    // Identical hashing to `DailySeries::from_infections`, so the
    // blocklist arm and the forecaster see the same reports.
    let report = Purpose::new(&seeds.child("report-series"), "report");
    let mut per_block: BTreeMap<u32, u32> = BTreeMap::new();
    for inf in infections {
        let lo = inf.start.max(range.start.0);
        let hi = inf.end.min(range.end.0);
        for day in lo..=hi {
            if report.uniform(inf.addr, day) < config.report_prob {
                *per_block.entry(inf.addr >> 8).or_insert(0) += 1;
            }
        }
    }
    let listed: Vec<u32> = per_block
        .into_iter()
        .filter(|&(_, n)| n >= config.block_threshold)
        .map(|(prefix, _)| prefix)
        .collect();
    let fp_cost = listed
        .iter()
        .map(|prefix| affinity_hosts.get(prefix).copied().unwrap_or(0.0))
        .sum();
    (listed.len(), fp_cost)
}

/// Days until the targeted networks' 7-day-smoothed report count halves
/// relative to the week before the campaign.
fn targeted_score_half_life(
    treated: &[Infection],
    span: DateRange,
    config: &SimulateConfig,
    seeds: &SeedTree,
    targets: &[u32],
) -> Option<u32> {
    let mut targets = targets.to_vec();
    targets.sort_unstable();
    let targeted: Vec<Infection> = treated
        .iter()
        .filter(|inf| targets.binary_search(&(inf.addr >> 16)).is_ok())
        .copied()
        .collect();
    if targeted.is_empty() {
        return None;
    }
    let series = DailySeries::from_infections(&targeted, span, config.report_prob, seeds);
    let day_idx = |d: i32| (d - span.start.0) as usize;
    let ma = |center: i32| -> f64 {
        let lo = center.max(span.start.0);
        let hi = (center + 6).min(span.end.0);
        if hi < lo {
            return 0.0;
        }
        (lo..=hi).map(|d| series.day_total(day_idx(d))).sum::<f64>() / (hi - lo + 1) as f64
    };
    let before = ma(config.remediate_day - 7);
    if before <= 0.0 {
        return None;
    }
    (config.remediate_day..=span.end.0)
        .find(|&d| ma(d) <= before / 2.0)
        .map(|d| (d - config.remediate_day) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke() -> SimulateConfig {
        SimulateConfig {
            scale: 0.01,
            days: 160,
            remediate_day: 80,
            compliance: 1.0,
            ..SimulateConfig::default()
        }
    }

    #[test]
    fn campaign_shrinks_the_blocklist_and_fp_cost() {
        let report = run(&smoke());
        assert!(report.outcome.complied > 0);
        let pre = &report.periods[1];
        assert_eq!(
            pre.baseline_blocks, pre.treated_blocks,
            "pre-campaign periods are identical"
        );
        assert!(
            report.blocklist_decay < 0.9,
            "campaign shrinks the final blocklist: {}",
            report.blocklist_decay
        );
        assert!(report.fp_cost_decay <= 1.0 + 1e-9);
        let half = report
            .score_half_life_days
            .expect("full-compliance campaign halves scores");
        assert!(half < 60, "score half-life {half} days");
    }

    #[test]
    fn run_is_deterministic_across_thread_counts() {
        let mut one = smoke();
        one.threads = 1;
        let mut eight = smoke();
        eight.threads = 8;
        let a = run(&one);
        let b = run(&eight);
        assert_eq!(a.periods, b.periods);
        assert_eq!(a.blocklist_decay, b.blocklist_decay);
        assert_eq!(a.score_half_life_days, b.score_half_life_days);
    }
}
