//! Attacker tasking: what compromised hosts *do*.
//!
//! Following the acquisition/use decomposition of Mirkovic et al. (the
//! paper's \[18\]), infection (acquisition) and activity (use) are separate
//! layers. Every infection is assigned a persistent *behaviour profile* by
//! stable hashing — which of scanning, spamming, stealthy slow-scanning,
//! and ephemeral probing it engages in — and day-by-day activity is drawn
//! from per-(host, day) hashes so any day is randomly accessible without
//! replaying history.
//!
//! Scan *campaigns* overlay the baseline: a channel's herder tasks the
//! whole botnet to sweep the observed network over a window, with intensity
//! ramping up to a peak and collapsing after the botnet is publicly
//! reported. This is the mechanism behind the paper's Figure 1, where the
//! scanning of the observed network swells for a month and drops right
//! after the bot report's date.

use crate::compromise::Infection;
use crate::randutil::Purpose;
use serde::{Deserialize, Serialize};
use unclean_core::Day;
use unclean_stats::SeedTree;

/// Persistent behaviour profile of one compromised host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Behavior {
    /// Sends spam runs (SMTP with payload).
    pub spammer: bool,
    /// Performs fast, detectable scans (hundreds of targets in an hour).
    pub fast_scanner: bool,
    /// Performs low-and-slow scans (under 30 targets/day — below the
    /// deployed detector's calibration, per §6.2).
    pub slow_scanner: bool,
    /// Opens odd ephemeral-to-ephemeral connections.
    pub prober: bool,
}

impl Behavior {
    /// Whether this host ever originates traffic toward the observed
    /// network.
    pub fn is_active(&self) -> bool {
        self.spammer || self.fast_scanner || self.slow_scanner || self.prober
    }
}

/// The hash purposes tasking decisions draw from, derived once from the
/// activity seed tree so per-host, per-day decisions never re-hash labels.
#[derive(Debug, Clone)]
pub struct TaskingPurposes {
    role_spam: Purpose,
    role_fastscan: Purpose,
    role_slowscan: Purpose,
    role_probe: Purpose,
    scan: Purpose,
    scan_targets: Purpose,
}

impl TaskingPurposes {
    /// Derive every tasking purpose from `seeds`.
    pub fn new(seeds: &SeedTree) -> TaskingPurposes {
        let p = |label| Purpose::new(seeds, label);
        TaskingPurposes {
            role_spam: p("role-spam"),
            role_fastscan: p("role-fastscan"),
            role_slowscan: p("role-slowscan"),
            role_probe: p("role-probe"),
            scan: p("scan"),
            scan_targets: p("scan-targets"),
        }
    }
}

/// Tasking probabilities.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaskingConfig {
    /// Fraction of infections assigned the spammer behaviour.
    pub p_spammer: f64,
    /// Fraction assigned fast scanning.
    pub p_fast_scanner: f64,
    /// Fraction assigned slow scanning.
    pub p_slow_scanner: f64,
    /// Fraction assigned ephemeral probing.
    pub p_prober: f64,
    /// Per-day probability an assigned spammer runs a spam burst at the
    /// observed network.
    pub spam_daily: f64,
    /// Per-day probability an assigned fast scanner sweeps the observed
    /// network (outside campaigns).
    pub fast_scan_daily: f64,
    /// Per-day probability an assigned slow scanner probes.
    pub slow_scan_daily: f64,
    /// Per-day probability a prober pokes ephemeral ports.
    pub probe_daily: f64,
    /// Per-day probability a recruited bot's C&C check-in is observable.
    pub c2_daily: f64,
    /// Mean distinct targets for a fast scan (well above detector
    /// threshold).
    pub fast_scan_targets: u16,
    /// Max distinct targets for a slow scan (below detector threshold).
    pub slow_scan_targets: u16,
    /// Mean messages in a spam burst.
    pub spam_messages: u16,
}

impl Default for TaskingConfig {
    fn default() -> TaskingConfig {
        TaskingConfig {
            // Calibrated so the detector-derived report sizes track the
            // paper's ratios: |scan|/|bot| ≈ 0.24, |spam|/|bot| ≈ 0.64
            // (Table 1), given the default bot-report coverage, and so
            // that only a few percent of the addresses in an unclean /24
            // touch the observed network in a two-week window (§6.2's
            // sparseness: scanning targets the whole Internet, of which
            // the observed network is a sliver).
            p_spammer: 0.60,
            p_fast_scanner: 0.27,
            p_slow_scanner: 0.80,
            p_prober: 0.45,
            spam_daily: 0.30,
            fast_scan_daily: 0.15,
            slow_scan_daily: 0.08,
            probe_daily: 0.05,
            c2_daily: 0.8,
            fast_scan_targets: 180,
            slow_scan_targets: 24,
            spam_messages: 35,
        }
    }
}

impl TaskingConfig {
    /// The persistent behaviour of an infection (stable across calls).
    ///
    /// Spamming and fast scanning are *herder-directed* uses of a bot, so
    /// only recruited infections receive them (the acquisition/use split
    /// of Mirkovic et al.); background compromises limit themselves to the
    /// low-and-slow propagation behaviour of the malware that took them.
    pub fn behavior(&self, purposes: &TaskingPurposes, inf: &Infection) -> Behavior {
        // Key on (addr, start) so reinfections may change character.
        let e = inf.addr;
        let d = inf.start;
        Behavior {
            spammer: inf.recruited && purposes.role_spam.decides(e, d, self.p_spammer),
            fast_scanner: inf.recruited
                && purposes.role_fastscan.decides(e, d, self.p_fast_scanner),
            slow_scanner: purposes.role_slowscan.decides(e, d, self.p_slow_scanner),
            prober: purposes.role_probe.decides(e, d, self.p_prober),
        }
    }
}

/// A herder-directed scan campaign against the observed network.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Campaign {
    /// The C&C channel whose bots are tasked.
    pub channel: u16,
    /// First day of the campaign.
    pub start: Day,
    /// Day of peak intensity (the public report lands here).
    pub peak: Day,
    /// Last day of (declining) activity.
    pub end: Day,
    /// Peak per-bot daily scan probability.
    pub peak_intensity: f64,
    /// Post-peak decay rate per day (intensity × (1−decay)^days).
    pub decay: f64,
}

impl Campaign {
    /// Per-bot daily scan probability contributed by the campaign on `day`.
    ///
    /// Linear ramp from `start` to `peak`, geometric decay from `peak` to
    /// `end` (compromised hosts get cleaned and the herder retargets after
    /// the report; the paper's Figure 1 shows exactly this sawtooth).
    pub fn intensity(&self, day: Day) -> f64 {
        if day < self.start || day > self.end {
            return 0.0;
        }
        if day <= self.peak {
            let ramp = (self.peak - self.start).max(1) as f64;
            self.peak_intensity * (day - self.start) as f64 / ramp
        } else {
            self.peak_intensity * (1.0 - self.decay).powi(day - self.peak)
        }
    }
}

/// The set of campaigns active in a scenario.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Campaigns {
    /// All scheduled campaigns.
    pub scan: Vec<Campaign>,
}

impl Campaigns {
    /// Total campaign intensity applying to a bot on `channel` on `day`.
    pub fn intensity_for(&self, channel: u16, day: Day) -> f64 {
        self.scan
            .iter()
            .filter(|c| c.channel == channel)
            .map(|c| c.intensity(day))
            .sum()
    }
}

/// Whether a given infection scans the observed network on `day`, combining
/// its persistent behaviour, baseline rates, and campaign tasking, and — if
/// so — how many targets it sweeps.
pub fn scan_decision(
    purposes: &TaskingPurposes,
    cfg: &TaskingConfig,
    campaigns: &Campaigns,
    inf: &Infection,
    behavior: &Behavior,
    day: Day,
) -> Option<u16> {
    debug_assert!(inf.active_on(day));
    let mut p = if behavior.fast_scanner {
        cfg.fast_scan_daily
    } else {
        0.0
    };
    if inf.recruited {
        p += campaigns.intensity_for(inf.channel, day);
    }
    if p <= 0.0 || !purposes.scan.decides(inf.addr, day.0, p.min(1.0)) {
        return None;
    }
    // Target count: spread around the mean, always above the slow threshold.
    let u = purposes.scan_targets.uniform(inf.addr, day.0);
    let targets = (cfg.fast_scan_targets as f64 * (0.5 + u)) as u16;
    Some(targets.max(cfg.slow_scan_targets + 10))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inf(addr: u32, recruited: bool, channel: u16) -> Infection {
        Infection {
            addr,
            start: 0,
            end: 400,
            recruited,
            channel,
        }
    }

    #[test]
    fn behavior_is_stable_and_matches_rates() {
        let purposes = TaskingPurposes::new(&SeedTree::new(1));
        let cfg = TaskingConfig::default();
        let i = inf(0x0a0a0a0a, true, 3);
        assert_eq!(cfg.behavior(&purposes, &i), cfg.behavior(&purposes, &i));
        let mut counts = [0usize; 4];
        let n = 20_000;
        for a in 0..n {
            let b = cfg.behavior(&purposes, &inf(a as u32, true, 0));
            counts[0] += b.spammer as usize;
            counts[1] += b.fast_scanner as usize;
            counts[2] += b.slow_scanner as usize;
            counts[3] += b.prober as usize;
        }
        let expect = [
            cfg.p_spammer,
            cfg.p_fast_scanner,
            cfg.p_slow_scanner,
            cfg.p_prober,
        ];
        for (got, want) in counts.iter().zip(expect) {
            let rate = *got as f64 / n as f64;
            assert!((rate - want).abs() < 0.02, "rate {rate} vs {want}");
        }
    }

    #[test]
    fn unrecruited_infections_never_spam_or_fast_scan() {
        let purposes = TaskingPurposes::new(&SeedTree::new(1));
        let cfg = TaskingConfig::default();
        for a in 0..5_000u32 {
            let b = cfg.behavior(&purposes, &inf(a, false, 0));
            assert!(
                !b.spammer && !b.fast_scanner,
                "herder tasks need recruitment"
            );
        }
    }

    #[test]
    fn campaign_intensity_shape() {
        let c = Campaign {
            channel: 0,
            start: Day(20),
            peak: Day(60),
            end: Day(100),
            peak_intensity: 0.6,
            decay: 0.15,
        };
        assert_eq!(c.intensity(Day(19)), 0.0);
        assert_eq!(c.intensity(Day(101)), 0.0);
        assert_eq!(c.intensity(Day(20)), 0.0, "ramp starts from zero");
        // Ramps up.
        assert!(c.intensity(Day(30)) < c.intensity(Day(50)));
        assert!((c.intensity(Day(60)) - 0.6).abs() < 1e-9);
        // Decays after the peak (report published).
        assert!(c.intensity(Day(61)) < 0.6);
        assert!(c.intensity(Day(80)) < c.intensity(Day(65)));
        assert!(c.intensity(Day(100)) < 0.01);
    }

    #[test]
    fn campaigns_sum_by_channel() {
        let cs = Campaigns {
            scan: vec![
                Campaign {
                    channel: 0,
                    start: Day(0),
                    peak: Day(10),
                    end: Day(20),
                    peak_intensity: 0.5,
                    decay: 0.2,
                },
                Campaign {
                    channel: 1,
                    start: Day(0),
                    peak: Day(10),
                    end: Day(20),
                    peak_intensity: 0.9,
                    decay: 0.2,
                },
            ],
        };
        assert!((cs.intensity_for(0, Day(10)) - 0.5).abs() < 1e-9);
        assert!((cs.intensity_for(1, Day(10)) - 0.9).abs() < 1e-9);
        assert_eq!(cs.intensity_for(7, Day(10)), 0.0);
    }

    #[test]
    fn scan_decision_baseline_rate() {
        let purposes = TaskingPurposes::new(&SeedTree::new(2));
        let cfg = TaskingConfig::default();
        let cs = Campaigns::default();
        let b_scan = Behavior {
            spammer: false,
            fast_scanner: true,
            slow_scanner: false,
            prober: false,
        };
        let b_quiet = Behavior {
            spammer: false,
            fast_scanner: false,
            slow_scanner: false,
            prober: false,
        };
        let mut scans = 0;
        for a in 0..10_000u32 {
            let i = inf(a, false, 0);
            if scan_decision(&purposes, &cfg, &cs, &i, &b_scan, Day(5)).is_some() {
                scans += 1;
            }
            assert!(scan_decision(&purposes, &cfg, &cs, &i, &b_quiet, Day(5)).is_none());
        }
        let rate = scans as f64 / 10_000.0;
        assert!((rate - cfg.fast_scan_daily).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn campaign_mobilizes_recruited_bots_only() {
        let purposes = TaskingPurposes::new(&SeedTree::new(3));
        let cfg = TaskingConfig::default();
        let cs = Campaigns {
            scan: vec![Campaign {
                channel: 4,
                start: Day(0),
                peak: Day(5),
                end: Day(30),
                peak_intensity: 0.9,
                decay: 0.1,
            }],
        };
        let quiet = Behavior {
            spammer: false,
            fast_scanner: false,
            slow_scanner: false,
            prober: false,
        };
        let mut on_channel = 0;
        let mut off_channel = 0;
        for a in 0..5_000u32 {
            if scan_decision(&purposes, &cfg, &cs, &inf(a, true, 4), &quiet, Day(5)).is_some() {
                on_channel += 1;
            }
            if scan_decision(&purposes, &cfg, &cs, &inf(a, true, 5), &quiet, Day(5)).is_some() {
                off_channel += 1;
            }
        }
        assert!(
            on_channel > 4000,
            "campaign drives channel-4 bots: {on_channel}"
        );
        assert_eq!(off_channel, 0, "other channels stay quiet");
    }

    #[test]
    fn scan_targets_exceed_slow_threshold() {
        let purposes = TaskingPurposes::new(&SeedTree::new(4));
        let cfg = TaskingConfig::default();
        let cs = Campaigns::default();
        let b = Behavior {
            spammer: false,
            fast_scanner: true,
            slow_scanner: false,
            prober: false,
        };
        for a in 0..2_000u32 {
            if let Some(t) = scan_decision(&purposes, &cfg, &cs, &inf(a, false, 0), &b, Day(9)) {
                assert!(
                    t > cfg.slow_scan_targets,
                    "fast scans outrun the slow threshold"
                );
            }
        }
    }
}
