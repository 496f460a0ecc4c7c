//! Day-by-day activity events crossing the observed network's border.
//!
//! This is the seam between the world model and the traffic substrate:
//! [`ActivityModel::hostile_events_on`] emits, for one day, every external host's
//! interaction with the observed network — benign client sessions, spam
//! bursts, fast and slow scans, ephemeral probes — as compact
//! [`ActivityEvent`]s. The flowgen crate expands events into NetFlow V5
//! records; the detectors consume either representation.
//!
//! All decisions are stable hashes of (host, day), so events for any day
//! can be generated independently, in any order, in parallel, with
//! identical results.

use crate::actors::{scan_decision, Behavior, Campaigns, TaskingConfig, TaskingPurposes};
use crate::compromise::Infection;
use crate::randutil::Purpose;
use crate::world::World;
use serde::{Deserialize, Serialize};
use unclean_core::{DateRange, Day, Ip};
use unclean_stats::SeedTree;

/// What an external host did on a given day.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ActivityKind {
    /// Legitimate client sessions (payload-bearing TCP).
    Benign {
        /// Number of sessions opened.
        sessions: u8,
    },
    /// A fast scan sweep (SYN-only probes, no payload).
    Scan {
        /// Distinct targets contacted within the hour-scale sweep.
        targets: u16,
    },
    /// A low-and-slow scan, below the deployed detector's calibration.
    SlowScan {
        /// Distinct targets contacted across the day.
        targets: u16,
    },
    /// Ephemeral-port-to-ephemeral-port connection attempts (§6.2's
    /// hand-found oddities).
    Probe,
    /// A spam burst (SMTP sessions carrying payload).
    Spam {
        /// Messages delivered toward the observed network.
        messages: u16,
    },
    /// An observable C&C check-in on an IRC channel (not traffic through
    /// the observed network; consumed by the bot monitor).
    C2Checkin {
        /// The channel checked into.
        channel: u16,
    },
}

impl ActivityKind {
    /// Whether this activity exchanges TCP payload (drives the §6.1
    /// unknown/innocent split).
    pub fn payload_bearing(&self) -> bool {
        matches!(
            self,
            ActivityKind::Benign { .. } | ActivityKind::Spam { .. }
        )
    }
}

/// One (day, source, activity) event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActivityEvent {
    /// The day the activity happened.
    pub day: Day,
    /// The external source address.
    pub src: Ip,
    /// What it did.
    pub kind: ActivityKind,
}

/// Benign-traffic tunables.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenignConfig {
    /// Baseline per-host daily probability of visiting the observed
    /// network, before affinity weighting.
    pub base_daily: f64,
    /// Cap on the affinity-weighted daily probability.
    pub max_daily: f64,
}

impl Default for BenignConfig {
    fn default() -> BenignConfig {
        BenignConfig {
            base_daily: 0.30,
            max_daily: 0.90,
        }
    }
}

/// The activity generator.
#[derive(Debug)]
pub struct ActivityModel<'a> {
    /// The world (population, hygiene, affinity).
    pub world: &'a World,
    /// Full infection history.
    pub infections: &'a [Infection],
    /// Tasking probabilities and behaviour assignment.
    pub tasking: TaskingConfig,
    /// Scheduled scan campaigns.
    pub campaigns: Campaigns,
    /// Benign traffic tunables.
    pub benign: BenignConfig,
    /// Seed tree for all stable decisions.
    pub seeds: SeedTree,
}

/// The hash purposes of the hostile walk beyond tasking, derived once per
/// walk so per-infection decisions never re-hash labels.
struct HostilePurposes {
    tasking: TaskingPurposes,
    slowscan: Purpose,
    slowscan_targets: Purpose,
    probe: Purpose,
    spam: Purpose,
    spam_volume: Purpose,
    c2: Purpose,
}

impl HostilePurposes {
    fn new(seeds: &SeedTree) -> HostilePurposes {
        let p = |label| Purpose::new(seeds, label);
        HostilePurposes {
            tasking: TaskingPurposes::new(seeds),
            slowscan: p("slowscan"),
            slowscan_targets: p("slowscan-targets"),
            probe: p("probe"),
            spam: p("spam"),
            spam_volume: p("spam-volume"),
            c2: p("c2"),
        }
    }
}

impl ActivityModel<'_> {
    /// Emit every malicious/compromised-host event for `day`.
    pub fn hostile_events_on(&self, day: Day, sink: impl FnMut(ActivityEvent)) {
        self.hostile_events_on_filtered(day, |_| true, sink);
    }

    /// Emit hostile events for `day`, restricted to infections whose
    /// address satisfies `filter` (used to zoom into candidate /24s without
    /// paying for the whole Internet).
    pub fn hostile_events_on_filtered(
        &self,
        day: Day,
        filter: impl Fn(Ip) -> bool,
        mut sink: impl FnMut(ActivityEvent),
    ) {
        let purposes = HostilePurposes::new(&self.seeds);
        for inf in self
            .infections
            .iter()
            .filter(|i| i.active_on(day) && filter(i.ip()))
        {
            let behavior = self.tasking.behavior(&purposes.tasking, inf);
            self.emit_for_infection(&purposes, inf, &behavior, day, &mut sink);
        }
    }

    fn emit_for_infection(
        &self,
        purposes: &HostilePurposes,
        inf: &Infection,
        behavior: &Behavior,
        day: Day,
        sink: &mut impl FnMut(ActivityEvent),
    ) {
        let src = inf.ip();
        let (e, d) = (inf.addr, day.0);
        if let Some(targets) = scan_decision(
            &purposes.tasking,
            &self.tasking,
            &self.campaigns,
            inf,
            behavior,
            day,
        ) {
            sink(ActivityEvent {
                day,
                src,
                kind: ActivityKind::Scan { targets },
            });
        }
        if behavior.slow_scanner
            && purposes
                .slowscan
                .decides(e, d, self.tasking.slow_scan_daily)
        {
            let u = purposes.slowscan_targets.uniform(e, d);
            let targets =
                1 + (u * (self.tasking.slow_scan_targets.saturating_sub(1)) as f64) as u16;
            sink(ActivityEvent {
                day,
                src,
                kind: ActivityKind::SlowScan { targets },
            });
        }
        if behavior.prober && purposes.probe.decides(e, d, self.tasking.probe_daily) {
            sink(ActivityEvent {
                day,
                src,
                kind: ActivityKind::Probe,
            });
        }
        if behavior.spammer && purposes.spam.decides(e, d, self.tasking.spam_daily) {
            let u = purposes.spam_volume.uniform(e, d);
            let messages = (self.tasking.spam_messages as f64 * (0.5 + u)).max(1.0) as u16;
            sink(ActivityEvent {
                day,
                src,
                kind: ActivityKind::Spam { messages },
            });
        }
        if inf.recruited && purposes.c2.decides(e, d, self.tasking.c2_daily) {
            sink(ActivityEvent {
                day,
                src,
                kind: ActivityKind::C2Checkin {
                    channel: inf.channel,
                },
            });
        }
    }

    /// Per-host daily probability of a benign visit, affinity-weighted.
    pub fn benign_daily_prob(&self, block_idx: usize) -> f64 {
        (self.benign.base_daily * self.world.block_affinity(block_idx)).min(self.benign.max_daily)
    }

    /// Emit benign client sessions for `day` across the whole population.
    pub fn benign_events_on(&self, day: Day, sink: impl FnMut(ActivityEvent)) {
        self.benign_events_on_filtered(day, |_| true, sink);
    }

    /// Emit benign events restricted to blocks whose /24 prefix satisfies
    /// `filter`.
    pub fn benign_events_on_filtered(
        &self,
        day: Day,
        filter: impl Fn(u32) -> bool,
        mut sink: impl FnMut(ActivityEvent),
    ) {
        let visits = Purpose::new(&self.seeds, "benign");
        let sessions = Purpose::new(&self.seeds, "benign-sessions");
        for i in 0..self.world.population.block_count() {
            let block = self.world.population.block(i);
            if !filter(block.prefix) {
                continue;
            }
            let p = self.benign_daily_prob(i);
            if p <= 0.0 {
                continue;
            }
            for ip in block.addrs() {
                if visits.decides(ip.raw(), day.0, p) {
                    let u = sessions.uniform(ip.raw(), day.0);
                    sink(ActivityEvent {
                        day,
                        src: ip,
                        kind: ActivityKind::Benign {
                            sessions: 1 + (u * 4.0) as u8,
                        },
                    });
                }
            }
        }
    }

    /// All events (hostile then benign) for every day in `range`.
    pub fn events_in(
        &self,
        range: DateRange,
        include_benign: bool,
        mut sink: impl FnMut(ActivityEvent),
    ) {
        for day in range.days() {
            self.hostile_events_on(day, &mut sink);
            if include_benign {
                self.benign_events_on(day, &mut sink);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compromise::{
        calibrate_base_hazard, generate_infections, ChannelDirectory, CompromiseConfig,
    };
    use crate::population::CascadeConfig;
    use crate::world::{World, WorldConfig};

    struct Fixture {
        world: World,
        infections: Vec<Infection>,
    }

    fn fixture(seed: u64) -> Fixture {
        let wcfg = WorldConfig {
            cascade: CascadeConfig {
                target_hosts: 30_000,
                ..CascadeConfig::default()
            },
            ..WorldConfig::default()
        };
        let seeds = SeedTree::new(seed);
        let world = World::generate(&wcfg, &seeds);
        let mut ccfg = CompromiseConfig::default();
        ccfg.base_hazard = calibrate_base_hazard(&world, &ccfg, 2000.0, 14.0);
        let channels = ChannelDirectory::generate(&world, &ccfg, &seeds);
        let infections = generate_infections(
            &world,
            &channels,
            DateRange::new(Day(0), Day(60)),
            &ccfg,
            &seeds,
        );
        Fixture { world, infections }
    }

    fn model(f: &Fixture) -> ActivityModel<'_> {
        ActivityModel {
            world: &f.world,
            infections: &f.infections,
            tasking: TaskingConfig::default(),
            campaigns: Campaigns::default(),
            benign: BenignConfig::default(),
            seeds: SeedTree::new(99),
        }
    }

    #[test]
    fn hostile_events_come_from_active_infections() {
        let f = fixture(1);
        let m = model(&f);
        let day = Day(30);
        let active: std::collections::HashSet<u32> = f
            .infections
            .iter()
            .filter(|i| i.active_on(day))
            .map(|i| i.addr)
            .collect();
        let mut n = 0;
        m.hostile_events_on(day, |e| {
            assert!(
                active.contains(&e.src.raw()),
                "{} is an active infection",
                e.src
            );
            assert_eq!(e.day, day);
            n += 1;
        });
        assert!(n > 0, "some hostile activity on a mid-simulation day");
    }

    #[test]
    fn event_mix_is_plausible() {
        let f = fixture(2);
        let m = model(&f);
        let mut scans = 0;
        let mut slow = 0;
        let mut spam = 0;
        let mut probes = 0;
        let mut c2 = 0;
        for d in 20..40 {
            m.hostile_events_on(Day(d), |e| match e.kind {
                ActivityKind::Scan { targets } => {
                    assert!(targets > TaskingConfig::default().slow_scan_targets);
                    scans += 1;
                }
                ActivityKind::SlowScan { targets } => {
                    assert!(targets <= TaskingConfig::default().slow_scan_targets);
                    assert!(targets >= 1);
                    slow += 1;
                }
                ActivityKind::Spam { messages } => {
                    assert!(messages >= 1);
                    spam += 1;
                }
                ActivityKind::Probe => probes += 1,
                ActivityKind::C2Checkin { .. } => c2 += 1,
                ActivityKind::Benign { .. } => panic!("no benign in hostile stream"),
            });
        }
        assert!(
            slow > scans,
            "slow scanning dominates fast ({slow} vs {scans})"
        );
        assert!(spam > 0 && probes > 0 && c2 > 0);
    }

    #[test]
    fn payload_classification() {
        assert!(ActivityKind::Benign { sessions: 1 }.payload_bearing());
        assert!(ActivityKind::Spam { messages: 3 }.payload_bearing());
        assert!(!ActivityKind::Scan { targets: 100 }.payload_bearing());
        assert!(!ActivityKind::SlowScan { targets: 5 }.payload_bearing());
        assert!(!ActivityKind::Probe.payload_bearing());
        assert!(!ActivityKind::C2Checkin { channel: 0 }.payload_bearing());
    }

    #[test]
    fn benign_volume_tracks_affinity_weighting() {
        let f = fixture(3);
        let m = model(&f);
        let mut visitors = 0usize;
        m.benign_events_on(Day(10), |e| {
            assert!(matches!(e.kind, ActivityKind::Benign { sessions } if sessions >= 1));
            visitors += 1;
        });
        let hosts = f.world.population.total_hosts();
        let frac = visitors as f64 / hosts as f64;
        // Expected ≈ E[min(base·affinity, max)] ≈ 10–30% for these params.
        assert!((0.03..0.5).contains(&frac), "daily visit fraction {frac}");
    }

    #[test]
    fn filtered_equals_full_restricted() {
        let f = fixture(4);
        let m = model(&f);
        let day = Day(25);
        let target_prefix = f.world.population.block(0).prefix;
        let mut full: Vec<ActivityEvent> = Vec::new();
        m.benign_events_on(day, |e| {
            if e.src.raw() >> 8 == target_prefix {
                full.push(e);
            }
        });
        let mut filtered: Vec<ActivityEvent> = Vec::new();
        m.benign_events_on_filtered(day, |p| p == target_prefix, |e| filtered.push(e));
        assert_eq!(full, filtered);

        let mut full_h: Vec<ActivityEvent> = Vec::new();
        m.hostile_events_on(day, |e| {
            if e.src.raw() >> 8 == target_prefix {
                full_h.push(e);
            }
        });
        let mut filtered_h: Vec<ActivityEvent> = Vec::new();
        m.hostile_events_on_filtered(
            day,
            |ip| ip.raw() >> 8 == target_prefix,
            |e| filtered_h.push(e),
        );
        assert_eq!(full_h, filtered_h);
    }

    #[test]
    fn events_are_deterministic_and_order_independent() {
        let f = fixture(5);
        let m = model(&f);
        let mut a: Vec<ActivityEvent> = Vec::new();
        m.hostile_events_on(Day(33), |e| a.push(e));
        // Query a different day first, then re-query: identical results.
        let mut scratch: Vec<ActivityEvent> = Vec::new();
        m.hostile_events_on(Day(12), |e| scratch.push(e));
        let mut b: Vec<ActivityEvent> = Vec::new();
        m.hostile_events_on(Day(33), |e| b.push(e));
        assert_eq!(a, b);
    }

    #[test]
    fn events_in_spans_days() {
        let f = fixture(6);
        let m = model(&f);
        let mut days_seen = std::collections::HashSet::new();
        m.events_in(DateRange::new(Day(10), Day(12)), false, |e| {
            days_seen.insert(e.day.0);
        });
        assert_eq!(days_seen.len(), 3);
    }
}
