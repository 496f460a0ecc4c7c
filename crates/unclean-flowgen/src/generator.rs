//! Activity-event → flow expansion.
//!
//! Each [`ActivityEvent`] from the netmodel becomes the NetFlow-visible
//! traffic it implies at the observed network's border:
//!
//! * benign sessions → payload-bearing TCP to the observed servers;
//! * fast scans → SYN-only probe trains across many targets within one
//!   hour (some padded with TCP options — the 36-byte pitfall);
//! * slow scans → the same probes, spread thinly across the day;
//! * probes → ephemeral-to-ephemeral connection attempts;
//! * spam bursts → payload-bearing SMTP to the mail servers;
//! * C&C check-ins → nothing (that traffic never crosses the observed
//!   border; the bot monitor sees it out-of-band).
//!
//! Expansion is deterministic: every field derives from stable hashes of
//! (source, day, nonce), so regenerating any day yields identical flows.

use crate::record::{proto, tcp_flags};
use crate::session::Flow;
use serde::{Deserialize, Serialize};
use unclean_core::{Day, Ip};
use unclean_netmodel::observed::ObservedNetwork;
use unclean_netmodel::randutil::Purpose;
use unclean_netmodel::{ActivityEvent, ActivityKind, ActivityModel};
use unclean_stats::SeedTree;
use unclean_telemetry::{Counter, Registry};

/// Generator tunables.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GeneratorConfig {
    /// How many distinct public servers the observed network runs.
    pub server_count: u32,
    /// How many of those are mail exchangers (targets of spam).
    pub mail_server_count: u32,
    /// Service ports benign clients hit, sampled uniformly.
    pub benign_ports: Vec<u16>,
    /// Ports scanned by sweeps, one per sweep.
    pub scan_ports: Vec<u16>,
}

impl Default for GeneratorConfig {
    fn default() -> GeneratorConfig {
        GeneratorConfig {
            server_count: 48,
            mail_server_count: 6,
            benign_ports: vec![80, 80, 80, 443, 443, 25, 110, 143, 22, 53],
            scan_ports: vec![135, 139, 445, 1025, 1433, 2967, 4899, 5900],
        }
    }
}

/// Every hash purpose expansion draws a flow field from, derived once
/// from the generator's seed tree so the per-flow loops never re-hash a
/// label.
#[derive(Debug, Clone)]
struct Keys {
    target: Purpose,
    b_server: Purpose,
    b_port: Purpose,
    b_pkts: Purpose,
    b_bytes: Purpose,
    b_sport: Purpose,
    b_time: Purpose,
    b_dur: Purpose,
    s_port: Purpose,
    s_hour: Purpose,
    s_pkts: Purpose,
    s_opts: Purpose,
    s_sport: Purpose,
    s_time: Purpose,
    ss_port: Purpose,
    ss_opts: Purpose,
    ss_sport: Purpose,
    ss_time: Purpose,
    p_count: Purpose,
    p_pkts: Purpose,
    p_sport: Purpose,
    p_dport: Purpose,
    p_time: Purpose,
    m_server: Purpose,
    m_pkts: Purpose,
    m_bytes: Purpose,
    m_sport: Purpose,
    m_time: Purpose,
    m_dur: Purpose,
}

impl Keys {
    fn new(seeds: &SeedTree) -> Keys {
        let p = |label| Purpose::new(seeds, label);
        Keys {
            target: p("target"),
            b_server: p("b-server"),
            b_port: p("b-port"),
            b_pkts: p("b-pkts"),
            b_bytes: p("b-bytes"),
            b_sport: p("b-sport"),
            b_time: p("b-time"),
            b_dur: p("b-dur"),
            s_port: p("s-port"),
            s_hour: p("s-hour"),
            s_pkts: p("s-pkts"),
            s_opts: p("s-opts"),
            s_sport: p("s-sport"),
            s_time: p("s-time"),
            ss_port: p("ss-port"),
            ss_opts: p("ss-opts"),
            ss_sport: p("ss-sport"),
            ss_time: p("ss-time"),
            p_count: p("p-count"),
            p_pkts: p("p-pkts"),
            p_sport: p("p-sport"),
            p_dport: p("p-dport"),
            p_time: p("p-time"),
            m_server: p("m-server"),
            m_pkts: p("m-pkts"),
            m_bytes: p("m-bytes"),
            m_sport: p("m-sport"),
            m_time: p("m-time"),
            m_dur: p("m-dur"),
        }
    }
}

/// The flow generator.
#[derive(Debug, Clone)]
pub struct FlowGenerator<'a> {
    observed: &'a ObservedNetwork,
    config: GeneratorConfig,
    keys: Keys,
    events_counter: Counter,
    flows_counter: Counter,
    truncated_counter: Counter,
}

impl<'a> FlowGenerator<'a> {
    /// A generator over the given observed network.
    pub fn new(observed: &'a ObservedNetwork, config: GeneratorConfig, seeds: SeedTree) -> Self {
        assert!(config.server_count > 0, "need at least one server");
        assert!(
            config.mail_server_count > 0 && config.mail_server_count <= config.server_count,
            "mail servers are a subset of servers"
        );
        assert!(!config.benign_ports.is_empty() && !config.scan_ports.is_empty());
        FlowGenerator {
            observed,
            config,
            keys: Keys::new(&seeds),
            events_counter: Counter::disabled(),
            flows_counter: Counter::disabled(),
            truncated_counter: Counter::disabled(),
        }
    }

    /// Record expansion counts onto `registry`:
    /// `flowgen.events_expanded` (activity events fed in),
    /// `flowgen.flows_generated` (border flows emitted), and
    /// `flowgen.flows_truncated` (spam messages past the per-burst
    /// expansion cap, i.e. deliberately not turned into flows).
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        self.events_counter = registry.counter("flowgen.events_expanded");
        self.flows_counter = registry.counter("flowgen.flows_generated");
        self.truncated_counter = registry.counter("flowgen.flows_truncated");
    }

    /// Address of public server `idx`.
    pub fn server_addr(&self, idx: u32) -> Ip {
        let base = self.observed.blocks()[0].first().raw();
        Ip(base + 10 + idx % self.config.server_count)
    }

    /// Address of mail server `idx`.
    pub fn mail_addr(&self, idx: u32) -> Ip {
        self.server_addr(idx % self.config.mail_server_count)
    }

    /// Expand one event into flows.
    pub fn expand(&self, event: &ActivityEvent, mut sink: impl FnMut(Flow)) {
        self.events_counter.inc();
        let mut emitted = 0u64;
        let mut sink = |f: Flow| {
            emitted += 1;
            sink(f)
        };
        let src = event.src;
        let e = src.raw();
        let d = event.day.0;
        let day_base = event.day.0 as i64 * 86_400;
        let k = &self.keys;
        match event.kind {
            ActivityKind::Benign { sessions } => {
                for s in 0..sessions as u32 {
                    let es = e ^ s.rotate_left(13);
                    let server = k
                        .b_server
                        .index(e ^ s, d, self.config.server_count as usize);
                    let port = self.config.benign_ports
                        [k.b_port.index(e ^ s, d, self.config.benign_ports.len())];
                    let packets = 8 + (k.b_pkts.uniform(es, d) * 52.0) as u32;
                    let payload = 200 + (k.b_bytes.uniform(es, d) * 19_800.0) as u32;
                    sink(Flow {
                        src,
                        dst: self.server_addr(server as u32),
                        src_port: ephemeral(k.b_sport.uniform(es, d)),
                        dst_port: port,
                        proto: proto::TCP,
                        packets,
                        octets: packets * 40 + payload,
                        flags: tcp_flags::SYN | tcp_flags::ACK | tcp_flags::PSH | tcp_flags::FIN,
                        start_secs: day_base + (k.b_time.uniform(es, d) * 86_000.0) as i64,
                        duration_secs: 1 + (k.b_dur.uniform(es, d) * 300.0) as u32,
                    });
                }
            }
            ActivityKind::Scan { targets } => {
                // One sweep: a single port, targets spread across one hour.
                let port =
                    self.config.scan_ports[k.s_port.index(e, d, self.config.scan_ports.len())];
                let hour_base = day_base + (k.s_hour.uniform(e, d) * 23.0) as i64 * 3600;
                for t in 0..targets as u32 {
                    let et = e ^ t.rotate_left(7);
                    let packets = 1 + (k.s_pkts.uniform(et, d) * 2.0) as u32;
                    // Some stacks add 12 bytes of options per SYN.
                    let per_packet = if k.s_opts.uniform(et, d) < 0.5 {
                        52
                    } else {
                        40
                    };
                    sink(Flow {
                        src,
                        dst: self.observed.target_addr(k.target, e, d, t),
                        src_port: ephemeral(k.s_sport.uniform(et, d)),
                        dst_port: port,
                        proto: proto::TCP,
                        packets,
                        octets: packets * per_packet,
                        flags: tcp_flags::SYN,
                        start_secs: hour_base + (k.s_time.uniform(et, d) * 3_500.0) as i64,
                        duration_secs: 0,
                    });
                }
            }
            ActivityKind::SlowScan { targets } => {
                for t in 0..targets as u32 {
                    let et = e ^ t.rotate_left(7);
                    let port = self.config.scan_ports
                        [k.ss_port.index(e ^ t, d, self.config.scan_ports.len())];
                    let per_packet = if k.ss_opts.uniform(et, d) < 0.5 {
                        52
                    } else {
                        40
                    };
                    sink(Flow {
                        src,
                        dst: self.observed.target_addr(k.target, e, d, 0x8000_0000 | t),
                        src_port: ephemeral(k.ss_sport.uniform(et, d)),
                        dst_port: port,
                        proto: proto::TCP,
                        packets: 1,
                        octets: per_packet,
                        flags: tcp_flags::SYN,
                        start_secs: day_base + (k.ss_time.uniform(et, d) * 86_000.0) as i64,
                        duration_secs: 0,
                    });
                }
            }
            ActivityKind::Probe => {
                let n = 1 + k.p_count.index(e, d, 2) as u32;
                for t in 0..n {
                    let et = e ^ t.rotate_left(9);
                    let packets = 1 + (k.p_pkts.uniform(et, d) * 2.0) as u32;
                    sink(Flow {
                        src,
                        dst: self.observed.target_addr(k.target, e, d, 0x4000_0000 | t),
                        src_port: ephemeral(k.p_sport.uniform(et, d)),
                        dst_port: ephemeral(k.p_dport.uniform(et, d)),
                        proto: proto::TCP,
                        packets,
                        octets: packets * 40,
                        flags: tcp_flags::SYN,
                        start_secs: day_base + (k.p_time.uniform(et, d) * 86_000.0) as i64,
                        duration_secs: 0,
                    });
                }
            }
            ActivityKind::Spam { messages } => {
                // A message ≈ one SMTP delivery flow; cap the expansion so a
                // burst never floods the pipeline.
                let flows = (messages as u32).min(60);
                self.truncated_counter
                    .add(u64::from(messages as u32) - u64::from(flows));
                for t in 0..flows {
                    let et = e ^ t.rotate_left(11);
                    let mx = k
                        .m_server
                        .index(e ^ t, d, self.config.mail_server_count as usize);
                    let packets = 10 + (k.m_pkts.uniform(et, d) * 20.0) as u32;
                    let payload = 2_000 + (k.m_bytes.uniform(et, d) * 6_000.0) as u32;
                    sink(Flow {
                        src,
                        dst: self.mail_addr(mx as u32),
                        src_port: ephemeral(k.m_sport.uniform(et, d)),
                        dst_port: 25,
                        proto: proto::TCP,
                        packets,
                        octets: packets * 40 + payload,
                        flags: tcp_flags::SYN | tcp_flags::ACK | tcp_flags::PSH | tcp_flags::FIN,
                        start_secs: day_base + (k.m_time.uniform(et, d) * 86_000.0) as i64,
                        duration_secs: 2 + (k.m_dur.uniform(et, d) * 60.0) as u32,
                    });
                }
            }
            ActivityKind::C2Checkin { .. } => {
                // C&C rendezvous does not transit the observed border.
            }
        }
        self.flows_counter.add(emitted);
    }

    /// Expand one event into `arena`, returning how many flows it added.
    ///
    /// Batch-collection variant of [`expand`](Self::expand): flows are
    /// bump-allocated into chunks the arena retains across
    /// [`reset`](arena::Arena::reset), so a caller that recycles one
    /// arena per day reaches a steady state where expansion performs no
    /// heap allocation at all.
    pub fn expand_into(&self, event: &ActivityEvent, arena: &mut arena::Arena<Flow>) -> usize {
        let before = arena.len();
        self.expand(event, |f| {
            arena.alloc(f);
        });
        arena.len() - before
    }

    /// Generate all border flows for one day into `arena`: hostile
    /// activity plus (optionally) benign clients. Returns the number of
    /// flows added. See [`expand_into`](Self::expand_into) for the
    /// allocation-recycling contract.
    pub fn flows_on_into(
        &self,
        model: &ActivityModel<'_>,
        day: Day,
        include_benign: bool,
        arena: &mut arena::Arena<Flow>,
    ) -> usize {
        let before = arena.len();
        self.flows_on(model, day, include_benign, |f| {
            arena.alloc(f);
        });
        arena.len() - before
    }

    /// Generate all border flows for one day: hostile activity plus
    /// (optionally) benign clients.
    pub fn flows_on(
        &self,
        model: &ActivityModel<'_>,
        day: Day,
        include_benign: bool,
        mut sink: impl FnMut(Flow),
    ) {
        model.hostile_events_on(day, |e| self.expand(&e, &mut sink));
        if include_benign {
            model.benign_events_on(day, |e| self.expand(&e, &mut sink));
        }
    }
}

/// An ephemeral source port derived from a uniform draw.
fn ephemeral(u: f64) -> u16 {
    1024 + (u * (65_535.0 - 1024.0)) as u16
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen_fixture() -> (ObservedNetwork, GeneratorConfig) {
        (ObservedNetwork::paper_default(), GeneratorConfig::default())
    }

    fn event(kind: ActivityKind) -> ActivityEvent {
        ActivityEvent {
            day: Day(273),
            src: "9.1.2.3".parse().expect("ok"),
            kind,
        }
    }

    fn expand_all(kind: ActivityKind) -> Vec<Flow> {
        let (net, cfg) = gen_fixture();
        let generator = FlowGenerator::new(&net, cfg, SeedTree::new(1));
        let mut batch = arena::Arena::with_chunk_capacity(64);
        let n = generator.expand_into(&event(kind), &mut batch);
        assert_eq!(n, batch.len(), "fresh arena holds exactly this batch");
        let via_arena: Vec<Flow> = batch.iter().copied().collect();
        let mut via_sink = Vec::new();
        generator.expand(&event(kind), |f| via_sink.push(f));
        assert_eq!(via_arena, via_sink, "arena batch mirrors the sink path");
        via_sink
    }

    #[test]
    fn arena_reset_recycles_capacity_across_batches() {
        let (net, cfg) = gen_fixture();
        let generator = FlowGenerator::new(&net, cfg, SeedTree::new(1));
        let mut batch = arena::Arena::with_chunk_capacity(64);
        generator.expand_into(&event(ActivityKind::Scan { targets: 150 }), &mut batch);
        let cap = batch.capacity();
        batch.reset();
        assert_eq!(batch.len(), 0);
        let n = generator.expand_into(&event(ActivityKind::Scan { targets: 150 }), &mut batch);
        assert!(n > 0);
        assert_eq!(batch.capacity(), cap, "reset keeps chunk capacity");
    }

    #[test]
    fn benign_flows_are_payload_bearing_service_traffic() {
        let flows = expand_all(ActivityKind::Benign { sessions: 4 });
        assert_eq!(flows.len(), 4);
        let (net, cfg) = gen_fixture();
        for f in &flows {
            assert!(f.payload_bearing(), "benign exchanges payload");
            assert!(net.contains(f.dst), "targets the observed network");
            assert!(cfg.benign_ports.contains(&f.dst_port));
            assert!(f.src_port >= 1024);
            assert_eq!(f.day(), Day(273));
        }
    }

    #[test]
    fn scan_flows_are_syn_only_within_one_hour() {
        let flows = expand_all(ActivityKind::Scan { targets: 150 });
        assert_eq!(flows.len(), 150);
        let hours: std::collections::HashSet<u32> = flows.iter().map(Flow::hour).collect();
        assert!(hours.len() <= 2, "sweep is hour-scale: {hours:?}");
        let ports: std::collections::HashSet<u16> = flows.iter().map(|f| f.dst_port).collect();
        assert_eq!(ports.len(), 1, "one port per sweep");
        let dsts: std::collections::HashSet<u32> = flows.iter().map(|f| f.dst.raw()).collect();
        assert!(dsts.len() > 140, "targets are distinct: {}", dsts.len());
        for f in &flows {
            assert!(!f.payload_bearing(), "SYN scans never bear payload");
            assert_eq!(f.flags, tcp_flags::SYN);
        }
        // The 36-byte option pitfall appears in roughly half the flows.
        let padded = flows.iter().filter(|f| f.payload_estimate() > 0).count();
        assert!(
            padded > 30 && padded < 120,
            "option padding present: {padded}"
        );
    }

    #[test]
    fn slow_scan_spreads_over_the_day() {
        let flows = expand_all(ActivityKind::SlowScan { targets: 20 });
        assert_eq!(flows.len(), 20);
        let hours: std::collections::HashSet<u32> = flows.iter().map(Flow::hour).collect();
        assert!(hours.len() >= 5, "slow scan spans the day: {hours:?}");
        assert!(flows.iter().all(|f| !f.payload_bearing()));
    }

    #[test]
    fn probes_are_ephemeral_to_ephemeral() {
        let flows = expand_all(ActivityKind::Probe);
        assert!(!flows.is_empty() && flows.len() <= 2);
        for f in &flows {
            assert!(f.ephemeral_to_ephemeral());
            assert!(!f.payload_bearing());
        }
    }

    #[test]
    fn spam_targets_mail_servers_with_payload() {
        let flows = expand_all(ActivityKind::Spam { messages: 30 });
        assert_eq!(flows.len(), 30);
        for f in &flows {
            assert_eq!(f.dst_port, 25);
            assert!(f.payload_bearing(), "SMTP carries payload");
        }
        let mxes: std::collections::HashSet<u32> = flows.iter().map(|f| f.dst.raw()).collect();
        assert!(mxes.len() <= 6, "bounded MX set");
    }

    #[test]
    fn spam_expansion_is_capped() {
        let flows = expand_all(ActivityKind::Spam { messages: 500 });
        assert_eq!(flows.len(), 60);
    }

    #[test]
    fn c2_produces_no_border_flows() {
        assert!(expand_all(ActivityKind::C2Checkin { channel: 3 }).is_empty());
    }

    #[test]
    fn expansion_is_deterministic() {
        let a = expand_all(ActivityKind::Scan { targets: 40 });
        let b = expand_all(ActivityKind::Scan { targets: 40 });
        assert_eq!(a, b);
    }

    #[test]
    fn server_addresses_are_inside_and_stable() {
        let (net, cfg) = gen_fixture();
        let generator = FlowGenerator::new(&net, cfg, SeedTree::new(2));
        for i in 0..100 {
            assert!(net.contains(generator.server_addr(i)));
            assert!(net.contains(generator.mail_addr(i)));
        }
        assert_eq!(generator.server_addr(3), generator.server_addr(3 + 48));
    }

    #[test]
    fn telemetry_counts_events_flows_and_truncation() {
        let (net, cfg) = gen_fixture();
        let registry = Registry::full();
        let mut generator = FlowGenerator::new(&net, cfg, SeedTree::new(1));
        generator.attach_telemetry(&registry);
        let mut n = 0usize;
        generator.expand(&event(ActivityKind::Scan { targets: 40 }), |_| n += 1);
        generator.expand(&event(ActivityKind::Spam { messages: 500 }), |_| n += 1);
        let snap = registry.snapshot();
        assert_eq!(snap.counters["flowgen.events_expanded"], 2);
        assert_eq!(snap.counters["flowgen.flows_generated"], n as u64);
        assert_eq!(snap.counters["flowgen.flows_generated"], 40 + 60);
        assert_eq!(
            snap.counters["flowgen.flows_truncated"], 440,
            "spam messages past the 60-flow cap"
        );
    }

    /// FNV-1a over every field of every flow, in emission order.
    fn flow_checksum(flows: &[Flow]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for f in flows {
            eat(&f.src.raw().to_le_bytes());
            eat(&f.dst.raw().to_le_bytes());
            eat(&f.src_port.to_le_bytes());
            eat(&f.dst_port.to_le_bytes());
            eat(&[f.proto, f.flags]);
            eat(&f.packets.to_le_bytes());
            eat(&f.octets.to_le_bytes());
            eat(&f.start_secs.to_le_bytes());
            eat(&f.duration_secs.to_le_bytes());
        }
        h
    }

    #[test]
    fn generated_days_are_pinned() {
        // Golden checksum of two whole days (hostile plus benign) of a small
        // world: any change to how flow fields or activity decisions are
        // derived shows up here before it silently moves `results/`.
        use unclean_netmodel::{Scenario, ScenarioConfig};
        let scenario = Scenario::generate(ScenarioConfig::at_scale(0.001, 11));
        let model = scenario.activity();
        let generator = FlowGenerator::new(
            &scenario.observed,
            GeneratorConfig::default(),
            scenario.seeds.child("flowgen"),
        );
        let first = scenario.dates.unclean_window.start;
        let mut got = Vec::new();
        for day in [first, Day(first.0 + 7)] {
            let mut flows = Vec::new();
            generator.flows_on(&model, day, true, |f| flows.push(f));
            got.push((flows.len(), flow_checksum(&flows)));
        }
        assert_eq!(
            got,
            vec![
                (41_225, 0x2bdd_7ee3_40ea_6f06),
                (40_636, 0x6c6f_88fb_7faf_efb8)
            ]
        );
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_rejected() {
        let net = ObservedNetwork::paper_default();
        let cfg = GeneratorConfig {
            server_count: 0,
            ..GeneratorConfig::default()
        };
        let _ = FlowGenerator::new(&net, cfg, SeedTree::new(1));
    }
}
