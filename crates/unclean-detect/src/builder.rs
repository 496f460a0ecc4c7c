//! The full report pipeline: scenario → Table 1 and Table 2.
//!
//! [`build_reports`] reproduces the paper's report inventory from a
//! generated scenario: the provided bot and phishing reports, the observed
//! scan and spam reports (produced by actually running the behavioural
//! detectors over the generated border flows), the control report, the
//! bot-test snapshot, and the `R_unclean` union. [`build_candidates`]
//! streams the blocking window's traffic from the bot-test /24s through
//! the candidate collector for the §6 analysis, and [`daily_scanners`]
//! produces Figure 1's per-day scanner series.

use crate::botmonitor::{BotMonitor, MonitorConfig};
use crate::phishlist::phish_report;
use crate::scan::{FanoutConfig, HourlyFanoutDetector};
use crate::spam::{SpamConfig, SpamDetector};
use crossbeam::executor::Executor;
use serde::{Deserialize, Serialize};
use unclean_core::{
    union_reports, BlockSet, Candidate, DateRange, Day, IpSet, Provenance, Report, ReportClass,
};
use unclean_flowgen::{CandidateCollector, FlowGenerator, GeneratorConfig};
use unclean_netmodel::{control_report_with, ActivityEvent, Scenario};
use unclean_telemetry::Registry;

/// Pipeline configuration.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Scan-detector settings.
    pub fanout: FanoutConfig,
    /// Spam-detector settings.
    pub spam: SpamConfig,
    /// Bot-monitor settings.
    pub monitor: MonitorConfig,
    /// Flow-generator settings.
    pub generator: GeneratorConfig,
    /// Feed benign traffic through the detectors too (slower, but proves
    /// the false-positive behaviour; the detectors' thresholds sit far
    /// above benign fan-out either way).
    pub detect_over_benign: bool,
    /// Worker threads for the day-sharded sweeps (0 = one per core).
    /// Results are identical at any thread count, so this is a pure
    /// throughput knob and is deliberately not serialized with the rest
    /// of the configuration.
    #[serde(skip)]
    pub threads: usize,
}

impl PipelineConfig {
    /// The paper-shaped default, including benign traffic in detection.
    pub fn paper() -> PipelineConfig {
        PipelineConfig {
            detect_over_benign: true,
            ..PipelineConfig::default()
        }
    }
}

/// Days per detector-sweep chunk. A chunk is served by one detector
/// pair whose window state is flushed (cleared, capacity kept) at every
/// day boundary, so its size trades scratch reuse against sweep
/// parallelism. It must depend only on the data — never on the worker
/// count — to keep the sweep byte-identical at any `--threads`.
const SWEEP_CHUNK_DAYS: usize = 2;

/// The paper's report inventory (Tables 1 and 2).
#[derive(Debug, Clone)]
pub struct ReportSet {
    /// `R_bot`: provided bot addresses for the unclean window.
    pub bot: Report,
    /// `R_phish`: the full provided phishing list (May–November).
    pub phish: Report,
    /// The phishing sub-report for the unclean window (Figure 4(ii)'s
    /// small present-day set).
    pub phish_window: Report,
    /// `R_phish-test`: early-window phishing history (Figure 5's
    /// predictor).
    pub phish_test: Report,
    /// `R_scan`: detector-observed scanners in the unclean window.
    pub scan: Report,
    /// `R_spam`: detector-observed spammers in the unclean window.
    pub spam: Report,
    /// `R_control`: payload-bearing visitors during the control week.
    pub control: Report,
    /// `R_bot-test`: the five-month-old single-botnet snapshot.
    pub bot_test: Report,
    /// `R_unclean`: the union of bot, phish, scan and spam (Table 2).
    pub unclean: Report,
}

impl ReportSet {
    /// The four unclean reports in the paper's order.
    pub fn unclean_reports(&self) -> [&Report; 4] {
        [&self.bot, &self.phish, &self.scan, &self.spam]
    }
}

/// Run the full pipeline over a scenario.
pub fn build_reports(scenario: &Scenario, cfg: &PipelineConfig) -> ReportSet {
    build_reports_with(scenario, cfg, &Registry::off())
}

/// [`build_reports`] with telemetry: the detector sweep, provided-report
/// assembly, and §3.2 filter each run under a `pipeline/...` span; flow
/// generation counts onto `flowgen.*`; detector ingest and hits count
/// onto `detect.*`; and every final report's cardinality lands in a
/// `pipeline.reports.<tag>` counter.
pub fn build_reports_with(
    scenario: &Scenario,
    cfg: &PipelineConfig,
    registry: &Registry,
) -> ReportSet {
    let pipeline_span = registry.span("pipeline");
    let dates = scenario.dates;
    let model = scenario.activity();
    let mut generator = FlowGenerator::new(
        &scenario.observed,
        cfg.generator.clone(),
        scenario.seeds.child("flowgen"),
    );
    generator.attach_telemetry(registry);

    // Observed reports: each day's border flows stream from the
    // generator straight into the detectors, so no day's flows are ever
    // materialized. One detector pair serves a fixed-size chunk of days,
    // flushing window state at every day boundary (clearing state,
    // keeping capacity — the shard's reused scratch). Chunk boundaries
    // depend only on the day list, never the worker count; flows never
    // cross a day boundary and the detectors' merge is a pure union over
    // flushed shards, so the result is bit-for-bit identical to the
    // sequential sweep at any thread count.
    let pool = Executor::new(cfg.threads);
    let flows_ingested = registry.counter("detect.flows_ingested");
    let mut scan_det = HourlyFanoutDetector::new(cfg.fanout.clone());
    let mut spam_det = SpamDetector::new(cfg.spam.clone());
    {
        let mut detect_span = pipeline_span.child("detect");
        detect_span.field("days", dates.unclean_window.len_days());
        detect_span.field("threads", pool.threads() as u64);
        // The sweep spools nothing; the field stays, always 0, so span
        // readers charting it (perfbench's `detect.spool_bytes`) keep a
        // value.
        detect_span.field("spool_bytes", 0u64);
        let days: Vec<Day> = dates.unclean_window.days().collect();
        let chunks: Vec<&[Day]> = days.chunks(SWEEP_CHUNK_DAYS).collect();
        let shards = pool.run_indexed(chunks.len(), |c| {
            let mut scan_shard = HourlyFanoutDetector::new(cfg.fanout.clone());
            let mut spam_shard = SpamDetector::new(cfg.spam.clone());
            for &day in chunks[c] {
                generator.flows_on(&model, day, cfg.detect_over_benign, |f| {
                    flows_ingested.inc();
                    scan_shard.observe(&f);
                    spam_shard.observe(&f);
                });
                scan_shard.flush_window_state();
                spam_shard.flush_window_state();
            }
            // Finished shards wait for the merge holding only their
            // detections, not the scratch capacity the flushes kept.
            scan_shard.release_window_state();
            spam_shard.release_window_state();
            (scan_shard, spam_shard)
        });
        for (scan_shard, spam_shard) in shards {
            scan_det.merge(scan_shard);
            spam_det.merge(spam_shard);
        }
    }
    registry
        .counter("detect.scan.hits")
        .add(scan_det.detected_count() as u64);
    registry
        .counter("detect.spam.hits")
        .add(spam_det.detected_count() as u64);
    let scan = Report::new(
        "scan",
        ReportClass::Scanning,
        Provenance::Observed,
        dates.unclean_window,
        scan_det.detected(),
    );
    let spam = Report::new(
        "spam",
        ReportClass::Spamming,
        Provenance::Observed,
        dates.unclean_window,
        spam_det.detected(),
    );

    // Provided reports.
    let provided_span = pipeline_span.child("provided");
    let monitor = BotMonitor::new(&scenario.channels, &cfg.monitor);
    let bot = Report::new(
        "bot",
        ReportClass::Bots,
        Provenance::Provided,
        dates.unclean_window,
        monitor.collect_with(&model, dates.unclean_window, &pool),
    );
    let phish = phish_report(&scenario.phish_sites, dates.phish_span, "phish");
    let phish_window = phish_report(&scenario.phish_sites, dates.unclean_window, "phish-oct");
    let phish_test = phish_report(
        &scenario.phish_sites,
        DateRange::new(dates.phish_span.start, dates.phish_span.start + 30),
        "phish-test",
    );
    let bot_test = Report::new(
        "bot-test",
        ReportClass::Bots,
        Provenance::Provided,
        DateRange::single(dates.bot_test_day),
        scenario.bot_test_addrs(),
    );

    // The observed control report.
    let control = control_report_with(&model, dates.control_week, &pool);
    drop(provided_span);

    // Filter everything the way §3.2 requires (reserved + observed-network
    // addresses). Synthetic sources can't produce those, but the pipeline
    // runs the filter anyway — it is part of the method.
    let filter_span = pipeline_span.child("filter");
    let observed_blocks = scenario.observed.blocks().to_vec();
    let filter = |r: Report| r.filter_for_analysis(&observed_blocks);
    let bot = filter(bot);
    let phish = filter(phish);
    let phish_window = filter(phish_window);
    let phish_test = filter(phish_test);
    let scan = filter(scan);
    let spam = filter(spam);
    let bot_test = filter(bot_test);
    let control = filter(control);
    drop(filter_span);

    let unclean = union_reports(&[&bot, &phish, &scan, &spam], "unclean");
    let reports = ReportSet {
        bot,
        phish,
        phish_window,
        phish_test,
        scan,
        spam,
        control,
        bot_test,
        unclean,
    };
    for r in [
        &reports.bot,
        &reports.phish,
        &reports.scan,
        &reports.spam,
        &reports.control,
        &reports.bot_test,
        &reports.unclean,
    ] {
        registry
            .counter(&format!("pipeline.reports.{}", r.tag()))
            .add(r.len() as u64);
    }
    reports
}

/// Stream the blocking window's traffic from `C_n(bot_test)` through the
/// candidate collector (§6.1's `R_candidate`; the paper uses n = 24).
pub fn build_candidates(
    scenario: &Scenario,
    bot_test: &Report,
    prefix_len: u8,
    cfg: &PipelineConfig,
) -> Vec<Candidate> {
    build_candidates_with(scenario, bot_test, prefix_len, cfg, &Registry::off())
}

/// [`build_candidates`] with telemetry: runs under a
/// `pipeline/candidates` span, counts collector ingest onto
/// `collector.*`, and books the partition sizes as
/// `detect.candidates.total` and `detect.candidates.payload_bearing`
/// (the §6.1 "legitimate user" half — candidates a naive blocker would
/// falsely block).
///
/// The §6 scan runs one executor worker per window day: that day's
/// hostile events from the watched blocks and benign events from those
/// same /24s expand straight into a per-day collector, and the day
/// collectors fold in day order. Expansion is a pure function of the
/// event and the seed tree, and evidence merging is order-insensitive,
/// so the candidate list is byte-identical to one sequential scan at any
/// `--threads` value.
pub fn build_candidates_with(
    scenario: &Scenario,
    bot_test: &Report,
    prefix_len: u8,
    cfg: &PipelineConfig,
    registry: &Registry,
) -> Vec<Candidate> {
    let _span = registry.span("pipeline/candidates");
    let blocks = BlockSet::of_recorded(bot_test.addresses(), prefix_len, registry);
    let model = scenario.activity();
    let mut generator = FlowGenerator::new(
        &scenario.observed,
        cfg.generator.clone(),
        scenario.seeds.child("flowgen"),
    );
    generator.attach_telemetry(registry);
    let days: Vec<Day> = scenario.dates.unclean_window.days().collect();
    let shards = Executor::new(cfg.threads).run_indexed(days.len(), |i| {
        let mut shard = CandidateCollector::new(blocks.clone());
        let mut observe = |e: ActivityEvent| generator.expand(&e, |f| shard.observe(&f));
        model.hostile_events_on_filtered(days[i], |ip| blocks.contains(ip), &mut observe);
        // Benign traffic from those same /24s (the innocents at risk).
        model.benign_events_on_filtered(
            days[i],
            |prefix24| blocks.contains(unclean_core::Ip(prefix24 << 8)),
            &mut observe,
        );
        shard
    });
    let mut collector = CandidateCollector::new(blocks);
    collector.attach_telemetry(registry);
    for shard in &shards {
        collector.merge(shard);
    }
    let candidates = collector.candidates();
    registry
        .counter("detect.candidates.total")
        .add(candidates.len() as u64);
    registry
        .counter("detect.candidates.payload_bearing")
        .add(candidates.iter().filter(|c| c.payload_bearing).count() as u64);
    candidates
}

/// Figure 1's daily scanner series: for each day in `span`, the set of
/// sources the scan detector flags that day.
///
/// Hostile flows only by default: the detector's threshold sits an order
/// of magnitude above any benign client's fan-out (a property asserted by
/// the pipeline tests), so including benign traffic changes nothing but
/// the runtime.
pub fn daily_scanners(
    scenario: &Scenario,
    span: DateRange,
    include_benign: bool,
    cfg: &PipelineConfig,
) -> Vec<(Day, IpSet)> {
    daily_scanners_with(scenario, span, include_benign, cfg, &Registry::off())
}

/// [`daily_scanners`] with telemetry: the sweep runs under a
/// `pipeline/daily_scan` span (tagged with the day count) and per-day
/// detections accumulate into `detect.scan.daily_hits`.
pub fn daily_scanners_with(
    scenario: &Scenario,
    span: DateRange,
    include_benign: bool,
    cfg: &PipelineConfig,
    registry: &Registry,
) -> Vec<(Day, IpSet)> {
    let mut sweep_span = registry.span("pipeline/daily_scan");
    sweep_span.field("days", span.len_days());
    let daily_hits = registry.counter("detect.scan.daily_hits");
    let model = scenario.activity();
    let mut generator = FlowGenerator::new(
        &scenario.observed,
        cfg.generator.clone(),
        scenario.seeds.child("flowgen"),
    );
    generator.attach_telemetry(registry);
    // Each day gets a fresh detector, so the series is embarrassingly
    // parallel; results come back in day order regardless of thread count.
    let days: Vec<Day> = span.days().collect();
    Executor::new(cfg.threads).run_indexed(days.len(), |i| {
        let mut det = HourlyFanoutDetector::new(cfg.fanout.clone());
        generator.flows_on(&model, days[i], include_benign, |f| det.observe(&f));
        let detected = det.detected();
        daily_hits.add(detected.len() as u64);
        (days[i], detected)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use unclean_netmodel::ScenarioConfig;

    fn scenario() -> Scenario {
        Scenario::generate(ScenarioConfig::at_scale(0.001, 11))
    }

    #[test]
    fn pipeline_produces_paper_shaped_inventory() {
        let s = scenario();
        let reports = build_reports(&s, &PipelineConfig::paper());

        // Every report non-empty with the right metadata.
        assert_eq!(reports.bot.class(), ReportClass::Bots);
        assert_eq!(reports.bot.provenance(), Provenance::Provided);
        assert_eq!(reports.scan.provenance(), Provenance::Observed);
        assert_eq!(reports.spam.provenance(), Provenance::Observed);
        assert_eq!(reports.control.class(), ReportClass::Control);
        for r in reports.unclean_reports() {
            assert!(!r.is_empty(), "{} should be non-empty", r.tag());
        }
        assert!(!reports.bot_test.is_empty());
        assert!(!reports.control.is_empty());

        // Size ordering matches Table 1:
        // control ≫ bot > spam > scan > phish ≫ bot-test.
        assert!(reports.control.len() > reports.bot.len() * 10);
        assert!(reports.bot.len() > reports.spam.len());
        assert!(reports.spam.len() > reports.scan.len());
        assert!(reports.bot.len() > reports.phish.len());
        assert!(reports.bot_test.len() <= 186);

        // The union covers each constituent.
        for r in reports.unclean_reports() {
            assert!(r.addresses().intersect(reports.unclean.addresses()).len() == r.len());
        }
    }

    #[test]
    fn report_sizes_track_targets() {
        let s = scenario();
        let reports = build_reports(&s, &PipelineConfig::paper());
        let bot_target = s.config.bot_target as f64;
        let ratio = reports.bot.len() as f64 / bot_target;
        assert!((0.4..2.0).contains(&ratio), "bot size ratio {ratio}");
        // Paper ratios: scan/bot ≈ 0.24, spam/bot ≈ 0.64 — hold loosely.
        let scan_ratio = reports.scan.len() as f64 / reports.bot.len() as f64;
        let spam_ratio = reports.spam.len() as f64 / reports.bot.len() as f64;
        assert!((0.1..0.5).contains(&scan_ratio), "scan/bot {scan_ratio}");
        assert!((0.35..1.0).contains(&spam_ratio), "spam/bot {spam_ratio}");
    }

    #[test]
    fn candidates_come_from_bot_test_blocks() {
        let s = scenario();
        let reports = build_reports(&s, &PipelineConfig::paper());
        let candidates = build_candidates(&s, &reports.bot_test, 24, &PipelineConfig::paper());
        assert!(!candidates.is_empty(), "unclean /24s keep emitting traffic");
        let blocks = BlockSet::of(reports.bot_test.addresses(), 24);
        for c in &candidates {
            assert!(blocks.contains(c.ip));
        }
        // Sparseness (§6.2): candidates ≪ the spanned address space.
        assert!((candidates.len() as u64) < blocks.address_span() / 10);
    }

    #[test]
    fn daily_scanner_series_shows_campaign() {
        let s = scenario();
        let cfg = PipelineConfig::paper();
        // Sample the series rather than the full 120 days to keep the test
        // quick: pre-campaign, peak, and post-decay days.
        let pre = daily_scanners(
            &s,
            DateRange::single(s.dates.fig1_span.start + 5),
            false,
            &cfg,
        );
        let peak = daily_scanners(&s, DateRange::single(s.dates.fig1_report_day), false, &cfg);
        let post = daily_scanners(
            &s,
            DateRange::single(s.dates.fig1_report_day + 40),
            false,
            &cfg,
        );
        let n = |v: &Vec<(Day, IpSet)>| v[0].1.len();
        assert!(
            n(&peak) > n(&pre),
            "campaign peak ({}) should exceed the pre-campaign baseline ({})",
            n(&peak),
            n(&pre)
        );
        assert!(
            n(&peak) > n(&post),
            "scanning should collapse after the report ({} vs {})",
            n(&peak),
            n(&post)
        );
    }

    #[test]
    fn benign_traffic_never_triggers_detectors() {
        let s = scenario();
        let cfg = PipelineConfig::paper();
        let model = s.activity();
        let generator =
            FlowGenerator::new(&s.observed, cfg.generator.clone(), s.seeds.child("flowgen"));
        let mut scan_det = HourlyFanoutDetector::new(cfg.fanout.clone());
        let mut spam_det = SpamDetector::new(cfg.spam.clone());
        let day = s.dates.unclean_window.start;
        model.benign_events_on(day, |e| {
            generator.expand(&e, |f| {
                scan_det.observe(&f);
                spam_det.observe(&f);
            })
        });
        assert_eq!(
            scan_det.detected_count(),
            0,
            "no benign scan false positives"
        );
        assert_eq!(
            spam_det.detected_count(),
            0,
            "no benign spam false positives"
        );
    }

    #[test]
    fn instrumented_pipeline_matches_and_records() {
        let s = scenario();
        let cfg = PipelineConfig::paper();
        let registry = Registry::full();
        let recorded = build_reports_with(&s, &cfg, &registry);
        let plain = build_reports(&s, &cfg);
        assert_eq!(recorded.bot, plain.bot, "telemetry changes nothing");
        assert_eq!(recorded.unclean, plain.unclean);
        let candidates = build_candidates_with(&s, &recorded.bot_test, 24, &cfg, &registry);
        let snap = registry.snapshot();
        assert!(snap.counters["detect.flows_ingested"] > 0);
        assert_eq!(
            snap.counters["detect.scan.hits"],
            recorded.scan.len() as u64
        );
        assert_eq!(
            snap.counters["detect.spam.hits"],
            recorded.spam.len() as u64
        );
        assert_eq!(
            snap.counters["pipeline.reports.unclean"],
            recorded.unclean.len() as u64
        );
        assert_eq!(
            snap.counters["detect.candidates.total"],
            candidates.len() as u64
        );
        assert!(
            snap.counters["detect.candidates.payload_bearing"]
                <= snap.counters["detect.candidates.total"]
        );
        assert_eq!(snap.spans["pipeline"].count, 1);
        assert_eq!(snap.spans["pipeline/detect"].count, 1);
        assert_eq!(snap.spans["pipeline/provided"].count, 1);
        assert_eq!(snap.spans["pipeline/filter"].count, 1);
        assert_eq!(snap.spans["pipeline/candidates"].count, 1);
        assert!(snap.counters["flowgen.flows_generated"] > 0);
    }

    #[test]
    fn deterministic_pipeline() {
        let s = scenario();
        let a = build_reports(&s, &PipelineConfig::paper());
        let b = build_reports(&s, &PipelineConfig::paper());
        assert_eq!(a.bot, b.bot);
        assert_eq!(a.scan, b.scan);
        assert_eq!(a.spam, b.spam);
        assert_eq!(a.control, b.control);
    }
}
