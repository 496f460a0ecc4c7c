//! Layer probes that need a generated world: flow expansion and the
//! archive codec over the unclean window, and the two detector sweeps
//! the experiments call. Each times the crate's public entry point from
//! outside; nothing here adds tracing inside the program.

use crate::Outcome;
use std::hint::black_box;
use std::time::Instant;
use unclean_bench::ExperimentContext;
use unclean_core::Day;
use unclean_detect::{build_candidates_with, daily_scanners_with};
use unclean_flowgen::record::EPOCH_UNIX_SECS;
use unclean_flowgen::{Flow, FlowGenerator, IndexedArchive, IndexedArchiveWriter, SegmentCursor};
use unclean_telemetry::Registry;

/// Exporter boot anchor for a one-day spool, as the detect sweep uses:
/// the day's own midnight.
fn day_boot(day: Day) -> u32 {
    (i64::from(EPOCH_UNIX_SECS) + i64::from(day.0) * 86_400).max(0) as u32
}

/// `flowgen.*`: `FlowGenerator::flows_on` over the unclean window
/// (benign traffic included, as the detect sweep runs it), then each
/// day's flows through `IndexedArchiveWriter` and back through
/// `IndexedArchive` + `SegmentCursor`. A day whose decoded flows differ
/// from the encoded ones counts as a failed operation.
pub fn flow_layers(ctx: &ExperimentContext, out: &mut Outcome) {
    let scenario = &ctx.scenario;
    let cfg = ctx.pipeline_config();
    let model = scenario.activity();
    let generator = FlowGenerator::new(
        &scenario.observed,
        cfg.generator.clone(),
        scenario.seeds.child("flowgen"),
    );
    let days: Vec<Day> = scenario.dates.unclean_window.days().collect();

    let mut flows = 0u64;
    let t = Instant::now();
    for &day in &days {
        generator.flows_on(&model, day, cfg.detect_over_benign, |f| {
            black_box(f);
            flows += 1;
        });
    }
    let expand_s = t.elapsed().as_secs_f64();
    out.set("flowgen.expand_s", expand_s, "s");
    out.set("flowgen.flows_per_s", flows as f64 / expand_s, "1/s");

    let (mut encode_s, mut decode_s, mut spool_bytes) = (0.0, 0.0, 0u64);
    for &day in &days {
        let mut day_flows: Vec<Flow> = Vec::new();
        generator.flows_on(&model, day, cfg.detect_over_benign, |f| day_flows.push(f));
        let t = Instant::now();
        let mut writer = IndexedArchiveWriter::new(Vec::new(), day_boot(day));
        for f in &day_flows {
            writer.push(f).expect("in-memory spool");
        }
        let (spool, _) = writer.finish().expect("in-memory spool");
        encode_s += t.elapsed().as_secs_f64();
        spool_bytes += spool.len() as u64;

        let t = Instant::now();
        let mut decoded = 0usize;
        let mut same = true;
        let archive = IndexedArchive::open(&spool).ok().flatten();
        if let Some(archive) = &archive {
            let mut entry = None;
            for i in 0..archive.segments().len() {
                let mut cursor =
                    SegmentCursor::new(archive.segment_bytes(i), archive.boot_unix_secs(), entry);
                let replayed = cursor.for_each_flow(|f| {
                    same &= day_flows.get(decoded) == Some(f);
                    decoded += 1;
                });
                same &= replayed.is_ok();
                entry = Some(archive.segments()[i].end_seq);
            }
        }
        decode_s += t.elapsed().as_secs_f64();
        out.attempted += 1;
        if archive.is_none() || !same || decoded != day_flows.len() {
            eprintln!("[perfbench] flowgen: day {} did not round-trip", day.0);
            out.failed += 1;
        }
    }
    out.set("flowgen.encode_s", encode_s, "s");
    out.set("flowgen.decode_s", decode_s, "s");
    out.set("flowgen.spool_bytes", spool_bytes as f64, "bytes");
}

/// `detect.build_candidates_s` and `detect.daily_scanners_s`: the §6
/// candidate scan and Figure 1's daily scan, called with the arguments
/// `table2` and `fig1` pass.
pub fn detect_layers(ctx: &ExperimentContext, out: &mut Outcome) {
    let cfg = ctx.pipeline_config();
    let off = Registry::off();
    let t = Instant::now();
    black_box(build_candidates_with(
        &ctx.scenario,
        &ctx.reports.bot_test,
        24,
        &cfg,
        &off,
    ));
    out.set("detect.build_candidates_s", t.elapsed().as_secs_f64(), "s");
    let t = Instant::now();
    black_box(daily_scanners_with(
        &ctx.scenario,
        ctx.scenario.dates.fig1_span,
        false,
        &cfg,
        &off,
    ));
    out.set("detect.daily_scanners_s", t.elapsed().as_secs_f64(), "s");
}
