//! Allocation accounting for the zero-copy v2 replay path.
//!
//! The acceptance contract is O(1) *amortized* allocations per replayed
//! flow: decoding borrows the segment bytes (`FlowView`/`SegmentCursor`),
//! yields `Copy` records, and must not allocate per datagram or per flow.
//! This test installs a counting global allocator (its own test binary —
//! the library crates `forbid(unsafe_code)`, a test crate root may not)
//! and verifies the allocation count during a full replay stays flat as
//! the flow count quadruples.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use unclean_core::{BlockSet, Ip, IpSet};
use unclean_flowgen::record::EPOCH_UNIX_SECS;
use unclean_flowgen::{
    CandidateCollector, Flow, IndexedArchive, IndexedArchiveWriter, SegmentCursor,
};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// `ALLOCATIONS` counts every thread's allocations, and the test harness
/// runs tests on parallel threads: each test holds this lock for its
/// whole body so one test's spool building never lands inside the
/// other's measured walk.
static MEASURE: Mutex<()> = Mutex::new(());

fn spool(flows_per_day: u32) -> Vec<u8> {
    let mut writer = IndexedArchiveWriter::new(Vec::new(), EPOCH_UNIX_SECS);
    for day in 0..3i64 {
        for i in 0..flows_per_day {
            writer
                .push(&Flow {
                    src: Ip(0x0a00_0000 + i),
                    dst: Ip(0xc633_6401),
                    src_port: (1024 + i % 60_000) as u16,
                    dst_port: 80,
                    proto: 6,
                    packets: 3 + i % 7,
                    octets: 120 + i % 1400,
                    flags: 0x12,
                    start_secs: day * 86_400 + i64::from(i % 86_000),
                    duration_secs: i % 60,
                })
                .expect("in-memory spool");
        }
    }
    writer.finish().expect("in-memory spool").0
}

/// Walk every segment of `bytes` through the zero-copy cursor, returning
/// (flows delivered, heap allocations during the walk).
fn replay_counting(bytes: &[u8]) -> (u64, u64) {
    let archive = IndexedArchive::open(bytes).expect("indexes").expect("v2");
    let segments = archive.segments().to_vec();
    let mut flows = 0u64;
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for i in 0..segments.len() {
        let entry = (i > 0).then(|| segments[i - 1].end_seq);
        let mut cursor = SegmentCursor::new(archive.segment_bytes(i), EPOCH_UNIX_SECS, entry);
        cursor.for_each_flow(|_| flows += 1).expect("clean replay");
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    (flows, after - before)
}

#[test]
fn replay_allocations_do_not_scale_with_flow_count() {
    // The guarded value is `()`, so a poisoned lock is still valid.
    let _serial = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    let small = spool(500);
    let large = spool(2_000);

    // Warm-up pass so one-time lazy initialization (error paths, runtime
    // internals) doesn't pollute the measured walks.
    let _ = replay_counting(&small);

    let (small_flows, small_allocs) = replay_counting(&small);
    let (large_flows, large_allocs) = replay_counting(&large);
    assert_eq!(small_flows, 3 * 500);
    assert_eq!(large_flows, 3 * 2_000);

    // O(1) amortized per flow: the walk itself must be allocation-flat.
    // Allow a tiny constant budget (test harness noise), but 4x the flows
    // must not mean 4x the allocations.
    assert!(
        small_allocs <= 8,
        "zero-copy replay of {small_flows} flows made {small_allocs} allocations"
    );
    assert!(
        large_allocs <= 8,
        "zero-copy replay of {large_flows} flows made {large_allocs} allocations"
    );
}

/// Walk every segment of `bytes` through the zero-copy cursor and feed
/// each flow to `collector` — the §6 candidate scan path. Returns
/// (flows delivered, heap allocations during the walk).
fn candidate_scan_counting(bytes: &[u8], collector: &mut CandidateCollector) -> (u64, u64) {
    let archive = IndexedArchive::open(bytes).expect("indexes").expect("v2");
    let segments = archive.segments().to_vec();
    let mut flows = 0u64;
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for i in 0..segments.len() {
        let entry = (i > 0).then(|| segments[i - 1].end_seq);
        let mut cursor = SegmentCursor::new(archive.segment_bytes(i), EPOCH_UNIX_SECS, entry);
        cursor
            .for_each_flow(|f| {
                flows += 1;
                collector.observe(f);
            })
            .expect("clean replay");
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    (flows, after - before)
}

#[test]
fn candidate_scan_allocations_do_not_scale_with_flow_count() {
    // The guarded value is `()`, so a poisoned lock is still valid.
    let _serial = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    let small = spool(500);
    let large = spool(2_000);

    // Watch every /24 the spool's sources fall into, so each flow takes
    // the expensive branch (block match + evidence update).
    let sources = IpSet::from_ips((0..2_000u32).map(|i| Ip(0x0a00_0000 + i)));
    let mut collector = CandidateCollector::new(BlockSet::of(&sources, 24));

    // Warm-up: first-seen sources legitimately allocate their evidence
    // entries (amortized over the archive's life); the steady-state
    // contract covers re-scans over a warmed collector — the shape of
    // the §6 analysis, which replays the same spool repeatedly.
    let _ = candidate_scan_counting(&small, &mut collector);
    let _ = candidate_scan_counting(&large, &mut collector);

    let (small_flows, small_allocs) = candidate_scan_counting(&small, &mut collector);
    let (large_flows, large_allocs) = candidate_scan_counting(&large, &mut collector);
    assert_eq!(small_flows, 3 * 500);
    assert_eq!(large_flows, 3 * 2_000);
    assert!(collector.flows_matched() > 0, "scan exercised the hot path");

    assert!(
        small_allocs <= 8,
        "candidate scan of {small_flows} flows made {small_allocs} allocations"
    );
    assert!(
        large_allocs <= 8,
        "candidate scan of {large_flows} flows made {large_allocs} allocations"
    );
}
