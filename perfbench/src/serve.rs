//! The serve workloads: an in-process `Server` with one shard thread,
//! driven by one keep-alive connection in a closed loop.
//!
//! * `serve_point` — the scenario's unclean /24s as the list; `GET
//!   /lookup` point queries for hosts drawn from the control report.
//! * `serve_bulk_reload` — control /32s ∪ unclean /24s as the list;
//!   `POST /batch-bin` requests of [`BATCH`] addresses of hosts active
//!   the day after, while a publisher thread republishes the next day's
//!   list on a fixed schedule and calls `Server::reload()` (see
//!   [`bulk_inputs`]).
//!
//! The parent process derives the lists, the query stream and the
//! expected verdicts (from a sorted-CIDR reference, independent of the
//! serving trie) and writes them to the scratch directory; a re-exec'd
//! child serves and checks every response against them, so its peak RSS
//! is the server's and the client's alone.

use crate::{
    from_child, median, peak_rss_mb, quantile, repro, run_child, Args, Outcome, SCENARIO_SEED,
};
use serde_json::Value;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use unclean_bench::{BenchOpts, ExperimentContext};
use unclean_core::blocklist::{parse_scored, render_scored_with_meta};
use unclean_core::blocks::per_block_population;
use unclean_core::{BlockSet, Cidr, DateRange, FrozenTrie, Ip, IpSet};
use unclean_netmodel::control_report;
use unclean_serve::http::{parse_request, write_response, Parse, Version};
use unclean_serve::{build_snapshot, ServeConfig, Server};
use unclean_telemetry::Registry;

/// Server shard threads.
pub const SHARDS: usize = 1;
/// Client connections.
pub const CONNECTIONS: usize = 1;
/// Point queries in the `serve_point` stream (cycled).
const POINT_QUERIES: usize = 1 << 16;
/// Addresses in the `serve_bulk_reload` stream (cycled).
const BULK_QUERIES: usize = 1_000_000;
/// Addresses per `/batch-bin` request.
const BATCH: usize = 100;
/// Publish schedule: first publish, then one every interval (four in a
/// 20 s phase). Each reload parses and freezes the list on the
/// publisher's CPU for about half a second.
const PUBLISH_FIRST_SECS: f64 = 2.5;
const PUBLISH_EVERY_SECS: f64 = 5.0;
/// Cold starts per run, the last of which serves the measured phase:
/// at least [`SETUP_MIN_REPS`], then more while they have taken less than
/// [`SETUP_SECS`] in all (a small list starts in milliseconds, and the
/// median of a handful of those swings with every scheduling hiccup),
/// up to [`SETUP_MAX_REPS`]. Stopping a server waits out its watchdog's
/// half-second sleep, so the small list gets a dozen or so.
const SETUP_MIN_REPS: usize = 5;
const SETUP_SECS: f64 = 3.0;
const SETUP_MAX_REPS: usize = 25;
/// Head-sampling rate of the traced phase (one request in N).
const TRACE_SAMPLE: u64 = 16;
/// Republishes the `serve_point` traced run times after its phase.
const PROBE_PUBLISHES: usize = 3;
/// The phase is cut into windows this long; the traced phase switches
/// between its unsampled and sampled server every window.
const WINDOW_SECS: f64 = 0.1;
/// The quantile of request latency each serve workload reports as
/// `op_time_ms`: serve_point the time 90% of requests beat,
/// serve_bulk_reload the time a quarter of them beat. Not the median,
/// because on the 2-vCPU VM these were defined on the host's load moves
/// request times between runs of the same code, and each workload's
/// quantile is the one that moved least:
/// * serve_point runs in two regimes about 1.6x apart (12-13 us against
///   20-22 us a request), each lasting from tens of milliseconds to
///   seconds with no steal time recorded. The median followed the
///   regimes' mix, moving by up to 47% between runs; the 90th percentile
///   sits in the slow regime whenever it covers a tenth of the phase and
///   moved by 7-16% (interquartile range over median, ten runs).
/// * serve_bulk_reload's request is 100 trie walks from DRAM whose speed
///   drifts with the host's memory traffic, and the slower half of its
///   requests also waits out reloads: over ten runs its 90th percentile
///   moved by 16-29%, its lower quartile by 9%.
///
/// The traced run reports the median, p99 and mean lookup rate
/// (`serve.request_p50_us`, `serve.request_p99_us`,
/// `serve.lookups_per_s`).
fn op_time_quantile(bulk: bool) -> f64 {
    if bulk {
        0.25
    } else {
        0.9
    }
}

/// splitmix64: the benchmark's own seeded stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The host bits of a prefix length (all ones for /0, none for /32).
fn host_mask(len: u8) -> u32 {
    u32::MAX.checked_shr(u32::from(len)).unwrap_or(0)
}

/// The verdict oracle: longest-prefix match by binary search over the
/// sorted `(len, base)` keys, one probe per prefix length present.
/// Verdict bytes follow `/batch-bin`: 0 = clean, else length + 1.
struct Reference {
    lens: Vec<u8>,
    keys: Vec<u64>,
}

impl Reference {
    fn new(entries: &[(Cidr, f64)]) -> Reference {
        let mut keys: Vec<u64> = entries
            .iter()
            .map(|(c, _)| (u64::from(c.len()) << 32) | u64::from(c.base().raw()))
            .collect();
        keys.sort_unstable();
        let mut lens: Vec<u8> = entries.iter().map(|(c, _)| c.len()).collect();
        lens.sort_unstable_by(|a, b| b.cmp(a));
        lens.dedup();
        Reference { lens, keys }
    }

    fn verdict(&self, ip: u32) -> u8 {
        for &len in &self.lens {
            let key = (u64::from(len) << 32) | u64::from(ip & !host_mask(len));
            if self.keys.binary_search(&key).is_ok() {
                return len + 1;
            }
        }
        0
    }
}

fn salt(workload: &str) -> u64 {
    workload.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

fn u32s_to_bytes(v: &[u32]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

fn read(path: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))
}

fn write(path: &Path, bytes: &[u8]) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("write {}: {e}", path.display()))
}

/// A blocklist as `render_scored_with_meta` takes it.
type List = Vec<(Cidr, f64)>;

/// The `serve_bulk_reload` lists and query stream, all taken from the
/// world: list A is the control week's hosts as /32s plus the unclean
/// /24s; list B ("tomorrow's list") is the same for the control week
/// shifted one day later, so the two differ by the world's own
/// day-over-day turnover; the queries are drawn from the hosts active
/// (benign or hostile) on the day after list B's week, so a hit is an
/// active host that is listed and a miss one that is not.
fn bulk_inputs(
    ctx: &ExperimentContext,
    unclean24: &[(Cidr, f64)],
    rng: &mut Rng,
) -> (List, List, Vec<u32>) {
    let host = |ip: u32| (Cidr::new(Ip(ip), 32).expect("a /32 is always aligned"), 1.0);
    let list = |control: &[u32]| {
        let mut list = unclean24.to_vec();
        list.extend(control.iter().map(|&ip| host(ip)));
        list
    };
    let week = ctx.scenario.dates.control_week;
    let model = ctx.scenario.activity();
    let observed = ctx.scenario.observed.blocks();
    let next_week = DateRange::new(week.start + 1, week.end + 1);
    let control_b = control_report(&model, next_week).filter_for_analysis(observed);
    let a = list(ctx.reports.control.addresses().as_raw());
    let b = list(control_b.addresses().as_raw());

    let query_day = next_week.end + 1;
    let mut active: Vec<u32> = Vec::new();
    model.hostile_events_on(query_day, |e| active.push(e.src.raw()));
    model.benign_events_on(query_day, |e| active.push(e.src.raw()));
    let active = IpSet::from_raw(active);
    let active = active.as_raw();
    eprintln!(
        "[perfbench] serve_bulk_reload queries: drawn from the {} hosts active on day {}",
        active.len(),
        query_day.0
    );
    let queries = (0..BULK_QUERIES)
        .map(|_| active[rng.below(active.len())])
        .collect();
    (a, b, queries)
}

/// Share of `a`'s entries that `b` does not list.
fn churn(a: &[(Cidr, f64)], b: &[(Cidr, f64)]) -> f64 {
    let in_b: std::collections::HashSet<Cidr> = b.iter().map(|(c, _)| *c).collect();
    let gone = a.iter().filter(|(c, _)| !in_b.contains(c)).count();
    gone as f64 / a.len().max(1) as f64
}

/// Share of queries whose expected verdict is a hit.
fn hit_share(expected: &[u8]) -> f64 {
    expected.iter().filter(|&&v| v != 0).count() as f64 / expected.len().max(1) as f64
}

/// Derive `workload`'s lists, query stream and expected verdicts from
/// a generated world and write them into `dir`.
pub fn write_inputs(
    ctx: &ExperimentContext,
    workload: &str,
    seed: u64,
    dir: &Path,
) -> Result<(), String> {
    let mut rng = Rng(seed ^ salt(workload));
    let unclean = ctx.reports.unclean.addresses();
    let unclean24: Vec<(Cidr, f64)> = per_block_population(&BlockSet::of(unclean, 24), unclean)
        .into_iter()
        .map(|(c, n)| (c, n as f64))
        .collect();
    let (a, b, queries) = if workload == "serve_point" {
        let control = ctx.reports.control.addresses().as_raw();
        let queries: Vec<u32> = (0..POINT_QUERIES)
            .map(|_| control[rng.below(control.len())])
            .collect();
        (unclean24.clone(), unclean24, queries)
    } else {
        bulk_inputs(ctx, &unclean24, &mut rng)
    };
    let (ref_a, ref_b) = (Reference::new(&a), Reference::new(&b));
    let expected_a: Vec<u8> = queries.iter().map(|&q| ref_a.verdict(q)).collect();
    let expected_b: Vec<u8> = queries.iter().map(|&q| ref_b.verdict(q)).collect();
    eprintln!(
        "[perfbench] {workload} inputs: list A {} entries, list B {} entries ({:.4} of A's \
         entries not in B); {} queries, {:.4} of them hits on A, {:.4} on B",
        a.len(),
        b.len(),
        churn(&a, &b),
        queries.len(),
        hit_share(&expected_a),
        hit_share(&expected_b)
    );
    let meta = |g: u64| [("generation", g.to_string())];
    write(
        &dir.join("list_a.txt"),
        render_scored_with_meta(&a, "perfbench-a", &meta(1)).as_bytes(),
    )?;
    write(
        &dir.join("list_b.txt"),
        render_scored_with_meta(&b, "perfbench-b", &meta(2)).as_bytes(),
    )?;
    write(&dir.join("queries.bin"), &u32s_to_bytes(&queries))?;
    write(&dir.join("expected_a.bin"), &expected_a)?;
    write(&dir.join("expected_b.bin"), &expected_b)?;
    Ok(())
}

/// The traced run's two children, the same for every workload: a traced
/// reproduction that also runs the layer probes and writes `workload`'s
/// serve inputs from its world, then a traced serve phase over them, so
/// every per-layer metric is measured. Returns the rows and the reproduction
/// child's own result.
pub fn traced_children(
    workload: &str,
    seed: u64,
    serve_secs: f64,
    dir: &Path,
) -> Result<(Outcome, Value), String> {
    let probe_dir = dir.join("probe");
    let probe = run_child("repro-probe", workload, seed, 1.0, true, &probe_dir)?;
    let served = run_child("serve", workload, seed, serve_secs, true, &probe_dir)?;
    let mut outcome = from_child(&served);
    outcome.absorb(from_child(&probe));
    let (attempted, failed) = repro::check(&probe)?;
    outcome.attempted += attempted;
    outcome.failed += failed;
    Ok((outcome, probe))
}

/// The top-level serve run.
pub fn run(args: &Args, dir: &Path) -> Result<Outcome, String> {
    if args.trace {
        return traced_children(&args.workload, args.seed, args.seconds, dir).map(|(o, _)| o);
    }
    let opts = BenchOpts {
        scale: crate::SCALE,
        seed: SCENARIO_SEED,
        trials: crate::TRIALS,
        out_dir: None,
        ..BenchOpts::default()
    };
    let ctx = ExperimentContext::generate(opts);
    write_inputs(&ctx, &args.workload, args.seed, dir)?;
    drop(ctx);
    let served = run_child("serve", &args.workload, args.seed, args.seconds, false, dir)?;
    Ok(from_child(&served))
}

// ---------------------------------------------------------------------------
// The serving child
// ---------------------------------------------------------------------------

/// Everything the client loop checks against.
struct Work {
    bulk: bool,
    queries: Vec<u32>,
    requests: Vec<Vec<u8>>,
    /// Query-stream offset and length of each request.
    spans: Vec<(usize, usize)>,
    expected_a: Vec<u8>,
    expected_b: Vec<u8>,
}

impl Work {
    fn build(bulk: bool, queries: Vec<u32>, expected_a: Vec<u8>, expected_b: Vec<u8>) -> Work {
        let (mut requests, mut spans) = (Vec::new(), Vec::new());
        if bulk {
            for (i, chunk) in queries.chunks(BATCH).enumerate() {
                let mut body = Vec::with_capacity(4 + 4 * chunk.len());
                body.extend_from_slice(&(chunk.len() as u32).to_be_bytes());
                for q in chunk {
                    body.extend_from_slice(&q.to_be_bytes());
                }
                let mut req = format!(
                    "POST /batch-bin HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
                    body.len()
                )
                .into_bytes();
                req.extend_from_slice(&body);
                requests.push(req);
                spans.push((i * BATCH, chunk.len()));
            }
        } else {
            for (i, q) in queries.iter().enumerate() {
                requests.push(
                    format!(
                        "GET /lookup?ip={} HTTP/1.1\r\nHost: perfbench\r\n\r\n",
                        Ip(*q)
                    )
                    .into_bytes(),
                );
                spans.push((i, 1));
            }
        }
        Work {
            bulk,
            queries,
            requests,
            spans,
            expected_a,
            expected_b,
        }
    }

    /// Whether `body` is the right answer to request `i`. Generation g
    /// serves list A when odd, the alternate list when even.
    fn check(&self, i: usize, body: &[u8]) -> bool {
        let (off, n) = self.spans[i];
        if self.bulk {
            if body.len() != 8 + n {
                return false;
            }
            let generation = u32::from_be_bytes([body[0], body[1], body[2], body[3]]);
            let count = u32::from_be_bytes([body[4], body[5], body[6], body[7]]) as usize;
            let expected = if generation % 2 == 1 {
                &self.expected_a
            } else {
                &self.expected_b
            };
            count == n && body[8..] == expected[off..off + n]
        } else {
            let text = String::from_utf8_lossy(body);
            let field = |key: &str| {
                let at = text.find(key)? + key.len();
                let rest = &text[at..];
                let end = rest.find([',', '}']).unwrap_or(rest.len());
                Some(rest[..end].to_string())
            };
            let verdict = match field("\"blocked\":").as_deref() {
                Some("false") => Some(0u8),
                Some("true") => field("\"n\":")
                    .and_then(|n| n.parse::<u8>().ok())
                    .map(|n| n + 1),
                _ => None,
            };
            let generation = field("\"generation\":").and_then(|g| g.parse::<u64>().ok());
            let expected = if generation.is_some_and(|g| g % 2 == 1) {
                self.expected_a[off]
            } else {
                self.expected_b[off]
            };
            // A hit must also name the matched prefix: the query masked
            // to the expected length.
            let cidr = match expected {
                0 => "null".to_string(),
                v => {
                    let len = v - 1;
                    let base = Ip(self.queries[off] & !host_mask(len));
                    format!(
                        "\"{}\"",
                        Cidr::new(base, len).expect("masked base is aligned")
                    )
                }
            };
            verdict == Some(expected) && field("\"cidr\":").as_deref() == Some(cidr.as_str())
        }
    }
}

/// One keep-alive HTTP/1.1 connection, redialed when the server closes it.
struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    /// Requests resent on a fresh connection because the reused one
    /// was closed before any byte of the response arrived.
    stale_retries: u64,
}

impl Client {
    /// Send one request and read its response; returns (status, body
    /// range in `self.buf`). Like any HTTP client, a request that meets
    /// a reused connection already closed by the server (no response
    /// byte read) is sent once more on a fresh one; a response cut off
    /// part-way is an error.
    fn exchange(&mut self, req: &[u8]) -> Result<(u16, std::ops::Range<usize>), String> {
        let reused = self.stream.is_some();
        match self.try_exchange(req) {
            Err(_) if reused && self.buf.is_empty() => {
                self.stream = None;
                self.stale_retries += 1;
                self.try_exchange(req)
            }
            other => other,
        }
    }

    fn try_exchange(&mut self, req: &[u8]) -> Result<(u16, std::ops::Range<usize>), String> {
        self.buf.clear();
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .map_err(|e| e.to_string())?;
            let _ = stream.set_nodelay(true);
            self.stream = Some(stream);
        }
        let stream = self.stream.as_mut().expect("connected above");
        stream.write_all(req).map_err(|e| format!("write: {e}"))?;
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p + 4;
            }
            let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("torn response head".into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| "non-utf8 head")?;
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or("bad status line")?;
        let (mut length, mut close) = (0usize, false);
        for line in head.split("\r\n").skip(1) {
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().map_err(|_| "bad content-length")?;
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.trim().eq_ignore_ascii_case("close");
                }
            }
        }
        while self.buf.len() < head_end + length {
            let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("torn response body".into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        if self.buf.len() != head_end + length {
            return Err("bytes past the response frame".into());
        }
        if close {
            self.stream = None;
        }
        Ok((status, head_end..head_end + length))
    }
}

/// This process's threads: (tid, name, user + system CPU ticks).
fn threads() -> Vec<(i32, String, u64)> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for task in tasks.flatten() {
        let Some(tid) = task.file_name().to_str().and_then(|t| t.parse().ok()) else {
            continue;
        };
        let Ok(stat) = std::fs::read_to_string(task.path().join("stat")) else {
            continue;
        };
        let (Some(open), Some(close)) = (stat.find('('), stat.rfind(')')) else {
            continue;
        };
        let fields: Vec<&str> = stat[close + 1..].split_whitespace().collect();
        let field = |i: usize| {
            fields
                .get(i)
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0)
        };
        out.push((
            tid,
            stat[open + 1..close].to_string(),
            field(11) + field(12),
        ));
    }
    out
}

/// The calling thread's id.
fn own_tid() -> i32 {
    std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name()?.to_str()?.parse().ok())
        .unwrap_or(0)
}

/// CPU ticks of (the shard threads, the calling thread) so far.
fn thread_ticks() -> (u64, u64) {
    let me = own_tid();
    let (mut shard, mut client) = (0, 0);
    for (tid, name, ticks) in threads() {
        if name.starts_with("serve-shard") {
            shard += ticks;
        } else if tid == me {
            client += ticks;
        }
    }
    (shard, client)
}

/// CPU mask words as `sched_getaffinity`/`sched_setaffinity` take them
/// (1024 CPUs).
type CpuMask = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Where the measured threads run. Left to the scheduler, the shard
/// thread and the client sometimes share a CPU and sometimes not, and a
/// wake-up across virtual CPUs costs several times one on the same CPU:
/// on a 2-vCPU VM, unpinned runs of the same code differed by up to
/// 1.5x. So the shards and the client share the first CPU this process
/// may use, and the publisher gets the rest.
struct Placement {
    allowed: Vec<usize>,
}

impl Placement {
    /// The CPUs this process may run on (its affinity mask, which a
    /// cpuset may have narrowed), lowest first.
    fn of_process() -> Result<Placement, String> {
        let mut mask: CpuMask = [0; 16];
        // SAFETY: `mask` is a writable array that outlives the call, and
        // `cpusetsize` is its exact size in bytes.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Err(format!(
                "sched_getaffinity: {}",
                std::io::Error::last_os_error()
            ));
        }
        let allowed: Vec<usize> = (0..mask.len() * 64)
            .filter(|&cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
            .collect();
        if allowed.is_empty() {
            return Err("sched_getaffinity returned no CPU".into());
        }
        Ok(Placement { allowed })
    }

    /// The CPU of the shards and the client.
    fn serve(&self) -> &[usize] {
        &self.allowed[..1]
    }

    /// The publisher's CPUs: every allowed CPU but [`Placement::serve`]'s
    /// (that one too when it is the only one).
    fn others(&self) -> &[usize] {
        if self.allowed.len() > 1 {
            &self.allowed[1..]
        } else {
            &self.allowed
        }
    }
}

/// Restrict thread `tid` (0: the calling thread) to `cpus`. A thread
/// left unpinned measures a different placement, so failing is an error.
fn pin(tid: i32, cpus: &[usize]) -> Result<(), String> {
    let mut mask: CpuMask = [0; 16];
    for &cpu in cpus {
        if let Some(word) = mask.get_mut(cpu / 64) {
            *word |= 1 << (cpu % 64);
        }
    }
    // SAFETY: `mask` is an initialised array that outlives the call, and
    // `cpusetsize` is its exact size in bytes; the kernel only reads it.
    let rc = unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "pin thread {tid} to CPUs {cpus:?}: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

/// Kernel clock ticks per second for `/proc/*/stat` times.
const CLOCK_TICKS: f64 = 100.0;

/// The alternate-list publisher for `serve_bulk_reload`: the two lists
/// as `render_scored_with_meta` wrote them, and the file they are
/// renamed over. Rendering happens once, before timing, so the reload
/// is the only work the publisher puts beside the reads.
struct Publisher<'a> {
    a: &'a [u8],
    b: &'a [u8],
    serving: &'a Path,
}

impl Publisher<'_> {
    /// Write the list generation `next` serves, rename it over the served
    /// file and reload every server on it; returns the time from the
    /// rename to the first server's `reload()` returning.
    fn publish(&self, servers: &[&Server], next: u64) -> Result<f64, String> {
        let text = if next % 2 == 1 { self.a } else { self.b };
        let tmp = self.serving.with_extension("tmp");
        write(&tmp, text)?;
        let t = Instant::now();
        std::fs::rename(&tmp, self.serving).map_err(|e| format!("rename: {e}"))?;
        let mut ms = None;
        for server in servers {
            match server.reload() {
                Ok(g) if g == next => {}
                Ok(g) => return Err(format!("reload served generation {g}, expected {next}")),
                Err(e) => return Err(format!("reload: {e}")),
            }
            ms.get_or_insert(t.elapsed().as_secs_f64() * 1e3);
        }
        ms.ok_or_else(|| "no server to reload".to_string())
    }

    /// Publish on the fixed schedule until `seconds` or `stop`.
    fn run(&self, servers: &[&Server], seconds: f64, stop: &AtomicBool) -> (Vec<f64>, u64, u64) {
        let t0 = Instant::now();
        let (mut times, mut attempted, mut failed) = (Vec::new(), 0, 0);
        let mut k = 0;
        loop {
            let due = PUBLISH_FIRST_SECS + k as f64 * PUBLISH_EVERY_SECS;
            if due >= seconds {
                break;
            }
            while t0.elapsed().as_secs_f64() < due {
                if stop.load(Ordering::SeqCst) {
                    return (times, attempted, failed);
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            k += 1;
            attempted += 1;
            match self.publish(servers, servers[0].generation() + 1) {
                Ok(ms) => times.push(ms),
                Err(e) => {
                    eprintln!("[perfbench] publish failed: {e}");
                    failed += 1;
                }
            }
        }
        (times, attempted, failed)
    }
}

/// Request latencies kept per server: a uniform sample of at most this
/// many, so the client's memory (and the child's peak RSS) does not grow
/// with the request rate. p99 of 100k samples still has 1k beyond it.
const LATENCY_SAMPLES: usize = 100_000;

/// A uniform sample of a stream (reservoir sampling, algorithm R).
struct Reservoir {
    samples: Vec<u64>,
    seen: u64,
    rng: Rng,
}

impl Default for Reservoir {
    fn default() -> Reservoir {
        Reservoir {
            samples: Vec::with_capacity(LATENCY_SAMPLES),
            seen: 0,
            rng: Rng(LATENCY_SAMPLES as u64),
        }
    }
}

impl Reservoir {
    fn push(&mut self, v: u64) {
        self.seen += 1;
        if self.samples.len() < LATENCY_SAMPLES {
            self.samples.push(v);
        } else {
            let j = (self.rng.next() % self.seen) as usize;
            if let Some(slot) = self.samples.get_mut(j) {
                *slot = v;
            }
        }
    }
}

/// What one server saw during a measured phase.
#[derive(Default)]
struct Tally {
    requests: u64,
    lookups: u64,
    failed: u64,
    latencies_ns: Reservoir,
    /// Seconds the client spent on this server.
    busy: f64,
    bodies: Vec<Vec<u8>>,
    stale_retries: u64,
}

impl Tally {
    fn lookups_per_s(&self) -> f64 {
        self.lookups as f64 / self.busy
    }

    fn latencies_us(&self) -> Vec<f64> {
        self.latencies_ns
            .samples
            .iter()
            .map(|&n| n as f64 / 1e3)
            .collect()
    }

    fn latency_quantile_us(&self, q: f64) -> f64 {
        let v = self.latencies_us();
        if v.is_empty() {
            f64::NAN
        } else {
            quantile(&v, q)
        }
    }
}

/// One measured phase: a tally per server, plus what the publisher and
/// the thread clocks saw.
struct Phase {
    tallies: Vec<Tally>,
    /// Lookups answered in each complete window, whichever server.
    window_lookups: Vec<u64>,
    publishes_ms: Vec<f64>,
    publish_attempted: u64,
    publish_failed: u64,
    shard_cpu_frac: f64,
    client_cpu_frac: f64,
}

impl Phase {
    /// Lookups per second in each complete window.
    fn window_rates(&self) -> Vec<f64> {
        self.window_lookups
            .iter()
            .map(|&n| n as f64 / WINDOW_SECS)
            .collect()
    }
}

/// Drive `servers` from this thread for `seconds`, switching server
/// every [`WINDOW_SECS`] when there is more than one (so both see the
/// same machine), with the publisher (if any) on a second thread,
/// placed as [`Placement`] says.
fn run_phase(
    servers: &[&Server],
    work: &Work,
    seconds: f64,
    publisher: Option<&Publisher>,
    placement: &Placement,
) -> Result<Phase, String> {
    let stop = AtomicBool::new(false);
    let mut tallies: Vec<Tally> = servers.iter().map(|_| Tally::default()).collect();
    let mut window_lookups: Vec<u64> = Vec::new();
    for (tid, name, _) in threads() {
        if name.starts_with("serve-shard") {
            pin(tid, placement.serve())?;
        }
    }
    pin(0, placement.serve())?;
    let phase = std::thread::scope(|s| {
        let handle = publisher.map(|p| {
            s.spawn(|| {
                pin(0, placement.others())?;
                Ok::<_, String>(p.run(servers, seconds, &stop))
            })
        });
        let mut clients: Vec<Client> = servers
            .iter()
            .map(|server| Client {
                addr: server.local_addr(),
                stream: None,
                buf: Vec::with_capacity(64 * 1024),
                stale_retries: 0,
            })
            .collect();
        let (shard0, client0) = thread_ticks();
        let t0 = Instant::now();
        let mut i = 0usize;
        loop {
            let now = t0.elapsed().as_secs_f64();
            if now >= seconds {
                break;
            }
            let window = (now / WINDOW_SECS) as usize;
            if window_lookups.len() <= window {
                window_lookups.resize(window + 1, 0);
            }
            let which = window % servers.len();
            let (client, tally) = (&mut clients[which], &mut tallies[which]);
            let t = Instant::now();
            let answer = client.exchange(&work.requests[i]);
            let ns = t.elapsed().as_nanos() as u64;
            tally.busy += ns as f64 / 1e9;
            tally.requests += 1;
            match answer {
                Ok((200, body)) => {
                    let body = &client.buf[body];
                    tally.lookups += work.spans[i].1 as u64;
                    window_lookups[window] += work.spans[i].1 as u64;
                    tally.latencies_ns.push(ns);
                    if tally.bodies.len() < 1024 {
                        tally.bodies.push(body.to_vec());
                    }
                    if !work.check(i, body) {
                        tally.failed += 1;
                    }
                }
                Ok((status, _)) => {
                    eprintln!("[perfbench] status {status} on request {i}");
                    tally.failed += 1;
                }
                Err(e) => {
                    eprintln!("[perfbench] request {i}: {e}");
                    client.stream = None;
                    tally.failed += 1;
                }
            }
            i = (i + 1) % work.requests.len();
        }
        let elapsed = t0.elapsed().as_secs_f64();
        window_lookups.truncate((elapsed / WINDOW_SECS) as usize);
        for (tally, client) in tallies.iter_mut().zip(&clients) {
            tally.stale_retries = client.stale_retries;
        }
        let (shard1, client1) = thread_ticks();
        stop.store(true, Ordering::SeqCst);
        let (publishes_ms, publish_attempted, publish_failed) = match handle {
            Some(h) => h.join().expect("publisher thread")?,
            None => Default::default(),
        };
        Ok::<_, String>(Phase {
            tallies,
            window_lookups,
            publishes_ms,
            publish_attempted,
            publish_failed,
            shard_cpu_frac: shard1.saturating_sub(shard0) as f64 / CLOCK_TICKS / elapsed,
            client_cpu_frac: client1.saturating_sub(client0) as f64 / CLOCK_TICKS / elapsed,
        })
    });
    pin(0, &placement.allowed)?;
    phase
}

fn config(source: &Path, trace_sample: u64) -> ServeConfig {
    let mut config = ServeConfig::new(source);
    config.threads = SHARDS;
    config.trace_sample = trace_sample;
    config
}

/// Start a server on `source` (reset to list A) and wait for its first
/// healthy `/healthz`; returns it with the elapsed seconds.
fn start(source: &Path, list_a: &[u8], trace_sample: u64) -> Result<(Server, f64), String> {
    write(source, list_a)?;
    let t = Instant::now();
    let server = Server::start(config(source, trace_sample), Registry::full())
        .map_err(|e| format!("server start: {e}"))?;
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let healthy = TcpStream::connect(server.local_addr())
            .ok()
            .and_then(|mut s| {
                s.write_all(b"GET /healthz HTTP/1.0\r\n\r\n").ok()?;
                let mut text = String::new();
                s.read_to_string(&mut text).ok()?;
                Some(text.starts_with("HTTP/1.0 200") && text.contains("\r\n\r\nok "))
            });
        if healthy == Some(true) {
            return Ok((server, t.elapsed().as_secs_f64()));
        }
        if Instant::now() > deadline {
            server.shutdown();
            return Err("server never answered /healthz".into());
        }
        std::thread::sleep(Duration::from_micros(100));
    }
}

/// Serve large buffers from their own mappings, returned to the kernel
/// on free. With glibc's default, a threshold that rises with every large
/// free, whether a reload's freed buffers were kept in some thread's
/// arena decided the child's peak RSS: 245-280 MB between runs of the
/// same serve_bulk_reload code. With the threshold fixed the peak repeats
/// to within 1%.
fn fix_mmap_threshold() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_MMAP_THRESHOLD: i32 = -3;
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        // SAFETY: mallopt takes two integers and only sets an allocator
        // parameter; it runs before this process starts any thread.
        if unsafe { mallopt(M_MMAP_THRESHOLD, 1 << 20) } != 1 {
            eprintln!("[perfbench] mallopt(M_MMAP_THRESHOLD) failed");
        }
    }
}

/// The `serve` child: set-up repetitions, then the measured phase, or
/// (when traced) the interleaved unsampled/sampled phase plus the
/// serve-layer probes.
pub fn child(args: &Args) -> Result<String, String> {
    fix_mmap_threshold();
    let dir: PathBuf = args.dir.clone().ok_or("child needs --dir")?;
    let bulk = args.workload == "serve_bulk_reload";
    let text_a = read(&dir.join("list_a.txt"))?;
    let text_b = read(&dir.join("list_b.txt"))?;
    let entries_a =
        parse_scored(&String::from_utf8_lossy(&text_a)).map_err(|e| format!("parse list: {e}"))?;
    let queries: Vec<u32> = read(&dir.join("queries.bin"))?
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    let work = Work::build(
        bulk,
        queries,
        read(&dir.join("expected_a.bin"))?,
        read(&dir.join("expected_b.bin"))?,
    );
    let serving = dir.join("serving.txt");
    let publisher = Publisher {
        a: &text_a,
        b: &text_b,
        serving: &serving,
    };

    let mut setups = Vec::new();
    let mut server = None;
    let setup_start = Instant::now();
    while setups.len() < SETUP_MIN_REPS
        || (setup_start.elapsed().as_secs_f64() < SETUP_SECS && setups.len() < SETUP_MAX_REPS)
    {
        let (s, secs) = start(&serving, &text_a, 0)?;
        setups.push(secs);
        if let Some(previous) = server.replace(s) {
            previous.shutdown();
        }
    }
    let server = server.expect("SETUP_MIN_REPS > 0");
    eprintln!(
        "[perfbench] {}: {} cold starts, median {:.6} s",
        args.workload,
        setups.len(),
        median(&setups)
    );
    let publisher = bulk.then_some(&publisher);
    let placement = Placement::of_process()?;
    eprintln!(
        "[perfbench] placement: server shards and client on CPU {:?}, publisher on CPUs {:?}",
        placement.serve(),
        placement.others()
    );
    if !args.trace {
        let phase = run_phase(&[&server], &work, args.seconds, publisher, &placement)?;
        let peak = peak_rss_mb();
        server.shutdown();
        let t = &phase.tallies[0];
        report(&args.workload, &phase, t);
        let mut e2e = Outcome {
            attempted: t.requests + phase.publish_attempted,
            failed: t.failed + phase.publish_failed,
            ..Outcome::default()
        };
        e2e.set(
            "op_time_ms",
            t.latency_quantile_us(op_time_quantile(bulk)) / 1e3,
            "ms",
        );
        e2e.set("setup_s", median(&setups), "s");
        e2e.set("peak_rss_mb", peak, "MB");
        return Ok(e2e.to_json());
    }

    // Traced: an unsampled and a 1-in-TRACE_SAMPLE sampled server side by
    // side, the client alternating between them, so the tracing overhead
    // is not buried under the machine's drift between phases.
    let (sampled_server, _) = start(&serving, &text_a, TRACE_SAMPLE)?;
    let servers = [&server, &sampled_server];
    let phase = run_phase(&servers, &work, args.seconds, publisher, &placement)?;
    let (plain, sampled) = (&phase.tallies[0], &phase.tallies[1]);
    report(&args.workload, &phase, plain);
    let mut layers = Outcome {
        attempted: plain.requests + sampled.requests + phase.publish_attempted,
        failed: plain.failed + sampled.failed + phase.publish_failed,
        ..Outcome::default()
    };
    let mut publishes = phase.publishes_ms.clone();
    if publisher.is_none() {
        // serve_point publishes nothing while measured; republish its
        // list afterwards so the publish path has a row here too.
        let point = Publisher {
            a: &text_a,
            b: &text_a,
            serving: &serving,
        };
        for _ in 0..PROBE_PUBLISHES {
            layers.attempted += 1;
            match point.publish(&servers, server.generation() + 1) {
                Ok(ms) => publishes.push(ms),
                Err(e) => {
                    eprintln!("[perfbench] publish failed: {e}");
                    layers.failed += 1;
                }
            }
        }
    }
    let (plain_snap, sampled_snap) = (
        server.registry().snapshot(),
        sampled_server.registry().snapshot(),
    );
    server.shutdown();
    sampled_server.shutdown();

    layers.set(
        "trace_overhead_pct",
        (plain.lookups_per_s() / sampled.lookups_per_s() - 1.0) * 100.0,
        "%",
    );
    layers.set("serve.request_p50_us", plain.latency_quantile_us(0.5), "us");
    layers.set(
        "serve.request_p99_us",
        plain.latency_quantile_us(0.99),
        "us",
    );
    layers.set("serve.requests", plain.requests as f64, "count");
    layers.set("serve.lookups_per_s", plain.lookups_per_s(), "1/s");
    layers.set(
        "serve.publish_to_serve_ms",
        if publishes.is_empty() {
            f64::NAN
        } else {
            median(&publishes)
        },
        "ms",
    );
    for stage in ["parse", "lookup", "write"] {
        let mean = sampled_snap
            .histograms
            .get(&format!("stage_ns.{stage}"))
            .map_or(f64::NAN, |h| h.mean());
        layers.set(&format!("serve.stage_{stage}_ns"), mean, "ns");
    }
    let counter = |name: &str| {
        (plain_snap.counters.get(name).copied().unwrap_or(0)
            + sampled_snap.counters.get(name).copied().unwrap_or(0)) as f64
    };
    layers.set("serve.reloads", counter("reload.count"), "count");
    layers.set("serve.reload_errors", counter("reload.errors"), "count");
    layers.set("serve.conns_dropped", counter("conns.dropped"), "count");
    layers.set("serve.read_errors", counter("conns.read_errors"), "count");
    layers.set(
        "client.stale_conn_retries",
        (plain.stale_retries + sampled.stale_retries) as f64,
        "count",
    );
    layers.set("serve.shard_cpu_frac", phase.shard_cpu_frac, "ratio");
    layers.set("client.cpu_frac", phase.client_cpu_frac, "ratio");
    layers.set("serve.hit_share", hit_share(&work.expected_a), "ratio");
    layers.set("serve.list_entries", entries_a.len() as f64, "count");
    let entries_b =
        parse_scored(&String::from_utf8_lossy(&text_b)).map_err(|e| format!("parse list: {e}"))?;
    layers.set("serve.list_churn", churn(&entries_a, &entries_b), "ratio");
    probe_layers(
        &dir.join("list_a.txt"),
        &text_a,
        &entries_a,
        &work,
        &plain.bodies,
        &mut layers,
    );
    Ok(layers.to_json())
}

/// Log one phase's request counts and latency sample to stderr.
fn report(workload: &str, phase: &Phase, t: &Tally) {
    eprintln!(
        "[perfbench] {workload}: {} requests ({} lookups) in {:.2} s; request p50 {:.1} us \
         p99 {:.1} us over {} samples; {} publishes",
        t.requests,
        t.lookups,
        t.busy,
        t.latency_quantile_us(0.5),
        t.latency_quantile_us(0.99),
        t.latencies_ns.samples.len(),
        phase.publishes_ms.len()
    );
    eprintln!(
        "[perfbench] {workload}: request latency us: p10 {:.1} p25 {:.1} p50 {:.1} p75 {:.1} \
         p90 {:.1}",
        t.latency_quantile_us(0.1),
        t.latency_quantile_us(0.25),
        t.latency_quantile_us(0.5),
        t.latency_quantile_us(0.75),
        t.latency_quantile_us(0.9)
    );
    let rates = phase.window_rates();
    if !rates.is_empty() {
        eprintln!(
            "[perfbench] {workload}: lookups/s over {} windows of {WINDOW_SECS} s: \
             min {:.0} p10 {:.0} q1 {:.0} median {:.0} q3 {:.0} p90 {:.0} max {:.0}",
            rates.len(),
            quantile(&rates, 0.0),
            quantile(&rates, 0.1),
            quantile(&rates, 0.25),
            quantile(&rates, 0.5),
            quantile(&rates, 0.75),
            quantile(&rates, 0.9),
            quantile(&rates, 1.0)
        );
    }
}

/// Run `f` until at least `min_secs` have passed; returns seconds per call.
fn per_call(min_secs: f64, mut f: impl FnMut() -> u64) -> f64 {
    let t = Instant::now();
    let mut calls = 0u64;
    while calls == 0 || t.elapsed().as_secs_f64() < min_secs {
        calls += f();
    }
    t.elapsed().as_secs_f64() / calls as f64
}

/// Median of three timed runs of `f`, in milliseconds.
fn median_ms(mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&v)
}

/// The serve-side layer probes, on this workload's own list, query
/// stream, requests and captured responses. Each query whose verdict
/// from the frozen trie differs from the reference counts as failed.
fn probe_layers(
    list_path: &Path,
    text: &[u8],
    entries: &[(Cidr, f64)],
    work: &Work,
    bodies: &[Vec<u8>],
    out: &mut Outcome,
) {
    let text = String::from_utf8_lossy(text);
    out.set(
        "core.parse_scored_ms",
        median_ms(|| {
            black_box(parse_scored(&text).expect("list parses"));
        }),
        "ms",
    );
    out.set(
        "core.freeze_ms",
        median_ms(|| {
            let scored = entries.to_vec();
            black_box(FrozenTrie::from_scored(scored));
        }),
        "ms",
    );
    out.set(
        "serve.build_snapshot_ms",
        median_ms(|| {
            black_box(build_snapshot(list_path, 1, &Registry::off()).expect("list builds"));
        }),
        "ms",
    );

    let queries = &work.queries;
    let trie = FrozenTrie::from_scored(entries.to_vec());
    out.set("core.frozen_bytes", trie.memory_bytes() as f64, "bytes");
    let verdict = |q: u32| trie.lookup(Ip(q)).map_or(0, |m| m.cidr.len() + 1);
    let wrong = queries
        .iter()
        .zip(&work.expected_a)
        .filter(|(&q, &e)| verdict(q) != e)
        .count() as u64;
    if wrong > 0 {
        eprintln!("[perfbench] frozen trie disagrees with the reference on {wrong} queries");
    }
    let lookup_s = per_call(0.3, || {
        for &q in queries {
            black_box(trie.lookup(Ip(black_box(q))));
        }
        queries.len() as u64
    });
    out.set("core.frozen_lookup_ns", lookup_s * 1e9, "ns");

    let sample = &work.requests[..work.requests.len().min(1024)];
    let parse_s = per_call(0.2, || {
        for r in sample {
            match parse_request(black_box(r)) {
                Ok(Parse::Complete(req, _)) => {
                    black_box(req);
                }
                _ => panic!("captured request does not parse"),
            }
        }
        sample.len() as u64
    });
    out.set("serve.parse_request_ns", parse_s * 1e9, "ns");
    let content_type = if work.bulk {
        "application/octet-stream"
    } else {
        "application/json"
    };
    let mut buf = Vec::with_capacity(64 * 1024);
    let write_s = per_call(0.2, || {
        for body in bodies {
            buf.clear();
            write_response(
                &mut buf,
                Version::Http11,
                200,
                "OK",
                content_type,
                true,
                body,
            );
            black_box(&buf);
        }
        bodies.len().max(1) as u64
    });
    out.set("serve.write_response_ns", write_s * 1e9, "ns");
    out.attempted += queries.len() as u64;
    out.failed += wrong;
}
