//! The serving workloads: an in-process `cira-serve` on loopback under a
//! closed loop of client connections, each waiting on its own acks.

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use cira_analysis::engine::pool::WorkerPool;
use cira_analysis::engine::replay::{replay_mechanisms, StreamingReplay};
use cira_analysis::{BucketStats, CoverageCurve};
use cira_core::ConfidenceMechanism;
use cira_serve::frame::FrameBuffer;
use cira_serve::proto::{decode_client, encode_client, encode_server, ClientFrame};
use cira_serve::server::{serve, ServerConfig, ServerHandle};
use cira_serve::session::Session;
use cira_serve::{Client, ClientBuilder, ClientError, HelloConfig};
use cira_store::{Checkpoint, SessionStore};
use cira_trace::codec::PackedTrace;

use crate::inputs;
use crate::layer::{self, Layers};
use crate::replay::GridCfg;
use crate::report::{median, percentile, tail, Ops, Report};
use crate::{Args, SETUP_REPS};

/// Seconds of load in one warm-up slice.
const WARMUP_SLICE_S: f64 = 0.5;

/// Shape of one serving workload.
#[derive(Debug, Clone)]
pub struct ServeShape {
    /// Park every session halfway and resume it from the store.
    pub park: bool,
    /// Closed-loop client connections.
    pub clients: usize,
    /// Records per session.
    pub records: usize,
    /// Records per BATCH frame.
    pub batch: usize,
    /// Distinct session traces; sessions cycle through them.
    pub distinct: usize,
    /// Parked sessions kept waiting for their resume (park only).
    pub backlog: usize,
    /// Equal slices of the timed region; latency percentiles are taken
    /// per slice and the median slice is reported.
    pub windows: usize,
    /// Sessions in the traced window (bounds the recorder's rings).
    pub traced_sessions: usize,
}

/// Offline result for one distinct session trace.
#[derive(Debug, Clone, PartialEq)]
struct Expected {
    stats: BucketStats,
    mispredicts: u64,
    low_confidence: u64,
}

/// What one session saw, client side. Times are ns since the run's base
/// instant.
#[derive(Debug, Default)]
struct SessionRec {
    trace: usize,
    start: u64,
    end: u64,
    /// Connect + HELLO (phase one for parked sessions).
    connect: u64,
    stream: u64,
    park: u64,
    resume: u64,
    /// SNAPSHOT + GOODBYE.
    goodbye: u64,
    /// Parked sessions: from PARKED_ACK until the resume dial, when the
    /// client holds no connection.
    idle: (u64, u64),
    token: u64,
    ops: Ops,
    records: u64,
    mispredicts: u64,
    low_confidence: u64,
    /// The acked totals and final snapshot equal the offline reference.
    matched: bool,
}

impl SessionRec {
    /// The client-visible latency of the workload's operation: the whole
    /// session, or for parked sessions the store round trip (PARK through
    /// PARKED_ACK plus dial and RESUME through RESUME_ACK).
    fn op_ns(&self, park: bool) -> u64 {
        if park {
            self.park + self.resume
        } else {
            self.active_ns()
        }
    }

    /// Client-observed time with a connection open.
    fn active_ns(&self) -> u64 {
        self.end.saturating_sub(self.start) - (self.idle.1 - self.idle.0)
    }
}

/// Whether a session's acked totals and final snapshot equal the offline
/// reference for its trace.
fn matches(
    rec: &SessionRec,
    snapshot: Option<&BucketStats>,
    want: &Expected,
    records: usize,
) -> bool {
    snapshot == Some(&want.stats)
        && rec.records == records as u64
        && rec.mispredicts == want.mispredicts
        && rec.low_confidence == want.low_confidence
}

fn client_ok<T>(ops: &mut Ops, r: Result<T, ClientError>) -> Option<T> {
    ops.record(r.is_ok());
    if let Err(e) = &r {
        eprintln!("client operation failed: {e}");
    }
    r.ok()
}

fn slice(trace: &PackedTrace, lo: usize, hi: usize) -> PackedTrace {
    (lo..hi)
        .map(|i| trace.get(i).expect("index in range"))
        .collect()
}

/// Everything the client threads share.
struct Load<'a> {
    shape: &'a ServeShape,
    addr: String,
    traces: &'a [PackedTrace],
    halves: &'a [(PackedTrace, PackedTrace)],
    want: &'a [Expected],
    base: Instant,
    /// Sessions started so far; session `i` streams trace `i % distinct`.
    started: AtomicUsize,
    /// Parked sessions, oldest first (park workload).
    parked: Mutex<VecDeque<SessionRec>>,
    /// The first served snapshot of each distinct trace.
    snapshots: Mutex<Vec<Option<BucketStats>>>,
}

impl<'a> Load<'a> {
    fn new(
        shape: &'a ServeShape,
        addr: String,
        traces: &'a [PackedTrace],
        halves: &'a [(PackedTrace, PackedTrace)],
        want: &'a [Expected],
    ) -> Self {
        Load {
            shape,
            addr,
            traces,
            halves,
            want,
            base: Instant::now(),
            started: AtomicUsize::new(0),
            parked: Mutex::new(VecDeque::new()),
            snapshots: Mutex::new(vec![None; traces.len()]),
        }
    }

    /// Nanoseconds since the load began.
    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    fn next_trace(&self) -> usize {
        self.started.fetch_add(1, Ordering::Relaxed) % self.traces.len()
    }

    /// Streams `trace`, counting one operation per batch.
    fn stream(&self, client: &mut Client, trace: &PackedTrace, rec: &mut SessionRec) -> bool {
        let batches = trace.len().div_ceil(self.shape.batch) as u64;
        rec.ops.attempted += batches;
        match client.stream(trace, self.shape.batch) {
            Ok(t) => {
                rec.records += t.records;
                rec.mispredicts += t.mispredicts;
                rec.low_confidence += t.low_confidence;
                true
            }
            Err(e) => {
                eprintln!("stream failed: {e}");
                rec.ops.failed += batches;
                false
            }
        }
    }

    /// SNAPSHOT then GOODBYE; the session's clock stops at GOODBYE_ACK,
    /// and only then is its output compared with the reference.
    fn finish(&self, mut client: Client, rec: &mut SessionRec) {
        let t = self.now();
        let snapshot = client_ok(&mut rec.ops, client.snapshot_stats());
        client_ok(&mut rec.ops, client.goodbye());
        rec.end = self.now();
        rec.goodbye = rec.end - t;
        rec.matched = matches(
            rec,
            snapshot.as_ref(),
            &self.want[rec.trace],
            self.shape.records,
        );
        let mut first = self.snapshots.lock().expect("snapshot lock");
        if first[rec.trace].is_none() {
            first[rec.trace] = snapshot;
        }
    }

    /// One whole session: connect, stream, snapshot, goodbye.
    fn stream_session(&self) -> SessionRec {
        let k = self.next_trace();
        let mut rec = SessionRec {
            trace: k,
            start: self.now(),
            ..SessionRec::default()
        };
        let client = client_ok(
            &mut rec.ops,
            Client::connect(&self.addr, HelloConfig::default()),
        );
        let t = self.now();
        rec.connect = t - rec.start;
        rec.end = t;
        let Some(mut client) = client else {
            return rec;
        };
        rec.token = client.resume_token().unwrap_or(0);
        let ok = self.stream(&mut client, &self.traces[k], &mut rec);
        rec.end = self.now();
        rec.stream = rec.end - t;
        if ok {
            self.finish(client, &mut rec);
        }
        rec
    }

    /// Phase one of a parked session: connect, stream the first half,
    /// PARK.
    fn park_session(&self) -> SessionRec {
        let k = self.next_trace();
        let mut rec = SessionRec {
            trace: k,
            start: self.now(),
            ..SessionRec::default()
        };
        let client = client_ok(
            &mut rec.ops,
            Client::connect(&self.addr, HelloConfig::default()),
        );
        let t = self.now();
        rec.connect = t - rec.start;
        rec.end = t;
        let Some(mut client) = client else {
            return rec;
        };
        if !self.stream(&mut client, &self.halves[k].0, &mut rec) {
            return rec;
        }
        let t = self.now();
        rec.stream = t - rec.start - rec.connect;
        rec.token = client_ok(&mut rec.ops, client.park()).unwrap_or(0);
        rec.end = self.now();
        rec.park = rec.end - t;
        rec
    }

    /// Phase two: dial, RESUME, stream the second half, snapshot,
    /// goodbye.
    fn resume_session(&self, rec: &mut SessionRec) {
        let t = self.now();
        rec.idle = (rec.end, t);
        if rec.token == 0 {
            // Phase one failed: the rest of the session counts as failed.
            rec.ops.record(false);
            rec.end = t;
            return;
        }
        let client = client_ok(
            &mut rec.ops,
            ClientBuilder::new(&self.addr).resume(rec.token),
        );
        let t2 = self.now();
        rec.resume = t2 - t;
        rec.end = t2;
        let Some(mut client) = client else {
            return;
        };
        let ok = self.stream(&mut client, &self.halves[rec.trace].1, rec);
        rec.end = self.now();
        rec.stream += rec.end - t2;
        if ok {
            self.finish(client, rec);
        }
    }

    /// One step of a client on the park workload: resume the oldest
    /// parked session once `backlog` are parked, else park a new one. At
    /// steady state every session waits behind `backlog` others — far more
    /// than the hot tier holds — so most resumes load from the store.
    fn park_step(&self) -> Option<SessionRec> {
        let oldest = {
            let mut q = self.parked.lock().expect("park queue lock");
            if q.len() >= self.shape.backlog {
                q.pop_front()
            } else {
                None
            }
        };
        match oldest {
            Some(mut rec) => {
                self.resume_session(&mut rec);
                Some(rec)
            }
            None => {
                let rec = self.park_session();
                self.parked.lock().expect("park queue lock").push_back(rec);
                None
            }
        }
    }

    /// Runs the closed-loop clients until `deadline` (ns since `base`)
    /// or until `cap` sessions have completed, whichever is first.
    /// Returns the completed sessions, ordered by end.
    fn run(&self, deadline: u64, cap: usize) -> Vec<SessionRec> {
        let done = AtomicUsize::new(0);
        // Sized up front for the fastest rate seen, so the records do not
        // grow by doubling and `peak_rss_mb` tracks the program, not them.
        let secs = deadline.saturating_sub(self.now()) as f64 * 1e-9;
        let hint = ((secs.min(3600.0) * 4_000.0) as usize / self.shape.clients).min(cap);
        let per_client = std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.shape.clients)
                .map(|_| {
                    s.spawn(|| {
                        let mut out = Vec::with_capacity(hint);
                        while self.now() < deadline && done.load(Ordering::Relaxed) < cap {
                            let rec = if self.shape.park {
                                self.park_step()
                            } else {
                                Some(self.stream_session())
                            };
                            if let Some(rec) = rec {
                                done.fetch_add(1, Ordering::Relaxed);
                                out.push(rec);
                            }
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect::<Vec<_>>()
        });
        let mut all: Vec<SessionRec> = per_client.into_iter().flatten().collect();
        all.sort_by_key(|r| r.end);
        all
    }

    /// Parks sessions until `backlog` are waiting (park workload).
    fn fill_park(&self) {
        std::thread::scope(|s| {
            for _ in 0..self.shape.clients {
                s.spawn(|| {
                    while self.parked.lock().expect("park queue lock").len() < self.shape.backlog {
                        let rec = self.park_session();
                        self.parked.lock().expect("park queue lock").push_back(rec);
                    }
                });
            }
        });
    }

    /// Resumes and finishes every parked session.
    fn drain_park(&self) -> Vec<SessionRec> {
        let mut out = Vec::new();
        while let Some(mut rec) = self.parked.lock().expect("park queue lock").pop_front() {
            self.resume_session(&mut rec);
            out.push(rec);
        }
        out
    }
}

/// The offline reference for each distinct trace: one `replay_mechanisms`
/// pass with the session's default configuration.
fn expected(traces: &[PackedTrace]) -> Vec<Expected> {
    let cfg = default_cfg();
    let threshold = HelloConfig::default().threshold;
    traces
        .iter()
        .map(|t| {
            let mut p = cfg.predictor();
            let mut m = cfg.mechanism();
            let mech: &mut dyn ConfidenceMechanism = m.as_mut();
            let stats = replay_mechanisms(t, t.len(), &mut p, &mut [mech]).remove(0);
            Expected {
                mispredicts: stats.total_mispredicts() as u64,
                low_confidence: stats
                    .iter()
                    .filter(|(k, _)| *k < threshold)
                    .map(|(_, c)| c.refs as u64)
                    .sum(),
                stats,
            }
        })
        .collect()
}

fn default_cfg() -> GridCfg {
    let h = HelloConfig::default();
    GridCfg {
        predictor: h.predictor,
        mechanism: h.mechanism,
        index: h.index,
    }
}

/// Every session's protocol operations, plus one operation per session
/// for its output check.
fn check_sessions(recs: &[SessionRec]) -> Ops {
    let mut ops = Ops::default();
    for r in recs {
        ops.add(r.ops);
        ops.record(r.matched);
    }
    ops
}

/// Scratch space for durable parks and stores, in the working directory.
const SCRATCH: &str = ".perfbench-tmp";

fn park_dir(rep: usize) -> PathBuf {
    PathBuf::from(SCRATCH).join(format!("park-{}-{rep}", std::process::id()))
}

fn start_server(shape: &ServeShape, rep: usize, trace: bool) -> (ServerHandle, Option<PathBuf>) {
    let dir = shape.park.then(|| park_dir(rep));
    if let Some(d) = &dir {
        let _ = std::fs::remove_dir_all(d);
        std::fs::create_dir_all(d).expect("create park directory");
    }
    let cfg = ServerConfig {
        max_sessions: 4 * shape.backlog.max(shape.clients),
        park_dir: dir.clone(),
        trace,
        trace_capacity: layer::TRACE_CAPACITY,
        ..ServerConfig::default()
    };
    (
        serve("127.0.0.1:0", cfg, WorkerPool::global()).expect("bind loopback"),
        dir,
    )
}

fn stop_server(handle: ServerHandle, dir: Option<PathBuf>) {
    handle.shutdown_and_join();
    if let Some(d) = dir {
        let _ = std::fs::remove_dir_all(d);
        // Succeeds once no other run's directory is left in it.
        let _ = std::fs::remove_dir(SCRATCH);
    }
}

struct Setup {
    traces: Vec<PackedTrace>,
    halves: Vec<(PackedTrace, PackedTrace)>,
    handle: ServerHandle,
    dir: Option<PathBuf>,
    setup_s: f64,
    generate_s: f64,
}

/// Generates the session traces and starts the server (which opens the
/// store), `SETUP_REPS` times; keeps the last.
fn setup(args: &Args, shape: &ServeShape) -> Setup {
    let mut totals = Vec::new();
    let mut gens = Vec::new();
    let mut last = None;
    for rep in 0..SETUP_REPS {
        if let Some(prev) = last.take() {
            let Setup { handle, dir, .. } = prev;
            stop_server(handle, dir);
        }
        let t0 = Instant::now();
        let traces = inputs::session_traces(args.seed, shape.distinct, shape.records);
        let mid = shape.records / 2;
        let halves = if shape.park {
            traces
                .iter()
                .map(|t| (slice(t, 0, mid), slice(t, mid, t.len())))
                .collect()
        } else {
            Vec::new()
        };
        let gen = t0.elapsed().as_secs_f64();
        let (handle, dir) = start_server(shape, rep, args.trace);
        let total = t0.elapsed().as_secs_f64();
        gens.push(gen);
        totals.push(total);
        last = Some(Setup {
            traces,
            halves,
            handle,
            dir,
            setup_s: 0.0,
            generate_s: 0.0,
        });
    }
    let mut s = last.expect("at least one setup");
    s.setup_s = median(&totals);
    s.generate_s = median(&gens);
    s
}

/// Throughput and latency of the timed region. The region is cut into
/// `windows` equal slices by session end time; each slice gives a rate
/// and latency percentiles, and the median slice of each is reported, so
/// a brief stall of the host moves one slice, not the result.
struct Windowed {
    records_per_s: f64,
    p50_ms: f64,
    p90_ms: f64,
    note: String,
}

fn windowed(recs: &[SessionRec], park: bool, windows: usize, t0: u64, t1: u64) -> Windowed {
    let span = (t1 - t0).max(1);
    let mut lat: Vec<Vec<f64>> = vec![Vec::new(); windows];
    let mut acked = vec![0u64; windows];
    for r in recs {
        let w = ((r.end.clamp(t0, t1 - 1) - t0) as u128 * windows as u128 / span as u128) as usize;
        acked[w] += r.records;
        if r.ops.failed == 0 {
            lat[w].push(r.op_ns(park) as f64 * 1e-6);
        }
    }
    let window_s = span as f64 * 1e-9 / windows as f64;
    let rates: Vec<f64> = acked.iter().map(|&a| a as f64 / window_s).collect();
    let mut p50 = Vec::new();
    let mut p90 = Vec::new();
    let mut note = String::new();
    for mut v in lat.into_iter().filter(|v| !v.is_empty()) {
        v.sort_by(f64::total_cmp);
        let (t, at) = tail(&v);
        note.push_str(&format!(" {}@p{at:.1}={t:.2}", v.len()));
        p50.push(percentile(&v, 50.0));
        p90.push(t);
    }
    if p50.is_empty() {
        p50.push(f64::NAN);
        p90.push(f64::NAN);
    }
    Windowed {
        records_per_s: median(&rates),
        p50_ms: median(&p50),
        p90_ms: median(&p90),
        note,
    }
}

pub fn run(args: &Args, shape: &ServeShape) -> Report {
    let s = setup(args, shape);
    let want = expected(&s.traces);
    let load = Load::new(
        shape,
        s.handle.local_addr().to_string(),
        &s.traces,
        &s.halves,
        &want,
    );

    let mut report = Report::default();
    // The traced mode splits its time between an untraced and a traced
    // window; the server was started traced, so switch recording off.
    cira_obs::trace::set_enabled(false);
    let secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    if shape.park {
        load.fill_park();
    }
    crate::warm_up(|| {
        let t = load.now();
        let warm = load.run(t + (WARMUP_SLICE_S * 1e9) as u64, usize::MAX);
        report.ops.add(check_sessions(&warm));
        warm.len() as f64 / (load.now() - t) as f64
    });
    let t0 = load.now();
    let recs = load.run(t0 + (secs * 1e9) as u64, usize::MAX);
    let t1 = load.now();
    report.ops.add(check_sessions(&recs));
    let wall = (t1 - t0) as f64 * 1e-9;

    if !args.trace {
        let w = windowed(&recs, shape.park, shape.windows, t0, t1);
        println!(
            "{} sessions in {wall:.3} s ({:.1}/s); op latency per window \
             (samples@percentile):{}",
            recs.len(),
            recs.len() as f64 / wall,
            w.note
        );
        report.push("setup_s", s.setup_s, "s");
        report.push("branches_per_s", w.records_per_s, "1/s");
        report.push("op_ms_p50", w.p50_ms, "ms");
        report.push("op_ms_p90", w.p90_ms, "ms");
        report.ops.add(check_sessions(&load.drain_park()));
        report.push("coverage_at_20pct", coverage(&load), "%");
        report.push("peak_rss_mb", crate::report::peak_rss_mb(), "MB");
        report.push("ok_share", report.ops.ok_share(), "share");
        stop_server(s.handle, s.dir);
        return report;
    }

    // Traced mode: the same load with the flight recorder on, capped at
    // `traced_sessions` so the rings keep every event.
    let untraced_rate = recs.len() as f64 / wall;
    let mut m = Layers {
        generate_s: s.generate_s,
        ..Layers::default()
    };
    let metrics = s.handle.metrics();
    let counters = |m: &cira_serve::metrics::ServerMetrics| {
        [
            m.frames_in.get(),
            m.frames_out.get(),
            m.bytes_in.get(),
            m.bytes_out.get(),
            m.batches.get(),
            m.sessions_resumed.get(),
            m.sessions_shed.get(),
            m.protocol_errors_total(),
            m.store_page_hits.get().max(0) as u64,
            m.store_page_misses.get().max(0) as u64,
        ]
    };
    let before = counters(metrics);
    let pool = WorkerPool::global().metrics();
    let pool0 = [
        pool.tasks_executed.get(),
        pool.tasks_stolen.get(),
        pool.tasks_injected.get(),
    ];
    let dropped0 = cira_obs::trace::stats().dropped;
    cira_obs::trace::set_enabled(true);
    // Recorder clock (ns since its epoch) minus the run's base clock.
    let offset = cira_obs::trace::now_ns() as i128 - load.now() as i128;
    let t2 = load.now();
    let traced = load.run(t2 + (secs * 1e9) as u64, shape.traced_sessions);
    let t3 = load.now();
    cira_obs::trace::set_enabled(false);
    report.ops.add(check_sessions(&traced));
    let after = counters(metrics);
    report.ops.add(check_sessions(&load.drain_park()));
    let d = |i: usize| (after[i] - before[i]) as f64;
    m.frames_in = d(0);
    m.frames_out = d(1);
    m.bytes_in = d(2);
    m.bytes_out = d(3);
    m.batches = d(4);
    m.sessions_resumed = d(5);
    m.sessions_shed = d(6);
    m.protocol_errors = d(7);
    m.page_hits = d(8);
    m.page_misses = d(9);
    m.pool_tasks = (pool.tasks_executed.get() - pool0[0]) as f64;
    m.pool_steals = (pool.tasks_stolen.get() - pool0[1]) as f64;
    m.pool_injected = (pool.tasks_injected.get() - pool0[2]) as f64;
    let traced_rate = traced.len() as f64 / ((t3 - t2) as f64 * 1e-9);
    m.tracing_overhead_share = untraced_rate / traced_rate - 1.0;

    let events: Vec<_> = cira_obs::trace::collect(None)
        .into_iter()
        .filter_map(|mut e| {
            let start = e.start_ns as i128 - offset;
            e.start_ns = u64::try_from(start).ok()?;
            (e.start_ns >= t2).then_some(e)
        })
        .collect();
    m.dropped_events = (cira_obs::trace::stats().dropped - dropped0) as f64;
    m.stage_s = layer::stage_self_times(&events);
    m.unattributed_share = unattributed(&traced, &events, t2);
    stop_server(s.handle, s.dir);

    // Client-side phases of the traced sessions.
    for r in &traced {
        m.connect_s += r.connect as f64 * 1e-9;
        m.stream_s += r.stream as f64 * 1e-9;
        m.park_s += r.park as f64 * 1e-9;
        m.resume_s += r.resume as f64 * 1e-9;
        m.goodbye_s += r.goodbye as f64 * 1e-9;
    }
    let session_s: f64 = traced.iter().map(|r| r.active_ns() as f64 * 1e-9).sum();
    report
        .ops
        .add(outside_layers(&mut m, shape, &s.traces, &traced, &want));
    m.client_share = m.client_slice_s / session_s;
    // Simulated totals over the distinct traces: fixed for a seed.
    for (t, w) in s.traces.iter().zip(&want) {
        m.branches += t.len() as f64;
        m.mispredicts += w.mispredicts as f64;
        m.low_confidence += w.low_confidence as f64;
    }
    println!(
        "traced {} sessions ({traced_rate:.1}/s) vs untraced {untraced_rate:.1}/s; {} events, \
         {} dropped",
        traced.len(),
        events.len(),
        m.dropped_events
    );
    m.push_all(&mut report);
    report
}

/// Coverage at 20% of the served statistics: the first snapshot served
/// for each distinct trace, combined with equal weight (deterministic
/// for a seed).
fn coverage(load: &Load) -> f64 {
    let first = load.snapshots.lock().expect("snapshot lock");
    let combined = BucketStats::combine_equal_weight(first.iter().flatten());
    CoverageCurve::from_buckets(&combined).coverage_at(20.0)
}

/// Share of client-observed session time (with a connection open, from
/// `from` on) that no server span of the session's connections covers.
fn unattributed(recs: &[SessionRec], events: &[cira_obs::trace::SpanEvent], from: u64) -> f64 {
    let mut conns_of: HashMap<u64, Vec<u64>> = HashMap::new();
    for e in events.iter().filter(|e| e.token != 0 && e.trace_id != 0) {
        let v = conns_of.entry(e.token).or_default();
        if !v.contains(&e.trace_id) {
            v.push(e.trace_id);
        }
    }
    let mut spans_of: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for e in events.iter().filter(|e| e.dur_ns > 0) {
        spans_of
            .entry(e.trace_id)
            .or_default()
            .push((e.start_ns, e.start_ns + e.dur_ns));
    }
    let mut total = 0u64;
    let mut covered = 0u64;
    for r in recs {
        // Parked sessions may have parked before the recorder was on.
        let (start, idle_end) = (r.start.max(from), r.idle.1.max(from));
        let idle_start = r.idle.0.max(from).min(idle_end);
        total += r.end.saturating_sub(start) - (idle_end - idle_start);
        let mut iv: Vec<(u64, u64)> = conns_of
            .get(&r.token)
            .into_iter()
            .flatten()
            .flat_map(|c| spans_of.get(c).into_iter().flatten().copied())
            .collect();
        covered += layer::covered_ns(&mut iv, start, r.end)
            - layer::covered_ns(&mut iv, idle_start, idle_end);
    }
    1.0 - covered as f64 / total.max(1) as f64
}

/// Times the layers the server runs per session from outside, on the
/// traced sessions' own inputs: the client's batch slicing, CIRP, the
/// frame parser, the protocol codec, streaming scoring, and for parked
/// sessions the CIRD checkpoint codec and the session store.
fn outside_layers(
    m: &mut Layers,
    shape: &ServeShape,
    traces: &[PackedTrace],
    recs: &[SessionRec],
    want: &[Expected],
) -> Ops {
    let mut ops = Ops::default();
    let cfg = default_cfg();
    let hello = HelloConfig::default();
    let store_dir = park_dir(usize::MAX);
    let _ = std::fs::remove_dir_all(&store_dir);
    std::fs::create_dir_all(&store_dir).expect("create store directory");
    let mut store = shape.park.then(|| {
        SessionStore::open(&store_dir.join("layers.cirstore"), 0).expect("open scratch store")
    });
    for (n, r) in recs.iter().enumerate() {
        let trace = &traces[r.trace];
        let (_, _, same) = crate::replay::kernel_layers(m, &cfg, trace, trace.len());
        ops.record(same);
        // Client::stream's per-batch slicing.
        let t0 = Instant::now();
        let batches: Vec<PackedTrace> = (0..trace.len())
            .step_by(shape.batch)
            .map(|at| slice(trace, at, (at + shape.batch).min(trace.len())))
            .collect();
        m.client_slice_s += t0.elapsed().as_secs_f64();
        let mut wire = Vec::new();
        let mut acks = Vec::new();
        let mut session = Session::from_hello(&hello, 1).expect("default hello is valid");
        let mut replay = StreamingReplay::new(cfg.predictor(), cfg.mechanism());
        for (seq, b) in batches.iter().enumerate() {
            ops.add(layer::time_cirp(m, b));
            let body = encode_client(&ClientFrame::Batch {
                seq: seq as u32,
                records: b.clone(),
            });
            wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
            wire.extend_from_slice(&body);
            let t0 = Instant::now();
            std::hint::black_box(replay.feed(b));
            m.score_s += t0.elapsed().as_secs_f64();
            acks.push(session.apply_batch(seq as u32, b));
            if shape.park && seq + 1 == batches.len() / 2 {
                let key = n as u64 + 1;
                m.time_store(
                    store.as_mut().expect("park workloads open a store"),
                    &session,
                    key,
                    &mut ops,
                );
            }
        }
        ops.record(replay.stats() == &want[r.trace].stats);
        let mut fb = FrameBuffer::new();
        fb.fill_from(&mut wire.as_slice()).expect("in-memory read");
        let mut bodies = Vec::new();
        let t0 = Instant::now();
        while let Ok(Some(body)) = fb.next_frame(u32::MAX) {
            bodies.push(body);
        }
        m.frame_parse_s += t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let decoded: Vec<_> = bodies.iter().map(|b| decode_client(b)).collect();
        m.proto_decode_s += t0.elapsed().as_secs_f64();
        ops.record(decoded.len() == batches.len() && decoded.iter().all(Result::is_ok));
        let t0 = Instant::now();
        for a in &acks {
            std::hint::black_box(encode_server(a));
        }
        m.proto_encode_s += t0.elapsed().as_secs_f64();
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&store_dir);
    let _ = std::fs::remove_dir(SCRATCH);
    ops
}

impl Layers {
    /// CIRD encode/decode of the session's checkpoint at its park point,
    /// and a store put (fsynced) plus get of the encoded blob.
    fn time_store(&mut self, store: &mut SessionStore, session: &Session, key: u64, ops: &mut Ops) {
        let cp = session.to_checkpoint(key);
        let t0 = Instant::now();
        let blob = cp.encode();
        self.cird_encode_s += t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let back = Checkpoint::decode(&blob);
        self.cird_decode_s += t0.elapsed().as_secs_f64();
        ops.record(back.as_ref() == Ok(&cp));
        let t0 = Instant::now();
        let put = store.put(key, key, 0, &blob);
        self.put_s += t0.elapsed().as_secs_f64();
        ops.record(put.is_ok());
        let t0 = Instant::now();
        let got = store.get(key);
        self.get_s += t0.elapsed().as_secs_f64();
        ops.record(got.map(|(_, b)| b == blob).unwrap_or(false));
        // Keep the scratch store small.
        ops.record(store.remove(key).is_ok());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_session_output_counts_as_failed() {
        let shape = ServeShape {
            park: false,
            clients: 2,
            records: 1_000,
            batch: 250,
            distinct: 4,
            backlog: 4,
            windows: 1,
            traced_sessions: 4,
        };
        let traces = inputs::session_traces(5, shape.distinct, shape.records);
        let want = expected(&traces);
        let (handle, dir) = start_server(&shape, 0, false);
        let load = Load::new(&shape, handle.local_addr().to_string(), &traces, &[], &want);
        let mut recs = load.run(u64::MAX, 4);
        stop_server(handle, dir);
        let clean = check_sessions(&recs);
        assert_eq!(clean.failed, 0);
        // A wrong snapshot cell and a wrong acked total each fail their
        // session's output check.
        let r = &mut recs[0];
        let mut snap = load.snapshots.lock().unwrap()[r.trace].clone().unwrap();
        assert!(matches(r, Some(&snap), &want[r.trace], shape.records));
        snap.record_batch(1, 1, 0);
        r.matched = matches(r, Some(&snap), &want[r.trace], shape.records);
        let r = &mut recs[1];
        let snap = load.snapshots.lock().unwrap()[r.trace].clone();
        r.mispredicts += 1;
        r.matched = matches(r, snap.as_ref(), &want[r.trace], shape.records);
        let bad = check_sessions(&recs);
        assert_eq!(bad.attempted, clean.attempted);
        assert_eq!(bad.failed, 2);
        let report = Report {
            ops: bad,
            ..Report::default()
        };
        assert!(report.ops.ok_share() < 1.0);
        assert!(report.json().starts_with("{\"correct\": false"));
    }
}
