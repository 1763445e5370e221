//! Perf smoke test for the observability layer.
//!
//! The server's batch drain loop pays a fixed instrumentation toll per
//! batch: one `Instant` pair around the scoring call, four relaxed counter
//! adds, and two histogram records (`crates/serve/src/server.rs`,
//! `drain`). This binary measures that toll directly: it streams the same
//! trace through a [`StreamingReplay`] in server-sized batches twice —
//! once bare, once adding exactly the drain loop's per-batch metric
//! operations — and reports the throughput difference.
//!
//! A third path adds the drain loop's flight-recorder calls (rev 1.5)
//! with the recorder compiled in but left **disabled** — the
//! configuration every untraced production server runs. Its only cost
//! is one relaxed atomic load per span/instant, so it must clear the
//! same bar as plain instrumentation.
//!
//! All paths do identical scoring work (asserted bit-for-bit below).
//! Reps are interleaved round-robin — bare, instrumented, traced, repeat
//! — and each path keeps its best wall time, so a slow scheduling period
//! penalises every path equally instead of whichever ran during it.
//! Results go to `BENCH_obs.json`. The acceptance bar is an overhead of
//! at most 2% at the default 1M-branch trace length.

use std::hint::black_box;
use std::time::Instant;

use cira_analysis::engine::replay::StreamingReplay;
use cira_bench::{banner, trace_len};
use cira_core::one_level::ResettingConfidence;
use cira_core::{IndexSpec, InitPolicy};
use cira_obs::{Counter, Histogram};
use cira_predictor::Gshare;
use cira_trace::codec::PackedTrace;
use cira_trace::suite::ibs_like_suite;

/// The server's default batch pipeline width (`cira replay --batch`).
const BATCH_LEN: usize = 4096;
/// The server's default low-confidence threshold (`HelloConfig`).
const THRESHOLD: u64 = 16;
/// Timing repetitions per path; the minimum wall time wins. The whole
/// bench stays under a couple of seconds at the default trace length,
/// so generous repetition is cheap insurance against scheduler noise.
const REPS: usize = 15;

/// The instruments the drain loop touches per batch — same shapes as
/// `ServerMetrics`, allocated fresh so a prior rep cannot warm them.
#[derive(Default)]
struct DrainMetrics {
    batches: Counter,
    records: Counter,
    mispredicts: Counter,
    low_confidence: Counter,
    batch_records: Histogram,
    batch_service_us: Histogram,
}

/// A fresh replayer with the server's default session configuration.
fn replayer() -> StreamingReplay {
    StreamingReplay::new(
        Box::new(Gshare::paper_large()),
        Box::new(ResettingConfidence::new(
            IndexSpec::pc_xor_bhr(16),
            16,
            InitPolicy::AllOnes,
        )),
    )
}

/// Feeds every batch bare: scoring plus the low-confidence scan the
/// session does anyway, no instrumentation. Returns (mispredicts, low).
fn run_bare(batches: &[PackedTrace]) -> (u64, u64) {
    let mut replay = replayer();
    let (mut mispredicts, mut low_total) = (0u64, 0u64);
    for batch in batches {
        let fed = replay.feed(batch);
        let low = fed.keys.iter().filter(|&&k| k < THRESHOLD).count() as u64;
        mispredicts += fed.mispredicts;
        low_total += black_box(low);
    }
    (mispredicts, low_total)
}

/// The same loop with the drain loop's per-batch metric operations added:
/// an `Instant` pair, four counter adds, two histogram records.
fn run_instrumented(batches: &[PackedTrace], m: &DrainMetrics) -> (u64, u64) {
    let mut replay = replayer();
    let (mut mispredicts, mut low_total) = (0u64, 0u64);
    for batch in batches {
        let n = batch.len() as u64;
        let t0 = Instant::now();
        let fed = replay.feed(batch);
        let service_us = t0.elapsed().as_micros() as u64;
        let low = fed.keys.iter().filter(|&&k| k < THRESHOLD).count() as u64;
        m.batches.inc();
        m.records.add(n);
        m.mispredicts.add(fed.mispredicts);
        m.low_confidence.add(low);
        m.batch_records.record(n);
        m.batch_service_us.record(service_us);
        mispredicts += fed.mispredicts;
        low_total += black_box(low);
    }
    (mispredicts, low_total)
}

/// The instrumented loop plus the flight-recorder operations of the
/// server's batch path — a `Score` span pair around the scoring call and
/// a `Checkout`/`Complete` instant on either side — with the recorder
/// left disabled. `Span::begin`/`instant` bail on one relaxed load of the
/// enable gate, so this is the cost a server with tracing compiled in but
/// switched off pays. The server now scores on its shard and emits only
/// the `Score` span, so the two instants make this an upper bound.
fn run_traced_disabled(batches: &[PackedTrace], m: &DrainMetrics) -> (u64, u64) {
    use cira_obs::trace::{self, Stage};
    assert!(!trace::enabled(), "this path measures the disabled gate");
    let mut replay = replayer();
    let (mut mispredicts, mut low_total) = (0u64, 0u64);
    for (i, batch) in batches.iter().enumerate() {
        let n = batch.len() as u64;
        trace::instant(Stage::Checkout, i as u64, 0, 0, n);
        let t0 = Instant::now();
        let span = trace::Span::begin(Stage::Score, i as u64, 0, 0);
        let fed = replay.feed(batch);
        span.end_with(n);
        let service_us = t0.elapsed().as_micros() as u64;
        let low = fed.keys.iter().filter(|&&k| k < THRESHOLD).count() as u64;
        trace::instant(Stage::Complete, i as u64, 0, 0, low);
        m.batches.inc();
        m.records.add(n);
        m.mispredicts.add(fed.mispredicts);
        m.low_confidence.add(low);
        m.batch_records.record(n);
        m.batch_service_us.record(service_us);
        mispredicts += fed.mispredicts;
        low_total += black_box(low);
    }
    (mispredicts, low_total)
}

/// Times one invocation of `f`, folding it into the running best.
fn timed<T>(best: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let value = f();
    *best = best.min(t0.elapsed().as_secs_f64());
    value
}

fn main() {
    let len = trace_len();
    banner(
        "Observability overhead",
        "Bare batch replay vs replay + the server drain loop's metric operations",
        len,
    );

    let trace: PackedTrace = ibs_like_suite()[0].walker().take(len as usize).collect();
    let batches: Vec<PackedTrace> = (0..trace.len())
        .step_by(BATCH_LEN)
        .map(|at| {
            (at..(at + BATCH_LEN).min(trace.len()))
                .map(|i| trace.get(i).expect("index in range"))
                .collect()
        })
        .collect();
    println!(
        "{} branches in {} batches of <= {BATCH_LEN}; best of {REPS} runs per path",
        trace.len(),
        batches.len()
    );
    println!();

    let metrics = DrainMetrics::default();
    let traced_metrics = DrainMetrics::default();
    let (mut bare_secs, mut instr_secs, mut traced_secs) =
        (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    let (mut bare_result, mut instr_result, mut traced_result) = ((0, 0), (0, 0), (0, 0));
    for _ in 0..REPS {
        bare_result = timed(&mut bare_secs, || run_bare(&batches));
        instr_result = timed(&mut instr_secs, || run_instrumented(&batches, &metrics));
        traced_result = timed(&mut traced_secs, || run_traced_disabled(&batches, &traced_metrics));
    }
    println!(
        "bare:         {bare_secs:8.3}s  ({:.1}M branches/s)",
        1e-6 * len as f64 / bare_secs
    );
    println!(
        "instrumented: {instr_secs:8.3}s  ({:.1}M branches/s)",
        1e-6 * len as f64 / instr_secs
    );
    println!(
        "traced (off): {traced_secs:8.3}s  ({:.1}M branches/s)",
        1e-6 * len as f64 / traced_secs
    );

    // The comparison only counts if all paths did identical work, and the
    // disabled recorder must not have captured a single event.
    assert_eq!(bare_result, instr_result, "paths must score identically");
    assert_eq!(bare_result, traced_result, "paths must score identically");
    assert_eq!(metrics.records.get(), len * REPS as u64);
    assert_eq!(metrics.batch_service_us.snapshot().count, metrics.batches.get());
    assert_eq!(cira_obs::trace::stats().recorded, 0, "recorder stayed off");

    let overhead_pct = 100.0 * (instr_secs - bare_secs) / bare_secs;
    let trace_disabled_overhead_pct = 100.0 * (traced_secs - bare_secs) / bare_secs;
    println!();
    println!("overhead: {overhead_pct:+.2}%  (acceptance bar: <= 2%)");
    println!("overhead with disabled tracing: {trace_disabled_overhead_pct:+.2}%  (same bar)");

    let json = format!(
        "{{\n  \"trace_len\": {},\n  \"batch_len\": {BATCH_LEN},\n  \"batches\": {},\n  \"reps\": {REPS},\n  \"bare\": {{\"wall_seconds\": {:.4}, \"branches_per_sec\": {:.0}}},\n  \"instrumented\": {{\"wall_seconds\": {:.4}, \"branches_per_sec\": {:.0}}},\n  \"traced_disabled\": {{\"wall_seconds\": {:.4}, \"branches_per_sec\": {:.0}}},\n  \"overhead_pct\": {:.3},\n  \"trace_disabled_overhead_pct\": {:.3},\n  \"identical_results\": true\n}}\n",
        len,
        batches.len(),
        bare_secs,
        len as f64 / bare_secs,
        instr_secs,
        len as f64 / instr_secs,
        traced_secs,
        len as f64 / traced_secs,
        overhead_pct,
        trace_disabled_overhead_pct,
    );
    match std::fs::write("BENCH_obs.json", &json) {
        Ok(()) => println!("wrote BENCH_obs.json"),
        Err(e) => cira_obs::warn!("could not write BENCH_obs.json", error = e),
    }
}
