//! Perf smoke test for the shared execution engine.
//!
//! Times the fixed grid — the IBS-like suite × 8 resetting-counter
//! configurations × `CIRA_TRACE_LEN` (default 1M) branches — three ways:
//!
//! * **legacy**: the pre-engine path, reproduced verbatim — every
//!   configuration regenerates each benchmark's synthetic trace and drives
//!   the per-record [`cira_analysis::runner`] loop, one scoped thread per
//!   benchmark (parallelism capped at the suite size);
//! * **engine-scalar**: [`Engine::run_grid`] with the batched kernels
//!   suppressed via [`ScalarKernel`]/[`ScalarObserve`] — shared
//!   materialized traces and the work-stealing pool, but the trait-default
//!   per-record loops inside each chunk;
//! * **engine**: the same grid with the vectorized kernels — lane-parallel
//!   history fill, SWAR pattern tables, batched mechanism observe.
//!
//! All three configurations' predictors are the same 64K gshare, so the
//! engine drives it once per benchmark for all 8 mechanism configs
//! (one predictor group), while the legacy path drives it once per cell.
//!
//! A fourth row, **engine-tage**, runs the same 8 configurations on
//! `Tage::reference_64k()` through its block-hashed batch hooks, checked
//! against the same grid on `ScalarKernel<Tage>` (the per-record default
//! loops; untimed).
//!
//! All paths compute identical statistics (asserted below) — this binary
//! measures only how fast they get there. Each path is timed best-of-`REPS`
//! to keep scheduler noise out of the comparison. Results go to
//! `BENCH_engine.json`: wall-clock seconds, simulated branches/second, and
//! the `kernel` each path ran, plus the recording toolchain.

use std::time::Instant;

use cira_analysis::engine::Engine;
use cira_analysis::SuiteBuckets;
use cira_analysis::{runner, BucketStats};
use cira_bench::{banner, rustc_version, trace_len};
use cira_core::one_level::ResettingConfidence;
use cira_core::{ConfidenceMechanism, IndexSpec, InitPolicy, ScalarObserve};
use cira_predictor::{BranchPredictor, Gshare, ScalarKernel, Tage};
use cira_trace::suite::{ibs_like_suite, Benchmark};

/// The 8 grid configurations: resetting counters (the paper's recommended
/// practical design) across table sizes and saturation values.
#[derive(Debug, Clone, Copy)]
struct GridConfig {
    index_bits: u32,
    max: u32,
}

const CONFIGS: [GridConfig; 8] = [
    GridConfig { index_bits: 10, max: 8 },
    GridConfig { index_bits: 10, max: 16 },
    GridConfig { index_bits: 12, max: 8 },
    GridConfig { index_bits: 12, max: 16 },
    GridConfig { index_bits: 14, max: 16 },
    GridConfig { index_bits: 16, max: 8 },
    GridConfig { index_bits: 16, max: 16 },
    GridConfig { index_bits: 16, max: 32 },
];

/// Timing repetitions per path; the minimum wall time wins.
const REPS: usize = 5;

fn mechanism(c: &GridConfig) -> ResettingConfidence {
    ResettingConfidence::new(
        IndexSpec::pc_xor_bhr(c.index_bits),
        c.max,
        InitPolicy::AllOnes,
    )
}

/// The pre-engine path: per configuration, regenerate every benchmark's
/// trace from its walker and run the per-record loop, one thread per
/// benchmark (this is what `run_suite_mechanism` did before the engine).
fn run_legacy(suite: &[Benchmark], len: u64) -> Vec<Vec<(String, BucketStats)>> {
    CONFIGS
        .iter()
        .map(|config| {
            std::thread::scope(|scope| {
                let handles: Vec<_> = suite
                    .iter()
                    .map(|bench| {
                        scope.spawn(move || {
                            let mut predictor = Gshare::paper_large();
                            let mut mech = mechanism(config);
                            (
                                bench.name().to_owned(),
                                runner::collect_mechanism_buckets(
                                    bench.walker().take(len as usize),
                                    &mut predictor,
                                    &mut mech,
                                ),
                            )
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            })
        })
        .collect()
}

/// The engine path on `make_predictor`'s predictor with the batched
/// mechanism kernels (the production default).
fn run_engine<P: BranchPredictor + Send>(
    suite: &[Benchmark],
    len: u64,
    make_predictor: impl Fn() -> P + Sync,
) -> Vec<SuiteBuckets> {
    Engine::global()
        .run_grid(suite, len, &CONFIGS, |_| make_predictor(), |c| {
            vec![Box::new(mechanism(c)) as Box<dyn ConfidenceMechanism>]
        })
        .into_iter()
        .map(|mut row| row.pop().expect("one series per config"))
        .collect()
}

/// The engine path with batched kernels suppressed: identical scheduling
/// and trace sharing, but the per-record scalar loops inside each chunk —
/// isolating the vectorized kernel's contribution.
fn run_engine_scalar(suite: &[Benchmark], len: u64) -> Vec<SuiteBuckets> {
    Engine::global()
        .run_grid(
            suite,
            len,
            &CONFIGS,
            |_| ScalarKernel(Gshare::paper_large()),
            |c| vec![Box::new(ScalarObserve(mechanism(c))) as Box<dyn ConfidenceMechanism>],
        )
        .into_iter()
        .map(|mut row| row.pop().expect("one series per config"))
        .collect()
}

fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let value = f();
        best = best.min(t0.elapsed().as_secs_f64());
        out = Some(value);
    }
    (best, out.expect("reps > 0"))
}

fn main() {
    let len = trace_len();
    banner(
        "Engine throughput",
        "Legacy per-config regeneration vs shared engine (scalar and vectorized kernels)",
        len,
    );
    let suite = ibs_like_suite();
    let total_branches = (suite.len() * CONFIGS.len()) as u64 * len;
    println!(
        "grid: {} benchmarks x {} configs x {} branches = {} simulated branches per path",
        suite.len(),
        CONFIGS.len(),
        len,
        total_branches
    );
    let host_cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "engine workers: {} (host cores: {host_cores}); best of {REPS} runs per path; {}",
        Engine::global().pool().workers(),
        rustc_version(),
    );
    println!();

    let bps = |secs: f64| 1e-6 * total_branches as f64 / secs;

    let (legacy_secs, legacy) = best_of(REPS, || run_legacy(&suite, len));
    println!("legacy:        {legacy_secs:8.2}s  ({:.1}M branches/s)  [scalar]", bps(legacy_secs));

    let (scalar_secs, engine_scalar) = best_of(REPS, || run_engine_scalar(&suite, len));
    println!("engine-scalar: {scalar_secs:8.2}s  ({:.1}M branches/s)  [scalar]", bps(scalar_secs));

    let (engine_secs, engine) = best_of(REPS, || run_engine(&suite, len, Gshare::paper_large));
    println!("engine:        {engine_secs:8.2}s  ({:.1}M branches/s)  [simd]", bps(engine_secs));

    let (tage_secs, engine_tage) = best_of(REPS, || run_engine(&suite, len, Tage::reference_64k));
    println!("engine-tage:   {tage_secs:8.2}s  ({:.1}M branches/s)  [tage]", bps(tage_secs));
    let tage_scalar = run_engine(&suite, len, || ScalarKernel(Tage::reference_64k()));

    // The speedup only counts if the answers agree, bit for bit.
    for (ci, (legacy_row, engine_row)) in legacy.iter().zip(&engine).enumerate() {
        assert_eq!(
            legacy_row.len(),
            engine_row.per_benchmark.len(),
            "config {ci}: benchmark count"
        );
        for ((ln, ls), (en, es)) in legacy_row.iter().zip(&engine_row.per_benchmark) {
            assert_eq!(ln, en, "config {ci}: benchmark order");
            assert_eq!(ls, es, "config {ci}, {ln}: buckets must be bit-identical");
        }
    }
    for (ci, (scalar_row, engine_row)) in engine_scalar.iter().zip(&engine).enumerate() {
        assert_eq!(
            scalar_row.per_benchmark, engine_row.per_benchmark,
            "config {ci}: scalar and vectorized kernels must agree"
        );
    }
    for (ci, (scalar_row, tage_row)) in tage_scalar.iter().zip(&engine_tage).enumerate() {
        assert_eq!(
            scalar_row.per_benchmark, tage_row.per_benchmark,
            "config {ci}: TAGE batch hooks and ScalarKernel<Tage> must agree"
        );
    }
    println!("checked: all three gshare paths bit-identical; engine-tage matches ScalarKernel<Tage>");

    let speedup = legacy_secs / engine_secs;
    let kernel_speedup = scalar_secs / engine_secs;
    println!();
    println!("speedup vs legacy: {speedup:.2}x   vectorized kernel vs scalar kernel: {kernel_speedup:.2}x");

    let json = format!(
        "{{\n  \"grid\": {{\"benchmarks\": {}, \"configs\": {}, \"trace_len\": {}, \"total_branches\": {}}},\n  \"workers\": {},\n  \"host_cores\": {},\n  \"reps\": {REPS},\n  \"rustc\": \"{}\",\n  \"legacy\": {{\"kernel\": \"scalar\", \"wall_seconds\": {:.4}, \"branches_per_sec\": {:.0}}},\n  \"engine_scalar\": {{\"kernel\": \"scalar\", \"wall_seconds\": {:.4}, \"branches_per_sec\": {:.0}}},\n  \"engine\": {{\"kernel\": \"simd\", \"wall_seconds\": {:.4}, \"branches_per_sec\": {:.0}}},\n  \"engine_tage\": {{\"kernel\": \"tage\", \"predictor\": \"{}\", \"wall_seconds\": {:.4}, \"branches_per_sec\": {:.0}}},\n  \"speedup\": {:.3},\n  \"kernel_speedup\": {:.3},\n  \"bit_identical\": true\n}}\n",
        suite.len(),
        CONFIGS.len(),
        len,
        total_branches,
        Engine::global().pool().workers(),
        host_cores,
        rustc_version(),
        legacy_secs,
        total_branches as f64 / legacy_secs,
        scalar_secs,
        total_branches as f64 / scalar_secs,
        engine_secs,
        total_branches as f64 / engine_secs,
        Tage::reference_64k().describe(),
        tage_secs,
        total_branches as f64 / tage_secs,
        speedup,
        kernel_speedup,
    );
    match std::fs::write("BENCH_engine.json", &json) {
        Ok(()) => println!("wrote BENCH_engine.json"),
        Err(e) => cira_obs::warn!("could not write BENCH_engine.json", error = e),
    }
}
