//! Golden equivalence and determinism tests for the execution engine.
//!
//! The engine's whole contract is that its trace cache + work-stealing
//! pool + batched replay kernel change *nothing* about the statistics:
//! every number must be bit-identical to walking each benchmark trace
//! sequentially through [`cira_analysis::runner`], and independent of the
//! worker count.

use cira_analysis::engine::Engine;
use cira_analysis::{runner, spec, BucketStats, ConfusionCounts, SuiteBuckets};
use cira_core::one_level::ResettingConfidence;
use cira_core::{ConfidenceMechanism, IndexSpec, InitPolicy, LowRule, ThresholdEstimator};
use cira_predictor::{BranchPredictor, Gshare};
use cira_trace::suite::{ibs_like_suite, Benchmark};

const TRACE_LENS: [u64; 2] = [10_000, 60_000];

fn suite3() -> Vec<Benchmark> {
    ibs_like_suite().into_iter().take(3).collect()
}

fn make_predictor() -> Gshare {
    Gshare::new(12, 12)
}

fn make_mechanism() -> ResettingConfidence {
    ResettingConfidence::new(IndexSpec::pc_xor_bhr(12), 16, InitPolicy::AllOnes)
}

fn make_estimator() -> ThresholdEstimator<ResettingConfidence> {
    ThresholdEstimator::new(make_mechanism(), LowRule::KeyBelow(8))
}

/// The sequential reference: fresh tables per benchmark, per-record loop,
/// no engine involved.
fn sequential_buckets(suite: &[Benchmark], len: u64) -> Vec<(String, BucketStats)> {
    suite
        .iter()
        .map(|bench| {
            let mut predictor = make_predictor();
            let mut mech = make_mechanism();
            (
                bench.name().to_owned(),
                runner::collect_mechanism_buckets(
                    bench.walker().take(len as usize),
                    &mut predictor,
                    &mut mech,
                ),
            )
        })
        .collect()
}

fn sequential_confusion(suite: &[Benchmark], len: u64) -> Vec<(String, ConfusionCounts)> {
    suite
        .iter()
        .map(|bench| {
            let mut predictor = make_predictor();
            let mut est = make_estimator();
            (
                bench.name().to_owned(),
                runner::run_estimator(
                    bench.walker().take(len as usize),
                    &mut predictor,
                    &mut est,
                ),
            )
        })
        .collect()
}

#[test]
fn engine_buckets_bit_identical_to_sequential_runner() {
    let suite = suite3();
    for len in TRACE_LENS {
        let reference = sequential_buckets(&suite, len);

        let engine = Engine::with_jobs(4);
        let out = engine
            .run_suite_mechanisms(&suite, len, make_predictor, || {
                vec![Box::new(make_mechanism()) as Box<dyn ConfidenceMechanism>]
            })
            .pop()
            .expect("one series");

        assert_eq!(out.per_benchmark.len(), reference.len());
        for ((en, es), (rn, rs)) in out.per_benchmark.iter().zip(&reference) {
            assert_eq!(en, rn, "len {len}: benchmark order");
            assert_eq!(es, rs, "len {len}, {en}: buckets must be bit-identical");
        }
        let combined = BucketStats::combine_equal_weight(reference.iter().map(|(_, s)| s));
        assert_eq!(out.combined, combined, "len {len}: combined buckets");
    }
}

#[test]
fn engine_confusion_counts_bit_identical_to_sequential_runner() {
    let suite = suite3();
    for len in TRACE_LENS {
        let reference = sequential_confusion(&suite, len);

        let engine = Engine::with_jobs(4);
        let (per, total) = engine.run_suite_estimator(&suite, len, make_predictor, make_estimator);

        assert_eq!(per, reference, "len {len}: per-benchmark confusion counts");
        let mut ref_total = ConfusionCounts::new();
        for (_, c) in &reference {
            ref_total.merge(c);
        }
        assert_eq!(total, ref_total, "len {len}: summed confusion counts");
    }
}

#[test]
fn engine_results_independent_of_worker_count() {
    let suite = suite3();
    let len = 30_000;

    // CIRA_JOBS affects only the global engine; pin both counts explicitly.
    let serial = Engine::with_jobs(1);
    let wide = Engine::with_jobs(
        std::thread::available_parallelism()
            .map(|n| n.get().max(4))
            .unwrap_or(4),
    );

    let run = |engine: &Engine| {
        engine
            .run_suite_mechanisms(&suite, len, make_predictor, || {
                vec![Box::new(make_mechanism()) as Box<dyn ConfidenceMechanism>]
            })
            .pop()
            .expect("one series")
    };
    let a = run(&serial);
    let b = run(&wide);

    assert_eq!(a.combined, b.combined);
    assert_eq!(a.per_benchmark, b.per_benchmark);

    let (pa, ta) = serial.run_suite_estimator(&suite, len, make_predictor, make_estimator);
    let (pb, tb) = wide.run_suite_estimator(&suite, len, make_predictor, make_estimator);
    assert_eq!(pa, pb);
    assert_eq!(ta, tb);
}

#[test]
fn engine_grid_rows_match_single_config_runs() {
    // A multi-config grid must reproduce each configuration's standalone
    // result — shared trace buffers must not leak state across tasks.
    let suite = suite3();
    let len = 20_000;
    let maxes = [8u32, 16];

    let engine = Engine::with_jobs(3);
    let grid = engine.run_grid(
        &suite,
        len,
        &maxes,
        |_| make_predictor(),
        |&max| {
            vec![Box::new(ResettingConfidence::new(
                IndexSpec::pc_xor_bhr(12),
                max,
                InitPolicy::AllOnes,
            )) as Box<dyn ConfidenceMechanism>]
        },
    );

    for (&max, row) in maxes.iter().zip(&grid) {
        let reference: Vec<(String, BucketStats)> = suite
            .iter()
            .map(|bench| {
                let mut predictor = make_predictor();
                let mut mech =
                    ResettingConfidence::new(IndexSpec::pc_xor_bhr(12), max, InitPolicy::AllOnes);
                (
                    bench.name().to_owned(),
                    runner::collect_mechanism_buckets(
                        bench.walker().take(len as usize),
                        &mut predictor,
                        &mut mech,
                    ),
                )
            })
            .collect();
        assert_eq!(row[0].per_benchmark, reference, "max {max}");
    }
}

/// One column of the mixed grid: a predictor spec and the mechanisms
/// (spec, index) it carries, in the repository's spec grammar.
struct MixedCfg {
    predictor: &'static str,
    mechanisms: &'static [(&'static str, &'static str)],
}

/// Small TAGE: four tagged components over 1K-entry tables.
const SMALL_TAGE: &str = "tage:10:4:2:32";

/// Interleaves the configs so groups are not contiguous: two `gshare64k`
/// configs (one with two series), a `gshare:12:12` one, and a small TAGE
/// under `resetting:16` and under `self:` on the same TAGE.
const MIXED: [MixedCfg; 5] = [
    MixedCfg {
        predictor: "gshare64k",
        mechanisms: &[("resetting:16", "pcxorbhr:16")],
    },
    MixedCfg {
        predictor: SMALL_TAGE,
        mechanisms: &[("resetting:16", "pcxorbhr:12")],
    },
    MixedCfg {
        predictor: "gshare:12:12",
        mechanisms: &[("resetting:16", "pcxorbhr:12")],
    },
    MixedCfg {
        predictor: "gshare64k",
        mechanisms: &[("resetting:8", "pcxorbhr:12"), ("saturating:15", "pc:10")],
    },
    MixedCfg {
        predictor: SMALL_TAGE,
        mechanisms: &[("self:tage:10:4:2:32", "pcxorbhr:12")],
    },
];

fn mixed_predictor(c: &MixedCfg) -> Box<dyn BranchPredictor + Send> {
    spec::parse_predictor(c.predictor).expect("predictor spec parses")
}

fn mixed_mechanisms(c: &MixedCfg) -> Vec<Box<dyn ConfidenceMechanism>> {
    c.mechanisms
        .iter()
        .map(|(mech, index)| {
            let index = spec::parse_index(index).expect("index spec parses");
            let init = spec::parse_init("ones").expect("init spec parses");
            spec::parse_mechanism(mech, index, init).expect("mechanism spec parses")
                as Box<dyn ConfidenceMechanism>
        })
        .collect()
}

/// Per-cell reference for a grid: for each config, series and benchmark, a
/// fresh predictor and a fresh mechanism through the per-record runner.
fn per_cell_rows<C, P: BranchPredictor>(
    suite: &[Benchmark],
    len: u64,
    configs: &[C],
    make_predictor: impl Fn(&C) -> P,
    make_mechanisms: impl Fn(&C) -> Vec<Box<dyn ConfidenceMechanism>>,
) -> Vec<Vec<Vec<(String, BucketStats)>>> {
    configs
        .iter()
        .map(|c| {
            (0..make_mechanisms(c).len())
                .map(|si| {
                    suite
                        .iter()
                        .map(|bench| {
                            let mut predictor = make_predictor(c);
                            let mut mech = make_mechanisms(c).swap_remove(si);
                            (
                                bench.name().to_owned(),
                                runner::collect_mechanism_buckets(
                                    bench.walker().take(len as usize),
                                    &mut predictor,
                                    &mut mech,
                                ),
                            )
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

fn assert_rows_match(
    label: &str,
    grid: &[Vec<SuiteBuckets>],
    reference: &[Vec<Vec<(String, BucketStats)>>],
) {
    assert_eq!(grid.len(), reference.len(), "{label}: config count");
    for (ci, (row, want)) in grid.iter().zip(reference).enumerate() {
        assert_eq!(row.len(), want.len(), "{label}, config {ci}: series count");
        for (si, (got, want)) in row.iter().zip(want).enumerate() {
            assert_eq!(
                &got.per_benchmark, want,
                "{label}, config {ci}, series {si}: buckets must be bit-identical"
            );
            let combined = BucketStats::combine_equal_weight(want.iter().map(|(_, s)| s));
            assert_eq!(got.combined, combined, "{label}, config {ci}, series {si}");
        }
    }
}

#[test]
fn grouped_mixed_grid_matches_per_cell_runs_at_any_worker_count() {
    // Groups: {gshare64k x2}, {small tage x2}, {gshare:12:12}. Three
    // groups x 3 benchmarks = 9 tasks: 16 workers force the split path
    // (each group cut to one config per slice), 3 and 1 do not.
    let suite = suite3();
    let len = 20_000;
    let reference = per_cell_rows(&suite, len, &MIXED, mixed_predictor, mixed_mechanisms);
    for jobs in [1, 3, 16] {
        let engine = Engine::with_jobs(jobs);
        let grid = engine.run_grid(&suite, len, &MIXED, mixed_predictor, mixed_mechanisms);
        assert_rows_match(&format!("{jobs} workers"), &grid, &reference);
        let passes = if jobs > 9 { 5 * 3 } else { 3 * 3 };
        assert_eq!(engine.metrics().replays.get(), passes, "{jobs} workers");
    }
    // The global engine honours CIRA_JOBS, so CI can pin any count here.
    let grid = Engine::global().run_grid(&suite, len, &MIXED, mixed_predictor, mixed_mechanisms);
    assert_rows_match("global engine", &grid, &reference);
}

#[test]
fn equal_descriptions_with_different_state_are_not_merged() {
    // Config `true` restores a Gshare trained on another benchmark's trace:
    // same `describe()` as a cold one, different starting tables.
    let mut warm = make_predictor();
    runner::run_predictor(ibs_like_suite()[5].walker().take(20_000), &mut warm);
    let mut warm_state = Vec::new();
    warm.state_save(&mut warm_state);
    let predictor = |&restored: &bool| {
        let mut p = make_predictor();
        if restored {
            p.state_load(&warm_state).expect("same configuration");
        }
        p
    };
    let mechanisms = |_: &bool| vec![Box::new(make_mechanism()) as Box<dyn ConfidenceMechanism>];

    let suite = suite3();
    let len = 10_000;
    let configs = [false, true, false];
    let reference = per_cell_rows(&suite, len, &configs, predictor, mechanisms);
    assert_ne!(reference[0], reference[1], "the warm start must show");
    let engine = Engine::with_jobs(2);
    let grid = engine.run_grid(&suite, len, &configs, predictor, mechanisms);
    assert_rows_match("warm vs cold", &grid, &reference);
    // Two groups (cold x2, warm): two passes per benchmark.
    assert_eq!(engine.metrics().replays.get(), 2 * 3);
}
