//! The offline replay workloads: the ten-benchmark suite replayed by
//! `Engine::run_grid` over a grid of predictor × mechanism configurations.

use std::time::Instant;

use cira_analysis::engine::replay::replay_mechanisms;
use cira_analysis::engine::{simd, Engine, SuiteBuckets};
use cira_analysis::runner::{self, DRIVER_BHR_WIDTH};
use cira_analysis::{spec, BucketStats};
use cira_core::ConfidenceMechanism;
use cira_predictor::{BranchPredictor, HistoryRegister};
use cira_trace::codec::PackedTrace;
use cira_trace::suite::Benchmark;

use crate::inputs;
use crate::report::{median, Ops, Report};
use crate::{layer, Args, SETUP_REPS};

/// One grid column: a predictor and a confidence mechanism, in the
/// repository's spec grammar.
#[derive(Debug, Clone)]
pub struct GridCfg {
    pub predictor: String,
    pub mechanism: String,
    pub index: String,
}

impl GridCfg {
    fn new(predictor: &str, mechanism: &str, index: &str) -> Self {
        Self {
            predictor: predictor.to_owned(),
            mechanism: mechanism.to_owned(),
            index: index.to_owned(),
        }
    }

    pub fn predictor(&self) -> Box<dyn BranchPredictor + Send> {
        spec::parse_predictor(&self.predictor).expect("grid predictor spec parses")
    }

    pub fn mechanism(&self) -> Box<dyn ConfidenceMechanism + Send> {
        let index = spec::parse_index(&self.index).expect("grid index spec parses");
        let init = spec::parse_init("ones").expect("init spec parses");
        spec::parse_mechanism(&self.mechanism, index, init).expect("grid mechanism spec parses")
    }

    /// Keys strictly below the mechanism's top confidence key count as
    /// low confidence (for `resetting:16`, the server's default
    /// threshold of 16).
    pub fn threshold(&self) -> u64 {
        let space = self
            .mechanism()
            .key_space()
            .expect("grid mechanisms are bounded");
        space - 1
    }
}

/// The eight resetting-counter configurations of `engine_throughput`
/// (index bits × saturation value) on a 64K gshare.
pub fn gshare_grid() -> Vec<GridCfg> {
    [
        (10, 8),
        (10, 16),
        (12, 8),
        (12, 16),
        (14, 16),
        (16, 8),
        (16, 16),
        (16, 32),
    ]
    .iter()
    .map(|(bits, max)| {
        GridCfg::new(
            "gshare64k",
            &format!("resetting:{max}"),
            &format!("pcxorbhr:{bits}"),
        )
    })
    .collect()
}

/// The two TAGE-class predictors × {resetting counters, self-assessment}.
pub fn tage_grid() -> Vec<GridCfg> {
    let mut grid = Vec::new();
    for p in ["tage64k", "tage-sc-lite64k"] {
        grid.push(GridCfg::new(p, "resetting:16", "pcxorbhr:16"));
        grid.push(GridCfg::new(p, &format!("self:{p}"), "pcxorbhr:16"));
    }
    grid
}

/// Shape of one replay workload.
#[derive(Debug, Clone)]
pub struct ReplayShape {
    pub grid: Vec<GridCfg>,
    /// Records per benchmark trace.
    pub len: u64,
    /// Records per benchmark in a warm-up pass (about a second's work).
    pub warm_len: u64,
    /// Records per cell timed by the traced run's layer passes.
    pub layer_records: usize,
}

/// One pass's statistics: `[config][benchmark]`.
type Cells = Vec<Vec<BucketStats>>;

fn run_pass(engine: &Engine, suite: &[Benchmark], shape: &ReplayShape) -> Cells {
    let out: Vec<Vec<SuiteBuckets>> = engine.run_grid(
        suite,
        shape.len,
        &shape.grid,
        |c| c.predictor(),
        |c| vec![c.mechanism() as Box<dyn ConfidenceMechanism>],
    );
    out.into_iter()
        .map(|mut series| {
            let one = series.pop().expect("one mechanism per config");
            one.per_benchmark.into_iter().map(|(_, s)| s).collect()
        })
        .collect()
}

/// The independent path: the per-record reference loop of
/// `cira_analysis::runner`, fed straight from each benchmark's walker —
/// no packed trace, no vectorized fill, no dense key accumulation.
fn reference_cells(engine: &Engine, suite: &[Benchmark], shape: &ReplayShape) -> Cells {
    let cells: Vec<(usize, usize)> = (0..shape.grid.len())
        .flat_map(|c| (0..suite.len()).map(move |b| (c, b)))
        .collect();
    let flat = engine.pool().scope_map(&cells, |_, &(c, b)| {
        let cfg = &shape.grid[c];
        let mut predictor = cfg.predictor();
        let mut mechanism = cfg.mechanism();
        runner::collect_mechanism_buckets(
            suite[b].walker().take(shape.len as usize),
            &mut predictor,
            &mut mechanism,
        )
    });
    flat.chunks(suite.len())
        .map(<[BucketStats]>::to_vec)
        .collect()
}

/// Compares every cell of `got` with `want`, one operation per cell.
pub fn check_cells(got: &Cells, want: &Cells) -> Ops {
    let mut ops = Ops::default();
    for (g, w) in got.iter().zip(want) {
        for (gc, wc) in g.iter().zip(w) {
            ops.record(gc == wc);
        }
        // A missing cell is a failed one.
        for _ in g.len().min(w.len())..g.len().max(w.len()) {
            ops.record(false);
        }
    }
    for _ in got.len().min(want.len())..got.len().max(want.len()) {
        ops.record(false);
    }
    ops
}

/// Simulated-quality and count totals of one pass.
struct Quality {
    coverage_at_20pct: f64,
    branches: u64,
    mispredicts: u64,
    low_confidence: u64,
}

fn quality(cells: &Cells, grid: &[GridCfg]) -> Quality {
    let mut q = Quality {
        coverage_at_20pct: 0.0,
        branches: 0,
        mispredicts: 0,
        low_confidence: 0,
    };
    for (row, cfg) in cells.iter().zip(grid) {
        let combined = BucketStats::combine_equal_weight(row.iter());
        q.coverage_at_20pct +=
            cira_analysis::CoverageCurve::from_buckets(&combined).coverage_at(20.0);
        let threshold = cfg.threshold();
        for stats in row {
            q.branches += stats.total_refs() as u64;
            q.mispredicts += stats.total_mispredicts() as u64;
            q.low_confidence += stats
                .iter()
                .filter(|(k, _)| *k < threshold)
                .map(|(_, c)| c.refs as u64)
                .sum::<u64>();
        }
    }
    q.coverage_at_20pct /= grid.len() as f64;
    q
}

/// Generates the suite's traces into the engine's cache; returns the
/// suite and the seconds it took.
fn setup(engine: &Engine, seed: u64, len: u64) -> (Vec<Benchmark>, f64) {
    let t0 = Instant::now();
    engine.cache().clear();
    let suite = inputs::suite(seed);
    engine.materialize(&suite, len);
    (suite, t0.elapsed().as_secs_f64())
}

/// Runs a replay workload; `args.trace` selects the traced mode.
pub fn run(args: &Args, shape: &ReplayShape) -> Report {
    let engine = Engine::global();
    let mut setups = Vec::new();
    let mut suite = Vec::new();
    for _ in 0..SETUP_REPS {
        let (s, secs) = setup(engine, args.seed, shape.len);
        suite = s;
        setups.push(secs);
    }
    let setup_s = median(&setups);

    let warm = ReplayShape {
        len: shape.warm_len,
        ..shape.clone()
    };
    crate::warm_up(|| {
        let t0 = Instant::now();
        std::hint::black_box(run_pass(engine, &suite, &warm));
        1.0 / t0.elapsed().as_secs_f64()
    });

    // Timed region: whole grid passes until the next one would end past
    // `seconds` by more than half a pass (at least one pass).
    let cells_per_pass = (shape.grid.len() * suite.len()) as u64;
    let mut pass_s = Vec::new();
    let mut passes: Vec<Cells> = Vec::new();
    let t0 = Instant::now();
    loop {
        let p0 = Instant::now();
        let cells = std::hint::black_box(run_pass(engine, &suite, shape));
        pass_s.push(p0.elapsed().as_secs_f64());
        passes.push(cells);
        let elapsed = t0.elapsed().as_secs_f64();
        let mean = elapsed / pass_s.len() as f64;
        // The traced mode needs one untraced pass for reference.
        if args.trace || elapsed + mean / 2.0 >= args.seconds {
            break;
        }
    }
    let wall = t0.elapsed().as_secs_f64();

    // Outside the timed region: every pass must equal the independent
    // reference path, cell for cell.
    let mut report = Report::default();
    let reference = reference_cells(engine, &suite, shape);
    for cells in &passes {
        report.ops.add(check_cells(cells, &reference));
    }
    let q = quality(&passes[0], &shape.grid);

    if !args.trace {
        let mut sorted = pass_s.iter().map(|s| s * 1e3).collect::<Vec<_>>();
        sorted.sort_by(f64::total_cmp);
        let (p90, at) = crate::report::tail(&sorted);
        println!(
            "{} passes of {} cells x {} records in {wall:.3} s; op = one grid pass, \
             tail percentile {at:.1} of {} samples",
            passes.len(),
            cells_per_pass,
            shape.len,
            sorted.len()
        );
        report.push("setup_s", setup_s, "s");
        report.push(
            "branches_per_s",
            (passes.len() as u64 * cells_per_pass * shape.len) as f64 / wall,
            "1/s",
        );
        report.push("op_ms_p50", crate::report::percentile(&sorted, 50.0), "ms");
        report.push("op_ms_p90", p90, "ms");
        report.push("coverage_at_20pct", q.coverage_at_20pct, "%");
        report.push("peak_rss_mb", crate::report::peak_rss_mb(), "MB");
        report.push("ok_share", report.ops.ok_share(), "share");
        return report;
    }

    // Traced mode: one pass with the flight recorder on against the
    // untraced pass above, then the layer passes.
    let pool = engine.pool().metrics();
    let (tasks0, steals0, inj0) = (
        pool.tasks_executed.get(),
        pool.tasks_stolen.get(),
        pool.tasks_injected.get(),
    );
    cira_obs::trace::init(layer::TRACE_CAPACITY);
    cira_obs::trace::set_enabled(true);
    let p0 = Instant::now();
    let traced = run_pass(engine, &suite, shape);
    let traced_s = p0.elapsed().as_secs_f64();
    cira_obs::trace::set_enabled(false);
    report.ops.add(check_cells(&traced, &reference));
    let mut m = layer::Layers {
        pool_tasks: (pool.tasks_executed.get() - tasks0) as f64,
        pool_steals: (pool.tasks_stolen.get() - steals0) as f64,
        pool_injected: (pool.tasks_injected.get() - inj0) as f64,
        tracing_overhead_share: traced_s / pass_s[0] - 1.0,
        generate_s: setup_s,
        branches: q.branches as f64,
        mispredicts: q.mispredicts as f64,
        low_confidence: q.low_confidence as f64,
        ..layer::Layers::default()
    };
    let traces = engine.materialize(&suite, shape.len);
    for t in &traces {
        report.ops.add(layer::time_cirp(&mut m, t));
    }
    let mut covered = 0.0;
    let mut whole = 0.0;
    for cfg in &shape.grid {
        for t in &traces {
            let (c, w, ok) = kernel_layers(&mut m, cfg, t, shape.layer_records);
            report.ops.record(ok);
            covered += c;
            whole += w;
        }
    }
    m.unattributed_share = 1.0 - covered / whole;
    m.dropped_events = cira_obs::trace::stats().dropped as f64;
    println!(
        "traced pass {traced_s:.3} s vs untraced {:.3} s; layer passes over the first {} \
         records of each cell",
        pass_s[0], shape.layer_records
    );
    m.push_all(&mut report);
    report
}

/// Times the replay kernel's layers over the first `records` of `trace`
/// for `cfg`, single-threaded, in the kernel's own order and chunk size:
/// per chunk, the vectorized history fill, predict+train, mechanism
/// observe and per-key accumulation, each timed; then the whole
/// `replay_mechanisms` call they make up, timed on its own. Returns (sum
/// of the layer times, whole-replay time, whether the layered result
/// equals the whole replay's).
pub fn kernel_layers(
    m: &mut layer::Layers,
    cfg: &GridCfg,
    trace: &PackedTrace,
    records: usize,
) -> (f64, f64, bool) {
    const CHUNK: usize = 4096;
    let n = trace.len().min(records);
    let mut pcs = vec![0u64; CHUNK];
    let mut hists = vec![0u64; CHUNK];
    let mut takens = vec![false; CHUNK];
    let mut correct = vec![false; CHUNK];
    let mut keys = vec![0u64; CHUNK];
    let mut predictor = cfg.predictor();
    let mut mechanism = cfg.mechanism();
    // The engine's dense accumulator is private; this is its loop: one
    // `(refs, mispredicts)` cell per key of the declared key space.
    let space = mechanism.key_space().expect("grid mechanisms are bounded") as usize;
    let mut counts = vec![(0u64, 0u64); space];
    let bhr = HistoryRegister::new(DRIVER_BHR_WIDTH);
    let mut h = bhr.value();
    let mut t = [0.0f64; 4];
    for start in (0..n).step_by(CHUNK) {
        let c = CHUNK.min(n - start);
        let t0 = Instant::now();
        h = simd::fill_chunk(
            trace,
            start,
            c,
            h,
            bhr.mask(),
            &mut pcs[..c],
            &mut hists[..c],
            &mut takens[..c],
        );
        let t1 = Instant::now();
        predictor.predict_train_batch(&pcs[..c], &hists[..c], &takens[..c], &mut correct[..c]);
        let t2 = Instant::now();
        mechanism.observe_batch(&pcs[..c], &hists[..c], &correct[..c], &mut keys[..c]);
        let t3 = Instant::now();
        for (k, ok) in keys[..c].iter().zip(&correct[..c]) {
            let cell = &mut counts[*k as usize];
            cell.0 += 1;
            cell.1 += u64::from(!ok);
        }
        let t4 = Instant::now();
        for (acc, d) in t.iter_mut().zip([t1 - t0, t2 - t1, t3 - t2, t4 - t3]) {
            *acc += d.as_secs_f64();
        }
    }

    let mut predictor = cfg.predictor();
    let mut mechanism = cfg.mechanism();
    let mech: &mut dyn ConfidenceMechanism = mechanism.as_mut();
    let t0 = Instant::now();
    let whole = replay_mechanisms(trace, n, &mut predictor, &mut [mech]);
    let whole_s = t0.elapsed().as_secs_f64();

    let mut layered = BucketStats::new();
    for (k, (r, miss)) in counts.into_iter().enumerate() {
        layered.record_batch(k as u64, r, miss);
    }
    m.fill_s += t[0];
    m.predict_train_s += t[1];
    m.observe_s += t[2];
    m.accumulate_s += t[3];
    (t.iter().sum(), whole_s, whole.first() == Some(&layered))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_cell_counts_as_failed() {
        let shape = ReplayShape {
            grid: gshare_grid()[..2].to_vec(),
            len: 5_000,
            warm_len: 5_000,
            layer_records: 5_000,
        };
        let engine = Engine::with_jobs(2);
        let suite = inputs::suite(3);
        let got = run_pass(&engine, &suite, &shape);
        let want = reference_cells(&engine, &suite, &shape);
        assert_eq!(
            check_cells(&got, &want),
            Ops {
                attempted: 20,
                failed: 0
            }
        );
        let mut bad = got.clone();
        bad[1][4].record_batch(3, 1, 1);
        assert_eq!(
            check_cells(&bad, &want),
            Ops {
                attempted: 20,
                failed: 1
            }
        );
        bad[0].pop();
        assert_eq!(check_cells(&bad, &want).failed, 2);
    }
}
