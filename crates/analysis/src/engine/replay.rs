//! Batched replay kernel over materialized traces.
//!
//! The §1.2 loop shape is preserved exactly — predict, score, update, push
//! history, with every component seeing the pre-branch BHR — but the loop
//! is restructured for throughput:
//!
//! * the trace comes from a [`PackedTrace`] (no regeneration, no iterator
//!   plumbing in the hot path);
//! * records are processed in chunks: the [`super::simd`] fill pass expands
//!   each chunk's `(pc, history, taken)` lanes from the SoA trace with no
//!   loop-carried history dependency, one
//!   [`predict_train_batch`](BranchPredictor::predict_train_batch) call
//!   drives the predictor's branchless kernel over the whole chunk, then
//!   each mechanism consumes the chunk in its own tight loop — hoisting the
//!   `&mut dyn ConfidenceMechanism` dispatch pattern out of the per-record
//!   interleave (mechanisms are independent observers, so per-mechanism
//!   chunk loops produce bit-identical statistics to the per-record
//!   interleave of [`crate::runner`]);
//! * per-key counts accumulate in dense integer arrays when the mechanism
//!   exposes a small [`key_space`](cira_core::ConfidenceMechanism::key_space),
//!   instead of a hash-map probe per record, and are folded into
//!   [`BucketStats`] once at the end (exact: integer counts in `f64`).

use std::collections::HashMap;

use cira_core::{ConfidenceEstimator, ConfidenceMechanism};
use cira_predictor::{BranchPredictor, HistoryRegister};
use cira_trace::codec::PackedTrace;

use crate::buckets::BucketStats;
use crate::metrics::ConfusionCounts;
use crate::runner::{PredictorRun, DRIVER_BHR_WIDTH};

/// Records per chunk: large enough to amortize the per-mechanism loop
/// switch, small enough that the chunk buffers stay cache-resident.
const CHUNK: usize = 4096;

/// Largest `key_space` accumulated in a dense array (16 MiB of counters);
/// anything larger (or unbounded) falls back to a hash map.
const DENSE_MAX: u64 = 1 << 20;

/// Per-key `(refs, mispredicts)` accumulator, dense when the key space is
/// small and enumerable.
enum KeyCounts {
    /// `(refs, mispredicts)` per key — one indexed access per record.
    /// Keys at or beyond the declared `key_space` indicate a buggy
    /// mechanism; they spill into `overflow` (with a one-shot warning)
    /// rather than aborting a whole suite run mid-grid.
    Dense {
        cells: Vec<(u64, u64)>,
        overflow: HashMap<u64, (u64, u64)>,
        warned: bool,
    },
    Sparse(HashMap<u64, (u64, u64)>),
}

impl KeyCounts {
    fn for_key_space(key_space: Option<u64>) -> Self {
        match key_space {
            Some(n) if n <= DENSE_MAX => KeyCounts::Dense {
                cells: vec![(0, 0); n as usize],
                overflow: HashMap::new(),
                warned: false,
            },
            _ => KeyCounts::Sparse(HashMap::new()),
        }
    }

    #[inline]
    fn observe(&mut self, key: u64, mispredicted: bool) {
        match self {
            KeyCounts::Dense {
                cells,
                overflow,
                warned,
            } => match cells.get_mut(key as usize) {
                Some(cell) => {
                    cell.0 += 1;
                    cell.1 += mispredicted as u64;
                }
                // A mechanism whose keys exceed its declared key_space is a
                // bug upstream, but neither losing the sample nor panicking
                // mid-grid would serve the caller: count it sparsely.
                None => {
                    if !*warned {
                        *warned = true;
                        cira_obs::warn!(
                            "confidence key outside declared key_space",
                            key = key,
                            key_space = cells.len() as u64
                        );
                    }
                    let e = overflow.entry(key).or_insert((0, 0));
                    e.0 += 1;
                    e.1 += mispredicted as u64;
                }
            },
            KeyCounts::Sparse(map) => {
                let e = map.entry(key).or_insert((0, 0));
                e.0 += 1;
                e.1 += mispredicted as u64;
            }
        }
    }

    /// Folds the counts into `BucketStats` in ascending key order.
    fn into_stats(self) -> BucketStats {
        let mut stats = BucketStats::new();
        match self {
            KeyCounts::Dense {
                cells, overflow, ..
            } => {
                for (key, (r, m)) in cells.into_iter().enumerate() {
                    stats.record_batch(key as u64, r, m);
                }
                // Overflow keys all exceed the dense range, so appending
                // them sorted preserves ascending key order overall.
                let mut spill: Vec<(u64, (u64, u64))> = overflow.into_iter().collect();
                spill.sort_unstable_by_key(|&(k, _)| k);
                for (k, (r, m)) in spill {
                    stats.record_batch(k, r, m);
                }
            }
            KeyCounts::Sparse(map) => {
                let mut keys: Vec<(u64, (u64, u64))> = map.into_iter().collect();
                keys.sort_unstable_by_key(|&(k, _)| k);
                for (k, (r, m)) in keys {
                    stats.record_batch(k, r, m);
                }
            }
        }
        stats
    }
}

/// Reusable chunk buffers for the predictor pass.
struct ChunkBufs {
    pcs: Vec<u64>,
    hists: Vec<u64>,
    takens: Vec<bool>,
    correct: Vec<bool>,
}

impl ChunkBufs {
    fn new() -> Self {
        Self {
            pcs: vec![0; CHUNK],
            hists: vec![0; CHUNK],
            takens: vec![false; CHUNK],
            correct: vec![false; CHUNK],
        }
    }
}

/// Drives `predictor` over the first `len` records of `trace`, filling the
/// chunk buffers and invoking `consume(chunk_len, bufs)` after each chunk.
///
/// Per chunk: the [`super::simd`] pass expands `(pc, history, taken)` lanes
/// straight from the SoA trace (no serial BHR pushes), then one
/// `predict_train_batch` call runs the predictor's branchless kernel — or
/// the trait's scalar default for predictors without an override.
/// Bit-identical to the per-record §1.2 loop by the kernel contracts.
fn drive_chunks<P: BranchPredictor>(
    trace: &PackedTrace,
    len: usize,
    predictor: &mut P,
    mut consume: impl FnMut(usize, &ChunkBufs),
) -> PredictorRun {
    let n = trace.len().min(len);
    let bhr = HistoryRegister::new(DRIVER_BHR_WIDTH);
    let mask = bhr.mask();
    let mut h = bhr.value();
    let mut bufs = ChunkBufs::new();
    let mut run = PredictorRun::default();
    let mut start = 0;
    while start < n {
        // CHUNK is a multiple of 64, so every chunk start is word-aligned
        // in the taken bitmap, as the simd fill requires.
        let c = CHUNK.min(n - start);
        h = super::simd::fill_chunk(
            trace,
            start,
            c,
            h,
            mask,
            &mut bufs.pcs,
            &mut bufs.hists,
            &mut bufs.takens,
        );
        predictor.predict_train_batch(
            &bufs.pcs[..c],
            &bufs.hists[..c],
            &bufs.takens[..c],
            &mut bufs.correct[..c],
        );
        run.mispredicts += bufs.correct[..c].iter().filter(|&&ok| !ok).count() as u64;
        run.branches += c as u64;
        consume(c, &bufs);
        start += c;
    }
    run
}

/// Replays the first `len` records for one predictor plus several
/// confidence mechanisms, returning one [`BucketStats`] per mechanism —
/// bit-identical to [`crate::runner::collect_many_buckets`] over the same
/// records.
pub fn replay_mechanisms<P: BranchPredictor>(
    trace: &PackedTrace,
    len: usize,
    predictor: &mut P,
    mechanisms: &mut [&mut dyn ConfidenceMechanism],
) -> Vec<BucketStats> {
    let mut counts: Vec<KeyCounts> = mechanisms
        .iter()
        .map(|m| KeyCounts::for_key_space(m.key_space()))
        .collect();
    let mut keys = vec![0u64; CHUNK];
    drive_chunks(trace, len, predictor, |c, bufs| {
        for (m, acc) in mechanisms.iter_mut().zip(counts.iter_mut()) {
            // One virtual call per chunk; the mechanism's batch loop
            // computes each record's table slot once for read + update.
            m.observe_batch(
                &bufs.pcs[..c],
                &bufs.hists[..c],
                &bufs.correct[..c],
                &mut keys[..c],
            );
            for (key, correct) in keys[..c].iter().zip(&bufs.correct[..c]) {
                acc.observe(*key, !correct);
            }
        }
    });
    counts.into_iter().map(KeyCounts::into_stats).collect()
}

/// Replays the first `len` records bucketing by static PC — bit-identical
/// to [`crate::runner::collect_static_buckets`]. Counts accumulate densely
/// by packed site index and are keyed back to PCs at the end.
pub fn replay_static<P: BranchPredictor>(
    trace: &PackedTrace,
    len: usize,
    predictor: &mut P,
) -> BucketStats {
    let n = trace.len().min(len);
    let mut refs = vec![0u64; trace.sites()];
    let mut miss = vec![0u64; trace.sites()];
    let mut bhr = HistoryRegister::new(DRIVER_BHR_WIDTH);
    for i in 0..n {
        let site = trace.site_index_at(i);
        let pc = trace.site_pc(site);
        let taken = trace.taken_at(i);
        let h = bhr.value();
        let predicted = predictor.predict_train(pc, h, taken);
        refs[site as usize] += 1;
        if predicted != taken {
            miss[site as usize] += 1;
        }
        bhr.push(taken);
    }
    let mut stats = BucketStats::new();
    for site in 0..trace.sites() {
        stats.record_batch(trace.site_pc(site as u32), refs[site], miss[site]);
    }
    stats
}

/// Replays the first `len` records through an online estimator —
/// bit-identical to [`crate::runner::run_estimator`].
pub fn replay_estimator<P: BranchPredictor, E: ConfidenceEstimator>(
    trace: &PackedTrace,
    len: usize,
    predictor: &mut P,
    estimator: &mut E,
) -> ConfusionCounts {
    let n = trace.len().min(len);
    let mut bhr = HistoryRegister::new(DRIVER_BHR_WIDTH);
    let mut counts = ConfusionCounts::new();
    for i in 0..n {
        let pc = trace.site_pc(trace.site_index_at(i));
        let taken = trace.taken_at(i);
        let h = bhr.value();
        let predicted = predictor.predict(pc, h);
        let correct = predicted == taken;
        let confidence = estimator.estimate(pc, h);
        counts.observe(confidence, correct);
        estimator.update(pc, h, correct);
        predictor.update(pc, h, taken);
        bhr.push(taken);
    }
    counts
}

/// Replays the first `len` records through a bare predictor —
/// bit-identical to [`crate::runner::run_predictor`].
pub fn replay_predictor<P: BranchPredictor>(
    trace: &PackedTrace,
    len: usize,
    predictor: &mut P,
) -> PredictorRun {
    drive_chunks(trace, len, predictor, |_, _| {})
}

/// Incremental online replay for streaming consumers.
///
/// The batch kernels above take a whole materialized trace and return; a
/// `StreamingReplay` instead keeps the §1.2 loop's state — predictor
/// tables, confidence tables, the global history register, and accumulated
/// [`BucketStats`] — alive across [`feed`](Self::feed) calls, so a trace
/// can arrive in arbitrary batch splits (e.g. `cira-serve` wire `BATCH`
/// frames) and still produce **bit-identical** statistics to a single
/// [`replay_mechanisms`] pass over the concatenated records. That
/// invariance is what makes the serving path checkable against the offline
/// engine, and `streaming_matches_batched_any_split` asserts it.
///
/// # Examples
///
/// ```
/// use cira_analysis::engine::replay::StreamingReplay;
/// use cira_core::one_level::ResettingConfidence;
/// use cira_core::{IndexSpec, InitPolicy};
/// use cira_predictor::Gshare;
/// use cira_trace::codec::PackedTrace;
/// use cira_trace::BranchRecord;
///
/// let mut replay = StreamingReplay::new(
///     Box::new(Gshare::new(10, 10)),
///     Box::new(ResettingConfidence::new(
///         IndexSpec::pc_xor_bhr(10),
///         16,
///         InitPolicy::AllOnes,
///     )),
/// );
/// let batch: PackedTrace = (0..100u64)
///     .map(|i| BranchRecord::new(0x40, i % 2 == 0))
///     .collect();
/// let fed = replay.feed(&batch);
/// assert_eq!(fed.keys.len(), 100);
/// assert_eq!(replay.run().branches, 100);
/// ```
pub struct StreamingReplay {
    predictor: Box<dyn BranchPredictor + Send>,
    mechanism: Box<dyn ConfidenceMechanism + Send>,
    bhr: HistoryRegister,
    stats: BucketStats,
    run: PredictorRun,
    pcs: Vec<u64>,
    hists: Vec<u64>,
    takens: Vec<bool>,
    correct: Vec<bool>,
    keys: Vec<u64>,
}

impl std::fmt::Debug for StreamingReplay {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingReplay")
            .field("predictor", &self.predictor.describe())
            .field("mechanism", &self.mechanism.describe())
            .field("branches", &self.run.branches)
            .finish()
    }
}

/// Per-record results of one [`StreamingReplay::feed`] call, borrowed from
/// the replayer's scratch buffers (valid until the next `feed`).
#[derive(Debug)]
pub struct FedBatch<'a> {
    /// Whether each record's prediction was correct.
    pub correct: &'a [bool],
    /// The confidence key each record read (pre-update).
    pub keys: &'a [u64],
    /// Mispredictions in this batch.
    pub mispredicts: u64,
}

impl StreamingReplay {
    /// A fresh replayer: empty tables, empty history, empty statistics.
    pub fn new(
        predictor: Box<dyn BranchPredictor + Send>,
        mechanism: Box<dyn ConfidenceMechanism + Send>,
    ) -> Self {
        Self {
            predictor,
            mechanism,
            bhr: HistoryRegister::new(DRIVER_BHR_WIDTH),
            stats: BucketStats::new(),
            run: PredictorRun::default(),
            pcs: Vec::new(),
            hists: Vec::new(),
            takens: Vec::new(),
            correct: Vec::new(),
            keys: Vec::new(),
        }
    }

    /// Applies one batch of records, advancing all state, and returns the
    /// per-record outcomes. Splitting a trace differently across `feed`
    /// calls never changes any result.
    pub fn feed(&mut self, batch: &PackedTrace) -> FedBatch<'_> {
        let n = batch.len();
        self.pcs.clear();
        self.pcs.resize(n, 0);
        self.hists.clear();
        self.hists.resize(n, 0);
        self.takens.clear();
        self.takens.resize(n, false);
        self.correct.clear();
        self.correct.resize(n, false);
        self.keys.clear();
        self.keys.resize(n, 0);
        let mask = self.bhr.mask();
        let mut h = self.bhr.value();
        let mut mispredicts = 0u64;
        // Same vectorized kernel and chunk discipline as the offline
        // drivers, so cira-serve sessions inherit the speedup; the chunk's
        // predictor, mechanism, and stats passes touch independent state,
        // so interleaving them per chunk is bit-identical to whole-batch
        // passes. A batch's bitmap starts at its own bit 0, so chunk
        // starts stay word-aligned regardless of how the stream is split.
        let mut start = 0;
        while start < n {
            let c = CHUNK.min(n - start);
            // Chunk-level flight-recorder span; ambient context set by the
            // shard scoring this batch (a no-op when disabled).
            let span = cira_obs::trace::enabled()
                .then(|| cira_obs::trace::Span::begin_ctx(cira_obs::trace::Stage::Chunk));
            h = super::simd::fill_chunk(
                batch,
                start,
                c,
                h,
                mask,
                &mut self.pcs[start..start + c],
                &mut self.hists[start..start + c],
                &mut self.takens[start..start + c],
            );
            self.predictor.predict_train_batch(
                &self.pcs[start..start + c],
                &self.hists[start..start + c],
                &self.takens[start..start + c],
                &mut self.correct[start..start + c],
            );
            self.mechanism.observe_batch(
                &self.pcs[start..start + c],
                &self.hists[start..start + c],
                &self.correct[start..start + c],
                &mut self.keys[start..start + c],
            );
            for (key, correct) in self.keys[start..start + c]
                .iter()
                .zip(&self.correct[start..start + c])
            {
                // Unit-weight integer accumulation is exact in f64, so this
                // equals the engine's fold-at-the-end in every bit.
                self.stats.observe(*key, !correct);
                mispredicts += !correct as u64;
            }
            if let Some(span) = span {
                span.end_with(c as u64);
            }
            start += c;
        }
        self.bhr.set(h);
        self.run.branches += n as u64;
        self.run.mispredicts += mispredicts;
        FedBatch {
            correct: &self.correct,
            keys: &self.keys,
            mispredicts,
        }
    }

    /// Accumulated per-key statistics over everything fed so far.
    pub fn stats(&self) -> &BucketStats {
        &self.stats
    }

    /// Accumulated branch/mispredict totals.
    pub fn run(&self) -> PredictorRun {
        self.run
    }

    /// The predictor's description string.
    pub fn predictor_describe(&self) -> String {
        self.predictor.describe()
    }

    /// The confidence mechanism's description string.
    pub fn mechanism_describe(&self) -> String {
        self.mechanism.describe()
    }

    /// The current global history register value — part of the replayer's
    /// checkpointable state.
    pub fn bhr_value(&self) -> u64 {
        self.bhr.value()
    }

    /// Restores the global history register (masked to the driver width).
    pub fn set_bhr(&mut self, value: u64) {
        self.bhr.set(value);
    }

    /// Serializes the predictor's mutable table state
    /// (see [`BranchPredictor::state_save`]).
    pub fn predictor_state(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.predictor.state_save(&mut out);
        out
    }

    /// Restores predictor state saved from an identically configured
    /// replayer.
    ///
    /// # Errors
    ///
    /// Returns a message if the blob does not match the predictor's
    /// configuration.
    pub fn load_predictor_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.predictor.state_load(bytes)
    }

    /// Serializes the confidence mechanism's mutable table state
    /// (see [`ConfidenceMechanism::state_save`]).
    pub fn mechanism_state(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.mechanism.state_save(&mut out);
        out
    }

    /// Restores mechanism state saved from an identically configured
    /// replayer.
    ///
    /// # Errors
    ///
    /// Returns a message if the blob does not match the mechanism's
    /// configuration.
    pub fn load_mechanism_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.mechanism.state_load(bytes)
    }

    /// Replaces the accumulated per-key statistics (checkpoint restore).
    pub fn restore_stats(&mut self, stats: BucketStats) {
        self.stats = stats;
    }

    /// Replaces the accumulated branch/mispredict totals (checkpoint
    /// restore).
    pub fn restore_run(&mut self, run: PredictorRun) {
        self.run = run;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner;
    use cira_core::one_level::{OneLevelCir, ResettingConfidence};
    use cira_core::{IndexSpec, InitPolicy, LowRule, ThresholdEstimator};
    use cira_predictor::Gshare;
    use cira_trace::suite::ibs_like_suite;

    fn packed(bench_idx: usize, len: usize) -> PackedTrace {
        ibs_like_suite()[bench_idx].walker().take(len).collect()
    }

    #[test]
    fn mechanisms_match_sequential_runner() {
        let trace = packed(0, 30_000);
        let records: Vec<_> = trace.iter().collect();

        let mut p = Gshare::new(12, 12);
        let mut a = ResettingConfidence::new(IndexSpec::pc_xor_bhr(12), 16, InitPolicy::AllOnes);
        let mut b = OneLevelCir::new(IndexSpec::pc(12), 16, InitPolicy::AllOnes);
        let mut refs: Vec<&mut dyn ConfidenceMechanism> = vec![&mut a, &mut b];
        let legacy = runner::collect_many_buckets(records.iter().copied(), &mut p, &mut refs);

        let mut p2 = Gshare::new(12, 12);
        let mut a2 = ResettingConfidence::new(IndexSpec::pc_xor_bhr(12), 16, InitPolicy::AllOnes);
        let mut b2 = OneLevelCir::new(IndexSpec::pc(12), 16, InitPolicy::AllOnes);
        let mut refs2: Vec<&mut dyn ConfidenceMechanism> = vec![&mut a2, &mut b2];
        let batched = replay_mechanisms(&trace, 30_000, &mut p2, &mut refs2);

        assert_eq!(legacy, batched);
    }

    #[test]
    fn static_matches_sequential_runner() {
        let trace = packed(1, 20_000);
        let legacy = runner::collect_static_buckets(trace.iter(), &mut Gshare::new(10, 10));
        let batched = replay_static(&trace, 20_000, &mut Gshare::new(10, 10));
        assert_eq!(legacy, batched);
    }

    #[test]
    fn estimator_matches_sequential_runner() {
        let trace = packed(2, 20_000);
        let mk_est = || {
            ThresholdEstimator::new(
                ResettingConfidence::new(IndexSpec::pc_xor_bhr(10), 16, InitPolicy::AllOnes),
                LowRule::KeyBelow(8),
            )
        };
        let legacy =
            runner::run_estimator(trace.iter(), &mut Gshare::new(10, 10), &mut mk_est());
        let batched = replay_estimator(&trace, 20_000, &mut Gshare::new(10, 10), &mut mk_est());
        assert_eq!(legacy, batched);
    }

    #[test]
    fn predictor_matches_sequential_runner() {
        let trace = packed(3, 25_000);
        let legacy = runner::run_predictor(trace.iter(), &mut Gshare::new(12, 12));
        let batched = replay_predictor(&trace, 25_000, &mut Gshare::new(12, 12));
        assert_eq!(legacy, batched);
    }

    #[test]
    fn shorter_len_replays_prefix() {
        let trace = packed(0, 10_000);
        let prefix: Vec<_> = trace.iter().take(4_000).collect();
        let legacy = runner::run_predictor(prefix, &mut Gshare::new(10, 10));
        let batched = replay_predictor(&trace, 4_000, &mut Gshare::new(10, 10));
        assert_eq!(legacy, batched);
    }

    #[test]
    fn streaming_matches_batched_any_split() {
        let trace = packed(2, 25_000);
        let mut p = Gshare::new(11, 11);
        let mut m = ResettingConfidence::new(IndexSpec::pc_xor_bhr(11), 16, InitPolicy::AllOnes);
        let mut refs: Vec<&mut dyn ConfidenceMechanism> = vec![&mut m];
        let reference = replay_mechanisms(&trace, 25_000, &mut p, &mut refs).remove(0);
        let ref_run = replay_predictor(&trace, 25_000, &mut Gshare::new(11, 11));

        // Feed the same records in awkward uneven splits, including a
        // zero-length batch; state must carry across batch boundaries.
        for splits in [
            vec![25_000usize],
            vec![1, 0, 4095, 4096, 4097, 12_711],
            vec![100; 250],
        ] {
            let mut streaming = StreamingReplay::new(
                Box::new(Gshare::new(11, 11)),
                Box::new(ResettingConfidence::new(
                    IndexSpec::pc_xor_bhr(11),
                    16,
                    InitPolicy::AllOnes,
                )),
            );
            let mut at = 0;
            let mut fed_miss = 0;
            for len in splits {
                let batch: PackedTrace =
                    (at..at + len).map(|i| trace.get(i).unwrap()).collect();
                fed_miss += streaming.feed(&batch).mispredicts;
                at += len;
            }
            assert_eq!(at, 25_000);
            assert_eq!(streaming.stats(), &reference);
            assert_eq!(streaming.run(), ref_run);
            assert_eq!(fed_miss, ref_run.mispredicts);
        }
    }

    #[test]
    fn checkpoint_restore_is_bit_identical_mid_stream() {
        // Save every piece of streaming state mid-trace, rebuild a fresh
        // replayer, restore, and finish: stats and totals must match an
        // uninterrupted replay in every bit.
        let trace = packed(1, 20_000);
        let build = || {
            StreamingReplay::new(
                Box::new(Gshare::new(11, 11)) as Box<dyn cira_predictor::BranchPredictor + Send>,
                Box::new(ResettingConfidence::new(
                    IndexSpec::pc_xor_bhr(11),
                    16,
                    InitPolicy::AllOnes,
                )) as Box<dyn ConfidenceMechanism + Send>,
            )
        };
        let mut uninterrupted = build();
        uninterrupted.feed(&trace.iter().collect());

        let first: PackedTrace = trace.iter().take(9_000).collect();
        let rest: PackedTrace = trace.iter().skip(9_000).collect();
        let mut before = build();
        before.feed(&first);
        let predictor_blob = before.predictor_state();
        let mechanism_blob = before.mechanism_state();
        let bhr = before.bhr_value();
        let stats = before.stats().clone();
        let run = before.run();
        drop(before);

        let mut after = build();
        after.load_predictor_state(&predictor_blob).unwrap();
        after.load_mechanism_state(&mechanism_blob).unwrap();
        after.set_bhr(bhr);
        after.restore_stats(stats);
        after.restore_run(run);
        after.feed(&rest);

        assert_eq!(after.stats(), uninterrupted.stats());
        assert_eq!(after.run(), uninterrupted.run());
    }

    #[test]
    fn key_counts_spill_out_of_range_keys() {
        // Dense accumulator declared for keys 0..4; keys beyond that must
        // accumulate (not panic) and fold back with exact counts.
        let mut counts = KeyCounts::for_key_space(Some(4));
        counts.observe(1, false);
        counts.observe(10, true);
        counts.observe(10, false);
        counts.observe(7, true);
        let stats = counts.into_stats();
        assert_eq!(stats.cell(1).map(|c| c.refs), Some(1.0));
        assert_eq!(stats.cell(7).map(|c| (c.refs, c.mispredicts)), Some((1.0, 1.0)));
        assert_eq!(stats.cell(10).map(|c| (c.refs, c.mispredicts)), Some((2.0, 1.0)));
        assert_eq!(stats.total_refs(), 4.0);
        assert_eq!(stats.total_mispredicts(), 2.0);
    }

    /// A buggy mechanism that declares `key_space() == Some(4)` but emits
    /// key 10 for every branch.
    struct LyingMechanism;

    impl ConfidenceMechanism for LyingMechanism {
        fn read_key(&self, _pc: u64, _bhr: u64) -> u64 {
            10
        }
        fn update(&mut self, _pc: u64, _bhr: u64, _correct: bool) {}
        fn key_space(&self) -> Option<u64> {
            Some(4)
        }
        fn describe(&self) -> String {
            "lying".into()
        }
        fn flush(&mut self) {}
    }

    #[test]
    fn out_of_range_keys_do_not_panic_replay() {
        let trace = packed(0, 2_000);
        let mut lying = LyingMechanism;
        let mut refs: Vec<&mut dyn ConfidenceMechanism> = vec![&mut lying];
        let stats = replay_mechanisms(&trace, 2_000, &mut Gshare::new(8, 8), &mut refs).remove(0);
        assert_eq!(stats.total_refs(), 2_000.0);
        assert!(stats.cell(10).is_some(), "spilled key is still reported");
    }

    #[test]
    fn empty_trace_is_empty_stats() {
        let trace = PackedTrace::new();
        let mut mech =
            ResettingConfidence::new(IndexSpec::pc(8), 16, InitPolicy::AllOnes);
        let mut refs: Vec<&mut dyn ConfidenceMechanism> = vec![&mut mech];
        let out = replay_mechanisms(&trace, 1_000, &mut Gshare::new(8, 8), &mut refs);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].total_refs(), 0.0);
    }
}
