//! # cira-predictor
//!
//! Dynamic branch predictors for the `cira` workspace — the substrate under
//! the confidence mechanisms of Jacobsen, Rotenberg & Smith (MICRO-29,
//! 1996).
//!
//! The paper's experiments sit on top of a **gshare** predictor (McFarling,
//! DEC WRL TN-36): 2^16 two-bit counters indexed by the XOR of PC bits 17..2
//! and a 16-bit global branch history register. This crate provides that
//! predictor ([`Gshare`]), the smaller 4K configuration of §5.3, and a
//! family of baselines ([`Bimodal`], [`GSelect`], [`LocalTwoLevel`],
//! [`Hybrid`], [`StaticDirection`], and the anti-aliasing [`Agree`]
//! predictor) used for context, for the hybrid-selector application, and
//! for the small-table aliasing studies.
//!
//! ## Architecture
//!
//! The **global history register lives outside the predictors**: the
//! simulation driver owns a [`HistoryRegister`] and passes its value to
//! [`BranchPredictor::predict`] / [`BranchPredictor::update`]. This mirrors
//! the hardware (one BHR feeding several structures) and lets confidence
//! tables share exactly the history the predictor saw — which the paper's
//! PC⊕BHR confidence indexing requires.
//!
//! # Examples
//!
//! ```
//! use cira_predictor::{BranchPredictor, Gshare, HistoryRegister};
//!
//! let mut predictor = Gshare::paper_large();
//! let mut bhr = HistoryRegister::new(16);
//! // drive one branch through the predictor
//! let predicted = predictor.predict(0x4000, bhr.value());
//! let actual = true;
//! predictor.update(0x4000, bhr.value(), actual);
//! bhr.push(actual);
//! let _ = predicted == actual;
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod agree;
pub mod bimodal;
pub mod counter;
pub mod gselect;
pub mod gshare;
pub mod history;
pub mod hybrid;
pub mod local;
pub mod packed;
pub mod state;
pub mod statics;
pub mod tage;

pub use agree::Agree;
pub use bimodal::Bimodal;
pub use counter::{SaturatingCounter, TwoBitCounter};
pub use gselect::GSelect;
pub use gshare::Gshare;
pub use history::HistoryRegister;
pub use hybrid::Hybrid;
pub use local::LocalTwoLevel;
pub use packed::PackedTwoBit;
pub use statics::StaticDirection;
pub use tage::{Tage, TageScLite};

/// Which structure inside a predictor supplied the final direction.
///
/// Single-table predictors (gshare, bimodal, …) always report
/// [`Provider::Base`]; TAGE-class predictors report which tagged
/// component matched, or the loop / statistical-corrector side predictor
/// when one of those overrode the tagged match.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Provider {
    /// The predictor's base (default) structure — the whole predictor for
    /// single-table designs, the bimodal table for TAGE.
    Base,
    /// Tagged component `n` (1-based, longer history = higher `n`).
    Tagged(u8),
    /// The loop predictor override (TAGE-SC-lite).
    Loop,
    /// The statistical-corrector override (TAGE-SC-lite).
    Corrector,
}

/// A prediction with its provenance: the direction, which structure
/// provided it, and how confident that structure is.
///
/// `strength` is on a fixed `0..=`[`Prediction::MAX_STRENGTH`] scale so
/// confidence mechanisms can bucket on it without knowing the predictor:
/// `0` means "no self-assessment" (the default for predictors predating
/// this API), higher is more confident. The scale only needs to
/// *partition* predictions usefully — the coverage analysis orders
/// buckets by measured misprediction rate, not by the raw value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// Predicted direction (`true` = taken). Always equals what
    /// [`BranchPredictor::predict`] returns for the same `(pc, bhr)`.
    pub taken: bool,
    /// The structure that supplied the direction.
    pub provider: Provider,
    /// Self-assessed confidence, `0..=`[`Prediction::MAX_STRENGTH`].
    pub strength: u8,
}

impl Prediction {
    /// Largest value [`strength`](Prediction::strength) may take.
    pub const MAX_STRENGTH: u8 = 7;

    /// A prediction carrying no self-assessment (provider
    /// [`Provider::Base`], strength 0) — what the default
    /// [`BranchPredictor::predict_full`] wrapper reports.
    pub fn unassessed(taken: bool) -> Self {
        Prediction {
            taken,
            provider: Provider::Base,
            strength: 0,
        }
    }
}

/// A dynamic conditional-branch direction predictor.
///
/// `bhr` is the current global-history value supplied by the driver (see
/// the crate docs); predictors that do not use global history ignore it.
///
/// Implementations must be deterministic: identical call sequences yield
/// identical predictions.
pub trait BranchPredictor {
    /// Predicts the direction of the branch at `pc` (`true` = taken).
    fn predict(&self, pc: u64, bhr: u64) -> bool;

    /// Trains the predictor with the resolved direction.
    ///
    /// `bhr` must be the same global-history value that was passed to the
    /// matching [`predict`](Self::predict) call.
    fn update(&mut self, pc: u64, bhr: u64, taken: bool);

    /// [`predict`](Self::predict) followed by [`update`](Self::update) as
    /// one call, returning the prediction. Overrides may share work between
    /// the two halves (e.g. compute the table index once) but must remain
    /// bit-identical to the default — hot loops rely on that.
    fn predict_train(&mut self, pc: u64, bhr: u64, taken: bool) -> bool {
        let predicted = self.predict(pc, bhr);
        self.update(pc, bhr, taken);
        predicted
    }

    /// Predicts with provenance: the direction plus which internal
    /// structure provided it and that structure's self-assessed
    /// confidence (see [`Prediction`]).
    ///
    /// The returned direction must equal [`predict`](Self::predict) for
    /// the same `(pc, bhr)` — `predict` is a projection of this call, and
    /// the replay kernels rely on the two never disagreeing. The default
    /// wraps `predict` and reports no self-assessment
    /// ([`Prediction::unassessed`]), which keeps every pre-existing
    /// predictor semantically untouched.
    fn predict_full(&self, pc: u64, bhr: u64) -> Prediction {
        Prediction::unassessed(self.predict(pc, bhr))
    }

    /// [`predict_full`](Self::predict_full) followed by
    /// [`update`](Self::update) as one call, returning the full
    /// prediction. Overrides may share work between the two halves but
    /// must remain bit-identical to the default.
    fn predict_train_full(&mut self, pc: u64, bhr: u64, taken: bool) -> Prediction {
        let prediction = self.predict_full(pc, bhr);
        self.update(pc, bhr, taken);
        prediction
    }

    /// Predicts and trains a whole batch of resolved branches, writing
    /// whether each prediction was correct into `out_correct`.
    ///
    /// `bhrs[i]` must be the global-history value *before* record `i`
    /// resolved — the same value a scalar driver would pass to
    /// [`predict_train`](Self::predict_train). Records are processed in
    /// order: record `i`'s training is visible to record `j > i`, exactly
    /// as in the scalar loop.
    ///
    /// The default implementation is the scalar per-record loop; overrides
    /// (gshare, gselect, bimodal, agree) substitute the branchless
    /// lane-parallel kernel, TAGE-class predictors a block-hashed serial
    /// walk, and all **must remain bit-identical** to the default — the
    /// replay engine's scalar-equivalence suite relies on it.
    ///
    /// # Panics
    ///
    /// Panics if the four slices differ in length.
    fn predict_train_batch(
        &mut self,
        pcs: &[u64],
        bhrs: &[u64],
        takens: &[bool],
        out_correct: &mut [bool],
    ) {
        assert_batch_shape(pcs, bhrs, takens, out_correct);
        for (((&pc, &h), &t), oc) in pcs
            .iter()
            .zip(bhrs)
            .zip(takens)
            .zip(out_correct.iter_mut())
        {
            *oc = self.predict_train(pc, h, t) == t;
        }
    }

    /// Replays the predictor's self-assessment over a batch of resolved
    /// branches whose *correctness* is known but whose direction is not:
    /// for each record, takes [`predict_full`](Self::predict_full), writes
    /// its strength into `strengths`, and trains on the direction that
    /// correctness implies, `taken = (predicted == correct)`.
    ///
    /// This is how a shadow instance keeps in lock-step with an
    /// identically configured session predictor it only sees through a
    /// correctness stream. `bhrs` and record order follow
    /// [`predict_train_batch`](Self::predict_train_batch). The default is
    /// the per-record loop of `predict_full` followed by
    /// [`update`](Self::update); overrides (TAGE-class predictors) fuse
    /// the read and the training into one table walk and **must remain
    /// bit-identical** to the default.
    ///
    /// # Panics
    ///
    /// Panics if the four slices differ in length.
    fn predict_full_train_batch(
        &mut self,
        pcs: &[u64],
        bhrs: &[u64],
        correct: &[bool],
        strengths: &mut [u8],
    ) {
        assert_batch_shape(pcs, bhrs, correct, strengths);
        for (((&pc, &h), &ok), s) in pcs
            .iter()
            .zip(bhrs)
            .zip(correct)
            .zip(strengths.iter_mut())
        {
            let p = self.predict_full(pc, h);
            *s = p.strength;
            self.update(pc, h, p.taken == ok);
        }
    }

    /// Short human-readable description (e.g. `"gshare(16,16)"`).
    fn describe(&self) -> String;

    /// Appends this predictor's **mutable** state (table words, histories,
    /// counters) to `out` using the [`state`] byte discipline. The
    /// immutable configuration — table sizes, index widths — is *not*
    /// serialized: checkpoints carry the spec string separately and rebuild
    /// the predictor before loading state into it.
    ///
    /// Stateless predictors write nothing (the default).
    fn state_save(&self, _out: &mut Vec<u8>) {}

    /// Restores mutable state from bytes produced by
    /// [`state_save`](Self::state_save) on an **identically configured**
    /// instance. After a successful load the predictor must behave
    /// bit-identically to the instance that was saved.
    ///
    /// # Errors
    ///
    /// Returns a message if the blob is truncated, oversized, or does not
    /// match this predictor's configuration. The default accepts only an
    /// empty blob (the stateless predictor's save output).
    fn state_load(&mut self, bytes: &[u8]) -> Result<(), String> {
        if bytes.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "{} carries no serializable state but got a {}-byte blob",
                self.describe(),
                bytes.len()
            ))
        }
    }
}

/// Validates that the four batch slices agree in length.
pub(crate) fn assert_batch_shape<T>(pcs: &[u64], bhrs: &[u64], takens: &[bool], out: &[T]) {
    assert!(
        pcs.len() == bhrs.len() && pcs.len() == takens.len() && pcs.len() == out.len(),
        "batch slices disagree in length: pcs {} bhrs {} takens {} out {}",
        pcs.len(),
        bhrs.len(),
        takens.len(),
        out.len()
    );
}

/// Pins a predictor to the scalar per-record replay path.
///
/// Forwards everything *except* the two batch hooks,
/// [`BranchPredictor::predict_train_batch`] and
/// [`BranchPredictor::predict_full_train_batch`], so the trait's default
/// per-record loops run even when the wrapped predictor carries a
/// vectorized or block override. This is the reference side of the
/// scalar-vs-vector differential tests and of the `engine_throughput`
/// kernel comparison; it is not intended for production replays.
#[derive(Debug, Clone)]
pub struct ScalarKernel<P>(pub P);

impl<P: BranchPredictor> BranchPredictor for ScalarKernel<P> {
    fn predict(&self, pc: u64, bhr: u64) -> bool {
        self.0.predict(pc, bhr)
    }

    fn update(&mut self, pc: u64, bhr: u64, taken: bool) {
        self.0.update(pc, bhr, taken)
    }

    fn predict_train(&mut self, pc: u64, bhr: u64, taken: bool) -> bool {
        self.0.predict_train(pc, bhr, taken)
    }

    fn predict_full(&self, pc: u64, bhr: u64) -> Prediction {
        self.0.predict_full(pc, bhr)
    }

    fn predict_train_full(&mut self, pc: u64, bhr: u64, taken: bool) -> Prediction {
        self.0.predict_train_full(pc, bhr, taken)
    }

    // predict_train_batch and predict_full_train_batch deliberately NOT
    // forwarded: the defaults' per-record loops are the scalar reference.

    fn describe(&self) -> String {
        self.0.describe()
    }

    fn state_save(&self, out: &mut Vec<u8>) {
        self.0.state_save(out)
    }

    fn state_load(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.0.state_load(bytes)
    }
}

impl<P: BranchPredictor + ?Sized> BranchPredictor for Box<P> {
    fn predict(&self, pc: u64, bhr: u64) -> bool {
        (**self).predict(pc, bhr)
    }

    fn update(&mut self, pc: u64, bhr: u64, taken: bool) {
        (**self).update(pc, bhr, taken)
    }

    fn predict_train(&mut self, pc: u64, bhr: u64, taken: bool) -> bool {
        (**self).predict_train(pc, bhr, taken)
    }

    fn predict_full(&self, pc: u64, bhr: u64) -> Prediction {
        (**self).predict_full(pc, bhr)
    }

    fn predict_train_full(&mut self, pc: u64, bhr: u64, taken: bool) -> Prediction {
        (**self).predict_train_full(pc, bhr, taken)
    }

    fn predict_train_batch(
        &mut self,
        pcs: &[u64],
        bhrs: &[u64],
        takens: &[bool],
        out_correct: &mut [bool],
    ) {
        (**self).predict_train_batch(pcs, bhrs, takens, out_correct)
    }

    fn predict_full_train_batch(
        &mut self,
        pcs: &[u64],
        bhrs: &[u64],
        correct: &[bool],
        strengths: &mut [u8],
    ) {
        (**self).predict_full_train_batch(pcs, bhrs, correct, strengths)
    }

    fn describe(&self) -> String {
        (**self).describe()
    }

    fn state_save(&self, out: &mut Vec<u8>) {
        (**self).state_save(out)
    }

    fn state_load(&mut self, bytes: &[u8]) -> Result<(), String> {
        (**self).state_load(bytes)
    }
}

/// Number of table entries implied by an index width, validating bounds.
///
/// # Panics
///
/// Panics if `bits` is 0 or greater than 28 (a 256M-entry table is assumed
/// to be a configuration mistake).
pub(crate) fn table_len(bits: u32) -> usize {
    assert!(
        (1..=28).contains(&bits),
        "table index width must be 1..=28 bits, got {bits}"
    );
    1usize << bits
}

/// Masks `value` to the low `bits` bits.
pub(crate) fn mask(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_len_powers() {
        assert_eq!(table_len(1), 2);
        assert_eq!(table_len(12), 4096);
        assert_eq!(table_len(16), 65536);
    }

    #[test]
    #[should_panic(expected = "1..=28")]
    fn table_len_rejects_zero() {
        table_len(0);
    }

    #[test]
    #[should_panic(expected = "1..=28")]
    fn table_len_rejects_huge() {
        table_len(29);
    }

    #[test]
    fn boxed_predictor_dispatches() {
        let mut p: Box<dyn BranchPredictor> = Box::new(crate::Bimodal::new(4));
        for _ in 0..4 {
            p.update(0x40, 0, false);
        }
        assert!(!p.predict(0x40, 0));
        assert_eq!(p.describe(), "bimodal(4)");
    }

    #[test]
    fn mask_widths() {
        assert_eq!(mask(1), 1);
        assert_eq!(mask(16), 0xffff);
        assert_eq!(mask(64), u64::MAX);
    }

    #[test]
    fn default_batch_is_the_scalar_loop() {
        // LocalTwoLevel has no batch override, so predict_train_batch must
        // behave exactly like the per-record loop.
        let mut batched = crate::LocalTwoLevel::new(4, 4);
        let mut serial = crate::LocalTwoLevel::new(4, 4);
        let pcs = [0x40u64, 0x80, 0x40, 0x40, 0x80];
        let bhrs = [0u64; 5];
        let takens = [true, false, true, true, false];
        let mut out = [false; 5];
        batched.predict_train_batch(&pcs, &bhrs, &takens, &mut out);
        for i in 0..5 {
            let correct = serial.predict_train(pcs[i], bhrs[i], takens[i]) == takens[i];
            assert_eq!(out[i], correct, "record {i}");
        }
    }

    #[test]
    fn scalar_kernel_suppresses_batch_override() {
        // Same inputs through the vector batch and through ScalarKernel:
        // outputs and final table state must agree (the override is
        // bit-identical), and ScalarKernel must expose the inner describe.
        let mut vector = crate::Gshare::new(4, 4);
        let mut scalar = ScalarKernel(crate::Gshare::new(4, 4));
        assert_eq!(scalar.describe(), "gshare(4,4)");
        let pcs: Vec<u64> = (0..200u64).map(|i| i * 4).collect();
        let bhrs: Vec<u64> = (0..200u64).map(|i| i * 7).collect();
        let takens: Vec<bool> = (0..200).map(|i| i % 3 == 0).collect();
        let mut out_v = vec![false; 200];
        let mut out_s = vec![false; 200];
        vector.predict_train_batch(&pcs, &bhrs, &takens, &mut out_v);
        scalar.predict_train_batch(&pcs, &bhrs, &takens, &mut out_s);
        assert_eq!(out_v, out_s);
        assert_eq!(vector.counter_state(0, 0), scalar.0.counter_state(0, 0));
    }

    #[test]
    #[should_panic(expected = "disagree in length")]
    fn batch_shape_mismatch_rejected() {
        let mut p = crate::Bimodal::new(4);
        let mut out = [false; 2];
        p.predict_train_batch(&[0, 4, 8], &[0, 0, 0], &[true, true, true], &mut out);
    }

    /// The doc-promised panic on mismatched batch slices must hold for
    /// *every* predictor — the default scalar loop, every vectorized
    /// override, and dyn dispatch — not just whichever override happens
    /// to check. One ragged call per implementation and batch hook.
    #[test]
    fn batch_shape_contract_is_uniform() {
        let predictors: Vec<Box<dyn BranchPredictor>> = vec![
            Box::new(crate::Gshare::new(4, 4)),
            Box::new(crate::GSelect::new(4, 2)),
            Box::new(crate::Bimodal::new(4)),
            Box::new(crate::Agree::new(4, 4, 4)),
            Box::new(crate::LocalTwoLevel::new(4, 4)),
            Box::new(crate::Hybrid::new(
                crate::Gshare::new(4, 4),
                crate::Bimodal::new(4),
                4,
            )),
            Box::new(crate::StaticDirection::always_taken()),
            Box::new(crate::Tage::new(6, 4, 2, 16, 7)),
            Box::new(crate::TageScLite::new(6, 4, 2, 16, 7)),
            Box::new(ScalarKernel(crate::Gshare::new(4, 4))),
            Box::new(ScalarKernel(crate::Tage::new(6, 4, 2, 16, 7))),
            Box::new(ScalarKernel(crate::TageScLite::new(6, 4, 2, 16, 7))),
        ];
        for mut p in predictors {
            let name = p.describe();
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut out = [false; 2];
                p.predict_train_batch(&[0, 4, 8], &[0, 0, 0], &[true, true, true], &mut out);
            }));
            assert!(result.is_err(), "{name} accepted ragged batch slices");
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut strengths = [0u8; 3];
                p.predict_full_train_batch(&[0, 4, 8], &[0, 0], &[true; 3], &mut strengths);
            }));
            assert!(result.is_err(), "{name} accepted ragged full batch slices");
        }
    }

    #[test]
    fn default_predict_full_wraps_predict() {
        let mut p = crate::Bimodal::new(4);
        for _ in 0..4 {
            p.update(0x40, 0, true);
        }
        let full = p.predict_full(0x40, 0);
        assert_eq!(full, Prediction::unassessed(true));
        assert_eq!(full.taken, p.predict(0x40, 0));
        assert_eq!(full.provider, Provider::Base);
        assert_eq!(full.strength, 0);
    }

    /// `predict_train`, `predict_train_full`, and `predict_full` followed
    /// by `update` must agree on every prediction and end in identical
    /// state. The stream mixes periodic, random, and long-loop branches
    /// over a real history register so TAGE's tagged components, loop
    /// table, and corrector all train.
    #[test]
    fn predict_train_full_matches_predict_full_then_update() {
        type Make = fn() -> Box<dyn BranchPredictor>;
        let makes: [Make; 5] = [
            || Box::new(crate::Gshare::new(6, 6)),
            || Box::new(crate::Tage::new(8, 4, 2, 24, 8)),
            || Box::new(crate::TageScLite::new(8, 4, 2, 24, 8)),
            || Box::new(crate::Tage::reference_64k()),
            || Box::new(crate::TageScLite::reference_64k()),
        ];
        for make in makes {
            let (mut split, mut fused, mut fused_full) = (make(), make(), make());
            let name = split.describe();
            let mut bhr = crate::HistoryRegister::new(64);
            let mut x = 3u64;
            for i in 0..20_000u64 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let pc = 0x40 + ((x >> 33) % 61) * 4;
                let taken = match (x >> 40) % 3 {
                    0 => i % 7 != 6,
                    1 => x >> 63 == 1,
                    _ => i % 41 != 40,
                };
                let h = bhr.value();
                let via_split = split.predict_full(pc, h);
                split.update(pc, h, taken);
                let via_fused = fused_full.predict_train_full(pc, h, taken);
                assert_eq!(via_split, via_fused, "{name} record {i}");
                let via_train = fused.predict_train(pc, h, taken);
                assert_eq!(via_split.taken, via_train, "{name} record {i}");
                bhr.push(taken);
            }
            let save = |p: &dyn BranchPredictor| {
                let mut blob = Vec::new();
                p.state_save(&mut blob);
                blob
            };
            assert_eq!(save(&*split), save(&*fused_full), "{name}");
            assert_eq!(save(&*split), save(&*fused), "{name}");
        }
    }

    #[test]
    fn full_prediction_forwards_through_box_and_scalar_kernel() {
        // A provider-aware predictor keeps its provenance through both
        // wrappers — Box<dyn> and ScalarKernel must not flatten it back
        // to the unassessed default.
        let tage = crate::Tage::new(6, 4, 2, 16, 7);
        let boxed: Box<dyn BranchPredictor> = Box::new(tage.clone());
        let scalar = ScalarKernel(tage.clone());
        for pc in [0u64, 0x40, 0x84] {
            assert_eq!(tage.predict_full(pc, 0xa5), boxed.predict_full(pc, 0xa5));
            assert_eq!(tage.predict_full(pc, 0xa5), scalar.predict_full(pc, 0xa5));
        }
    }

    /// `predict_full_train_batch` — the per-record default (Gshare, and
    /// every predictor under `ScalarKernel`) and the TAGE-class block
    /// overrides — equals an explicit `predict_full` + `update` loop on
    /// every strength and on the final state bytes, across batch splits
    /// that straddle the 64-record block.
    #[test]
    fn full_train_batch_matches_predict_full_then_update() {
        type Make = fn() -> Box<dyn BranchPredictor>;
        let makes: [Make; 5] = [
            || Box::new(crate::Gshare::new(6, 6)),
            || Box::new(crate::Tage::new(8, 4, 2, 24, 8)),
            || Box::new(crate::TageScLite::new(8, 4, 2, 24, 8)),
            || Box::new(crate::Tage::reference_64k()),
            || Box::new(crate::TageScLite::reference_64k()),
        ];
        let save = |p: &dyn BranchPredictor| {
            let mut blob = Vec::new();
            p.state_save(&mut blob);
            blob
        };
        for make in makes {
            let (mut session, mut reference) = (make(), make());
            let mut batched = make();
            let mut scalar = ScalarKernel(make());
            let name = session.describe();
            let mut bhr = crate::HistoryRegister::new(64);
            let mut x = 17u64;
            let (mut pcs, mut bhrs, mut correct) = (Vec::new(), Vec::new(), Vec::new());
            let mut want = Vec::new();
            for i in 0..12_000u64 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let pc = 0x40 + ((x >> 33) % 61) * 4;
                let taken = match (x >> 40) % 3 {
                    0 => i % 7 != 6,
                    1 => x >> 63 == 1,
                    _ => i % 41 != 40,
                };
                let h = bhr.value();
                let ok = session.predict_train(pc, h, taken) == taken;
                let p = reference.predict_full(pc, h);
                reference.update(pc, h, p.taken == ok);
                want.push(p.strength);
                pcs.push(pc);
                bhrs.push(h);
                correct.push(ok);
                bhr.push(taken);
            }
            let (mut got_b, mut got_s) = (vec![0u8; pcs.len()], vec![0u8; pcs.len()]);
            let mut at = 0;
            for len in [0, 1, 63, 64, 65, 127, 4096, 4097].into_iter().cycle() {
                let end = (at + len).min(pcs.len());
                let r = at..end;
                batched.predict_full_train_batch(
                    &pcs[r.clone()],
                    &bhrs[r.clone()],
                    &correct[r.clone()],
                    &mut got_b[r.clone()],
                );
                scalar.predict_full_train_batch(
                    &pcs[r.clone()],
                    &bhrs[r.clone()],
                    &correct[r.clone()],
                    &mut got_s[r],
                );
                at = end;
                if at == pcs.len() {
                    break;
                }
            }
            assert_eq!(got_b, want, "{name}");
            assert_eq!(got_s, want, "{name}");
            assert_eq!(save(&*batched), save(&*reference), "{name}");
            assert_eq!(save(&scalar), save(&*reference), "{name}");
            // The shadow replay tracks the session predictor itself.
            assert_eq!(save(&*batched), save(&*session), "{name}");
        }
    }

    /// `Box` forwards `predict_full_train_batch` to the boxed override;
    /// `ScalarKernel` deliberately runs the trait default instead.
    #[test]
    fn full_train_batch_forwards_through_box_not_scalar_kernel() {
        /// Marks every strength its override writes, so the test can
        /// tell which implementation ran.
        #[derive(Debug)]
        struct Marked(crate::Bimodal);
        impl BranchPredictor for Marked {
            fn predict(&self, pc: u64, bhr: u64) -> bool {
                self.0.predict(pc, bhr)
            }
            fn update(&mut self, pc: u64, bhr: u64, taken: bool) {
                self.0.update(pc, bhr, taken)
            }
            fn predict_full_train_batch(
                &mut self,
                _pcs: &[u64],
                _bhrs: &[u64],
                _correct: &[bool],
                strengths: &mut [u8],
            ) {
                strengths.fill(0xaa);
            }
            fn describe(&self) -> String {
                "marked".into()
            }
        }
        let (pcs, bhrs, correct) = ([0x40u64, 0x44], [0u64, 1], [true, false]);
        let mut boxed: Box<dyn BranchPredictor> = Box::new(Marked(crate::Bimodal::new(4)));
        let mut strengths = [0u8; 2];
        boxed.predict_full_train_batch(&pcs, &bhrs, &correct, &mut strengths);
        assert_eq!(strengths, [0xaa; 2]);
        let mut scalar = ScalarKernel(Marked(crate::Bimodal::new(4)));
        let mut strengths = [0xffu8; 2];
        scalar.predict_full_train_batch(&pcs, &bhrs, &correct, &mut strengths);
        assert_eq!(strengths, [0; 2], "unassessed default strengths");
    }
}
