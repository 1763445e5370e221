//! Application 3 (§1): a **confidence-driven hybrid predictor selector**.
//!
//! A McFarling combining predictor selects between two component
//! predictors with an ad-hoc chooser table. The paper suggests that
//! explicit confidence mechanisms — one per component, each tracking its
//! component's correctness history — could make a more systematic
//! selector: use whichever component currently has the higher confidence.
//!
//! [`ConfidenceSelector`] implements that design with a resetting-counter
//! table per component, and is directly comparable against
//! [`Hybrid`](cira_predictor::Hybrid) and the raw components.

use cira_core::one_level::ResettingConfidence;
use cira_core::{ConfidenceMechanism, IndexSpec, InitPolicy};
use cira_predictor::state::{put_blob, StateReader};
use cira_predictor::BranchPredictor;

/// Two predictors plus a confidence mechanism per component; predictions
/// come from the component whose confidence counter is higher.
///
/// Ties go to the first component (conventionally the stronger one).
///
/// # Examples
///
/// ```
/// use cira_apps::hybrid_selector::ConfidenceSelector;
/// use cira_predictor::{Bimodal, BranchPredictor, Gshare};
///
/// let mut p = ConfidenceSelector::new(Gshare::new(10, 10), Bimodal::new(10), 10);
/// p.update(0x40, 0, true);
/// let _ = p.predict(0x40, 0);
/// ```
#[derive(Debug, Clone)]
pub struct ConfidenceSelector<A, B> {
    first: A,
    second: B,
    conf_first: ResettingConfidence,
    conf_second: ResettingConfidence,
    table_bits: u32,
}

impl<A: BranchPredictor, B: BranchPredictor> ConfidenceSelector<A, B> {
    /// Creates a selector whose per-component confidence tables have
    /// `2^table_bits` resetting counters (0..=16) indexed by PC⊕BHR.
    ///
    /// # Panics
    ///
    /// Panics if `table_bits` is outside `1..=28`.
    pub fn new(first: A, second: B, table_bits: u32) -> Self {
        Self {
            first,
            second,
            conf_first: ResettingConfidence::new(
                IndexSpec::pc_xor_bhr(table_bits),
                16,
                InitPolicy::AllOnes,
            ),
            conf_second: ResettingConfidence::new(
                IndexSpec::pc_xor_bhr(table_bits),
                16,
                InitPolicy::AllOnes,
            ),
            table_bits,
        }
    }

    /// Borrows the first component.
    pub fn first(&self) -> &A {
        &self.first
    }

    /// Borrows the second component.
    pub fn second(&self) -> &B {
        &self.second
    }

    /// Whether the selector currently prefers the first component for this
    /// branch.
    pub fn selects_first(&self, pc: u64, bhr: u64) -> bool {
        self.conf_first.read_key(pc, bhr) >= self.conf_second.read_key(pc, bhr)
    }
}

impl<A: BranchPredictor, B: BranchPredictor> BranchPredictor for ConfidenceSelector<A, B> {
    fn predict(&self, pc: u64, bhr: u64) -> bool {
        if self.selects_first(pc, bhr) {
            self.first.predict(pc, bhr)
        } else {
            self.second.predict(pc, bhr)
        }
    }

    fn update(&mut self, pc: u64, bhr: u64, taken: bool) {
        let c1 = self.first.predict(pc, bhr) == taken;
        let c2 = self.second.predict(pc, bhr) == taken;
        self.conf_first.update(pc, bhr, c1);
        self.conf_second.update(pc, bhr, c2);
        self.first.update(pc, bhr, taken);
        self.second.update(pc, bhr, taken);
    }

    fn describe(&self) -> String {
        format!(
            "confidence-selector({} | {},conf {})",
            self.first.describe(),
            self.second.describe(),
            self.table_bits
        )
    }

    fn state_save(&self, out: &mut Vec<u8>) {
        let mut blob = Vec::new();
        self.first.state_save(&mut blob);
        put_blob(out, &blob);
        blob.clear();
        self.second.state_save(&mut blob);
        put_blob(out, &blob);
        blob.clear();
        self.conf_first.state_save(&mut blob);
        put_blob(out, &blob);
        blob.clear();
        self.conf_second.state_save(&mut blob);
        put_blob(out, &blob);
    }

    fn state_load(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut r = StateReader::new(bytes);
        let first = r.blob()?;
        let second = r.blob()?;
        let conf_first = r.blob()?;
        let conf_second = r.blob()?;
        r.finish()?;
        self.first.state_load(first)?;
        self.second.state_load(second)?;
        self.conf_first.state_load(conf_first)?;
        self.conf_second.state_load(conf_second)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cira_analysis::runner::run_predictor;
    use cira_predictor::{Bimodal, Gshare, HistoryRegister, Hybrid, StaticDirection};
    use cira_trace::suite::ibs_like_suite;

    #[test]
    fn selector_migrates_to_correct_component() {
        let mut p = ConfidenceSelector::new(
            StaticDirection::always_not_taken(),
            StaticDirection::always_taken(),
            8,
        );
        for _ in 0..8 {
            p.update(0x40, 0, true);
        }
        assert!(!p.selects_first(0x40, 0));
        assert!(p.predict(0x40, 0));
    }

    #[test]
    fn selector_competitive_with_mcfarling_chooser() {
        let bench = &ibs_like_suite()[0];
        let n = 200_000;
        let sel = run_predictor(
            bench.walker().take(n),
            &mut ConfidenceSelector::new(Gshare::new(12, 12), Bimodal::new(12), 12),
        );
        let mcf = run_predictor(
            bench.walker().take(n),
            &mut Hybrid::new(Gshare::new(12, 12), Bimodal::new(12), 12),
        );
        // The confidence selector should be in the same accuracy class as
        // the ad-hoc chooser (the paper conjectures it can be better).
        assert!(
            sel.miss_rate() < mcf.miss_rate() * 1.15,
            "selector {} vs chooser {}",
            sel.miss_rate(),
            mcf.miss_rate()
        );
    }

    #[test]
    fn selector_no_worse_than_weaker_component() {
        let bench = &ibs_like_suite()[2];
        let n = 150_000;
        let sel = run_predictor(
            bench.walker().take(n),
            &mut ConfidenceSelector::new(Gshare::new(12, 12), Bimodal::new(12), 12),
        );
        let bim = run_predictor(bench.walker().take(n), &mut Bimodal::new(12));
        assert!(sel.miss_rate() <= bim.miss_rate() * 1.02);
    }

    #[test]
    fn describe_names_components() {
        let p = ConfidenceSelector::new(Gshare::new(8, 8), Bimodal::new(8), 8);
        assert!(p.describe().contains("gshare(8,8)"));
        assert!(p.describe().contains("bimodal(8)"));
        assert_eq!(p.first().table_bits(), 8);
        assert_eq!(p.second().bits(), 8);
    }

    #[test]
    fn describe_names_confidence_table_size() {
        let small = ConfidenceSelector::new(Gshare::new(8, 8), Bimodal::new(8), 8);
        let large = ConfidenceSelector::new(Gshare::new(8, 8), Bimodal::new(8), 12);
        assert_ne!(small.describe(), large.describe());
    }

    #[test]
    fn mid_trace_checkpoint_round_trip_is_bit_identical() {
        let make = || ConfidenceSelector::new(Gshare::new(10, 10), Bimodal::new(10), 10);
        let records: Vec<_> = ibs_like_suite()[1].walker().take(40_000).collect();
        let (head, tail) = records.split_at(25_000);
        let drive = |p: &mut ConfidenceSelector<Gshare, Bimodal>,
                     bhr: &mut HistoryRegister,
                     recs: &[cira_trace::BranchRecord]| {
            recs.iter()
                .map(|r| {
                    let predicted = p.predict_train(r.pc, bhr.value(), r.taken);
                    bhr.push(r.taken);
                    predicted
                })
                .collect::<Vec<bool>>()
        };

        let mut straight = make();
        let mut bhr = HistoryRegister::new(16);
        drive(&mut straight, &mut bhr, head);
        let mut saved = Vec::new();
        straight.state_save(&mut saved);
        let resume_bhr = bhr;
        let want = drive(&mut straight, &mut bhr, tail);

        let mut restored = make();
        restored.state_load(&saved).unwrap();
        let mut again = Vec::new();
        restored.state_save(&mut again);
        assert_eq!(again, saved, "save -> load -> save is the identity");
        let mut bhr = resume_bhr;
        assert_eq!(drive(&mut restored, &mut bhr, tail), want);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        straight.state_save(&mut a);
        restored.state_save(&mut b);
        assert_eq!(a, b, "final state after the tail");

        // A cold instance does not match: the checkpoint carries state.
        let mut cold = Vec::new();
        make().state_save(&mut cold);
        assert_ne!(cold, saved);
        // A truncated checkpoint is rejected, not silently accepted.
        assert!(make().state_load(&saved[..saved.len() - 1]).is_err());
        assert!(make().state_load(&[]).is_err());
    }
}
