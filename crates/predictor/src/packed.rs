//! SWAR-packed two-bit saturating counters: 32 counters per `u64` word.
//!
//! This is the storage layer behind the vectorized replay kernel. A
//! gshare(16,16) table shrinks from 512 KiB of `TwoBitCounter` structs to
//! 16 KiB of packed words — small enough to stay resident in L1 — and the
//! saturating update becomes straight-line arithmetic (no branches for the
//! predictor state machine), so the replay loop retires at a steady rate
//! regardless of how predictable the trace is.
//!
//! The state machine is bit-identical to [`TwoBitCounter`]: a 0..=3
//! saturating counter where states 2..=3 predict taken.
//!
//! [`TwoBitCounter`]: crate::counter::TwoBitCounter

/// Counters stored per packed word.
const LANES: usize = 32;

/// A table of two-bit saturating counters packed 32 per `u64`.
///
/// Counter `i` occupies bits `2*(i % 32) .. 2*(i % 32) + 2` of word
/// `i / 32`; within a lane the two bits are the plain binary state 0..=3.
///
/// # Examples
///
/// ```
/// use cira_predictor::packed::PackedTwoBit;
///
/// let mut t = PackedTwoBit::new(64, 2); // weakly taken
/// assert!(t.predicts_taken(33));
/// t.train(33, false);
/// t.train(33, false);
/// assert_eq!(t.state(33), 0);
/// assert!(!t.predicts_taken(33));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedTwoBit {
    words: Vec<u64>,
    len: usize,
}

impl PackedTwoBit {
    /// Creates a table of `len` counters, all in `init_state`.
    ///
    /// # Panics
    ///
    /// Panics if `init_state > 3`.
    pub fn new(len: usize, init_state: u32) -> Self {
        assert!(init_state <= 3, "2-bit counter state must be 0..=3");
        // Replicate the 2-bit state into every lane of the word.
        let pattern = u64::from(init_state) * 0x5555_5555_5555_5555;
        Self {
            words: vec![pattern; len.div_ceil(LANES)],
            len,
        }
    }

    /// Number of counters.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table holds no counters.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The state 0..=3 of counter `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn state(&self, i: usize) -> u32 {
        assert!(i < self.len, "counter {i} out of range {}", self.len);
        ((self.words[i / LANES] >> ((i % LANES) * 2)) & 3) as u32
    }

    /// Sets counter `i` to `state`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()` or `state > 3`.
    #[inline]
    pub fn set_state(&mut self, i: usize, state: u32) {
        assert!(i < self.len, "counter {i} out of range {}", self.len);
        assert!(state <= 3, "2-bit counter state must be 0..=3");
        let sh = (i % LANES) * 2;
        let w = &mut self.words[i / LANES];
        *w = (*w & !(3u64 << sh)) | (u64::from(state) << sh);
    }

    /// The direction counter `i` predicts (states 2..=3 predict taken).
    #[inline]
    pub fn predicts_taken(&self, i: usize) -> bool {
        self.state(i) >= 2
    }

    /// Trains counter `i` toward `taken` with branchless saturation.
    #[inline]
    pub fn train(&mut self, i: usize, taken: bool) {
        self.predict_train(i, taken);
    }

    /// Reads the prediction of counter `i` and trains it, as one
    /// read-modify-write of the packed word. Returns the *pre-update*
    /// prediction — bit-identical to `predicts_taken` followed by `train`.
    #[inline]
    pub fn predict_train(&mut self, i: usize, taken: bool) -> bool {
        let sh = (i % LANES) * 2;
        let w = &mut self.words[i / LANES];
        let s = (*w >> sh) & 3;
        let t = taken as u64;
        // Saturating ±1 without branches: the inc term is zero at state 3,
        // the dec term is zero at state 0, and `taken` selects between them.
        let s2 = s + (t & (s != 3) as u64) - ((1 - t) & (s != 0) as u64);
        *w = (*w & !(3u64 << sh)) | (s2 << sh);
        s >= 2
    }

    /// The packed backing words — 32 counters per `u64`, counter `i` in
    /// bits `2*(i % 32)..` of word `i / 32`. Exposed for checkpoint
    /// serialization.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Replaces the backing words with `words` (a checkpoint restore).
    /// Every 2-bit lane is a valid counter state by construction, so only
    /// the word count needs validating.
    ///
    /// # Errors
    ///
    /// Returns a message if `words` does not have exactly the word count
    /// this table was created with.
    pub fn load_words(&mut self, words: &[u64]) -> Result<(), String> {
        if words.len() != self.words.len() {
            return Err(format!(
                "packed table restore: got {} words, table of {} counters needs {}",
                words.len(),
                self.len,
                self.words.len()
            ));
        }
        self.words.copy_from_slice(words);
        Ok(())
    }

    /// Hints that the word holding counter `i` will be accessed soon.
    ///
    /// On x86_64 this issues an L1 prefetch; elsewhere it degrades to a
    /// plain read the optimizer must keep (the portable "touch" phase of a
    /// two-phase gather). Out-of-range indices are ignored.
    #[inline]
    pub fn prefetch(&self, i: usize) {
        if let Some(slot) = self.words.get(i / LANES) {
            prefetch(slot);
        }
    }
}

/// Hints that `slot` will be accessed soon: an L1 prefetch on x86_64, a
/// plain read the optimizer must keep elsewhere.
#[inline]
pub(crate) fn prefetch<T: Copy>(slot: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `slot` is a live reference, so the pointer is valid;
    // prefetch has no architectural side effects.
    unsafe {
        core::arch::x86_64::_mm_prefetch(
            (slot as *const T).cast::<i8>(),
            core::arch::x86_64::_MM_HINT_T0,
        );
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        std::hint::black_box(*slot);
    }
}

/// Sub-chunk size for the two-phase gather: indices for the *next* block
/// are computed and prefetched while the current block's counters are
/// updated serially, overlapping table-miss latency with update work.
/// The TAGE batch hooks hash blocks of the same size.
pub(crate) const BLOCK: usize = 64;

/// Shared batch kernel for predictors whose table index is a pure function
/// of `(pc, bhr)` — gshare, gselect, bimodal.
///
/// Three phases per 64-record sub-chunk: (1) a tight, auto-vectorizable
/// index-computation loop, (2) a prefetch/touch pass over the *next*
/// sub-chunk's table words, (3) a serial branchless read-modify-write pass.
/// Phase 3 must stay serial and in program order: two records in the same
/// batch may alias the same counter, and the second must observe the
/// first's update.
pub(crate) fn batch_predict_train(
    table: &mut PackedTwoBit,
    pcs: &[u64],
    bhrs: &[u64],
    takens: &[bool],
    out_correct: &mut [bool],
    index_of: impl Fn(u64, u64) -> usize,
) {
    let n = pcs.len();
    let mut cur = [0u32; BLOCK];
    let mut nxt = [0u32; BLOCK];
    let mut start = 0;
    let mut c = BLOCK.min(n);
    fill_indices(&mut cur[..c], &pcs[..c], &bhrs[..c], &index_of);
    for &i in &cur[..c] {
        table.prefetch(i as usize);
    }
    while start < n {
        let next_start = start + c;
        let nc = BLOCK.min(n - next_start);
        if nc > 0 {
            fill_indices(
                &mut nxt[..nc],
                &pcs[next_start..next_start + nc],
                &bhrs[next_start..next_start + nc],
                &index_of,
            );
            for &i in &nxt[..nc] {
                table.prefetch(i as usize);
            }
        }
        let out = &mut out_correct[start..start + c];
        for ((&i, &t), oc) in cur[..c].iter().zip(&takens[start..start + c]).zip(out) {
            *oc = table.predict_train(i as usize, t) == t;
        }
        std::mem::swap(&mut cur, &mut nxt);
        start = next_start;
        c = nc;
    }
}

/// Phase-1 helper: computes table indices for one sub-chunk.
#[inline]
fn fill_indices(out: &mut [u32], pcs: &[u64], bhrs: &[u64], index_of: impl Fn(u64, u64) -> usize) {
    for (slot, (&pc, &h)) in out.iter_mut().zip(pcs.iter().zip(bhrs)) {
        *slot = index_of(pc, h) as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::TwoBitCounter;

    #[test]
    fn matches_two_bit_counter_state_machine() {
        // Drive a packed counter and a reference TwoBitCounter through the
        // same pseudo-random outcome sequence from every initial state.
        for init in 0..=3u32 {
            let mut packed = PackedTwoBit::new(40, init);
            let mut reference = TwoBitCounter::with_state(init);
            let lane = 37; // straddles into the second word
            let mut x = 0x9e37_79b9_u32;
            for _ in 0..200 {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                let taken = x & 1 == 1;
                assert_eq!(packed.predicts_taken(lane), reference.predicts_taken());
                let predicted = packed.predict_train(lane, taken);
                assert_eq!(predicted, reference.predicts_taken());
                reference.train(taken);
                assert_eq!(packed.state(lane), reference.state());
            }
        }
    }

    #[test]
    fn lanes_are_independent() {
        let mut t = PackedTwoBit::new(96, 2);
        t.train(0, true); // 3
        t.train(1, false); // 1
        t.train(64, false); // 1 (third word)
        assert_eq!(t.state(0), 3);
        assert_eq!(t.state(1), 1);
        assert_eq!(t.state(2), 2); // untouched neighbor
        assert_eq!(t.state(64), 1);
        assert_eq!(t.state(95), 2);
    }

    #[test]
    fn set_state_round_trips() {
        let mut t = PackedTwoBit::new(33, 0);
        for s in 0..=3 {
            t.set_state(32, s);
            assert_eq!(t.state(32), s);
            assert_eq!(t.state(31), 0, "neighbor lane must not change");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn state_bounds_checked() {
        PackedTwoBit::new(10, 0).state(10);
    }

    #[test]
    #[should_panic(expected = "0..=3")]
    fn init_state_validated() {
        PackedTwoBit::new(4, 4);
    }

    #[test]
    fn prefetch_out_of_range_is_ignored() {
        PackedTwoBit::new(4, 0).prefetch(1 << 20);
    }

    #[test]
    fn batch_kernel_matches_serial_train() {
        // Random pcs/histories with heavy aliasing into a tiny table, so
        // the serial-RMW ordering requirement is actually exercised.
        let mut x = 1u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let n = 300; // non-multiple of the 64-lane block
        let pcs: Vec<u64> = (0..n).map(|_| next()).collect();
        let bhrs: Vec<u64> = (0..n).map(|_| next()).collect();
        let takens: Vec<bool> = (0..n).map(|_| next() & 1 == 1).collect();
        let index_of = |pc: u64, h: u64| ((pc >> 2) ^ h) as usize & 0xf;

        let mut batch_table = PackedTwoBit::new(16, 2);
        let mut out = vec![false; n];
        batch_predict_train(&mut batch_table, &pcs, &bhrs, &takens, &mut out, index_of);

        let mut serial_table = PackedTwoBit::new(16, 2);
        for j in 0..n {
            let predicted = serial_table.predict_train(index_of(pcs[j], bhrs[j]), takens[j]);
            assert_eq!(out[j], predicted == takens[j], "record {j}");
        }
        assert_eq!(batch_table, serial_table);
    }

    #[test]
    fn batch_kernel_handles_empty_input() {
        let mut t = PackedTwoBit::new(4, 2);
        batch_predict_train(&mut t, &[], &[], &[], &mut [], |_, _| 0);
        assert_eq!(t, PackedTwoBit::new(4, 2));
    }
}
