//! TAGE-class predictors (Seznec & Michaud, JILP 2006): a base bimodal
//! table plus tagged components indexed with geometrically increasing
//! global-history lengths.
//!
//! These predictors exist in this workspace to answer the question the
//! original paper could not ask: its confidence mechanisms sit beside a
//! gshare that has no opinion about its own reliability, whereas a TAGE
//! provider counter *is* a confidence estimate. [`Tage`] and
//! [`TageScLite`] report that self-assessment through
//! [`BranchPredictor::predict_full`] — the provider component and a
//! `0..=7` strength — so the analysis layer can run the paper's external
//! mechanisms head-to-head against the predictor's own signal.
//!
//! ## Design notes
//!
//! * **No internal history.** The driver owns the global history register
//!   and passes its value to every call (see the crate docs), so history
//!   lengths are capped at the driver's 64-bit BHR. The predictor state is
//!   tables + two policy counters only, which keeps `state_save` /
//!   `state_load` exact and makes `predict` pure.
//! * **One hash per record.** Each record's per-component index and tag
//!   are folded from `bhr` once, in a number of shift-XOR steps fixed by
//!   the configuration, into a `Hashes` value; one table walk over it
//!   yields the `Lookup`, and training reuses both. `predict_train`,
//!   `predict_train_full` and `update` therefore cost one hash and one
//!   walk each, and `predict` / `predict_full` are thin wrappers over
//!   the same path. The folds are closed-form in the driver's BHR — no
//!   folded-history registers are carried between records.
//! * **Deterministic allocation.** On a mispredict the allocator takes
//!   the first not-useful entry above the provider (no PRNG), so replays
//!   are bit-reproducible — the property every differential suite in
//!   this repo leans on.
//! * **Block-hashed batches, serial walks.** The batch hooks
//!   (`predict_train_batch`, `predict_full_train_batch`) work in
//!   64-record blocks: one hash routine folds every record's coordinates
//!   a component at a time, with the shift-XOR steps outside a flat loop
//!   over the block so it compiles to lane-parallel code; each record's
//!   tagged entries are prefetched a few records ahead; then the unchanged
//!   per-record walk and training run in order. Only the hashing is
//!   batched — a walk depends on every earlier record's training, so the
//!   walks stay serial (see DESIGN.md §11).

use crate::packed::{prefetch, BLOCK};
use crate::state::{put_u32, put_u32_slice, put_u64_slice, put_u8, StateReader};
use crate::{
    assert_batch_shape, mask, table_len, BranchPredictor, PackedTwoBit, Prediction, Provider,
};

/// Saturation bounds of the 3-bit signed provider counters.
const CTR_MIN: i8 = -4;
const CTR_MAX: i8 = 3;
/// Saturation bound of the 2-bit useful counters.
const U_MAX: u8 = 3;
/// Updates between useful-counter decays (every entry's `u` halves).
const TICK_PERIOD: u32 = 1 << 18;
/// `use_alt_on_na` is a 4-bit counter; alt is preferred at or above 8.
const USE_ALT_MAX: u8 = 15;
const USE_ALT_INIT: u8 = 8;
/// Records between a record's tagged-entry prefetch and its walk.
const PREFETCH_AHEAD: usize = 4;

/// One tagged-component entry: 3-bit signed direction counter, partial
/// tag, 2-bit useful counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct TaggedEntry {
    ctr: i8,
    tag: u16,
    u: u8,
}

/// A tagged component and the history length it folds.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Component {
    len: u32,
    entries: Vec<TaggedEntry>,
}

/// Everything one table read determines about a `(pc, bhr)` pair —
/// computed by the one walk `predict`, `predict_full`, and `update` all
/// share, which is what keeps the three views consistent.
#[derive(Debug, Clone, Copy)]
struct Lookup {
    /// Longest matching component (0-based) and its entry index.
    provider: Option<(usize, usize)>,
    /// Next-longest matching component; `None` means the base table.
    alt: Option<(usize, usize)>,
    provider_pred: bool,
    alt_pred: bool,
    /// Provider entry looks newly allocated (weak counter, not useful).
    newly_allocated: bool,
    /// Whether the alt prediction was used as the final direction.
    used_alt: bool,
    base_index: usize,
    base_state: u32,
    /// Final predicted direction.
    taken: bool,
}

/// A record's hashed table coordinates: the base index plus every tagged
/// component's entry index (at most 26 bits) and partial tag, computed
/// once per `(pc, bhr)` and shared by the lookup, the training, and the
/// allocator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Hashes {
    base: usize,
    index: [u32; Tage::MAX_COMPONENTS as usize],
    tag: [u16; Tage::MAX_COMPONENTS as usize],
}

/// Folds the low `len` bits of each of `bhrs` into `width` bits by XOR, in
/// the `⌈log2(⌈len / width⌉)⌉` shift-XOR steps the configuration implies
/// (the step count never depends on the history value): each step XORs
/// every `width`-bit chunk with the one `span` bits above it, doubling the
/// run of chunks the low chunk has absorbed. The steps are the outer loop
/// and the `N` histories the inner one, so a block folds lane-parallel.
#[inline(always)]
fn fold_doubling<const N: usize>(bhrs: &[u64; N], len: u32, width: u32) -> [u64; N] {
    let mut h = [0u64; N];
    for (x, &b) in h.iter_mut().zip(bhrs) {
        *x = b & mask(len);
    }
    let mut span = width;
    while span < len {
        for x in &mut h {
            *x ^= *x >> span;
        }
        span <<= 1;
    }
    for x in &mut h {
        *x &= mask(width);
    }
    h
}

/// Folds the low `len` bits of `bhr` into `width` bits by XOR — the
/// straightforward form, kept as the oracle for [`fold_doubling`].
#[cfg(test)]
fn fold(bhr: u64, len: u32, width: u32) -> u64 {
    let mut h = bhr & mask(len);
    let mut folded = 0u64;
    while h != 0 {
        folded ^= h & mask(width);
        h >>= width;
    }
    folded
}

/// Self-assessed confidence of a 3-bit provider counter: 0 (weak,
/// just-allocated) ..= 3 (saturated).
fn ctr_conf(ctr: i8) -> u8 {
    (((2 * i32::from(ctr) + 1).abs() - 1) / 2) as u8
}

/// Geometric history-length series: `lens[0] = min_len`,
/// `lens[n-1] = max_len`, strictly increasing (rounding collisions are
/// bumped up by one so every component sees distinct history).
fn geometric_lengths(ncomp: u32, min_len: u32, max_len: u32) -> Vec<u32> {
    let n = ncomp as usize;
    let ratio = (f64::from(max_len) / f64::from(min_len)).powf(1.0 / (n as f64 - 1.0));
    let mut lens = Vec::with_capacity(n);
    let mut prev = 0u32;
    for i in 0..n {
        let ideal = (f64::from(min_len) * ratio.powi(i as i32)).round() as u32;
        let len = ideal.clamp(prev + 1, max_len);
        lens.push(len);
        prev = len;
    }
    lens
}

/// The TAGE predictor: a bimodal base table plus `ncomp` tagged
/// components whose history lengths grow geometrically from `min_len`
/// to `max_len`.
///
/// Tagged components each hold `2^(base_bits - 2)` entries (so the
/// aggregate tagged storage stays within a small multiple of the base
/// table), tagged with `tag_bits`-bit partial tags and guarded by 2-bit
/// useful counters with periodic decay.
///
/// # Examples
///
/// ```
/// use cira_predictor::{BranchPredictor, Provider, Tage};
///
/// let mut p = Tage::reference_64k();
/// let full = p.predict_full(0x4000, 0b1011);
/// assert_eq!(full.taken, p.predict(0x4000, 0b1011));
/// assert!(full.strength <= cira_predictor::Prediction::MAX_STRENGTH);
/// p.update(0x4000, 0b1011, true);
/// # let _ = Provider::Base;
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tage {
    base: PackedTwoBit,
    comps: Vec<Component>,
    base_bits: u32,
    comp_bits: u32,
    min_len: u32,
    max_len: u32,
    tag_bits: u32,
    /// 4-bit policy counter: prefer the alternate prediction when the
    /// provider entry is newly allocated and this is >= 8.
    use_alt_on_na: u8,
    /// Updates since the last useful-counter decay.
    tick: u32,
}

impl Tage {
    /// Largest number of tagged components a TAGE predictor may have —
    /// the one bound [`Tage::new`] and the spec parser both enforce.
    pub const MAX_COMPONENTS: u32 = 12;

    /// Largest table footprint a TAGE predictor may allocate, in bytes
    /// (see [`Tage::table_bytes`]): 64 MiB, the most any other predictor
    /// spec can request (`gshare:28`). [`Tage::new`] and the spec parser
    /// both enforce it, so a parsed spec never asks for gigabytes.
    pub const MAX_TABLE_BYTES: u64 = 64 << 20;

    /// Bytes the tables of a `base_bits`/`ncomp` configuration occupy:
    /// `2^base_bits` two-bit base counters plus `ncomp` components of
    /// `2^(base_bits - 2)` four-byte entries. `base_bits` must be in
    /// `3..=28` (the range [`Tage::new`] accepts).
    pub const fn table_bytes(base_bits: u32, ncomp: u32) -> u64 {
        let entry = std::mem::size_of::<TaggedEntry>() as u64;
        (1 + ncomp as u64 * entry) << (base_bits - 2)
    }

    /// Creates a TAGE predictor.
    ///
    /// * `base_bits` — log2 entries of the base bimodal table (tagged
    ///   components get `base_bits - 2`).
    /// * `ncomp` — number of tagged components.
    /// * `min_len` / `max_len` — geometric history-length endpoints.
    /// * `tag_bits` — partial-tag width.
    ///
    /// # Panics
    ///
    /// Panics if `base_bits` is outside `3..=28`, `ncomp` outside
    /// `2..=`[`Tage::MAX_COMPONENTS`], the tables would exceed
    /// [`Tage::MAX_TABLE_BYTES`], `tag_bits` outside `4..=15`, the lengths
    /// do not satisfy `1 <= min_len < max_len <= 64`, or there are more
    /// components than distinct lengths in `min_len..=max_len`.
    pub fn new(base_bits: u32, ncomp: u32, min_len: u32, max_len: u32, tag_bits: u32) -> Self {
        assert!(
            (3..=28).contains(&base_bits),
            "tage base_bits must be 3..=28, got {base_bits}"
        );
        assert!(
            (2..=Self::MAX_COMPONENTS).contains(&ncomp),
            "tage component count must be 2..={}, got {ncomp}",
            Self::MAX_COMPONENTS
        );
        let bytes = Self::table_bytes(base_bits, ncomp);
        assert!(
            bytes <= Self::MAX_TABLE_BYTES,
            "tage tables need {bytes} bytes, more than the {} byte bound",
            Self::MAX_TABLE_BYTES
        );
        assert!(
            (4..=15).contains(&tag_bits),
            "tage tag_bits must be 4..=15, got {tag_bits}"
        );
        assert!(
            min_len >= 1 && min_len < max_len && max_len <= 64,
            "tage history lengths must satisfy 1 <= min ({min_len}) < max ({max_len}) <= 64"
        );
        assert!(
            max_len - min_len + 1 >= ncomp,
            "tage needs {ncomp} distinct history lengths in {min_len}..={max_len}"
        );
        let comp_bits = base_bits - 2;
        let comp_len = table_len(comp_bits);
        let comps = geometric_lengths(ncomp, min_len, max_len)
            .into_iter()
            .map(|len| Component {
                len,
                entries: vec![TaggedEntry::default(); comp_len],
            })
            .collect();
        cira_obs::debug!(
            "tage allocated",
            base_bits = base_bits,
            ncomp = ncomp,
            min_len = min_len,
            max_len = max_len
        );
        Self {
            // Weakly taken, matching the paper's gshare initialization.
            base: PackedTwoBit::new(table_len(base_bits), 2),
            comps,
            base_bits,
            comp_bits,
            min_len,
            max_len,
            tag_bits,
            use_alt_on_na: USE_ALT_INIT,
            tick: 0,
        }
    }

    /// The reference ~64 KiB-class configuration used by the committed
    /// experiments: `tage:14:7:4:64:11` (16K-entry base, 7 components of
    /// 4K entries, histories 4..64, 11-bit tags — ~60 KiB of state).
    pub fn reference_64k() -> Self {
        Self::new(14, 7, 4, 64, 11)
    }

    /// The geometric history lengths, shortest first.
    pub fn history_lengths(&self) -> Vec<u32> {
        self.comps.iter().map(|c| c.len).collect()
    }

    /// Hashes `N` records into every table coordinate each touches — the
    /// one hash routine: [`hashes`](Self::hashes) is its one-record case
    /// and the batch hooks run it on [`BLOCK`]-record blocks. It works one
    /// component at a time over all `N` records. The index folds the
    /// history to the component width; the tag folds it at two widths so
    /// it decorrelates from the index.
    #[inline(always)]
    fn hash_block<const N: usize>(&self, pcs: &[u64; N], bhrs: &[u64; N], out: &mut [Hashes; N]) {
        let mut pc2 = [0u64; N];
        for ((p, &pc), o) in pc2.iter_mut().zip(pcs).zip(out.iter_mut()) {
            *p = pc >> 2;
            o.base = (*p & mask(self.base_bits)) as usize;
        }
        for (c, comp) in self.comps.iter().enumerate() {
            let fi = fold_doubling(bhrs, comp.len, self.comp_bits);
            let f1 = fold_doubling(bhrs, comp.len, self.tag_bits);
            let f2 = fold_doubling(bhrs, comp.len, self.tag_bits - 1);
            for (i, (o, &p)) in out.iter_mut().zip(&pc2).enumerate() {
                o.index[c] = ((p ^ (p >> (1 + c as u32)) ^ fi[i]) & mask(self.comp_bits)) as u32;
                o.tag[c] = ((p ^ f1[i] ^ (f2[i] << 1)) & mask(self.tag_bits)) as u16;
            }
        }
    }

    /// Hashes `(pc, bhr)` into every table coordinate a record touches.
    fn hashes(&self, pc: u64, bhr: u64) -> Hashes {
        let mut h = [Hashes::default()];
        self.hash_block(&[pc], &[bhr], &mut h);
        h[0]
    }

    /// Prefetches the tagged entries a record's walk will read.
    #[inline]
    fn prefetch_entries(&self, h: &Hashes) {
        for (comp, &idx) in self.comps.iter().zip(&h.index) {
            prefetch(&comp.entries[idx as usize]);
        }
    }

    /// The pure table walk every prediction and update shares.
    fn lookup_with(&self, h: &Hashes) -> Lookup {
        let base_index = h.base;
        let base_state = self.base.state(base_index);
        let base_pred = base_state >= 2;

        let mut provider = None;
        let mut alt = None;
        for c in (0..self.comps.len()).rev() {
            let idx = h.index[c] as usize;
            if self.comps[c].entries[idx].tag == h.tag[c] {
                if provider.is_none() {
                    provider = Some((c, idx));
                } else {
                    alt = Some((c, idx));
                    break;
                }
            }
        }

        let alt_pred = match alt {
            Some((c, idx)) => self.comps[c].entries[idx].ctr >= 0,
            None => base_pred,
        };
        let (provider_pred, newly_allocated) = match provider {
            Some((c, idx)) => {
                let e = self.comps[c].entries[idx];
                (e.ctr >= 0, ctr_conf(e.ctr) == 0 && e.u == 0)
            }
            None => (base_pred, false),
        };
        let used_alt =
            provider.is_some() && newly_allocated && self.use_alt_on_na >= USE_ALT_INIT;
        let taken = if provider.is_none() || used_alt {
            alt_pred
        } else {
            provider_pred
        };
        Lookup {
            provider,
            alt,
            provider_pred,
            alt_pred,
            newly_allocated,
            used_alt,
            base_index,
            base_state,
            taken,
        }
    }

    /// Hash and walk in one step — the read half of every public call.
    fn lookup(&self, pc: u64, bhr: u64) -> (Hashes, Lookup) {
        let h = self.hashes(pc, bhr);
        let l = self.lookup_with(&h);
        (h, l)
    }

    /// Maps a lookup to the provenance-carrying [`Prediction`].
    fn prediction_of(&self, l: &Lookup) -> Prediction {
        let base_strength = |state: u32| if state == 0 || state == 3 { 3 } else { 1 };
        match l.provider {
            Some((c, idx)) if !l.used_alt => {
                let conf = ctr_conf(self.comps[c].entries[idx].ctr);
                let agree = if l.alt_pred == l.provider_pred { 4 } else { 0 };
                Prediction {
                    taken: l.taken,
                    provider: Provider::Tagged(c as u8 + 1),
                    strength: conf + agree,
                }
            }
            Some(_) => match l.alt {
                // A weak provider deferred to the alternate: provenance
                // follows the structure that supplied the direction.
                Some((c, idx)) => Prediction {
                    taken: l.taken,
                    provider: Provider::Tagged(c as u8 + 1),
                    strength: ctr_conf(self.comps[c].entries[idx].ctr),
                },
                None => Prediction {
                    taken: l.taken,
                    provider: Provider::Base,
                    strength: base_strength(l.base_state),
                },
            },
            None => Prediction {
                taken: l.taken,
                provider: Provider::Base,
                strength: base_strength(l.base_state),
            },
        }
    }

    /// Allocates (or ages) tagged entries after a mispredict, starting
    /// just above the provider. Deterministic: the first not-useful
    /// entry wins; if every candidate is useful, they all age instead.
    fn allocate(&mut self, above: usize, h: &Hashes, taken: bool) {
        for c in above..self.comps.len() {
            let idx = h.index[c] as usize;
            if self.comps[c].entries[idx].u == 0 {
                self.comps[c].entries[idx] = TaggedEntry {
                    ctr: if taken { 0 } else { -1 },
                    tag: h.tag[c],
                    u: 0,
                };
                return;
            }
        }
        for c in above..self.comps.len() {
            let e = &mut self.comps[c].entries[h.index[c] as usize];
            e.u = e.u.saturating_sub(1);
        }
    }

    /// Trains on the resolved direction, given the record's hashes and
    /// the walk taken over them *before* any training.
    fn update_with(&mut self, l: &Lookup, h: &Hashes, taken: bool) {
        if let Some((c, idx)) = l.provider {
            // The use-alt policy learns from cases where provider and
            // alternate disagreed on a newly allocated entry.
            if l.newly_allocated && l.provider_pred != l.alt_pred {
                if l.alt_pred == taken {
                    self.use_alt_on_na = (self.use_alt_on_na + 1).min(USE_ALT_MAX);
                } else {
                    self.use_alt_on_na = self.use_alt_on_na.saturating_sub(1);
                }
            }
            // Usefulness: the provider proved (or disproved) its worth
            // only where it disagreed with the alternate.
            if l.provider_pred != l.alt_pred {
                let e = &mut self.comps[c].entries[idx];
                if l.provider_pred == taken {
                    e.u = (e.u + 1).min(U_MAX);
                } else {
                    e.u = e.u.saturating_sub(1);
                }
            }
            let e = &mut self.comps[c].entries[idx];
            e.ctr = if taken {
                (e.ctr + 1).min(CTR_MAX)
            } else {
                (e.ctr - 1).max(CTR_MIN)
            };
        } else {
            self.base.train(l.base_index, taken);
        }
        if l.taken != taken {
            let above = l.provider.map_or(0, |(c, _)| c + 1);
            if above < self.comps.len() {
                self.allocate(above, h, taken);
            }
        }
        self.decay_tick();
    }

    /// Byte length of this configuration's [`BranchPredictor::state_save`]
    /// blob (fixed by the table sizes): the base words, each component's
    /// packed entries, `use_alt_on_na` and `tick`.
    fn state_len(&self) -> usize {
        let base = 4 + 8 * self.base.words().len();
        let comps: usize = self.comps.iter().map(|c| 4 + 4 * c.entries.len()).sum();
        base + comps + 1 + 4
    }

    /// Periodic graceful forgetting: every [`TICK_PERIOD`] updates, halve
    /// every useful counter so stale entries become reclaimable.
    fn decay_tick(&mut self) {
        self.tick += 1;
        if self.tick >= TICK_PERIOD {
            self.tick = 0;
            for comp in &mut self.comps {
                for e in &mut comp.entries {
                    e.u >>= 1;
                }
            }
        }
    }
}

/// Gives [`drive_blocks`] the TAGE core inside a predictor.
trait HasCore {
    fn core(&self) -> &Tage;
}

impl HasCore for Tage {
    fn core(&self) -> &Tage {
        self
    }
}

impl HasCore for TageScLite {
    fn core(&self) -> &Tage {
        &self.tage
    }
}

/// The block path behind every TAGE batch hook. Per [`BLOCK`] records:
/// hash them all with [`Tage::hash_block`], then, in record order,
/// prefetch the tagged entries of the record [`PREFETCH_AHEAD`] places
/// later and call `step(p, i, &hashes)` — record `i`'s serial walk and
/// training. The block scratch is a few KiB on the stack, reused by every
/// block of the batch.
fn drive_blocks<P: HasCore>(
    p: &mut P,
    pcs: &[u64],
    bhrs: &[u64],
    mut step: impl FnMut(&mut P, usize, &Hashes),
) {
    let mut hashes = [Hashes::default(); BLOCK];
    let (mut block_pcs, mut block_bhrs) = ([0u64; BLOCK], [0u64; BLOCK]);
    let mut start = 0;
    while start < pcs.len() {
        let len = BLOCK.min(pcs.len() - start);
        // A short final block keeps stale tail lanes; their hashes are
        // computed and never read.
        block_pcs[..len].copy_from_slice(&pcs[start..start + len]);
        block_bhrs[..len].copy_from_slice(&bhrs[start..start + len]);
        p.core().hash_block(&block_pcs, &block_bhrs, &mut hashes);
        let hashes = &hashes[..len];
        for h in hashes.iter().take(PREFETCH_AHEAD) {
            p.core().prefetch_entries(h);
        }
        for (i, h) in hashes.iter().enumerate() {
            if let Some(ahead) = hashes.get(i + PREFETCH_AHEAD) {
                p.core().prefetch_entries(ahead);
            }
            step(p, start + i, h);
        }
        start += len;
    }
}

impl BranchPredictor for Tage {
    fn predict(&self, pc: u64, bhr: u64) -> bool {
        self.lookup(pc, bhr).1.taken
    }

    fn predict_full(&self, pc: u64, bhr: u64) -> Prediction {
        self.prediction_of(&self.lookup(pc, bhr).1)
    }

    fn update(&mut self, pc: u64, bhr: u64, taken: bool) {
        let (h, l) = self.lookup(pc, bhr);
        self.update_with(&l, &h, taken);
    }

    fn predict_train(&mut self, pc: u64, bhr: u64, taken: bool) -> bool {
        let (h, l) = self.lookup(pc, bhr);
        self.update_with(&l, &h, taken);
        l.taken
    }

    fn predict_train_full(&mut self, pc: u64, bhr: u64, taken: bool) -> Prediction {
        let (h, l) = self.lookup(pc, bhr);
        let prediction = self.prediction_of(&l);
        self.update_with(&l, &h, taken);
        prediction
    }

    fn predict_train_batch(
        &mut self,
        pcs: &[u64],
        bhrs: &[u64],
        takens: &[bool],
        out_correct: &mut [bool],
    ) {
        assert_batch_shape(pcs, bhrs, takens, out_correct);
        drive_blocks(self, pcs, bhrs, |t, i, h| {
            let l = t.lookup_with(h);
            t.update_with(&l, h, takens[i]);
            out_correct[i] = l.taken == takens[i];
        });
    }

    fn predict_full_train_batch(
        &mut self,
        pcs: &[u64],
        bhrs: &[u64],
        correct: &[bool],
        strengths: &mut [u8],
    ) {
        assert_batch_shape(pcs, bhrs, correct, strengths);
        drive_blocks(self, pcs, bhrs, |t, i, h| {
            let l = t.lookup_with(h);
            strengths[i] = t.prediction_of(&l).strength;
            t.update_with(&l, h, l.taken == correct[i]);
        });
    }

    fn describe(&self) -> String {
        format!(
            "tage({},{}c,{}..{},tag{})",
            self.base_bits,
            self.comps.len(),
            self.min_len,
            self.max_len,
            self.tag_bits
        )
    }

    fn state_save(&self, out: &mut Vec<u8>) {
        put_u64_slice(out, self.base.words());
        for comp in &self.comps {
            let packed: Vec<u32> = comp
                .entries
                .iter()
                .map(|e| u32::from(e.ctr as u8) | (u32::from(e.u) << 8) | (u32::from(e.tag) << 16))
                .collect();
            put_u32_slice(out, &packed);
        }
        put_u8(out, self.use_alt_on_na);
        put_u32(out, self.tick);
    }

    fn state_load(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut r = StateReader::new(bytes);
        let words = r.u64_vec()?;
        let mut comps = Vec::with_capacity(self.comps.len());
        for (c, comp) in self.comps.iter().enumerate() {
            let packed = r.u32_vec()?;
            if packed.len() != comp.entries.len() {
                return Err(format!(
                    "tage component {c} restore: got {} entries, need {}",
                    packed.len(),
                    comp.entries.len()
                ));
            }
            let mut entries = Vec::with_capacity(packed.len());
            for (i, p) in packed.iter().enumerate() {
                let e = TaggedEntry {
                    ctr: (p & 0xff) as u8 as i8,
                    u: ((p >> 8) & 0xff) as u8,
                    tag: ((p >> 16) & 0xffff) as u16,
                };
                if !(CTR_MIN..=CTR_MAX).contains(&e.ctr)
                    || e.u > U_MAX
                    || u64::from(e.tag) > mask(self.tag_bits)
                {
                    return Err(format!(
                        "tage component {c} entry {i} out of range: {p:#x}"
                    ));
                }
                entries.push(e);
            }
            comps.push(entries);
        }
        let use_alt = r.u8()?;
        if use_alt > USE_ALT_MAX {
            return Err(format!("tage use_alt_on_na {use_alt} exceeds {USE_ALT_MAX}"));
        }
        let tick = r.u32()?;
        if tick >= TICK_PERIOD {
            return Err(format!("tage tick {tick} exceeds period {TICK_PERIOD}"));
        }
        r.finish()?;
        self.base.load_words(&words)?;
        for (comp, entries) in self.comps.iter_mut().zip(comps) {
            comp.entries = entries;
        }
        self.use_alt_on_na = use_alt;
        self.tick = tick;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// TAGE-SC-lite
// ---------------------------------------------------------------------

/// Loop-predictor table size (direct-mapped, 64 entries).
const LOOP_BITS: u32 = 6;
/// Loop-predictor tag width (bits 17..8 of the PC).
const LOOP_TAG_BITS: u32 = 10;
/// Loop confidence needed before the loop predictor overrides TAGE.
const LOOP_CONF_MAX: u8 = 3;
/// Replacement age assigned on allocation / successful use.
const LOOP_AGE_MAX: u8 = 7;

/// Statistical-corrector geometry: three 6-bit-counter tables indexed by
/// PC folded with 0, 8, and 16 bits of history.
const SC_TABLE_BITS: u32 = 10;
const SC_HIST: [u32; 3] = [0, 8, 16];
const SC_CTR_MIN: i8 = -32;
const SC_CTR_MAX: i8 = 31;
/// Corrector vote margin needed to overturn a weak TAGE prediction, and
/// the update margin below which its counters keep training.
const SC_THRESHOLD: i32 = 10;
/// TAGE strengths below this are "weak" and open to correction (i.e. the
/// provider counter is not saturated-with-agreement).
const SC_WEAK_STRENGTH: u8 = 4;

/// One loop-predictor entry: the branch repeats `dir` for `past` trips,
/// then goes the other way once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct LoopEntry {
    tag: u16,
    /// Learned trip count (0 = not yet observed).
    past: u16,
    /// Trips seen in the current iteration.
    curr: u16,
    /// Confidence that `past` is stable; predicts only when saturated.
    conf: u8,
    /// Replacement age (0 = reclaimable).
    age: u8,
    /// The repeated direction.
    dir: bool,
}

impl LoopEntry {
    /// Direction this entry predicts at its current trip position.
    fn predicts(&self) -> bool {
        if self.curr < self.past {
            self.dir
        } else {
            !self.dir
        }
    }
}

/// [`Tage`] plus two small side predictors, after TAGE-SC-L (Seznec,
/// CBP-4): a loop predictor that captures regular loop trip counts
/// beyond any history length, and a lightweight statistical corrector
/// that can overturn weak TAGE predictions when its per-branch
/// direction statistics strongly disagree.
///
/// The corrector is the "lite" GEHL form: three 6-bit-counter tables
/// over 0/8/16-bit folded histories, voting only against predictions
/// whose provider strength is below [`Prediction::MAX_STRENGTH`]'s
/// agreement band.
#[derive(Debug, Clone, PartialEq)]
pub struct TageScLite {
    tage: Tage,
    loops: Vec<LoopEntry>,
    sc: Vec<Vec<i8>>,
}

/// What the side predictors decided for one `(pc, bhr)` — pure, like
/// [`Tage::lookup`].
#[derive(Debug, Clone, Copy)]
struct ScLookup {
    /// Loop entry index.
    loop_idx: usize,
    /// Loop tag matched.
    loop_hit: bool,
    /// Loop predictor is confident enough to override.
    loop_overrides: bool,
    loop_pred: bool,
    /// Per-table corrector indices.
    sc_idx: [usize; 3],
    /// Corrector vote, centered on taken (> 0 leans taken).
    sc_sum: i32,
    /// Corrector overturned the (weak) TAGE direction.
    sc_overrides: bool,
    /// Final direction after both overrides.
    taken: bool,
}

/// Everything [`TageScLite`] reads for one record before training, given
/// the record's hashes: the TAGE core's walk, its prediction, the side
/// predictors' decision, and the final prediction.
#[derive(Debug, Clone, Copy)]
struct ScRead {
    lookup: Lookup,
    tage_pred: Prediction,
    sides: ScLookup,
    prediction: Prediction,
}

impl TageScLite {
    /// Creates a TAGE-SC-lite predictor; parameters and panics as in
    /// [`Tage::new`] (the loop and corrector tables are fixed-size).
    pub fn new(base_bits: u32, ncomp: u32, min_len: u32, max_len: u32, tag_bits: u32) -> Self {
        Self {
            tage: Tage::new(base_bits, ncomp, min_len, max_len, tag_bits),
            loops: vec![LoopEntry::default(); table_len(LOOP_BITS)],
            sc: SC_HIST
                .iter()
                .map(|_| vec![0i8; table_len(SC_TABLE_BITS)])
                .collect(),
        }
    }

    /// The reference ~64 KiB-class configuration (see
    /// [`Tage::reference_64k`]; loop + corrector add ~2.8 KiB).
    pub fn reference_64k() -> Self {
        Self {
            tage: Tage::reference_64k(),
            loops: vec![LoopEntry::default(); table_len(LOOP_BITS)],
            sc: SC_HIST
                .iter()
                .map(|_| vec![0i8; table_len(SC_TABLE_BITS)])
                .collect(),
        }
    }

    fn loop_tag(pc: u64) -> u16 {
        ((pc >> (2 + LOOP_BITS)) & mask(LOOP_TAG_BITS)) as u16
    }

    /// Pure side-predictor read, given TAGE's prediction for the pair.
    fn sc_lookup(&self, pc: u64, bhr: u64, tage_pred: &Prediction) -> ScLookup {
        let loop_idx = ((pc >> 2) & mask(LOOP_BITS)) as usize;
        let entry = self.loops[loop_idx];
        let loop_hit = entry.tag == Self::loop_tag(pc) && entry.age > 0;
        let loop_overrides = loop_hit && entry.conf >= LOOP_CONF_MAX && entry.past > 0;
        let loop_pred = entry.predicts();

        let mut sc_idx = [0usize; 3];
        let mut sc_sum = 0i32;
        for (t, &len) in SC_HIST.iter().enumerate() {
            let [folded] = fold_doubling(&[bhr], len, SC_TABLE_BITS);
            let idx = (((pc >> 2) ^ folded ^ (t as u64 * 0x9e37)) & mask(SC_TABLE_BITS)) as usize;
            sc_idx[t] = idx;
            sc_sum += 2 * i32::from(self.sc[t][idx]) + 1;
        }
        let sc_pred = sc_sum >= 0;
        let sc_overrides = !loop_overrides
            && tage_pred.strength < SC_WEAK_STRENGTH
            && sc_sum.abs() >= SC_THRESHOLD
            && sc_pred != tage_pred.taken;

        let taken = if loop_overrides {
            loop_pred
        } else if sc_overrides {
            sc_pred
        } else {
            tage_pred.taken
        };
        ScLookup {
            loop_idx,
            loop_hit,
            loop_overrides,
            loop_pred,
            sc_idx,
            sc_sum,
            sc_overrides,
            taken,
        }
    }

    /// One record's fused read over its hashes: a single TAGE walk, plus
    /// the side-predictor read over TAGE's prediction.
    fn read_with(&self, pc: u64, bhr: u64, h: &Hashes) -> ScRead {
        let lookup = self.tage.lookup_with(h);
        let tage_pred = self.tage.prediction_of(&lookup);
        let sides = self.sc_lookup(pc, bhr, &tage_pred);
        let prediction = if sides.loop_overrides {
            Prediction {
                taken: sides.taken,
                provider: Provider::Loop,
                strength: Prediction::MAX_STRENGTH,
            }
        } else if sides.sc_overrides {
            Prediction {
                taken: sides.taken,
                provider: Provider::Corrector,
                strength: (sides.sc_sum.unsigned_abs() / 4).min(7) as u8,
            }
        } else {
            tage_pred
        };
        ScRead {
            lookup,
            tage_pred,
            sides,
            prediction,
        }
    }

    /// Hashes and reads one record.
    fn read(&self, pc: u64, bhr: u64) -> (Hashes, ScRead) {
        let h = self.tage.hashes(pc, bhr);
        let r = self.read_with(pc, bhr, &h);
        (h, r)
    }

    /// Trains every structure on the resolved direction from the record's
    /// hashes and read, taken before any training.
    fn train(&mut self, pc: u64, h: &Hashes, r: &ScRead, taken: bool) {
        let s = &r.sides;
        // Loop predictor: train matched entries; allocate on a final
        // mispredict when the slot has aged out.
        let e = &mut self.loops[s.loop_idx];
        if s.loop_hit {
            if taken == e.dir {
                e.curr = e.curr.saturating_add(1);
                if e.past > 0 && e.curr > e.past {
                    // Ran past the learned trip count: not a stable loop.
                    e.conf = 0;
                    e.past = 0;
                }
            } else {
                if e.past == e.curr && e.past > 0 {
                    e.conf = (e.conf + 1).min(LOOP_CONF_MAX);
                } else {
                    e.conf = if e.past == 0 { 1 } else { 0 };
                }
                e.past = e.curr;
                e.curr = 0;
            }
            if s.loop_overrides {
                if s.loop_pred == taken {
                    e.age = LOOP_AGE_MAX;
                } else {
                    e.age = e.age.saturating_sub(1);
                }
            }
        } else if s.taken != taken {
            if e.age == 0 {
                // The mispredict that prompts allocation is typically the
                // loop *exit*, so the repeated direction is the opposite
                // of the outcome just observed.
                *e = LoopEntry {
                    tag: Self::loop_tag(pc),
                    past: 0,
                    curr: 0,
                    conf: 0,
                    age: LOOP_AGE_MAX,
                    dir: !taken,
                };
            } else {
                e.age -= 1;
            }
        }

        // Corrector: GEHL-style update on weak TAGE predictions whenever
        // the vote was wrong or inside the training margin.
        if r.tage_pred.strength < SC_WEAK_STRENGTH {
            let sc_pred = s.sc_sum >= 0;
            if sc_pred != taken || s.sc_sum.abs() < SC_THRESHOLD {
                for (t, &idx) in s.sc_idx.iter().enumerate() {
                    let c = &mut self.sc[t][idx];
                    *c = if taken {
                        (*c + 1).min(SC_CTR_MAX)
                    } else {
                        (*c - 1).max(SC_CTR_MIN)
                    };
                }
            }
        }

        // The TAGE core trains on its own prediction (allocation keys off
        // the tagged-path mispredict, not the overridden final).
        self.tage.update_with(&r.lookup, h, taken);
    }
}

impl BranchPredictor for TageScLite {
    fn predict(&self, pc: u64, bhr: u64) -> bool {
        self.read(pc, bhr).1.prediction.taken
    }

    fn predict_full(&self, pc: u64, bhr: u64) -> Prediction {
        self.read(pc, bhr).1.prediction
    }

    fn update(&mut self, pc: u64, bhr: u64, taken: bool) {
        let (h, r) = self.read(pc, bhr);
        self.train(pc, &h, &r, taken);
    }

    fn predict_train(&mut self, pc: u64, bhr: u64, taken: bool) -> bool {
        let (h, r) = self.read(pc, bhr);
        self.train(pc, &h, &r, taken);
        r.prediction.taken
    }

    fn predict_train_full(&mut self, pc: u64, bhr: u64, taken: bool) -> Prediction {
        let (h, r) = self.read(pc, bhr);
        self.train(pc, &h, &r, taken);
        r.prediction
    }

    fn predict_train_batch(
        &mut self,
        pcs: &[u64],
        bhrs: &[u64],
        takens: &[bool],
        out_correct: &mut [bool],
    ) {
        assert_batch_shape(pcs, bhrs, takens, out_correct);
        drive_blocks(self, pcs, bhrs, |s, i, h| {
            let r = s.read_with(pcs[i], bhrs[i], h);
            s.train(pcs[i], h, &r, takens[i]);
            out_correct[i] = r.prediction.taken == takens[i];
        });
    }

    fn predict_full_train_batch(
        &mut self,
        pcs: &[u64],
        bhrs: &[u64],
        correct: &[bool],
        strengths: &mut [u8],
    ) {
        assert_batch_shape(pcs, bhrs, correct, strengths);
        drive_blocks(self, pcs, bhrs, |s, i, h| {
            let r = s.read_with(pcs[i], bhrs[i], h);
            strengths[i] = r.prediction.strength;
            s.train(pcs[i], h, &r, r.prediction.taken == correct[i]);
        });
    }

    fn describe(&self) -> String {
        format!(
            "tage-sc-lite({},{}c,{}..{},tag{})",
            self.tage.base_bits,
            self.tage.comps.len(),
            self.tage.min_len,
            self.tage.max_len,
            self.tage.tag_bits
        )
    }

    fn state_save(&self, out: &mut Vec<u8>) {
        self.tage.state_save(out);
        let packed: Vec<u64> = self
            .loops
            .iter()
            .map(|e| {
                u64::from(e.tag)
                    | (u64::from(e.past) << 16)
                    | (u64::from(e.curr) << 32)
                    | (u64::from(e.conf) << 48)
                    | (u64::from(e.age) << 51)
                    | (u64::from(e.dir) << 59)
            })
            .collect();
        put_u64_slice(out, &packed);
        for table in &self.sc {
            let packed: Vec<u32> = table.iter().map(|&c| u32::from(c as u8)).collect();
            put_u32_slice(out, &packed);
        }
    }

    fn state_load(&mut self, bytes: &[u8]) -> Result<(), String> {
        // The TAGE core consumed a prefix of the blob, whose length the
        // configuration fixes; re-frame it so the core's reader sees
        // exactly its own bytes.
        let core_len = self.tage.state_len();
        if bytes.len() < core_len {
            return Err(format!(
                "tage-sc-lite blob truncated: {} bytes, core alone needs {core_len}",
                bytes.len()
            ));
        }
        let (core_bytes, rest) = bytes.split_at(core_len);

        let mut r = StateReader::new(rest);
        let packed_loops = r.u64_vec()?;
        if packed_loops.len() != self.loops.len() {
            return Err(format!(
                "loop table restore: got {} entries, need {}",
                packed_loops.len(),
                self.loops.len()
            ));
        }
        let mut loops = Vec::with_capacity(packed_loops.len());
        for (i, p) in packed_loops.iter().enumerate() {
            let e = LoopEntry {
                tag: (p & 0xffff) as u16,
                past: ((p >> 16) & 0xffff) as u16,
                curr: ((p >> 32) & 0xffff) as u16,
                conf: ((p >> 48) & 0x7) as u8,
                age: ((p >> 51) & 0xff) as u8,
                dir: (p >> 59) & 1 == 1,
            };
            if u64::from(e.tag) > mask(LOOP_TAG_BITS)
                || e.conf > LOOP_CONF_MAX
                || e.age > LOOP_AGE_MAX
                || p >> 60 != 0
            {
                return Err(format!("loop entry {i} out of range: {p:#x}"));
            }
            loops.push(e);
        }
        let mut sc = Vec::with_capacity(self.sc.len());
        for (t, table) in self.sc.iter().enumerate() {
            let packed = r.u32_vec()?;
            if packed.len() != table.len() {
                return Err(format!(
                    "corrector table {t} restore: got {} entries, need {}",
                    packed.len(),
                    table.len()
                ));
            }
            let mut counters = Vec::with_capacity(packed.len());
            for (i, p) in packed.iter().enumerate() {
                let c = (p & 0xff) as u8 as i8;
                if *p > 0xff || !(SC_CTR_MIN..=SC_CTR_MAX).contains(&c) {
                    return Err(format!("corrector table {t} entry {i} out of range: {p:#x}"));
                }
                counters.push(c);
            }
            sc.push(counters);
        }
        r.finish()?;
        self.tage.state_load(core_bytes)?;
        self.loops = loops;
        self.sc = sc;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Gshare, HistoryRegister};

    #[test]
    fn geometric_lengths_hit_endpoints_and_increase() {
        let lens = geometric_lengths(7, 4, 64);
        assert_eq!(lens.first(), Some(&4));
        assert_eq!(lens.last(), Some(&64));
        assert!(lens.windows(2).all(|w| w[0] < w[1]), "{lens:?}");
        // Degenerate-adjacent case: every length distinct even when the
        // rounding collides.
        let tight = geometric_lengths(5, 2, 8);
        assert!(tight.windows(2).all(|w| w[0] < w[1]), "{tight:?}");
    }

    #[test]
    fn fold_compresses_history() {
        assert_eq!(fold(0, 64, 8), 0);
        assert_eq!(fold(0b1111_0110_1010, 12, 4), 0b1111 ^ 0b0110 ^ 0b1010);
        // Only the low `len` bits participate.
        assert_eq!(fold(u64::MAX, 4, 8), 0xf);
    }

    /// `fold_doubling` is `fold` for every length/width pair either can
    /// be asked for, on random histories.
    #[test]
    fn doubling_fold_matches_fold() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for len in 0..=64 {
            for width in 1..=26 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let (fast, slow) = (fold_doubling(&[x], len, width)[0], fold(x, len, width));
                assert_eq!(fast, slow, "{len}/{width}");
            }
        }
        assert_eq!(fold_doubling(&[u64::MAX], 64, 11), [fold(u64::MAX, 64, 11)]);
    }

    /// `tage64k` and the edge configurations the hash tests cover: a
    /// history as long as the whole BHR, and histories shorter than the
    /// index or tag width.
    fn oracle_configs() -> [Tage; 4] {
        let configs = [
            Tage::reference_64k(),
            // len == 64 on the last component, 12 components.
            Tage::new(16, Tage::MAX_COMPONENTS, 1, 64, 15),
            // Every length below the 8-bit index and 12-bit tag widths.
            Tage::new(10, 3, 1, 7, 12),
            // Lengths straddling the width, minimum tag width.
            Tage::new(6, 2, 3, 5, 4),
        ];
        assert_eq!(configs[0].history_lengths().last(), Some(&64));
        assert_eq!(configs[1].history_lengths().last(), Some(&64));
        configs
    }

    /// Asserts `h` is the `fold`-based base index, index and tag of every
    /// component of `p` for `(pc, bhr)`.
    fn assert_matches_fold_oracle(p: &Tage, pc: u64, bhr: u64, h: &Hashes) {
        let name = p.describe();
        let pc2 = pc >> 2;
        assert_eq!(h.base, (pc2 & mask(p.base_bits)) as usize, "{name}");
        for (c, comp) in p.comps.iter().enumerate() {
            let fi = fold(bhr, comp.len, p.comp_bits);
            let index = (pc2 ^ (pc2 >> (1 + c as u32)) ^ fi) & mask(p.comp_bits);
            assert_eq!(u64::from(h.index[c]), index, "{name} c{c}");
            let f1 = fold(bhr, comp.len, p.tag_bits);
            let f2 = fold(bhr, comp.len, p.tag_bits - 1) << 1;
            let tag = (pc2 ^ f1 ^ f2) & mask(p.tag_bits);
            assert_eq!(u64::from(h.tag[c]), tag, "{name} c{c}");
        }
    }

    /// The per-record hashes equal the `fold`-based index and tag for
    /// every component of every oracle configuration.
    #[test]
    fn hashes_match_fold_oracle() {
        let mut x = 77u64;
        for p in &oracle_configs() {
            for _ in 0..2000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let (pc, bhr) = (x.rotate_left(23), x);
                assert_matches_fold_oracle(p, pc, bhr, &p.hashes(pc, bhr));
            }
        }
    }

    /// The hashes the block driver hands each record — full 64-record
    /// blocks and a short final block — equal the per-record `hashes()`
    /// and the `fold` oracle, and arrive once per record, in order.
    #[test]
    fn block_hashes_match_per_record_hashes_and_fold_oracle() {
        let mut x = 0x5eed_u64;
        for mut p in oracle_configs() {
            let n = 2 * BLOCK + 37;
            let (mut pcs, mut bhrs) = (Vec::new(), Vec::new());
            for _ in 0..n {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                pcs.push(x.rotate_left(23));
                bhrs.push(x);
            }
            let mut seen = Vec::new();
            drive_blocks(&mut p, &pcs, &bhrs, |_, i, h| seen.push((i, *h)));
            assert_eq!(seen.len(), n, "{}", p.describe());
            for (k, (i, h)) in seen.iter().enumerate() {
                assert_eq!(*i, k, "{}", p.describe());
                assert_eq!(*h, p.hashes(pcs[k], bhrs[k]), "{} record {k}", p.describe());
                assert_matches_fold_oracle(&p, pcs[k], bhrs[k], h);
            }
        }
    }

    #[test]
    fn state_len_is_the_saved_length() {
        for p in [Tage::reference_64k(), Tage::new(6, 2, 2, 8, 6)] {
            let mut blob = Vec::new();
            p.state_save(&mut blob);
            assert_eq!(p.state_len(), blob.len(), "{}", p.describe());
        }
    }

    #[test]
    fn ctr_conf_scale() {
        assert_eq!(ctr_conf(0), 0);
        assert_eq!(ctr_conf(-1), 0);
        assert_eq!(ctr_conf(3), 3);
        assert_eq!(ctr_conf(-4), 3);
        assert_eq!(ctr_conf(1), 1);
        assert_eq!(ctr_conf(-2), 1);
    }

    #[test]
    #[should_panic(expected = "component count")]
    fn too_few_components_rejected() {
        Tage::new(10, 1, 2, 32, 8);
    }

    #[test]
    #[should_panic(expected = "byte bound")]
    fn oversized_tables_rejected() {
        Tage::new(28, 12, 1, 64, 15);
    }

    #[test]
    fn table_bound_admits_the_largest_gshare_footprint() {
        assert_eq!(Tage::table_bytes(14, 7), (16 << 10) / 4 + 7 * 4 * (4 << 10));
        // gshare:28 is 2^28 two-bit counters: exactly the bound.
        assert_eq!(Tage::MAX_TABLE_BYTES, (1u64 << 28) / 4);
        assert!(Tage::table_bytes(22, Tage::MAX_COMPONENTS) <= Tage::MAX_TABLE_BYTES);
        assert!(Tage::table_bytes(23, 8) > Tage::MAX_TABLE_BYTES);
    }

    #[test]
    #[should_panic(expected = "1 <= min")]
    fn inverted_history_lengths_rejected() {
        Tage::new(10, 4, 32, 32, 8);
    }

    #[test]
    fn describe_strings() {
        assert_eq!(Tage::reference_64k().describe(), "tage(14,7c,4..64,tag11)");
        assert_eq!(
            TageScLite::new(10, 4, 2, 32, 9).describe(),
            "tage-sc-lite(10,4c,2..32,tag9)"
        );
    }

    #[test]
    fn predict_is_projection_of_predict_full() {
        let mut p = Tage::new(8, 4, 2, 24, 8);
        let mut x = 11u64;
        for _ in 0..3000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let (pc, bhr, taken) = (x & 0xffff, x >> 16, x >> 63 == 1);
            let full = p.predict_full(pc, bhr);
            assert_eq!(full.taken, p.predict(pc, bhr));
            assert!(full.strength <= Prediction::MAX_STRENGTH);
            p.update(pc, bhr, taken);
        }
    }

    #[test]
    fn learns_long_history_patterns_gshare_cannot() {
        // Loop with trip count 40: the full pattern needs ~41 bits of
        // history. gshare(12,12) cannot disambiguate the exit; a TAGE
        // component at length >= 41 can.
        let run = |p: &mut dyn BranchPredictor| {
            let mut bhr = HistoryRegister::new(64);
            let mut wrong_late = 0u32;
            for i in 0..40_000u64 {
                let taken = i % 41 != 40;
                let pred = p.predict_train(0x80, bhr.value(), taken);
                if i > 20_000 && pred != taken {
                    wrong_late += 1;
                }
                bhr.push(taken);
            }
            wrong_late
        };
        let mut tage = Tage::new(10, 6, 4, 64, 10);
        let mut gshare = Gshare::new(12, 12);
        let tage_wrong = run(&mut tage);
        let gshare_wrong = run(&mut gshare);
        assert!(
            tage_wrong < 25,
            "tage should learn the trip-41 loop, got {tage_wrong} late mispredicts"
        );
        assert!(
            gshare_wrong > 200,
            "gshare(12,12) should keep missing the exit, got {gshare_wrong}"
        );
    }

    #[test]
    fn provider_moves_off_base_as_components_allocate() {
        let mut p = Tage::new(8, 4, 2, 24, 8);
        let mut bhr = HistoryRegister::new(64);
        let mut tagged_seen = false;
        for i in 0..5000u64 {
            let taken = i % 3 == 0;
            let full = p.predict_full(0x40, bhr.value());
            if matches!(full.provider, Provider::Tagged(_)) {
                tagged_seen = true;
            }
            p.update(0x40, bhr.value(), taken);
            bhr.push(taken);
        }
        assert!(tagged_seen, "no tagged component ever provided");
    }

    #[test]
    fn loop_predictor_catches_trips_beyond_any_history() {
        // Trip count 100 exceeds the 64-bit BHR, so the tagged components
        // cannot see the exit coming — only the loop predictor can.
        let run = |p: &mut dyn BranchPredictor| {
            let mut bhr = HistoryRegister::new(64);
            let mut wrong_late = 0u32;
            for i in 0..60_000u64 {
                let taken = i % 101 != 100;
                let pred = p.predict_train(0x80, bhr.value(), taken);
                if i > 30_000 && pred != taken {
                    wrong_late += 1;
                }
                bhr.push(taken);
            }
            wrong_late
        };
        let scl_wrong = run(&mut TageScLite::new(10, 4, 4, 64, 10));
        let tage_wrong = run(&mut Tage::new(10, 4, 4, 64, 10));
        assert!(
            scl_wrong < tage_wrong,
            "loop predictor should beat plain tage on a trip-101 loop: \
             sc-lite {scl_wrong} vs tage {tage_wrong}"
        );
        assert!(scl_wrong < 30, "sc-lite late mispredicts: {scl_wrong}");
    }

    #[test]
    fn loop_provider_reported_when_overriding() {
        let mut p = TageScLite::new(10, 4, 4, 64, 10);
        let mut bhr = HistoryRegister::new(64);
        let mut loop_seen = false;
        for i in 0..60_000u64 {
            let taken = i % 101 != 100;
            if p.predict_full(0x80, bhr.value()).provider == Provider::Loop {
                loop_seen = true;
            }
            p.update(0x80, bhr.value(), taken);
            bhr.push(taken);
        }
        assert!(loop_seen, "loop predictor never became the provider");
    }

    /// Drives `n` synthetic branches through a predictor, mixing several
    /// PCs and outcome patterns so tagged components, the loop table,
    /// and the corrector all see traffic.
    fn exercise(p: &mut dyn BranchPredictor, n: u64, seed: u64) {
        let mut bhr = HistoryRegister::new(64);
        let mut x = seed | 1;
        for i in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let pc = 0x40 + (x % 23) * 4;
            let taken = match x % 3 {
                0 => i % 7 != 6,
                1 => x & 8 == 0,
                _ => i % 41 != 40,
            };
            p.predict_train(pc, bhr.value(), taken);
            bhr.push(taken);
        }
    }

    #[test]
    fn state_round_trips_bit_identically() {
        for (a, b) in [
            (
                Box::new(Tage::new(8, 4, 2, 24, 8)) as Box<dyn BranchPredictor>,
                Box::new(Tage::new(8, 4, 2, 24, 8)) as Box<dyn BranchPredictor>,
            ),
            (
                Box::new(TageScLite::new(8, 4, 2, 24, 8)),
                Box::new(TageScLite::new(8, 4, 2, 24, 8)),
            ),
        ] {
            let (mut trained, mut fresh) = (a, b);
            exercise(&mut *trained, 20_000, 0xc1a0);
            let mut blob = Vec::new();
            trained.state_save(&mut blob);
            fresh.state_load(&blob).unwrap();
            // Same future behavior and identical re-saved bytes.
            let mut blob2 = Vec::new();
            fresh.state_save(&mut blob2);
            assert_eq!(blob, blob2, "{}", trained.describe());
            exercise(&mut *trained, 5_000, 7);
            exercise(&mut *fresh, 5_000, 7);
            let mut after_a = Vec::new();
            let mut after_b = Vec::new();
            trained.state_save(&mut after_a);
            fresh.state_save(&mut after_b);
            assert_eq!(after_a, after_b, "{}", trained.describe());
        }
    }

    #[test]
    fn state_load_rejects_corruption() {
        let mut p = Tage::new(8, 4, 2, 24, 8);
        exercise(&mut p, 5_000, 3);
        let mut blob = Vec::new();
        p.state_save(&mut blob);

        let mut fresh = Tage::new(8, 4, 2, 24, 8);
        assert!(fresh.state_load(&blob[..blob.len() - 1]).is_err());
        assert!(fresh.state_load(&[]).is_err());
        let mut extended = blob.clone();
        extended.push(0);
        assert!(fresh.state_load(&extended).is_err());
        // A differently configured instance must refuse the blob.
        let mut other = Tage::new(10, 4, 2, 24, 8);
        assert!(other.state_load(&blob).is_err());

        let mut scl = TageScLite::new(8, 4, 2, 24, 8);
        let mut scl_blob = Vec::new();
        scl.state_save(&mut scl_blob);
        assert!(scl.state_load(&scl_blob[..scl_blob.len() - 3]).is_err());
    }

    #[test]
    fn useful_counters_decay_on_tick() {
        let mut p = Tage::new(6, 2, 2, 8, 6);
        // Force a useful entry, then cross the tick boundary.
        p.comps[0].entries[0].u = 3;
        p.tick = TICK_PERIOD - 1;
        p.update(0x1234, 0, true);
        assert_eq!(p.comps[0].entries[0].u, 1, "u should halve on decay");
        assert_eq!(p.tick, 0);
    }
}
