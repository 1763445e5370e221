//! Scalar-vs-vector differential suite for the batched replay kernel.
//!
//! The vectorized kernel — lane-parallel history fill, SWAR pattern
//! tables, batched mechanism observe — must be **bit-identical** to the
//! per-record scalar loop for every predictor, mechanism, index function,
//! and initialization policy, at every trace length (including the chunk
//! boundary cases 0, 1, CHUNK−1, CHUNK, CHUNK+1 and lengths that are not
//! multiples of the 64-record lane group).
//!
//! The scalar side is pinned with [`ScalarKernel`] / [`ScalarObserve`],
//! which suppress the batched overrides so the trait-default per-record
//! loops run over the same driver. A seeded randomized sweep then samples
//! the spec grammar more broadly than the deterministic grid.

use cira_analysis::engine::replay::{replay_mechanisms, replay_predictor, StreamingReplay};
use cira_analysis::spec::{parse_init, parse_mechanism, parse_predictor, IndexForm};
use cira_core::{ConfidenceMechanism, ScalarObserve};
use cira_predictor::ScalarKernel;
use cira_trace::codec::PackedTrace;
use cira_trace::BranchRecord;

/// Mirrors the kernel's private chunk size; boundary lengths below assume
/// it. If the kernel's CHUNK changes, these still exercise interesting
/// splits — they just stop sitting exactly on the boundary.
const CHUNK: usize = 4096;

/// Lengths that historically break batched kernels: empty, single record,
/// one less / exactly / one more than a chunk, and a length that is
/// neither a chunk nor a lane-group multiple (777 and CHUNK − 1 also end
/// the TAGE block hasher on a short 64-record block).
const LENGTHS: [usize; 6] = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 777];

const PREDICTORS: [&str; 12] = [
    "gshare:10:10",
    "gshare:10:6",
    "gselect:10:4",
    "bimodal:10",
    "local:8:6",
    "agree:10:10:8",
    // TAGE-class: the block-hashed batch override against the per-record
    // scalar default (DESIGN.md §11). The 64k cells are the reference
    // shape: a length-64 component and three-step folds.
    "tage:10:4:2:32:9",
    "tage-sc-lite:10:4:2:32:9",
    "tage64k",
    "tage-sc-lite64k",
    "taken",
    "not-taken",
];

const MECHANISMS: [&str; 8] = [
    "cir:8",
    "ones-count:8",
    "saturating:16",
    "resetting:16",
    "two-level:pcxorbhr-cir",
    // Shadow-predictor mechanisms: the shadow's fused block replay
    // against the per-record read_key + update default.
    "self:tage:10:4:2:32:9",
    "self:tage64k",
    "self:tage-sc-lite64k",
];

const INDICES: [&str; 5] = ["pc:10", "bhr:10", "pcxorbhr:10", "pcconcatbhr:10", "gcir:6"];

const INITS: [&str; 4] = ["ones", "zeros", "lastbit", "random:7"];

fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut x = seed.max(1);
    move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    }
}

/// A synthetic trace with a small hot site set and per-site bias, so
/// pattern tables see both aliasing and learnable behavior.
fn synth_trace(seed: u64, len: usize) -> PackedTrace {
    let mut rng = xorshift(seed);
    (0..len)
        .map(|_| {
            let site = rng() % 97;
            let pc = 0x40_0000 + (site << 2);
            // Bias depends on the site: some near-always-taken, some noisy.
            let taken = rng() % 100 < 20 + (site * 7) % 75;
            BranchRecord::new(pc, taken)
        })
        .collect()
}

/// Runs one spec combination through the vectorized kernel and through the
/// scalar-pinned reference, asserting bit-identical buckets and run stats.
fn assert_scalar_vector_equal(
    trace: &PackedTrace,
    len: usize,
    predictor: &str,
    mechanism: &str,
    index: &str,
    init: &str,
) {
    let label = format!("{predictor} / {mechanism} @ {index} init {init} len {len}");
    let idx = || index.parse::<IndexForm>().unwrap().build();
    let pol = parse_init(init).unwrap();

    let mut vec_p = parse_predictor(predictor).unwrap();
    let mut vec_m = parse_mechanism(mechanism, idx(), pol).unwrap();
    let mut vec_refs: Vec<&mut dyn ConfidenceMechanism> = vec![&mut vec_m];
    let vectorized = replay_mechanisms(trace, len, &mut vec_p, &mut vec_refs).remove(0);

    let mut sc_p = ScalarKernel(parse_predictor(predictor).unwrap());
    let mut sc_m = ScalarObserve(parse_mechanism(mechanism, idx(), pol).unwrap());
    let mut sc_refs: Vec<&mut dyn ConfidenceMechanism> = vec![&mut sc_m];
    let scalar = replay_mechanisms(trace, len, &mut sc_p, &mut sc_refs).remove(0);

    assert_eq!(vectorized, scalar, "buckets diverge: {label}");

    let vec_run = replay_predictor(trace, len, &mut parse_predictor(predictor).unwrap());
    let sc_run = replay_predictor(
        trace,
        len,
        &mut ScalarKernel(parse_predictor(predictor).unwrap()),
    );
    assert_eq!(vec_run, sc_run, "predictor run diverges: {label}");
}

/// The deterministic grid: every predictor × mechanism × init at every
/// boundary length, over the fast-path index (PC⊕BHR).
#[test]
fn full_grid_boundary_lengths() {
    let trace = synth_trace(0xC1AA, CHUNK + 1);
    for predictor in PREDICTORS {
        for mechanism in MECHANISMS {
            for init in INITS {
                for len in LENGTHS {
                    assert_scalar_vector_equal(
                        &trace,
                        len,
                        predictor,
                        mechanism,
                        "pcxorbhr:10",
                        init,
                    );
                }
            }
        }
    }
}

/// Every index function — including the CIR-indexed forms that must take
/// the scalar interpreter path inside the mechanisms' batch loops.
#[test]
fn index_functions_cover_fast_and_slow_paths() {
    let trace = synth_trace(0xBEEF, CHUNK + 1);
    for index in INDICES {
        for mechanism in ["cir:8", "saturating:16", "resetting:16"] {
            assert_scalar_vector_equal(&trace, CHUNK + 1, "gshare:10:10", mechanism, index, "ones");
            assert_scalar_vector_equal(&trace, 777, "gshare:10:10", mechanism, index, "lastbit");
        }
    }
}

/// Seeded randomized sweep: ≥32 random spec/length combinations sampled
/// from the full grammar, so the grid's fixed points don't become the only
/// shapes the kernel is ever tested against. Deterministic seed — failures
/// reproduce exactly.
#[test]
fn randomized_spec_sweep() {
    let mut rng = xorshift(0x5EED_2026);
    let trace = synth_trace(0xF00D, 6 * 1024);
    for round in 0..32 {
        let predictor = PREDICTORS[rng() as usize % PREDICTORS.len()];
        let mechanism = MECHANISMS[rng() as usize % MECHANISMS.len()];
        let index = INDICES[rng() as usize % INDICES.len()];
        let init = INITS[rng() as usize % INITS.len()];
        let len = (rng() % (6 * 1024 + 1)) as usize;
        eprintln!("round {round}: {predictor} {mechanism} {index} {init} len {len}");
        assert_scalar_vector_equal(&trace, len, predictor, mechanism, index, init);
    }
}

/// Streaming replay fed in random batch splits must match the offline
/// scalar reference — the kernel, the chunking, and the BHR carry across
/// batch boundaries all at once.
#[test]
fn streaming_random_splits_match_scalar_reference() {
    let mut rng = xorshift(0x57_EA_11);
    let n = 10_000;
    let trace = synth_trace(0xCAFE, n);

    let idx = || "pcxorbhr:10".parse::<IndexForm>().unwrap().build();
    let pol = parse_init("ones").unwrap();

    for (predictor, mechanism) in [
        ("gshare:10:10", "resetting:16"),
        ("agree:10:10:8", "cir:8"),
        ("bimodal:10", "saturating:16"),
        ("local:8:6", "two-level:pcxorbhr-cir"),
        ("tage:10:4:2:32:9", "resetting:16"),
        ("tage-sc-lite:10:4:2:32:9", "self:tage-sc-lite:10:4:2:32:9"),
        ("tage64k", "self:tage64k"),
        ("tage-sc-lite64k", "self:tage-sc-lite64k"),
    ] {
        // Offline scalar reference over the whole trace.
        let mut sc_p = ScalarKernel(parse_predictor(predictor).unwrap());
        let mut sc_m = ScalarObserve(parse_mechanism(mechanism, idx(), pol).unwrap());
        let mut sc_refs: Vec<&mut dyn ConfidenceMechanism> = vec![&mut sc_m];
        let reference = replay_mechanisms(&trace, n, &mut sc_p, &mut sc_refs).remove(0);
        let ref_run = replay_predictor(
            &trace,
            n,
            &mut ScalarKernel(parse_predictor(predictor).unwrap()),
        );

        // Vectorized streaming side, fed in random uneven splits
        // (occasionally zero-length) with fresh state per split pattern.
        for trial in 0..4 {
            let mut streaming = StreamingReplay::new(
                parse_predictor(predictor).unwrap(),
                parse_mechanism(mechanism, idx(), pol).unwrap(),
            );
            let mut at = 0;
            while at < n {
                let len = match rng() % 5 {
                    0 => 0,
                    1 => 1 + (rng() % 64) as usize,
                    2 => CHUNK + (rng() % 128) as usize,
                    _ => 1 + (rng() % 3000) as usize,
                }
                .min(n - at);
                let batch: PackedTrace = (at..at + len).map(|i| trace.get(i).unwrap()).collect();
                streaming.feed(&batch);
                at += len;
            }
            let label = format!("{predictor} / {mechanism} trial {trial}");
            assert_eq!(streaming.stats(), &reference, "streaming stats: {label}");
            assert_eq!(streaming.run(), ref_run, "streaming run: {label}");
        }
    }
}
