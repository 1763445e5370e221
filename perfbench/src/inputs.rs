//! Workload inputs, made from the `--seed` argument alone: the program
//! under test receives only the generated traces.

use cira_trace::codec::PackedTrace;
use cira_trace::suite::{suite_profiles, Benchmark};

/// splitmix64: decorrelates neighbouring seeds.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The ten-benchmark suite with every run seed derived from `seed`.
pub fn suite(seed: u64) -> Vec<Benchmark> {
    suite_profiles()
        .into_iter()
        .enumerate()
        .map(|(i, p)| Benchmark::new(p, mix(seed ^ mix(i as u64 + 1))))
        .collect()
}

/// `count` distinct session traces of `records` records each, cycling
/// through the suite's benchmarks, each walked from its own seed.
pub fn session_traces(seed: u64, count: usize, records: usize) -> Vec<PackedTrace> {
    let suite = suite(seed);
    (0..count)
        .map(|k| {
            let bench = &suite[k % suite.len()];
            bench
                .walker_with_seed(mix(seed.wrapping_add(0x5e55_1011 + k as u64)))
                .take(records)
                .collect()
        })
        .collect()
}
