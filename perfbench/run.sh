#!/usr/bin/env bash
# Builds the benchmark from source, then runs it with the given arguments:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the repository root. Build output goes to stderr, so the last
# line of standard output is the benchmark's JSON result.
set -euo pipefail
target="${CARGO_TARGET_DIR:-perfbench/target}"
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path perfbench/Cargo.toml 1>&2
exec "$target/release/perfbench" "$@"
