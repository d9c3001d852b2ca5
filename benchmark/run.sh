#!/usr/bin/env bash
# Builds the benchmark twice (with and without the `obs` feature) and runs
# it from the repository root; all arguments go to `sepe-bench`.
#
#   bash benchmark/run.sh --workload serve-mixed --seed 1 --seconds 10 --trace 0
#   bash benchmark/run.sh compare <dir-a> <dir-b>
#
# Build output goes to $CARGO_TARGET_DIR (default benchmark/target).
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
manifest=benchmark/Cargo.toml
cargo build --release --quiet --manifest-path "$manifest" --target-dir "$target" 1>&2
cargo build --release --quiet --no-default-features --manifest-path "$manifest" \
    --target-dir "$target/obs-off" 1>&2
export SEPE_BENCH_OBS_OFF="$target/obs-off/release/sepe-bench"
exec "$target/release/sepe-bench" "$@"
