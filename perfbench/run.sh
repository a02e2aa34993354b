#!/usr/bin/env bash
# Builds the release `serve` binary and the benchmark from this checkout,
# then runs one benchmark invocation with the given arguments:
#
#   bash perfbench/run.sh --workload cold_lmmir --seed 1 --seconds 30 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default: .bench_build at the
# repository root). The trained benchmark checkpoints are kept below it,
# and each run's pre-encoded designs live there until the run ends.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --offline --release --quiet -p lmmir-serve --bin serve >&2
cargo build --offline --release --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@" \
    --serve-bin "$CARGO_TARGET_DIR/release/serve" \
    --work-dir "$CARGO_TARGET_DIR/perfbench"
