#!/usr/bin/env bash
# Builds the rota-cli service and the benchmark from source, then runs
# the benchmark with the given arguments, for example:
#
#   bash admbench/run.sh --workload mixed-small --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build output goes to
# $CARGO_TARGET_DIR (default .bench_build); spans of traced runs go to
# .bench_out. The last line of standard output is the JSON result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

cargo build --release --offline --quiet -p rota-cli >&2
cargo build --release --offline --quiet --manifest-path admbench/Cargo.toml >&2

exec "$CARGO_TARGET_DIR/release/admbench" --cli "$CARGO_TARGET_DIR/release/rota-cli" "$@"
