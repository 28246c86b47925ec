#!/usr/bin/env bash
# Builds the benchmark and the server under test (release, offline), then runs one
# workload.  Run from the repository root:
#
#   bash perfbench/run.sh --workload serve_mixed --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; the last line of stdout is the result JSON.
set -euo pipefail
target="${CARGO_TARGET_DIR:-perfbench/target}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml --bins >&2
exec "$target/release/perfbench" "$@"
