#!/usr/bin/env bash
# Builds the benchmark harness, and the qufi crates it links, in release
# mode, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload paper-noisy --seed 1 --seconds 8 --trace 0
#
# Run it from the repository root. Build output goes to stderr; the last
# line on stdout is the JSON result.
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --quiet --offline --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/perfbench" "$@"
