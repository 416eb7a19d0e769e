#!/usr/bin/env bash
# The benchmark's one entry command (see BENCHMARK.json and README.md):
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash benchmark/run.sh --agree [--seed <n>] [--seconds <s>]
#
# Builds the release `flor` binary from the repository's own manifest and
# the driver from benchmark/Cargo.toml (both offline, into one target
# directory), then runs the driver from the repository root. Everything it
# writes stays inside the checkout: the target directory and benchmark/out/.

set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
# Build chatter goes to stderr; stdout carries only the driver's report.
cargo build --release --offline --quiet --bin flor 1>&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2

exec "$CARGO_TARGET_DIR/release/flor-benchmark" \
    --flor "$CARGO_TARGET_DIR/release/flor" --out benchmark/out "$@"
