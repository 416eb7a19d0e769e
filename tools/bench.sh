#!/usr/bin/env bash
# Microbenchmark runner for the layers the end-to-end benchmark under
# benchmark/ cannot see. From the repo root:
#
#   ./tools/bench.sh            # full run: refresh the committed BENCH_*.json
#   ./tools/bench.sh --quick    # CI smoke: quick runs written under target/
#
# Emits three committed artifacts at the repo root so future PRs can be
# held to the trajectory:
#   BENCH_replay_sched.json — replay scheduling: the cost-aware work-stealing
#                             executor priced against the paper's static
#                             contiguous partitioning model
#   BENCH_interp.json       — replay interpreter: tree-walking AST executor vs
#                             the bytecode VM, plus cold-compile vs
#                             cached-module fetch costs
#   BENCH_serve.json        — async query service over real sockets: 1 vs 16
#                             closed-loop clients under an emulated 2ms RTT,
#                             admission-control overhead and shedding, and
#                             fresh-replay TTFE beside a jammed slow reader
#
# Every BENCH_*.json at the root must have a producer here and a band in
# tools/ci.sh (ci.sh checks both).

set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
if [[ "${1:-}" == "--quick" ]]; then
    QUICK=1
fi

run() {
    echo
    echo "==> $*"
    "$@"
}

# Full runs refresh the committed BENCH_*.json; quick (CI smoke) runs
# write under target/ so they never dirty the tree.
SCHED_OUT=BENCH_replay_sched.json
INTERP_OUT=BENCH_interp.json
SERVE_OUT=BENCH_serve.json
if [[ "$QUICK" == "1" ]]; then
    SCHED_OUT=target/BENCH_replay_sched.quick.json
    INTERP_OUT=target/BENCH_interp.quick.json
    SERVE_OUT=target/BENCH_serve.quick.json
fi
FLOR_BENCH_QUICK="$QUICK" run cargo run --release -p flor-bench --bin bench_replay_sched -- "$SCHED_OUT"
FLOR_BENCH_QUICK="$QUICK" run cargo run --release -p flor-bench --bin bench_interp -- "$INTERP_OUT"
FLOR_BENCH_QUICK="$QUICK" run cargo run --release -p flor-bench --bin bench_serve -- "$SERVE_OUT"

echo
echo "bench: OK ($SCHED_OUT, $INTERP_OUT, $SERVE_OUT written)"
