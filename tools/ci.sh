#!/usr/bin/env bash
# Tier-1 gate for flor-rs. Run from the repo root:
#
#   ./tools/ci.sh          # build + test + clippy + the gates below
#
# Everything is offline: external dependencies are vendored under
# crates/vendor/, so no network or cargo registry is required.

set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo
    echo "==> $*"
    "$@"
}

# Production lines of a file: everything above its first `#[cfg(test)]`,
# so test-only items belong at the end of a file, beside its test module.
prod_calls() {
    local pattern="$1"
    shift
    find "$@" -name '*.rs' -print0 | xargs -0 awk -v pat="$pattern" \
        'FNR == 1 { in_test = 0 } /^#\[cfg\(test\)\]/ { in_test = 1 }
         !in_test && !/^[[:space:]]*\/\// && index($0, pat) { print FILENAME ":" FNR ": " $0 }'
}

# Test-tail gate: `prod_calls` reads everything after a file's first
# `#[cfg(test)]` as test code, so every top-level item after it must be
# test-only itself (carry its own `#[cfg(test)]`); a production item
# there would be hidden from every gate built on `prod_calls`. Items are
# found by rustfmt's layout: an item starts at column 0 and a braced one
# ends at the next column-0 `}`. A multi-line string literal with a
# column-0 `}` ends its item early and fails the gate loudly.
echo
echo "==> test-tail gate (every item after a file's first #[cfg(test)] is test-only)"
tail_bad=$(find crates -path crates/vendor -prune -o -name '*.rs' -print0 | xargs -0 awk '
    FNR == 1 { seen = 0; pending = 0; state = "between" }
    state == "brace" { if ($0 ~ /^}/) state = "between"; next }
    state == "stmt" {
        if ($0 ~ /^[^[:space:]].*\{[[:space:]]*$/) state = "brace"
        else if ($0 ~ /^[^[:space:]].*;[[:space:]]*$/) state = "between"
        next
    }
    /^#\[cfg\(test\)\]/ { seen = 1; pending = 1; next }
    /^(#|\/\/|\)|\]|}|[[:space:]]|$)/ { next }
    {
        if (seen && !pending) print FILENAME ":" FNR ": " $0
        pending = 0
        if ($0 ~ /\{[[:space:]]*$/) state = "brace"
        else if ($0 ~ /(;|})[[:space:]]*$/) state = "between"
        else state = "stmt"
    }')
if [[ -n "$tail_bad" ]]; then
    echo "$tail_bad" >&2
    echo "test-tail gate: move production items above the file's first #[cfg(test)], or mark them #[cfg(test)]" >&2
    exit 1
fi
echo "test-tail gate: OK"

run cargo build --release
run cargo test -q
# The end-to-end benchmark is a package of its own (not a workspace
# member) built against the crates' public APIs: build and test it here so
# an API change that breaks it fails this gate.
run cargo test --release --offline --manifest-path benchmark/Cargo.toml
run cargo clippy --workspace --all-targets -- -D warnings
run cargo fmt --check
# Rustdoc gate: no broken, private or ambiguous intra-doc link. Narrowing
# an item to `pub(crate)` turns every public doc link to it into a warning.
RUSTDOCFLAGS="-D warnings" run cargo doc --workspace --no-deps

# Public-surface gate: a `pub fn` is an interface another crate calls, and
# `pub` exempts an item from the dead-code lint the clippy gate enforces.
# So every production `pub fn` of a non-vendor crate must be named outside
# that crate: in another crate's src/, a crates/*/tests/ file, a binary of
# its own package (src/bin/*, src/main.rs), or the root tests/, examples/,
# src/ or benchmark/src. Anything else is `pub(crate)`. The search is by
# whole word, so a common name counts as used wherever it appears.
# Exceptions go in SURFACE_ALLOW as `crate:name`, each with a comment that
# says how the outside reaches it (e.g. only through a renaming `pub use`).
SURFACE_ALLOW=(
)
echo
echo "==> public-surface gate (every production pub fn is named outside its crate)"
surface_bad=""
for dir in crates/*/; do
    crate=$(basename "$dir")
    [[ "$crate" == vendor ]] && continue
    lib_srcs=$(find "crates/$crate/src" -name '*.rs' ! -path '*/src/bin/*' ! -path '*/src/main.rs')
    outside_words=$(
        {
            find crates/*/src crates/*/tests tests examples src benchmark/src -name '*.rs' \
                | grep -v "^crates/$crate/src/"
            find "crates/$crate/src" -name '*.rs' \( -path '*/src/bin/*' -o -path '*/src/main.rs' \)
        } | xargs grep -hv '^[[:space:]]*//' | grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort -u
    )
    # shellcheck disable=SC2086  # $lib_srcs is a newline-separated file list
    while IFS= read -r site; do
        name=$(sed -E 's/.*pub fn ([A-Za-z_][A-Za-z0-9_]*).*/\1/' <<<"$site")
        grep -qxF "$name" <<<"$outside_words" && continue
        [[ " ${SURFACE_ALLOW[*]-} " == *" $crate:$name "* ]] && continue
        surface_bad+="$site"$'\n'
    done < <(prod_calls "pub fn " $lib_srcs)
done
if [[ -n "$surface_bad" ]]; then
    printf '%s' "$surface_bad" >&2
    echo "public-surface gate: nothing outside the crate names the pub fn(s) above — make them pub(crate)" >&2
    exit 1
fi
echo "public-surface gate: OK"

# Clock-discipline lint: hot paths must take timestamps through
# flor_obs::clock (one Instant::now site, pausable in tests, powers the
# trace timeline). A raw Instant::now anywhere else in the instrumented
# crates silently forks the timeline.
echo
echo "==> clock lint (Instant::now outside obs::clock)"
if grep -rn "Instant::now" \
    crates/core/src crates/chkpt/src crates/registry/src crates/obs/src \
    --include='*.rs' | grep -v "obs/src/clock.rs"; then
    echo "clock lint: raw Instant::now in an instrumented crate (use flor_obs::clock)" >&2
    exit 1
fi
echo "clock lint: OK"

# Syscall gate: `flor-sys` is the workspace's one raw-syscall layer, so
# inline assembly may appear only under crates/sys/src. A second `asm!`
# site is a second syscall layer to keep correct per architecture.
echo
echo "==> syscall gate (asm! only under crates/sys/src; no socket syscalls but SETSOCKOPT)"
if grep -rn "asm!" crates src tests examples benchmark/src --include='*.rs' \
    | grep -v "^crates/sys/src/"; then
    echo "syscall gate: issue raw syscalls through flor_sys::syscall6" >&2
    exit 1
fi
# `std` is the one socket layer: the syscall table carries no socket,
# epoll or eventfd number but SETSOCKOPT, for the `SO_SNDBUF` `std`
# cannot set.
if grep -rniE "const (SOCKET|SOCKETPAIR|BIND|LISTEN|ACCEPT4?|CONNECT|SHUTDOWN|GETSOCKNAME|GETPEERNAME|GETSOCKOPT|SENDTO|RECVFROM|SENDM?MSG|RECVM?MSG|EPOLL_[A-Z0-9_]*|EVENTFD2?)\b" \
    crates/sys/src --include='*.rs'; then
    echo "syscall gate: sockets, polling and wake-ups go through std, not flor_sys::nr" >&2
    exit 1
fi
echo "syscall gate: OK"

# One-CRC gate: the payload checksum runs on every read, so it has one
# implementation to keep fast and bit-identical — the carry-less fold and
# its slicing-by-8 fallback in crates/chkpt/src/store/crc.rs. CPU
# intrinsics (`std::arch` / `core::arch`, feature detection) appear only
# there, apart from flor-sys's `asm!` syscall site; the CRC polynomial
# appears nowhere else, so a second table or loop cannot drift from it.
echo
echo "==> one-CRC gate (arch intrinsics and 0xEDB88320 only in store/crc.rs)"
crc_file="crates/chkpt/src/store/crc.rs"
if grep -rnE "(std|core)::arch|is_x86_feature_detected" crates src tests examples benchmark/src \
    --include='*.rs' | grep -v "^$crc_file:" | grep -vE "^crates/sys/src/[^:]*:[0-9]+:.*arch::asm!"; then
    echo "one-CRC gate: CPU intrinsics belong in $crc_file (or flor-sys's asm! site)" >&2
    exit 1
fi
if grep -rniE "0xedb8_?8320" crates src tests examples benchmark/src --include='*.rs' \
    | grep -v "^$crc_file:"; then
    echo "one-CRC gate: checksum through flor_chkpt::store::crc32, not a second CRC" >&2
    exit 1
fi
echo "one-CRC gate: OK"

# Size gate: no source file of a non-vendor crate may grow past 1,500
# lines (the checkpoint store was split out of one 5k-line file under this
# gate). SIZE_CAPS holds the files not yet split, each at its current count
# as a ratchet: it may shrink, never grow. Splitting them is ROADMAP item 9.
SIZE_CAPS=(
    "crates/core/src/interp.rs 1930"
    "crates/cli/src/lib.rs 1661"
)
echo
echo "==> size gate (non-vendor crates/**/*.rs <= 1500 lines, SIZE_CAPS excepted)"
oversized=$(find crates -path crates/vendor -prune -o -name '*.rs' -print0 \
    | xargs -0 wc -l | awk -v caps="${SIZE_CAPS[*]}" '
        BEGIN { n = split(caps, c, " "); for (i = 1; i < n; i += 2) cap[c[i]] = c[i + 1] }
        $2 != "total" && $1 > (($2 in cap) ? cap[$2] : 1500)')
if [[ -n "$oversized" ]]; then
    echo "$oversized" >&2
    echo "size gate: split the file(s) above along a seam" >&2
    exit 1
fi
echo "size gate: OK"

# Opcode-coverage gate: every VM opcode the compiler can emit must be
# exercised by the lowering corpus in crates/lang (a new Op variant
# without a corpus program fails there, not in production replay).
run cargo test -q -p flor-lang opcode_coverage

# Oracle gate: the differential suites compare production replay against
# `replay_reference` (one worker tree-walking the unsliced program), and
# nothing else in production may run it — outside `#[cfg(test)]` code its
# only callers under crates/*/src are its definition and `flor replay
# --reference`.
echo
echo "==> oracle gate (replay_reference: used by tests/, one production caller)"
if ! grep -rq "replay_reference(" tests/ --include='*.rs'; then
    echo "oracle gate: no test under tests/ calls replay_reference" >&2
    exit 1
fi
oracle_sites=$(prod_calls "replay_reference(" crates/*/src)
expected_sites='crates/cli/src/lib.rs
crates/core/src/replay.rs'
if [[ "$(cut -d: -f1 <<<"$oracle_sites" | sort)" != "$expected_sites" ]]; then
    echo "$oracle_sites" >&2
    echo "oracle gate: replay_reference may appear only at its definition and in cmd_replay" >&2
    exit 1
fi
echo "oracle gate: OK"

# One-front-end gate: the source diff and the slicer each run from exactly
# one production call site — `ReplayPlan::build`. A second one is a second
# place that can disagree about what a query is.
echo
echo "==> one-front-end gate (diff_programs / slice_program: one production call site each)"
for fn in "diff_programs(" "slice_program("; do
    sites=$(prod_calls "$fn" crates/core/src crates/registry/src)
    if [[ $(grep -c . <<<"$sites") -ne 1 ]]; then
        echo "$sites" >&2
        echo "one-front-end gate: $fn must have exactly one non-test call site under crates/core/src + crates/registry/src" >&2
        exit 1
    fi
done
echo "one-front-end gate: OK"

# One-executor gate: replay runs a main loop in exactly one place, the
# range executor, so exactly one production site enters the init phase.
# A second `phase = Phase::Init` is a second initialization loop — a
# second copy of the rule `ReplayPlan::init_start` holds.
echo
echo "==> one-executor gate (phase = Phase::Init: one production site, the range executor)"
init_sites=$(prod_calls "phase = Phase::Init" crates/core/src)
if [[ $(grep -c . <<<"$init_sites") -ne 1 ]] || ! grep -q "crates/core/src/interp.rs" <<<"$init_sites"; then
    echo "$init_sites" >&2
    echo "one-executor gate: phase = Phase::Init must be assigned at exactly one non-test site, in interp.rs's range executor" >&2
    exit 1
fi
echo "one-executor gate: OK"

# Bench-regression gate: scale-invariant metrics of the quick microbenchmark
# runs must stay within a tolerance band of the committed full-scale
# baselines. Ratios only — absolute totals differ between quick and full
# fixtures by design. One row per band:
#
#   committed file | quick file | key=direction ... | tolerance
#
# An empty tolerance is the default band: 0.20 (>20% regressions fail),
# widened with FLOR_BENCH_TOLERANCE on a noisy host. A row that names its
# own tolerance is catastrophe-only; the comment above it says why.
BENCH_BANDS=(
    # The live columns are fixture- and host-load-dependent (the quick
    # fixture replays once on whatever cores CI has), so the gate uses the
    # deterministic paper-scale simulation of the same scheduler.
    "BENCH_replay_sched.json|BENCH_replay_sched.quick.json|sim_paper_scale.improvement=higher sim_paper_scale.profile_bound=higher|"
    # vm_speedup is a ratio of same-run walls and so scale-invariant — but
    # the tree-walker's wall is dominated by HashMap name traffic whose
    # per-process hash seeding swings it ~2× run to run, so this band is
    # catastrophe-only (a real VM regression is ≥2×; the committed
    # full-scale number is the precise record).
    "BENCH_interp.json|BENCH_interp.quick.json|vm_speedup=higher|0.55"
    # Closed-loop socket measurements on whatever core CI has, so
    # catastrophe-only: the bench binary asserts the hard acceptance floors
    # internally (concurrent/serial qps_speedup ≥4x, the median of two
    # paired admitted/uncontrolled qps ratios ≥0.7x, slow-reader p99
    # ≤1.5x).
    "BENCH_serve.json|BENCH_serve.quick.json|qps_speedup=higher admission_overhead=higher|0.70"
)

# Baseline gate: every committed BENCH_*.json at the root has a producer
# in tools/bench.sh that refreshes it and a band above that reads it. A
# baseline with neither is a frozen number nothing checks.
echo
echo "==> baseline gate (each root BENCH_*.json: a tools/bench.sh producer and a band)"
for committed in BENCH_*.json; do
    if ! grep -Eq "^[A-Z_]+_OUT=${committed//./\\.}\$" tools/bench.sh; then
        echo "baseline gate: $committed has no producer in tools/bench.sh" >&2
        exit 1
    fi
    banded=0
    for band in "${BENCH_BANDS[@]}"; do
        [[ "${band%%|*}" == "$committed" ]] && banded=1
    done
    if [[ "$banded" -eq 0 ]]; then
        echo "baseline gate: $committed has no row in BENCH_BANDS" >&2
        exit 1
    fi
done
echo "baseline gate: OK"

# The quick microbenchmark runs (written under target/, never dirtying the
# committed artifacts), then their bands.
run ./tools/bench.sh --quick
for band in "${BENCH_BANDS[@]}"; do
    IFS='|' read -r committed quick keys tolerance <<<"$band"
    # shellcheck disable=SC2086  # $keys is a space-separated key list
    FLOR_BENCH_TOLERANCE="${tolerance:-${FLOR_BENCH_TOLERANCE:-0.20}}" \
        run cargo run --release -q -p flor-bench --bin bench_check -- \
        "$committed" "target/$quick" $keys
done

# Trace smoke: record a small run into a registry (its checkpoints clear
# the arena's 1 KiB floor, so restores read `@dup` blobs), query it with
# tracing on, and check that the emitted Chrome trace is structurally
# valid (parses, every span has a lane/timestamp/duration, several distinct
# categories present) and that every restore was one store read — a
# `store_read` span more than `restored` means some checkpoint was read
# twice.
TRACE_DIR="$(mktemp -d)"
trap 'rm -rf "$TRACE_DIR"' EXIT
cat > "$TRACE_DIR/train.flr" <<'EOF'
import flor
data = synth_data(n=24, dim=4, classes=2, seed=3)
loader = dataloader(data, batch_size=8, seed=3)
net = mlp(input=4, hidden=96, classes=2, depth=1, seed=3)
optimizer = sgd(net, lr=0.1)
criterion = cross_entropy()
avg = meter()
for epoch in flor.partition(range(6)):
    avg.reset()
    for batch in loader.epoch():
        optimizer.zero_grad()
        preds = net.forward(batch)
        loss = criterion.forward(preds, batch)
        grad = criterion.backward()
        net.backward(grad)
        optimizer.step()
        avg.update(loss)
    log("loss", avg.mean())
acc = evaluate(net, data)
log("accuracy", acc)
EOF
sed 's/        optimizer.step()/        optimizer.step()\n        log("probe_gnorm", net.grad_norm())/' \
    "$TRACE_DIR/train.flr" > "$TRACE_DIR/probed.flr"
run ./target/release/flor record "$TRACE_DIR/train.flr" \
    --registry "$TRACE_DIR/registry" --run-id trace-smoke --no-adaptive
echo
echo "==> flor query trace-smoke (traced, 2 workers)"
./target/release/flor query trace-smoke "$TRACE_DIR/probed.flr" \
    --registry "$TRACE_DIR/registry" --workers 2 --trace "$TRACE_DIR/trace.json" \
    | tee "$TRACE_DIR/query.out" | grep '^#'
restored=$(sed -n 's/^# query .* \([0-9][0-9]*\) restored.*/\1/p' "$TRACE_DIR/query.out")
store_reads=$(grep -o '"name":"store_read"' "$TRACE_DIR/trace.json" | wc -l)
if [[ -z "$restored" || "$restored" -eq 0 || "$store_reads" -ne "$restored" ]]; then
    echo "trace smoke: $store_reads store_read span(s) for ${restored:-no} restore(s) — every restore must be exactly one store read" >&2
    exit 1
fi
echo "trace smoke: $store_reads store_read span(s) == $restored restored"
run cargo run --release -q -p flor-bench --bin trace_check -- \
    "$TRACE_DIR/trace.json" --min-events 20 --min-lanes 2 --min-categories 4

# Postamble memo smoke: an outer probe cannot change what the code after
# the main loop prints, so replay must not run it — it emits the recorded
# `accuracy` line instead, byte-equal to a from-scratch run's.
sed 's/    log("loss", avg.mean())/&\n    log("probe_wnorm", net.weight_norm())/' \
    "$TRACE_DIR/train.flr" > "$TRACE_DIR/outer.flr"
run ./target/release/flor record "$TRACE_DIR/train.flr" --store "$TRACE_DIR/store" --no-adaptive
echo
echo "==> flor replay (outer probe, 2 workers)"
./target/release/flor replay "$TRACE_DIR/outer.flr" --store "$TRACE_DIR/store" --workers 2 \
    | tee "$TRACE_DIR/replay.out" | grep '^#'
./target/release/flor run "$TRACE_DIR/outer.flr" > "$TRACE_DIR/run.out"
replayed_acc=$(grep '^\[post\] accuracy' "$TRACE_DIR/replay.out" || true)
run_acc=$(grep '^\[post\] accuracy' "$TRACE_DIR/run.out" || true)
if ! grep -q '^# postamble: memoized' "$TRACE_DIR/replay.out" \
    || [[ -z "$run_acc" || "$replayed_acc" != "$run_acc" ]]; then
    echo "postamble smoke: want a memoized postamble whose accuracy line equals flor run's" >&2
    echo "  replay: ${replayed_acc:-none}; run: ${run_acc:-none}" >&2
    exit 1
fi
echo "postamble smoke: memoized, $replayed_acc"

echo
echo "tier-1 gate: OK"
