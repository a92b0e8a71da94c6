#!/usr/bin/env sh
# Offline CI gate: format, lint, build, test. No network access required —
# the workspace has no external dependencies.
set -eu

cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release --workspace --all-targets

echo "==> cargo test"
cargo test --workspace --release -q

echo "==> property check (svtox-check differential oracles)"
# Replays tests/corpus/ first (if any .case files exist), then fresh cases.
# A property violation exits non-zero with the shrunk counterexample.
cargo run --release -p svtox-cli --bin svtox -- \
  check --cases 64 --seed 4 --threads 4 --corpus tests/corpus

echo "==> deeper property check of the exact-tree kernel (fresh seed)"
# The exact gate tree's leaves and the incremental STA under them (the
# relaxed-floor memo, one reconfiguration per node) get four times the
# cases at a seed the step above does not use.
cargo run --release -p svtox-cli --bin svtox -- \
  check --cases 256 --seed 5 --threads 4 --property core.leaf
cargo run --release -p svtox-cli --bin svtox -- \
  check --cases 256 --seed 5 --threads 4 --property sta.
# Problem::tfo's support-word sweep against the per-input DFS reference,
# on DAGs whose input counts cross the 64- and 128-input block edges.
cargo run --release -p svtox-cli --bin svtox -- \
  check --cases 256 --seed 5 --threads 4 --property core.tfo

echo "==> chaos scenarios (fault injection, asserted degradation invariants)"
# Any violated invariant makes the subcommand exit non-zero.
cargo run --release -p svtox-cli --bin svtox -- \
  chaos --all --seed 7 --threads 4

echo "==> kill/resume smoke (checkpointed optimize, then resume)"
CKPT="$(mktemp -t svtox-ci-ckpt.XXXXXX)"
cargo run --release -p svtox-cli --bin svtox -- \
  optimize c432 --threads 4 --time-budget 0.2 --checkpoint "$CKPT" > /dev/null
cargo run --release -p svtox-cli --bin svtox -- \
  optimize c432 --threads 4 --time-budget 0.2 --checkpoint "$CKPT" --resume > /dev/null
# Both strategies, the portfolio (the default) included, write one
# checkpoint file, "$CKPT", that holds every member's state by slug.
rm -f "$CKPT"

echo "==> sim bench (packed vs scalar Monte-Carlo, gated at 10x)"
# The word-level simulator must beat the scalar reference by at least 10x
# (the measured margin is far larger; the gate only catches regressions).
mkdir -p results
cargo run --release -p svtox-cli --bin svtox -- \
  suite --sim-bench --json --min-speedup 10 --out results/BENCH_sim.json > /dev/null

echo "==> portfolio bench (portfolio vs single engine at the same deadline)"
# The strategy portfolio must match or beat the single engine on every
# suite circuit at the same wall-clock deadline (0.1% noise band covers
# scheduler jitter where the two searches converge); the subcommand
# exits non-zero on any regression. The greps assert the recorded
# artifact agrees and that a winning strategy is reported per circuit.
mkdir -p results
cargo run --release -p svtox-cli --bin svtox -- \
  suite --portfolio-bench --deadline 1.5 --threads 4 --json \
  --out results/BENCH_portfolio.json > /dev/null
grep -q '"regressions":0' results/BENCH_portfolio.json
grep -q '"winner":"' results/BENCH_portfolio.json

echo "==> eco bench (warm ECO re-optimization vs cold re-run, gated at 2x)"
# After the standard edit scripts, the warm-seeded rerun must reach the
# quality both runs share in at least 2x fewer evaluated leaves on every
# suite circuit (the measured margin is far larger; the gate only catches
# regressions). Both runs are serial and capped at the same leaf budget,
# so the report is the same on every machine and every run.
# The two new differential oracles behind this path — netlist.edit_eq_rebuild
# and core.eco_eq_cold — run as part of the `svtox check` step above.
mkdir -p results
cargo run --release -p svtox-cli --bin svtox -- \
  suite --eco-bench --json --min-speedup 2 \
  --out results/BENCH_eco.json > /dev/null
grep -q '"bench":"eco"' results/BENCH_eco.json

echo "==> serve smoke (in-process server, 50-job load, metrics + clean shutdown)"
# loadgen spawns the server in-process (no port to coordinate), replays the
# jobs, scrapes /metrics, and shuts down; it exits non-zero on any hang,
# metrics failure, or unclean shutdown. The JSON report is the recorded
# service baseline (throughput, latency percentiles, cache hit rates).
mkdir -p results
cargo run --release -p svtox-cli --bin svtox -- \
  loadgen --jobs 50 --concurrency 8 --runners 4 --json > results/BENCH_serve.json

echo "==> serve kill-restart smoke (SIGKILL mid-load, journal recovery, loadgen spans the restart)"
# A journaled server takes SIGKILL mid-run — no drain, no goodbye; the
# write-ahead journal is all that survives. The immediate restart rebinds
# the same port (SO_REUSEADDR), replays the journal (jobs finished since
# its last compaction stay pollable, queued ones re-enqueue, running ones
# resume warm from their checkpoints), and the loadgen's seeded retry-backoff carries its
# in-flight workers across the outage: zero hangs, every job typed. The
# recorded report carries the recovery latency and journal health.
BIN=target/release/svtox
JDIR="$(mktemp -d -t svtox-ci-journal.XXXXXX)"
SERVE_ADDR=127.0.0.1:7461
"$BIN" serve --addr "$SERVE_ADDR" --runners 2 --journal "$JDIR" > /dev/null &
SRV_PID=$!
sleep 1
"$BIN" loadgen --addr "$SERVE_ADDR" --jobs 40 --concurrency 8 --json \
  > results/BENCH_serve_recovery.json &
LOAD_PID=$!
sleep 2
kill -9 "$SRV_PID" 2>/dev/null || true
wait "$SRV_PID" 2>/dev/null || true
"$BIN" serve --addr "$SERVE_ADDR" --runners 2 --journal "$JDIR" > /dev/null &
SRV_PID=$!
wait "$LOAD_PID"
grep -q '"recovery_ms":' results/BENCH_serve_recovery.json
grep -q '"hangs":0' results/BENCH_serve_recovery.json
grep -q '"journal_degraded":0' results/BENCH_serve_recovery.json
# Fold the measured recovery latency into the service baseline artifact.
RECOVERY_MS="$(sed -n 's/.*"recovery_ms":\([0-9.]*\).*/\1/p' results/BENCH_serve_recovery.json)"
sed -i "s/^{/{\"recovery_ms\":${RECOVERY_MS},/" results/BENCH_serve.json
grep -q '"recovery_ms":' results/BENCH_serve.json
kill "$SRV_PID" 2>/dev/null || true
wait "$SRV_PID" 2>/dev/null || true
rm -rf "$JDIR"

echo "==> suite smoke run (--quick, machine-readable)"
cargo run --release -p svtox-bench --bin suite -- --quick --threads 0 --json > /dev/null

echo "==> svbench smoke (benchmark harness: format, build, every workload's checks)"
# svbench is a workspace of its own that times the crates' public API from
# outside, so a renamed function or a changed result breaks it without
# breaking any test above. One-second runs build it and run every
# workload's result checks; a failed check exits non-zero.
cargo fmt --manifest-path svbench/Cargo.toml -- --check
for WORKLOAD in prove iscas exact serve; do
  cargo run --release --offline --quiet --manifest-path svbench/Cargo.toml -- \
    --workload "$WORKLOAD" --seed 1 --seconds 1 --trace 0 > /dev/null
done
# One traced serve run exercises the per-layer path as well: the /metrics
# scrape, the search probes and the serve.* layer numbers.
cargo run --release --offline --quiet --manifest-path svbench/Cargo.toml -- \
  --workload serve --seed 1 --seconds 1 --trace 1 > /dev/null

echo "==> CI green"
