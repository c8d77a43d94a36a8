#!/usr/bin/env bash
# Tier-1 verification gate. Run from the repository root:
#
#   ./ci/check.sh
#
# Every step runs with --offline: the workspace has a strict
# zero-external-dependency policy (DESIGN §7), so a checkout with no
# network and no registry cache must build, test, and verify cleanly.
# A step that would touch the network is itself a policy violation.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo clippy --offline --all-targets -- -D warnings"
# This step gates determinism, ordered iteration and panic hygiene:
# crates/clippy.toml bans wall clocks, env lookups and hash collections,
# [workspace.lints.clippy] denies unwrap/expect/panic! outside tests, and
# every waiver is an #[expect(<lint>, reason = "...")] that fails once
# it goes stale.
cargo clippy --offline --all-targets -- -D warnings

echo "==> cargo clippy --offline (e2ebench) -- -D warnings"
# The end-to-end benchmark is a package of its own, outside the
# workspace, that replays the service through the crates' public API;
# linting it here makes an API change that breaks the replay fail this
# gate rather than the benchmark run.
cargo clippy --offline --manifest-path e2ebench/Cargo.toml -- -D warnings

echo "==> cargo test -q --offline"
cargo test -q --offline

echo "==> fault determinism suite"
cargo test -q --offline -p flowtune-cloud --test fault_determinism
cargo test -q --offline -p flowtune-core --test fault_recovery
cargo test -q --offline -p flowtune-core --test fault_crash_recovery

echo "==> exp_fault_matrix --smoke"
cargo run -q --offline --release -p flowtune-bench --bin exp_fault_matrix -- --smoke

# All throwaway output from the smoke steps below lands in one scratch
# dir owned by a single cleanup handler. (Stacking per-step
# `trap ... EXIT` lines overwrites the previous handler and leaks the
# earlier dirs — keep every temp path inside $scratch instead.)
scratch="$(mktemp -d)"
cleanup() { rm -rf "$scratch"; }
trap cleanup EXIT

echo "==> bench_sched --smoke (scheduler perf baseline harness)"
# Smoke-sized run into the scratch dir: verifies the optimized-vs-
# reference harness end to end (exit nonzero on any benchmark error)
# without touching the committed full-run BENCH_sched.json baseline.
cargo run -q --offline --release -p flowtune-bench --bin bench_sched -- \
  --smoke --out "$scratch/BENCH_sched.json"
test -s "$scratch/BENCH_sched.json"

echo "==> bench_interleave --smoke (interleaver perf baseline harness)"
cargo run -q --offline --release -p flowtune-bench --bin bench_interleave -- \
  --smoke --out "$scratch/BENCH_interleave.json"
test -s "$scratch/BENCH_interleave.json"

echo "==> committed perf baselines match the harness schemas"
# The smoke runs above just wrote fresh documents; their schema lines
# must agree with the committed full-run baselines, so a harness schema
# bump cannot land without regenerating BENCH_sched.json and
# BENCH_interleave.json (the speedup bars over the committed files live
# in crates/bench/tests/bench_baselines.rs, under plain `cargo test`).
diff <(grep '"schema"' "$scratch/BENCH_sched.json") \
     <(grep '"schema"' BENCH_sched.json)
diff <(grep '"schema"' "$scratch/BENCH_interleave.json") \
     <(grep '"schema"' BENCH_interleave.json)

echo "==> exp_table6_composite --smoke (composite speedup matrix vs golden)"
# The smoke report is fully deterministic (modelled costs and
# touched-row counts, no wall times), so it diffs byte-for-byte.
cargo run -q --offline --release -p flowtune-bench --bin exp_table6_composite -- \
  --smoke > "$scratch/table6_composite.txt"
diff -u tests/golden/table6_composite_smoke.txt "$scratch/table6_composite.txt"

echo "==> results/ freshness (deterministic experiment outputs vs a fresh run)"
# Every experiment binary with a recorded output is rerun in full and
# diffed against results/, so a change that moves an experiment's
# numbers cannot land without regenerating the file (and reconciling
# EXPERIMENTS.md). exp_table6_speedups is skipped: it reports wall-clock
# speedups, which differ on every run. exp_table6_composite has no
# results/ file; its smoke output is diffed above.
for result in results/exp_*.txt; do
  bin="$(basename "$result" .txt)"
  [ "$bin" = exp_table6_speedups ] && continue
  cargo run -q --offline --release -p flowtune-bench --bin "$bin" > "$scratch/$bin.txt"
  diff -u "$result" "$scratch/$bin.txt"
done

echo "==> observability golden trace (smoke)"
cargo run -q --offline --release -p flowtune-core --bin flowtune -- \
  --quanta 4 --seed 1 --concurrency 1 \
  --trace-out "$scratch/trace.jsonl" --metrics-out "$scratch/metrics.json" \
  > /dev/null
diff -u tests/golden/trace_smoke.jsonl "$scratch/trace.jsonl"
diff -u tests/golden/metrics_smoke.json "$scratch/metrics.json"

echo "==> e2ebench outcome smoke (recorded outcomes, traced replay)"
# One traced pass per workload at the recorded seed 7. Each run exits 1
# when a service outcome differs from e2ebench/expected.txt, when the
# benchmark's replay of the service does not reconcile with the real
# run, or when interleaving changes a live round's makespan or leased
# quanta. The last stdout line is the JSON result; its first three
# fields are the verdict.
for workload in paper-gain-lp no-index faults-online; do
  cargo run -q --release --offline --manifest-path e2ebench/Cargo.toml -- \
    --workload "$workload" --seed 7 --seconds 1 --trace 1 | tail -n 1 | cut -d, -f1-3
done

echo "==> flowtune-analyze (workspace invariants, JSON report vs baseline)"
# The machine-readable report gates the tree against the committed
# baseline: only findings absent from ANALYZE_baseline.json fail the
# run, so a deliberately accepted finding never blocks CI twice.
cargo run -q --offline -p flowtune-analyze -- \
  --format json --baseline ANALYZE_baseline.json > "$scratch/analyze.json"

echo "All checks passed."
