#!/bin/sh
# Canonical tier-1 gate. Everything a change must pass before it lands.
#
# Usage: tools/ci/check.sh [stage]
#
#   build     dune build — the whole tree compiles (lib, bench,
#             examples, tools)
#   test      dune runtest — unit/property/integration suites, plus
#             @analyze (tools/analyze: one parse of lib/, bench/ and
#             examples/ for the four source rule families — dk-lint
#             token rules, dk-verify typestate/dataflow analysis,
#             dk-shard shard-safety/determinism analysis and dk-hot
#             hot-path cost analysis — against one allowlist; stale
#             entries fail), the bench smoke run, bench_diff of
#             tools/ci/baselines against itself (the bench gate's JSON
#             reader), and the CLI/example transcript: every `demi`
#             subcommand and the eight examples diffed against
#             test/golden/cli.expected
#   sanitize  DK_SANITIZE=1 dune build @sanitize — exactly the suites
#             that read DK_SANITIZE (canaries, poison-on-free,
#             UAF/double-free detection, leak sweeps, token audit);
#             suites that never consult the sanitizer are not re-run
#   analyze   dune build @analyze — the source analyzer on its own (it
#             also runs as part of 'test'); the multi-shard datapath
#             and the ~1000-cycle per-op budget are gated on it
#             staying clean
#   fault     dune build @fault — the fault-injection scenario suite,
#             normal then sanitized; export DK_FAULT_CI=1 to widen the
#             every-plan matrix to multiple seeds (the CI matrix job
#             does)
#   scenario  dune build @scenario — the E15 open-loop scenario
#             harness at smoke scale (10^4 connections, seconds of
#             host time): determinism, open-loop invariant, overload
#             shedding/bounded-memory checks, plus one `demi scenario
#             --all --smoke` sweep through the CLI, diffed against each
#             scenario run alone (stats must not depend on what ran
#             before them in the process) and against the committed
#             test/golden/scenario_sweep.jsonl
#   offload   dune build @offload — the deep-NIC-offload suite (device
#             pipeline/table units and properties, device==CPU-fallback
#             equality, cross-traffic isolation, no-stale-reads under
#             fault plans), normal then DK_SANITIZE=1
#   bench     tools/ci/bench_diff.sh — regenerate the E1-E16 bench
#             tables and fail on >25% regression against the committed
#             baselines (virtual-time columns at DK_BENCH_MAX_RATIO,
#             latency percentiles at DK_BENCH_PCTL_MAX_RATIO)
#   all       build + test + scenario + offload + sanitize, plus
#             fault when DK_FAULT_CI is set (test already runs analyze)
#
# Run from anywhere; exits nonzero on the first failure.

set -eu

cd "$(dirname "$0")/../.."

stage="${1:-all}"

run_build() {
  echo "== [build] dune build"
  dune build
}

run_test() {
  echo "== [test] dune runtest (includes @analyze)"
  dune runtest
}

run_sanitize() {
  echo "== [sanitize] DK_SANITIZE=1 dune build @sanitize"
  DK_SANITIZE=1 dune build @sanitize --force
}

run_analyze() {
  echo "== [analyze] dune build @analyze"
  dune build @analyze --force
}

run_fault() {
  echo "== [fault] dune build @fault (DK_FAULT_CI=${DK_FAULT_CI:-0})"
  dune build @fault --force
}

run_scenario() {
  echo "== [scenario] dune build @scenario"
  dune build @scenario --force
}

run_offload() {
  echo "== [offload] dune build @offload"
  dune build @offload --force
}

run_bench() {
  echo "== [bench] tools/ci/bench_diff.sh"
  tools/ci/bench_diff.sh
}

case "$stage" in
  build)    run_build ;;
  test)     run_test ;;
  sanitize) run_sanitize ;;
  analyze)  run_analyze ;;
  fault)    run_fault ;;
  scenario) run_scenario ;;
  offload)  run_offload ;;
  bench)    run_bench ;;
  all)
    run_build
    run_test
    run_scenario
    run_offload
    run_sanitize
    if [ "${DK_FAULT_CI:-}" = "1" ]; then
      run_fault
    fi
    ;;
  *)
    echo "usage: $0 [build|test|sanitize|analyze|fault|scenario|offload|bench|all]" >&2
    exit 2
    ;;
esac

echo "== check.sh: stage '$stage' passed"
