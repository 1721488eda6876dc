#!/usr/bin/env bash
# CI entry point. Ten legs, runnable together (one sequential local run)
# or individually (`scripts/ci.sh leg <n> [<n>...]`) so the GitHub Actions
# matrix can fan them out across parallel jobs sharing one ccache:
#   0. Runtime-seam check: the protocol stack (src/carousel, src/raft,
#      src/tapir) must compile against the runtime interfaces only — no
#      simulator includes besides the sim/message.h DTO header.
#   1. Tier-1 verify: RelWithDebInfo build with -Werror on library targets,
#      the fast (`-L tier1`) ctest suite.
#   2. Chaos leg: the slow-labeled suite (pinned chaos corpus, batched and
#      unbatched) plus a bounded seed sweep of the chaos harness. A failing
#      seed prints a self-contained report; replay it locally with
#        ./build/tools/carousel_chaos --seed=<N>
#   3. Sanitizer leg: ASan + UBSan build in a separate tree, full ctest,
#      then the TCP transport and threaded-runtime suites again on repeat
#      so a rare receive-path memory error or a reconnect-path crash
#      fails the leg instead of one local run in several.
#   4. Bench leg: smoke-scale Figure-5 throughput sweep (batched and
#      unbatched configs) plus the core microbenchmarks; writes BENCH_*.json
#      into $BENCH_JSON_DIR and gates the simulated-throughput metrics
#      against bench/baselines/ (+/-10%; `wanrt_`-prefixed protocol-path
#      counts are held to exact equality). Wall-clock is never gated.
#   5. Coverage leg: gcov-instrumented build (-DCAROUSEL_COVERAGE=ON) runs
#      the tier-1 suite and writes a per-file line-coverage table to
#      build-cov/coverage-summary.txt (CI uploads it as an artifact).
#      Informational only — it never fails the run. Skipped when gcov is
#      not on PATH or SKIP_COVERAGE=1.
#   6. TSan leg: ThreadSanitizer build in its own tree runs the
#      threaded-runtime suite (`-L threaded`: the epoll transport unit
#      tests, the threaded-runtime smoke tests, and the rt_chaos
#      fault-injection tests) — the real-thread backend of the runtime
#      seam under the race detector, then the same repeated transport and
#      threaded-runtime runs as leg 3. Skipped when SKIP_TSAN=1 or the
#      toolchain cannot link -fsanitize=thread.
#   7. Real-time chaos leg: a bounded seed sweep of carousel_rt_chaos
#      (kill + WAL restart, partitions, link faults on real threads),
#      certified by the serializability checker. A failing seed writes its
#      report (and keeps its WAL dir) for the artifact upload; replay with
#        ./build/tools/carousel_rt_chaos --seed=<N>
#   8. RT transport leg: carousel_rt over real TCP sockets at smoke scale
#      (3 DCs x 3 partitions x 3 replicas, 16 clients/DC), unbatched plus
#      a pipelined batched run; writes BENCH_rt_tcp*.json and gates them
#      with bench_gate.py --only: committed >= floor, every transport drop
#      counter == 0, and frames-per-sendmsg >= 2 on the pipelined batched
#      config (the egress coalescing the epoll writer exists for).
#      Wall-clock and absolute tps are uploaded but never gated.
#   9. Exploration leg: the systematic interleaving explorer
#      (carousel_explore) exhaustively sweeps delivery orderings of the
#      canonical 2-txn configuration under a depth bound, plus a
#      crash-point sweep and a delay-bounded sequential (stale-local-read
#      regime) sweep, certifying every terminal state with the DSG
#      checker. A violating schedule lands in build/explore-reports as a
#      replayable JSON trace; replay with
#        ./build/tools/carousel_explore --replay=<trace>
#
# Usage: scripts/ci.sh [jobs]           run all legs sequentially
#        scripts/ci.sh leg <n> [<n>...] run the named legs only
#   JOBS=N                          build parallelism (default nproc;
#                                   the positional [jobs] form also works)
#   CHAOS_SEEDS=N                   sweep size for leg 2 (default 200)
#   RT_CHAOS_SEEDS=N                sweep size for leg 7 (default 12; each
#                                   seed holds a ~3.5 s wall-clock fault
#                                   window, so the leg costs ~4 s a seed)
#   BENCH_JSON_DIR=PATH             output dir for leg 4/8 JSONs
#                                   (default build/bench-json)
#   SKIP_BENCH_GATE=1               run leg 4/8 benches but skip the gates
#                                   (for branches that intentionally move
#                                   the numbers; regenerate baselines
#                                   before merging — see EXPERIMENTS.md)
#   SKIP_COVERAGE=1                 skip leg 5 (the coverage build is the
#                                   slowest leg; local runs rarely need it)
#   SKIP_TSAN=1                     skip leg 6
#   EXPLORE_TXNS=N                  transactions for leg 9 (default 2)
#   EXPLORE_DEPTH=N                 prefix-depth bound for leg 9's main
#                                   sweep (default 7: ~12k schedules)
#   EXPLORE_CRASH_DEPTH=N           depth for the crash-point sweep
#                                   (default 5)
#   EXPLORE_DELAY_BOUND=N           delay bound for the sequential sweep
#                                   (default 2); nightly raises these

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
CHAOS_SEEDS="${CHAOS_SEEDS:-200}"
RT_CHAOS_SEEDS="${RT_CHAOS_SEEDS:-12}"
EXPLORE_TXNS="${EXPLORE_TXNS:-2}"
EXPLORE_DEPTH="${EXPLORE_DEPTH:-7}"
EXPLORE_CRASH_DEPTH="${EXPLORE_CRASH_DEPTH:-5}"
EXPLORE_DELAY_BOUND="${EXPLORE_DELAY_BOUND:-2}"
BENCH_JSON_DIR="${BENCH_JSON_DIR:-build/bench-json}"

# The main RelWithDebInfo tree several legs share. Idempotent: a second
# call in the same job is a no-op rebuild (and across matrix jobs, ccache
# makes the recompile cheap).
build_main() {
  cmake -B build -S . -DCAROUSEL_WERROR=ON
  cmake --build build -j "$JOBS"
}

# Reruns the socket-level suites of a sanitizer tree back to back: their
# failures are interleaving-dependent, so one pass proves little. Both get
# 20 passes; the threaded-runtime suite settles on the servers' own state
# (no pending prepare, no open coordinator transaction), so a pass takes
# seconds, not a fixed settle timeout.
repeat_net_suites() {
  local tree="$1"
  "$tree/tests/net_transport_test" --gtest_repeat=20 --gtest_brief=1
  "$tree/tests/runtime_threaded_test" --gtest_repeat=20 --gtest_brief=1
}

leg0() {
  echo "== leg 0: runtime-seam check =="
  # The protocol stack must stay simulator-agnostic: the only sim/ header
  # it may include is the message DTO header the wire codec serializes.
  if grep -rn '#include "sim/' src/carousel src/raft src/tapir \
      | grep -v 'sim/message\.h'; then
    echo "runtime-seam violation: protocol code includes simulator headers" >&2
    exit 1
  fi
  echo "seam intact: src/{carousel,raft,tapir} include only sim/message.h"
}

leg1() {
  echo "== leg 1: tier-1 verify (RelWithDebInfo, -Werror on src/) =="
  build_main
  ctest --test-dir build --output-on-failure -j "$JOBS" -L tier1
}

leg2() {
  echo "== leg 2: chaos corpus + ${CHAOS_SEEDS}-seed sweep =="
  build_main
  ctest --test-dir build --output-on-failure -j "$JOBS" -L slow
  ./build/tools/carousel_chaos --seeds="$CHAOS_SEEDS"
}

leg3() {
  echo "== leg 3: ASan + UBSan =="
  cmake -B build-asan -S . -DCAROUSEL_WERROR=ON -DCAROUSEL_SANITIZE=ON \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-asan -j "$JOBS"
  ctest --test-dir build-asan --output-on-failure -j "$JOBS"
  repeat_net_suites build-asan
}

leg4() {
  echo "== leg 4: bench smoke + gate =="
  build_main
  mkdir -p "$BENCH_JSON_DIR"
  CAROUSEL_BENCH_FAST=1 CAROUSEL_BENCH_JSON_DIR="$BENCH_JSON_DIR" \
      ./build/bench/bench_fig5_throughput
  # The installed google-benchmark wants a plain double for min_time (the
  # "0.05s" suffix form is newer). The JSON goes to artifacts only — micro
  # wall-clock is too machine-dependent to gate.
  ./build/bench/bench_micro_core --benchmark_min_time=0.05 \
      --benchmark_out="$BENCH_JSON_DIR/BENCH_micro_core.json" \
      --benchmark_out_format=json
  if [[ "${SKIP_BENCH_GATE:-0}" != "1" ]]; then
    python3 scripts/bench_gate.py --baseline-dir bench/baselines \
        --result-dir "$BENCH_JSON_DIR" \
        --exclude rt_tcp --exclude rt_tcp_coalesce
  else
    echo "bench gate skipped (SKIP_BENCH_GATE=1)"
  fi
}

leg5() {
  echo "== leg 5: line coverage over tier-1 =="
  if [[ "${SKIP_COVERAGE:-0}" == "1" ]]; then
    echo "coverage skipped (SKIP_COVERAGE=1)"
  elif ! command -v gcov >/dev/null; then
    echo "coverage skipped (no gcov on PATH)"
  else
    cmake -B build-cov -S . -DCAROUSEL_COVERAGE=ON -DCMAKE_BUILD_TYPE=Debug
    cmake --build build-cov -j "$JOBS"
    ctest --test-dir build-cov -j "$JOBS" -L tier1 --output-on-failure
    python3 scripts/coverage_summary.py build-cov \
        | tee build-cov/coverage-summary.txt | tail -1
  fi
}

leg6() {
  echo "== leg 6: TSan over the threaded runtime =="
  if [[ "${SKIP_TSAN:-0}" == "1" ]]; then
    echo "tsan skipped (SKIP_TSAN=1)"
  elif ! echo 'int main(){}' | c++ -fsanitize=thread -x c++ - -o /dev/null 2>/dev/null; then
    echo "tsan skipped (toolchain cannot link -fsanitize=thread)"
  else
    cmake -B build-tsan -S . -DCAROUSEL_WERROR=ON -DCAROUSEL_TSAN=ON \
          -DCMAKE_BUILD_TYPE=RelWithDebInfo
    cmake --build build-tsan -j "$JOBS" \
          --target runtime_threaded_test net_transport_test wire_test \
                   rt_chaos_test storage_test
    ctest --test-dir build-tsan --output-on-failure -j "$JOBS" -L threaded
    repeat_net_suites build-tsan
  fi
}

leg7() {
  echo "== leg 7: real-time chaos (${RT_CHAOS_SEEDS}-seed sweep) =="
  build_main
  mkdir -p build/rt-chaos-reports
  ./build/tools/carousel_rt_chaos --seeds="$RT_CHAOS_SEEDS" \
      --storage-root=build/rt-chaos-storage --report-dir=build/rt-chaos-reports
}

leg8() {
  echo "== leg 8: RT transport over TCP (throughput floor + coalescing gate) =="
  build_main
  mkdir -p "$BENCH_JSON_DIR"
  ./build/tools/carousel_rt --transport=tcp --clients-per-dc=16 \
      --json="$BENCH_JSON_DIR/BENCH_rt_tcp.json"
  ./build/tools/carousel_rt --transport=tcp --clients-per-dc=16 \
      --pipeline=16 --batching \
      --json="$BENCH_JSON_DIR/BENCH_rt_tcp_coalesce.json"
  if [[ "${SKIP_BENCH_GATE:-0}" != "1" ]]; then
    python3 scripts/bench_gate.py --baseline-dir bench/baselines \
        --result-dir "$BENCH_JSON_DIR" \
        --only rt_tcp --only rt_tcp_coalesce
  else
    echo "rt transport gate skipped (SKIP_BENCH_GATE=1)"
  fi
}

leg9() {
  echo "== leg 9: systematic exploration (bounded interleaving sweep) =="
  build_main
  mkdir -p build/explore-reports
  # The canonical tier-1 configuration (2 conflicting txns, 1 partition x
  # 3 DCs): an exhaustive depth-bounded sweep plus a crash-point sweep at
  # the prepare/decision persistence boundaries, every terminal state
  # certified by the DSG checker. A violation dumps a replayable trace
  # into build/explore-reports (CI uploads it); replay locally with
  #   ./build/tools/carousel_explore --replay=build/explore-reports/violation-1.json
  ./build/tools/carousel_explore --txns="$EXPLORE_TXNS" \
      --max-depth="$EXPLORE_DEPTH" --report-dir=build/explore-reports
  ./build/tools/carousel_explore --txns="$EXPLORE_TXNS" \
      --max-depth="$EXPLORE_CRASH_DEPTH" --crash-points=1 \
      --report-dir=build/explore-reports
  # Delay-bounded sequential regime (stale-local-read window): deviations
  # anywhere in the run, so bugs past any feasible prefix depth stay
  # reachable.
  ./build/tools/carousel_explore --sequential --local-reads \
      --txns="$EXPLORE_TXNS" --delay-bound="$EXPLORE_DELAY_BOUND" \
      --report-dir=build/explore-reports
}

ALL_LEGS=(0 1 2 3 4 5 6 7 8 9)

if [[ "${1:-}" == "leg" ]]; then
  shift
  if [[ $# -eq 0 ]]; then
    echo "usage: scripts/ci.sh leg <n> [<n>...]" >&2
    exit 2
  fi
  for n in "$@"; do
    if ! declare -F "leg$n" >/dev/null; then
      echo "unknown leg '$n' (have: ${ALL_LEGS[*]})" >&2
      exit 2
    fi
  done
  for n in "$@"; do
    "leg$n"
    echo
  done
  echo "CI: leg(s) $* passed"
  exit 0
fi

# Sequential full run; a positional jobs count keeps the historical CLI.
if [[ $# -ge 1 ]]; then
  JOBS="$1"
fi
for n in "${ALL_LEGS[@]}"; do
  "leg$n"
  echo
done
echo "CI: all legs passed"
