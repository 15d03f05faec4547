#!/usr/bin/env bash
# Full pre-merge smoke run:
#   1. Lint + analyze: ember_lint.py (project invariants) and
#      ember_analyze.py (flow-aware collective-symmetry / lock-discipline
#      / determinism rules) over src/, both with their self-tests, plus
#      clang-tidy when available (the minimal dev container ships only
#      gcc; the wrapper prints the skip reason in that case).
#   2. Release build + the complete test suite (the tier-1 gate).
#   3. ThreadSanitizer build + the thread-parity tests (the SNAP force
#      engine is threaded; TSan pins the no-shared-mutable-state design)
#      and the AsyncIo suite (the writer thread's queue/backpressure/
#      error handshake is exactly the kind of code TSan exists for).
#   4. Observability smoke: a traced ember_run demo; the Chrome trace
#      and the metrics dump must both parse. Then the SNAP stage-split
#      example (run from the repo root, which its model path assumes): its
#      metrics dump must report SNAP atoms and Y-stage time.
#   5. Socket transport: the forked-process comm subset (ctest -R
#      Socket) plus the multi-process elastic-rescaling example.
#   6. Trajectory round-trip: the async-writer demo dumps a compressed
#      EMBT1 trajectory and streams it back through `analyze
#      trajectory`; every dumped frame must come back classified.
#
# Usage: scripts/smoke.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

echo "== [1/6] lint: ember_lint + ember_analyze + clang-tidy =="
python3 scripts/ember_lint.py src
python3 scripts/ember_analyze.py src
python3 tests/lint/test_ember_lint.py
python3 tests/analyze/test_ember_analyze.py
cmake -B build -S . >/dev/null
scripts/run_clang_tidy.sh build

echo "== [2/6] Release build + full test suite =="
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== [3/6] TSan build + threaded-kernel tests =="
cmake -B build-tsan -S . -DEMBER_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS" --target \
  test_thread_pool test_snap_lane_kernel test_md_dynamics \
  test_md_step_loop test_obs_metrics test_obs_trace \
  test_io_embt1 test_io_async_writer test_io_driver_parity \
  test_app_interpreter
TSAN_OPTIONS="suppressions=$PWD/scripts/suppressions/tsan.supp" \
ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
  -R 'ThreadPool|ThreadedForces|ComputeContext|SymmetricKernel|SimdKernel|Dynamics|CrossDriver|StepLoopTimers|StepLoopTrace|ObsMetrics|ObsTrace|AsyncIo|Embt1'

echo "== [4/6] traced demo run =="
TRACE_TMP="$(mktemp -d)"
(cd "$TRACE_TMP" && EMBER_NUM_THREADS=2 \
  "$OLDPWD/build/src/app/ember_run" "$OLDPWD/examples/inputs/trace_demo.in")
if command -v python3 >/dev/null; then
  python3 -m json.tool "$TRACE_TMP/trace_demo.json" >/dev/null
  python3 -m json.tool "$TRACE_TMP/metrics_demo.json" >/dev/null
fi
rm -rf "$TRACE_TMP"
build/src/app/ember_run examples/inputs/snap_stages.in
if command -v python3 >/dev/null; then
  python3 -c 'import json; c = json.load(open("snap_stages_metrics.json"))["counters"]; a = c["snap.atoms"]; assert a > 0 and all(c["snap.%s_seconds" % s] > 0 for s in ("ui", "yi", "dei")), c; print(" ".join("%s %.1f us/atom" % (s, 1e6 * c["snap.%s_seconds" % s] / a) for s in ("ui", "yi", "dei")))'
fi
rm -f snap_stages_trace.json snap_stages_metrics.json

echo "== [5/6] socket transport: forked-process subset + example =="
ctest --test-dir build --output-on-failure -j "$JOBS" -R Socket
SOCK_TMP="$(mktemp -d)"
(cd "$SOCK_TMP" && EMBER_TRANSPORT=socket \
  "$OLDPWD/build/src/app/ember_run" \
  "$OLDPWD/examples/inputs/multiprocess_scaling.in")
rm -rf "$SOCK_TMP"

echo "== [6/6] trajectory round-trip: async EMBT1 dump -> analyze =="
TRAJ_TMP="$(mktemp -d)"
(cd "$TRAJ_TMP" &&
  "$OLDPWD/build/src/app/ember_run" \
    "$OLDPWD/examples/inputs/trajectory_demo.in" | tee run.log
  grep -q "analyzed 4 frames from trajectory_demo.embt1" run.log)
rm -rf "$TRAJ_TMP"

echo "smoke: all green"
