#!/usr/bin/env bash
# Full verification sweep, in four stages:
#
#  1. Selftests of the stats-schema checker and the accuracy gate.
#  2. Release: build and run every ctest label (unit + golden +
#     observability, including the slow determinism sweep).
#  3. ASan/UBSan: build with -DVCA_SANITIZE=address,undefined, which
#     also compiles -fno-sanitize-recover=all, so any sanitizer report
#     aborts its test and fails ctest. Runs only -L unit: the golden
#     suite asserts exact cycle counts that are identical across
#     configurations anyway, and simulating the sweep twice more under
#     ASan adds minutes for no extra signal.
#  4. Accuracy gate: sampled-mode runs of the Release vca-sim against
#     detailed runs.
#
# Host performance is not gated here: one run per side cannot resolve
# a few percent on a shared host. Measure it with interleaved pairs of
# perfbench/run.py (perfbench/README.md).
#
# Usage: scripts/check.sh [extra ctest args...]
#   CHECK_JOBS=N            parallelism (default: nproc)
#   CHECK_BUILD_DIR=dir     build-tree root (default: build-check)
#   CHECK_ACCURACY_GATE=0   skip the sampled-mode accuracy gate
#   CHECK_ACCURACY_EPS=F    allowed fractional sampled-vs-detailed IPC
#                           error (default 0.03)
#   CHECK_ACCURACY_SPEEDUP=F required functional-vs-detailed host-MIPS
#                           factor of sampled runs (default 5.0)
set -euo pipefail

cd "$(dirname "$0")/.."

jobs="${CHECK_JOBS:-$(nproc)}"
root="${CHECK_BUILD_DIR:-build-check}"

run_config() {
    local name="$1"
    local label="$2"
    shift 2
    local dir="$root/$name"
    local -a label_args=()
    [[ -n "$label" ]] && label_args=(-L "$label")
    echo "== configure $name =="
    cmake -B "$dir" -S . "$@" >/dev/null
    echo "== build $name =="
    cmake --build "$dir" -j "$jobs"
    echo "== test $name =="
    (cd "$dir" &&
         ctest --output-on-failure -j "$jobs" "${label_args[@]}" \
               "${CTEST_ARGS[@]}")
}

CTEST_ARGS=("$@")

if command -v python3 >/dev/null; then
    echo "== check_stats_schema selftest =="
    python3 scripts/check_stats_schema.py --selftest
    echo "== accuracy_gate selftest =="
    python3 scripts/accuracy_gate.py --selftest
fi

run_config release "" -DCMAKE_BUILD_TYPE=Release
run_config asan-ubsan unit \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DVCA_SANITIZE=address,undefined

# Accuracy gate: the sampled execution modes on the real CLI. For
# every renamer architecture, a --mode=sampled run must land within
# CHECK_ACCURACY_EPS of the detailed IPC and its functional
# fast-forward side must beat the detailed side's host-MIPS by
# CHECK_ACCURACY_SPEEDUP. The in-process twin of this gate is
# `ctest -L accuracy` (already covered by the release configuration
# above); this stage proves the vca-sim plumbing end to end.
if [[ "${CHECK_ACCURACY_GATE:-1}" != 0 ]] && command -v python3 >/dev/null
then
    echo "== accuracy gate =="
    python3 scripts/accuracy_gate.py \
            --sim "$root/release/tools/vca-sim" \
            --eps "${CHECK_ACCURACY_EPS:-0.03}" \
            --speedup "${CHECK_ACCURACY_SPEEDUP:-5.0}" \
            --simpoint
fi

echo "== all configurations passed =="
