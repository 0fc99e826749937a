#!/usr/bin/env bash
# Full verification sweep: build and test the Release configuration and
# an AddressSanitizer/UBSan configuration.
#
# The Release configuration runs every ctest label (unit + golden +
# observability, including the slow determinism sweep). The sanitizer
# configuration runs only -L unit: the golden suite asserts exact cycle
# counts that are identical across configurations anyway, and
# simulating the sweep twice more under ASan adds minutes for no extra
# signal.
#
# A third configuration builds with -DVCA_NTELEMETRY=ON (probe hooks
# and sim events compiled out; both trees keep the cycle taxonomy) and
# gates the host-MIPS overhead of the disabled hooks via perf_compare.py.
#
# A final isolate-overhead gate checks that the robustness layer,
# enabled but idle, does not slow a warm cached sweep beyond
# CHECK_ROBUST_THRESHOLD. (The end-to-end chaos smoke is the
# robustness.chaos_smoke ctest, which the Release configuration runs.)
#
# Usage: scripts/check.sh [extra ctest args...]
#   CHECK_JOBS=N            parallelism (default: nproc)
#   CHECK_BUILD_DIR=dir     build-tree root (default: build-check)
#   CHECK_TELEM_GATE=0      skip the telemetry-overhead gate
#   CHECK_TELEM_THRESHOLD=F allowed fractional host-MIPS cost of the
#                           disabled telemetry hooks (default 0.05:
#                           the design target is 2%, the gate leaves
#                           headroom for host noise)
#   CHECK_ROBUST_GATE=0     skip the isolate-overhead gate
#   CHECK_ROBUST_THRESHOLD=F allowed fractional wall-clock cost of the
#                           enabled-but-idle robustness layer on a
#                           warm cached sweep (default 0.02, plus a
#                           fixed 50 ms slack for host noise)
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
    echo "== perf_compare selftest =="
    python3 scripts/perf_compare.py --selftest
    echo "== check_stats_schema selftest =="
    python3 scripts/check_stats_schema.py --selftest
    echo "== accuracy_gate selftest =="
    python3 scripts/accuracy_gate.py --selftest
fi

run_config release "" -DCMAKE_BUILD_TYPE=Release
run_config asan-ubsan unit \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DVCA_SANITIZE=address,undefined

# Telemetry-overhead gate: the probe hooks and sim events compiled in
# but *disabled* must not cost measurable host throughput. Build a
# configuration with them removed (-DVCA_NTELEMETRY=ON; the cycle
# taxonomy is in both trees), run the same bench in both trees with
# the sweep cache disabled, and diff host MIPS.
if [[ "${CHECK_TELEM_GATE:-1}" != 0 ]] && command -v python3 >/dev/null
then
    echo "== configure notelemetry =="
    cmake -B "$root/notelemetry" -S . -DCMAKE_BUILD_TYPE=Release \
          -DVCA_NTELEMETRY=ON >/dev/null
    echo "== build notelemetry (telemetry-overhead gate) =="
    cmake --build "$root/notelemetry" -j "$jobs" --target \
          bench_fig6_single_port
    cmake --build "$root/release" -j "$jobs" --target \
          bench_fig6_single_port
    echo "== telemetry-overhead gate =="
    gate="$root/telem-gate"
    rm -rf "$gate"
    mkdir -p "$gate/base" "$gate/cand"
    telem_insts="${CHECK_TELEM_INSTS:-60000}"
    for side in base cand; do
        tree=release
        [[ "$side" == base ]] && tree=notelemetry
        VCA_CACHE_DIR= VCA_BENCH_JSON_DIR="$gate/$side" \
            VCA_WARMUP_INSTS=2000 VCA_MEASURE_INSTS="$telem_insts" \
            "$root/$tree/bench/bench_fig6_single_port" >/dev/null
    done
    python3 scripts/perf_compare.py "$gate/base" "$gate/cand" \
            --threshold "${CHECK_TELEM_THRESHOLD:-0.05}"
fi

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

# Robustness overhead gate. The chaos smoke (the same sweep run clean
# and under heavy deterministic fault injection must print identical
# results) is ctest's robustness.chaos_smoke, already run by the
# release configuration above. Here, with isolation and checksums
# enabled but no fault firing, a warm sweep must cost no more than the
# stripped-down configuration. Every point of a warm sweep is a cache
# hit and none forks, so this bounds checksum verification only.
if [[ "${CHECK_ROBUST_GATE:-1}" != 0 ]] && command -v python3 >/dev/null
then
    sim="$PWD/$root/release/tools/vca-sim"
    work="$PWD/$root/robust-gate"
    rm -rf "$work"

    echo "== isolate-overhead gate =="
    python3 - "$sim" "$work/overhead-cache" <<'EOF'
import os
import subprocess
import sys
import time

sim, cache = sys.argv[1], sys.argv[2]
args = [sim, "--bench=crafty", "--arch=all", "--warmup=2000",
        "--insts=20000", "--sweep-regs=" + ",".join(
            str(r) for r in range(64, 257, 16))]

def best_of(runs, extra):
    env = dict(os.environ, VCA_CACHE_DIR=cache, VCA_FAULT_INJECT="",
               **extra)
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        subprocess.run(args, env=env, check=True,
                       stdout=subprocess.DEVNULL)
        best = min(best, time.perf_counter() - start)
    return best

best_of(1, {})  # populate the cache; timed runs below are pure hits
base = best_of(5, {"VCA_CACHE_VERIFY": "0", "VCA_ISOLATE": "0"})
cand = best_of(5, {"VCA_ISOLATE": "1"})
threshold = float(os.environ.get("CHECK_ROBUST_THRESHOLD", "0.02"))
slack = 0.05
print("isolate-overhead gate: base %.1f ms, robust %.1f ms" %
      (base * 1e3, cand * 1e3))
if cand > base * (1 + threshold) + slack:
    sys.exit("robust clean path %.3fs exceeds base %.3fs by more "
             "than %.0f%% + %.0f ms slack" %
             (cand, base, threshold * 100, slack * 1e3))
EOF
fi

echo "== all configurations passed =="
