#!/usr/bin/env python3
"""Gate the sampled execution modes against the detailed reference.

Runs matched vca-sim pairs -- one detailed, one sampled (and optionally
one simpoint) -- for every renamer architecture and enforces the two
halves of the sampling contract that tests/test_accuracy.cc pins down
in-process:

  accuracy  |ipc_sampled - ipc_detailed| <= eps * ipc_detailed
            (default eps 0.03; --eps), AND the detailed IPC must fall
            inside the 95% confidence interval the sampled run reports
            on its "sampling:" output line (unbounded n=1 intervals
            pass trivially)
  speed     the functional fast-forward side of each sampled run must
            reach at least --speedup (default 5.0) times the host-MIPS
            of its detailed side, read from the run's own "func:" and
            "host:" output lines

The per-architecture table also reports the CI width and the worst
sample index (the sample whose CPI deviates most from the sampled
mean).

scripts/check.sh calls this after building Release; skip it there with
CHECK_ACCURACY_GATE=0.

Usage:
  accuracy_gate.py --sim PATH/TO/vca-sim [options]

  --sim PATH        the vca-sim binary to drive (required)
  --bench NAME      benchmark to measure (default crafty)
  --archs LIST      comma-separated architectures
                    (default baseline,regwindow,ideal,vca)
  --eps FRAC        allowed fractional IPC error (default 0.03)
  --speedup FACTOR  required functional-vs-detailed host-MIPS ratio
                    (default 5.0)
  --simpoint        also gate --mode=simpoint IPC (same eps)
  --selftest        exercise the output parser on synthetic text; used
                    by scripts/check.sh as a smoke test

Exit status: 0 when every architecture meets both contracts, 1 on a
violation, 2 on usage errors or unparseable simulator output.
"""

import argparse
import os
import re
import subprocess
import sys


class ParseError(Exception):
    """vca-sim output missing a line the gate depends on."""


def parse_run(text):
    """Extract the gate's inputs from one vca-sim run.

    Detailed runs have no "func:" line (func_mips is None) and no
    "sampling:" line (the CI keys are None).
    """
    out = {}
    m = re.search(r"^cycles=\d+ insts=\d+ ipc=([0-9.]+)", text,
                  re.MULTILINE)
    if not m:
        raise ParseError("no 'cycles=... ipc=...' line in output")
    out["ipc"] = float(m.group(1))
    m = re.search(r"^func: seconds=[0-9.]+ insts=[0-9.]+ mips=([0-9.]+)",
                  text, re.MULTILINE)
    out["func_mips"] = float(m.group(1)) if m else None
    m = re.search(r"^host: seconds=[0-9.]+ mips=([0-9.]+)", text,
                  re.MULTILINE)
    if not m:
        raise ParseError("no 'host: ... mips=...' line in output")
    out["host_mips"] = float(m.group(1))
    m = re.search(
        r"^sampling: samples=(\d+) mean_cpi=[0-9.]+ cpi_var=[0-9.]+ "
        r"ci95_cpi=\[[0-9.]+,[0-9.]+\] "
        r"ipc_ci95=\[([0-9.]+),([0-9.]+|inf)\] ci_unbounded=(\d) "
        r"worst_sample=(-?\d+)", text, re.MULTILINE)
    out["samples"] = int(m.group(1)) if m else None
    out["ipc_ci_lo"] = float(m.group(2)) if m else None
    out["ipc_ci_hi"] = float(m.group(3)) if m else None
    out["ci_unbounded"] = bool(int(m.group(4))) if m else None
    out["worst_sample"] = int(m.group(5)) if m else None
    return out


def run_sim(sim, bench, arch, mode, extra=()):
    args = [sim, f"--bench={bench}", f"--arch={arch}"]
    if mode != "detailed":
        args.append(f"--mode={mode}")
    args += list(extra)
    env = dict(os.environ, VCA_CACHE_DIR="")
    proc = subprocess.run(args, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise ParseError(
            f"{' '.join(args)} exited {proc.returncode}: "
            f"{proc.stderr.strip()}")
    return parse_run(proc.stdout)


# Matched budgets (mirroring tests/test_accuracy.cc): after a 240k
# warm-up past the cold-start transient, the sampled run takes
# 48k/2k = 24 quanta, one every 10k instructions, covering
# instructions [250k, ~490k]; the detailed reference measures exactly
# that span in one continuous run. SimPoint estimates steady-state
# whole-program behaviour, so its reference runs detailed from past
# the transient to program end.
DETAILED_ARGS = ("--warmup=250000", "--insts=240000")
SAMPLED_ARGS = ("--warmup=240000", "--sample-period=10000",
                "--sample-quantum=2000", "--sample-detail-warm=3000",
                "--insts=48000")
FULL_ARGS = ("--warmup=240000", "--insts=5000000")
SIMPOINT_ARGS = ("--warmup=20000", "--insts=60000")


def ci_check(arch, detailed_ipc, sampled):
    """CI-containment flag list for one sampled run (empty = pass)."""
    if sampled["ipc_ci_lo"] is None:
        return [f"no 'sampling: ...' line in sampled output"]
    if sampled["ci_unbounded"]:
        return []  # n=1: the interval is unbounded by construction
    if not sampled["ipc_ci_lo"] <= detailed_ipc \
            <= sampled["ipc_ci_hi"]:
        return [f"detailed ipc {detailed_ipc:.4f} outside sampled "
                f"95% CI [{sampled['ipc_ci_lo']:.4f}, "
                f"{sampled['ipc_ci_hi']:.4f}]"]
    return []


def gate(sim, bench, archs, eps, speedup, simpoint):
    failures = []
    print(f"{'arch':<14} {'detailed':>9} {'sampled':>9} {'err':>7} "
          f"{'CI width':>9} {'worst':>6} "
          f"{'func MIPS':>10} {'sim MIPS':>9} {'ratio':>7}")
    for arch in archs:
        detailed = run_sim(sim, bench, arch, "detailed", DETAILED_ARGS)
        sampled = run_sim(sim, bench, arch, "sampled", SAMPLED_ARGS)
        if detailed["ipc"] <= 0:
            raise ParseError(f"{arch}: detailed ipc is zero")
        err = abs(sampled["ipc"] - detailed["ipc"]) / detailed["ipc"]
        if sampled["func_mips"] is None:
            raise ParseError(f"{arch}: sampled run printed no func: "
                             f"line (functional side never ran?)")
        ratio = (sampled["func_mips"] / sampled["host_mips"]
                 if sampled["host_mips"] > 0 else float("inf"))
        flags = []
        if err > eps:
            flags.append(f"ipc error {err:.1%} > {eps:.1%}")
        if ratio < speedup:
            flags.append(f"speedup {ratio:.1f}x < {speedup:.1f}x")
        flags += ci_check(arch, detailed["ipc"], sampled)
        if sampled["ipc_ci_lo"] is not None:
            width = sampled["ipc_ci_hi"] - sampled["ipc_ci_lo"]
            ci_col = ("unbnd" if sampled["ci_unbounded"]
                      else f"{width:.4f}")
            worst_col = str(sampled["worst_sample"])
        else:
            ci_col, worst_col = "n/a", "n/a"
        print(f"{arch:<14} {detailed['ipc']:>9.4f} "
              f"{sampled['ipc']:>9.4f} {err:>6.1%} "
              f"{ci_col:>9} {worst_col:>6} "
              f"{sampled['func_mips']:>10.3f} "
              f"{sampled['host_mips']:>9.3f} {ratio:>6.1f}x"
              + ("  FAIL: " + "; ".join(flags) if flags else ""))
        failures += [f"{arch}: {f}" for f in flags]
        if simpoint:
            full = run_sim(sim, bench, arch, "detailed", FULL_ARGS)
            sp = run_sim(sim, bench, arch, "simpoint", SIMPOINT_ARGS)
            sperr = abs(sp["ipc"] - full["ipc"]) / full["ipc"]
            sp_flags = []
            if sperr > eps:
                sp_flags.append(
                    f"simpoint ipc error {sperr:.1%} > {eps:.1%}")
            sp_flags += [f"simpoint {f}"
                         for f in ci_check(arch, full["ipc"], sp)]
            if sp["ipc_ci_lo"] is not None:
                width = sp["ipc_ci_hi"] - sp["ipc_ci_lo"]
                ci_col = ("unbnd" if sp["ci_unbounded"]
                          else f"{width:.4f}")
                worst_col = str(sp["worst_sample"])
            else:
                ci_col, worst_col = "n/a", "n/a"
            line = (f"{arch + ' (simpoint)':<14} "
                    f"{full['ipc']:>9.4f} {sp['ipc']:>9.4f} "
                    f"{sperr:>6.1%} {ci_col:>9} {worst_col:>6}")
            if sp_flags:
                line += "  FAIL: " + "; ".join(sp_flags)
            print(line)
            failures += [f"{arch}: {f}" for f in sp_flags]
    return failures


def selftest():
    sampled_out = """\
arch=vca regs=192 threads=1 windowed=1 mode=sampled
cycles=12000 insts=24000 ipc=2.0000 cpi=0.5000
thread 0 (crafty): insts=24000
cycle accounting: commit=61.0% mem=20.0%
sampling: samples=12 mean_cpi=0.500000 cpi_var=0.000400 \
ci95_cpi=[0.487000,0.513000] ipc_ci95=[1.949318,2.053388] \
ci_unbounded=0 worst_sample=7
transplant: tag_valid=0.4012 bpred_occupancy=0.1200
func: seconds=0.050 insts=160000 mips=3.200
host: seconds=0.200 mips=0.150 cycles_per_sec=60000
"""
    detailed_out = """\
arch=vca regs=192 threads=1 windowed=1
cycles=30000 insts=60000 ipc=2.0100 cpi=0.4975
thread 0 (crafty): insts=60000
cycle accounting: commit=61.0% mem=20.0%
host: seconds=0.400 mips=0.150 cycles_per_sec=75000
"""
    s = parse_run(sampled_out)
    d = parse_run(detailed_out)
    if s != {"ipc": 2.0, "func_mips": 3.2, "host_mips": 0.15,
             "samples": 12, "ipc_ci_lo": 1.949318,
             "ipc_ci_hi": 2.053388, "ci_unbounded": False,
             "worst_sample": 7}:
        print(f"selftest: FAILED (sampled parse: {s})", file=sys.stderr)
        return 1
    if d["ipc"] != 2.01 or d["func_mips"] is not None \
            or d["ipc_ci_lo"] is not None:
        print(f"selftest: FAILED (detailed parse: {d})", file=sys.stderr)
        return 1
    if ci_check("vca", d["ipc"], s):
        print("selftest: FAILED (CI containment rejected a "
              "contained detailed ipc)", file=sys.stderr)
        return 1
    if not ci_check("vca", 2.10, s):
        print("selftest: FAILED (CI containment accepted an "
              "outside detailed ipc)", file=sys.stderr)
        return 1
    unbounded = dict(s, ci_unbounded=True)
    if ci_check("vca", 2.10, unbounded):
        print("selftest: FAILED (unbounded CI must pass trivially)",
              file=sys.stderr)
        return 1
    # A CPI lower bound of 0 prints the IPC upper bound as inf.
    open_hi = parse_run(sampled_out.replace("2.053388]", "inf]"))
    if open_hi["ipc_ci_hi"] != float("inf") \
            or ci_check("vca", 50.0, open_hi):
        print("selftest: FAILED (an inf upper bound must contain "
              "every ipc above the lower bound)", file=sys.stderr)
        return 1
    if not ci_check("vca", d["ipc"], parse_run(detailed_out)):
        print("selftest: FAILED (missing sampling line must flag)",
              file=sys.stderr)
        return 1
    err = abs(s["ipc"] - d["ipc"]) / d["ipc"]
    if not err <= 0.03:
        print("selftest: FAILED (synthetic pair outside eps)",
              file=sys.stderr)
        return 1
    if s["func_mips"] / s["host_mips"] < 5.0:
        print("selftest: FAILED (synthetic pair under speedup)",
              file=sys.stderr)
        return 1
    try:
        parse_run("no machine-readable lines here\n")
    except ParseError:
        pass
    else:
        print("selftest: FAILED (garbage input not rejected)",
              file=sys.stderr)
        return 1
    print("selftest: OK")
    return 0


def main():
    ap = argparse.ArgumentParser(
        description="Gate sampled-mode accuracy and speedup")
    ap.add_argument("--sim", help="path to the vca-sim binary")
    ap.add_argument("--bench", default="crafty")
    ap.add_argument("--archs",
                    default="baseline,regwindow,ideal,vca")
    ap.add_argument("--eps", type=float, default=0.03, metavar="FRAC")
    ap.add_argument("--speedup", type=float, default=5.0,
                    metavar="FACTOR")
    ap.add_argument("--simpoint", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        return selftest()
    if not args.sim:
        ap.error("--sim is required")
    if not os.access(args.sim, os.X_OK):
        print(f"error: {args.sim} is not executable", file=sys.stderr)
        return 2
    if not 0.0 < args.eps < 1.0:
        ap.error("--eps must be in (0, 1)")

    try:
        failures = gate(args.sim, args.bench,
                        [a for a in args.archs.split(",") if a],
                        args.eps, args.speedup, args.simpoint)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if failures:
        print(f"FAIL: {len(failures)} accuracy-contract violation(s):",
              file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("accuracy gate: all architectures within "
          f"{args.eps:.0%} ipc error and >= {args.speedup:.1f}x "
          "functional speedup")
    return 0


if __name__ == "__main__":
    sys.exit(main())
