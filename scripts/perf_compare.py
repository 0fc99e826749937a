#!/usr/bin/env python3
"""Compare simulator host throughput between two benchmark runs.

Every figure bench writes a BENCH_<name>.json next to its other outputs
(or into VCA_BENCH_JSON_DIR) containing a "host" group: wall-clock
seconds, simulated instructions/cycles, and the derived sim_mips for
every detailed simulation the bench ran. This script diffs those
numbers between two such directories -- typically a baseline checkout
and a candidate -- and fails when any bench's host-MIPS regressed by
more than the allowed threshold.

Usage:
  perf_compare.py BASELINE_DIR CANDIDATE_DIR [--threshold FRAC]

  --threshold FRAC  allowed fractional regression before the exit
                    status turns nonzero (default 0.10 = 10%; host
                    throughput is noisy, so leave headroom)
  --selftest        run against synthesized inputs and exit; used by
                    scripts/check.sh as a smoke test

When a bench regresses, the script also diffs the "cycle_taxonomy"
block the benches export (the reference VCA configuration's taxonomy
leaves, in absolute cycles) and prints the top-3 leaves whose CPI
contribution moved -- so a regression report says *why* simulated
behavior changed, or that it did not (pure host-side slowdown).
Without the block, or with different leaf names on the two sides, the
script prints a notice instead.

Non-detailed runs additionally export a per-point "sampling" block
(sampled IPC with a 95% confidence interval). When both sides carry
it, the script flags points whose intervals are disjoint -- a
statistically significant IPC change -- and a significantly *lower*
candidate also fails the comparison. A non-detailed document without
the block (written by an older bench) gets a one-line notice and the
CI comparison is skipped for it; only the host-MIPS diff applies.

Exit status: 0 when no bench regressed beyond the threshold, 1 on a
regression (host-MIPS or significant sampled-IPC drop), 2 on
usage/input errors.
"""

import argparse
import json
import math
import sys
from pathlib import Path


class MissingHostStats(Exception):
    """A well-formed BENCH_*.json without a usable host-stats block."""


def load_host_mips(path):
    """(mode, host.sim_mips) from one BENCH_*.json, or None if skippable.

    Unreadable/unparseable files are warned about and skipped (they are
    someone else's garbage); a file that parses but has no host-stats
    block raises MissingHostStats -- that means the bench was built
    without host accounting and the comparison would be silently empty,
    which main() turns into exit status 2.

    The mode is the bench's execution mode ("detailed" when the file
    predates the field or the run was detailed). Detailed host-MIPS and
    sampled host-MIPS measure different work per wall-clock second, so
    collect() keeps them under distinct keys instead of conflating
    them.
    """
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"warning: skipping {path}: {e}", file=sys.stderr)
        return None
    # A degraded run: some sweep points failed after retries, so the
    # host numbers cover an unknown subset of the work. Comparing them
    # would blame (or credit) the wrong code; skip with a notice.
    failures = doc.get("failures")
    if isinstance(failures, list) and failures:
        print(f"notice: skipping {path}: run recorded "
              f"{len(failures)} failed sweep point(s); host throughput "
              f"is not comparable", file=sys.stderr)
        return None
    host = doc.get("host")
    if not isinstance(host, dict):
        raise MissingHostStats(
            f"{path}: no \"host\" stats block -- the bench that wrote "
            f"this file did not record host throughput (re-run it with "
            f"host stats enabled)")
    mips = host.get("sim_mips")
    if not isinstance(mips, (int, float)) or not math.isfinite(mips):
        raise MissingHostStats(
            f"{path}: \"host\" block has no numeric sim_mips field")
    # sim_mips == 0 is a warm-cache run (zero detailed simulations):
    # nothing to compare, but not an input error.
    if mips <= 0:
        return None
    mode = doc.get("mode", "detailed")
    if not isinstance(mode, str) or not mode:
        mode = "detailed"
    return mode, float(mips)


def collect(dirpath):
    """Map comparison key -> host MIPS for every BENCH_*.json in dirpath.

    The key is the bench name for detailed runs (the historical and
    common case) and "name@mode" otherwise, so a sampled run of a bench
    never gets diffed against a detailed run of the same bench -- a
    mode switch between baseline and candidate shows up as two
    "only in one run" rows instead of a bogus speedup.
    """
    out = {}
    for path in sorted(Path(dirpath).glob("BENCH_*.json")):
        loaded = load_host_mips(path)
        if loaded is None:
            continue
        mode, mips = loaded
        name = path.stem[len("BENCH_"):]
        out[name if mode == "detailed" else f"{name}@{mode}"] = mips
    return out


def compare(base, cand, threshold):
    """Print the per-bench table; return names regressed past threshold."""
    names = sorted(set(base) | set(cand))
    if not names:
        print("no BENCH_*.json with host stats found in either directory")
        return []
    width = max(len(n) for n in names)
    print(f"{'bench':<{width}}  {'base MIPS':>10}  {'cand MIPS':>10}  "
          f"{'speedup':>8}")
    regressed = []
    speedups = []
    for name in names:
        b, c = base.get(name), cand.get(name)
        if b is None or c is None:
            side = "baseline" if b is None else "candidate"
            print(f"{name:<{width}}  -- only in one run "
                  f"(missing from {side}) --")
            continue
        ratio = c / b
        speedups.append(ratio)
        flag = ""
        if ratio < 1.0 - threshold:
            regressed.append(name)
            flag = "  REGRESSED"
        print(f"{name:<{width}}  {b:>10.3f}  {c:>10.3f}  "
              f"{ratio:>7.2f}x{flag}")
    if speedups:
        geomean = math.exp(sum(math.log(s) for s in speedups)
                           / len(speedups))
        print(f"{'geomean':<{width}}  {'':>10}  {'':>10}  "
              f"{geomean:>7.2f}x")
    return regressed


def load_sampling_points(path):
    """Map point key -> (ipc, ci_lo, ci_hi, unbounded) for one file.

    Detailed documents have no sampling block by design and return {}
    silently. A *non-detailed* document without one was written before
    the block existed (an old baseline): that is a one-line notice and
    an empty map, never a hard error -- the host-MIPS comparison still
    applies to it.
    """
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError):
        return {}  # load_host_mips already warned about this file
    mode = doc.get("mode", "detailed")
    if not isinstance(mode, str) or mode == "detailed":
        return {}
    block = doc.get("sampling")
    if not isinstance(block, list):
        print(f"notice: {path}: non-detailed run without a sampling "
              f"block (written by an older bench?); skipping the "
              f"CI-aware IPC comparison for it", file=sys.stderr)
        return {}
    name = Path(path).stem[len("BENCH_"):]
    out = {}
    for entry in block:
        if not isinstance(entry, dict):
            continue
        try:
            key = (f"{name}:{entry['label']}/{entry['workload']}"
                   f"@{entry['phys_regs']}")
            out[key] = (float(entry["ipc"]),
                        float(entry["ipc_ci_lo"]),
                        float(entry["ipc_ci_hi"]),
                        bool(entry.get("ci_unbounded", False)))
        except (KeyError, TypeError, ValueError):
            continue
    return out


def collect_sampling(dirpath):
    """Union of load_sampling_points over every BENCH_*.json."""
    out = {}
    for path in sorted(Path(dirpath).glob("BENCH_*.json")):
        out.update(load_sampling_points(path))
    return out


def compare_sampling(base, cand):
    """Flag sampled points whose 95% CIs are disjoint between runs.

    Returns the keys whose candidate interval lies strictly *below*
    the baseline interval (a statistically significant IPC drop).
    Unbounded intervals (n=1) overlap everything by construction.
    """
    common = sorted(set(base) & set(cand))
    if not common:
        return []
    regressed = []
    significant = 0
    for key in common:
        bipc, blo, bhi, bunb = base[key]
        cipc, clo, chi, cunb = cand[key]
        if bunb or cunb:
            continue
        if chi < blo or clo > bhi:
            significant += 1
            direction = "drop" if chi < blo else "gain"
            print(f"  {key}: sampled IPC {bipc:.4f} "
                  f"[{blo:.4f}, {bhi:.4f}] -> {cipc:.4f} "
                  f"[{clo:.4f}, {chi:.4f}]  significant {direction}")
            if chi < blo:
                regressed.append(key)
    print(f"sampled IPC: {len(common)} comparable point(s), "
          f"{significant} with disjoint 95% CIs")
    return regressed


def load_taxonomy(path):
    """(cycles, insts, {leaf: cycles}) from a BENCH json, or None."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError):
        return None
    tax = doc.get("cycle_taxonomy")
    if not isinstance(tax, dict):
        return None
    cycles = tax.get("cycles")
    insts = tax.get("insts")
    leaves = tax.get("leaves")
    if (not isinstance(cycles, (int, float)) or
            not isinstance(insts, (int, float)) or insts <= 0 or
            not isinstance(leaves, dict)):
        return None
    return (float(cycles), float(insts),
            {k: float(v) for k, v in leaves.items()
             if isinstance(v, (int, float))})


def explain_regressions(regressed, basedir, canddir):
    """Attribute each regression to the taxonomy leaves that moved.

    The leaves partition the reference run's cycles, so per-leaf CPI
    deltas sum exactly to the CPI gap; an unchanged reference CPI
    means the simulator behaves identically and the regression is
    host-side (build, toolchain, telemetry overhead).
    """
    for name in regressed:
        base = load_taxonomy(Path(basedir, f"BENCH_{name}.json"))
        cand = load_taxonomy(Path(canddir, f"BENCH_{name}.json"))
        if base is None or cand is None:
            print(f"  {name}: no cycle_taxonomy block on both sides; "
                  f"cannot attribute (re-run the benches to export it)")
            continue
        bcyc, bins, bleaf = base
        ccyc, cins, cleaf = cand
        if set(bleaf) != set(cleaf):
            print(f"  {name}: cycle_taxonomy leaf names differ between "
                  f"the two sides; cannot attribute (re-run the "
                  f"baseline benches to export the same leaves)")
            continue
        gap = ccyc / cins - bcyc / bins
        if abs(gap) < 1e-12:
            print(f"  {name}: reference CPI unchanged -- simulated "
                  f"behavior is identical; the slowdown is host-side")
            continue
        deltas = sorted(
            ((cleaf[leaf] / cins - bleaf[leaf] / bins, leaf)
             for leaf in bleaf),
            key=lambda t: (-abs(t[0]), t[1]))
        print(f"  {name}: reference CPI moved {gap:+.4f}; "
              f"top attributed causes:")
        for delta, leaf in deltas[:3]:
            print(f"    {leaf:<28} {delta:+.4f} cpi "
                  f"({delta / gap:+.0%} of gap)")


def selftest():
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        basedir = Path(tmp, "base")
        canddir = Path(tmp, "cand")
        basedir.mkdir()
        canddir.mkdir()

        def write(d, name, mips):
            doc = {"bench": name, "host": {"sim_mips": mips}}
            Path(d, f"BENCH_{name}.json").write_text(json.dumps(doc))

        write(basedir, "fast", 4.0)
        write(canddir, "fast", 6.0)     # 1.5x speedup
        write(basedir, "steady", 4.0)
        write(canddir, "steady", 3.8)   # -5%: inside 10% threshold
        write(basedir, "only_base", 4.0)
        Path(canddir, "BENCH_junk.json").write_text("{ not json")

        if compare(collect(basedir), collect(canddir), 0.10):
            print("selftest: FAILED (false regression)", file=sys.stderr)
            return 1

        # Valid JSON without a host block must be a hard error (exit 2
        # via MissingHostStats), not a silent skip.
        nohost = Path(canddir, "BENCH_nohost.json")
        nohost.write_text(json.dumps({"bench": "nohost"}))
        try:
            collect(canddir)
        except MissingHostStats:
            pass
        else:
            print("selftest: FAILED (missing host block not detected)",
                  file=sys.stderr)
            return 1
        nohost.write_text(json.dumps(
            {"bench": "nohost", "host": {"wall_seconds": 1.0}}))
        try:
            collect(canddir)
        except MissingHostStats:
            pass
        else:
            print("selftest: FAILED (missing sim_mips not detected)",
                  file=sys.stderr)
            return 1
        nohost.unlink()

        # A run that recorded per-point failures is skipped with a
        # notice (its host numbers cover an unknown subset of the
        # sweep), never compared and never a hard error.
        degraded = Path(canddir, "BENCH_degraded.json")
        degraded.write_text(json.dumps(
            {"bench": "degraded", "host": {"sim_mips": 4.0},
             "failures": [{"label": "crafty/vca/192",
                           "error": "worker killed by signal 9",
                           "attempts": 3}]}))
        if "degraded" in collect(canddir):
            print("selftest: FAILED (degraded run not skipped)",
                  file=sys.stderr)
            return 1
        degraded.unlink()

        # Warm-cache runs (sim_mips == 0) are skippable, not errors.
        write(canddir, "warm", 0.0)
        if "warm" in collect(canddir):
            print("selftest: FAILED (warm-cache run not skipped)",
                  file=sys.stderr)
            return 1
        Path(canddir, "BENCH_warm.json").unlink()

        # Per-mode host-MIPS: a sampled run keys as "name@sampled", so
        # flipping a bench's mode between baseline and candidate never
        # produces a bogus speedup -- the rows simply stop pairing up.
        def write_mode(d, name, mips, mode):
            doc = {"bench": name, "mode": mode,
                   "host": {"sim_mips": mips}}
            Path(d, f"BENCH_{name}.json").write_text(json.dumps(doc))

        write_mode(basedir, "modal", 4.0, "detailed")
        write_mode(canddir, "modal", 40.0, "sampled")
        base_keys = collect(basedir)
        cand_keys = collect(canddir)
        if "modal" not in base_keys or "modal@sampled" not in cand_keys:
            print("selftest: FAILED (mode not reflected in keys)",
                  file=sys.stderr)
            return 1
        if compare(base_keys, cand_keys, 0.10):
            print("selftest: FAILED (cross-mode rows compared)",
                  file=sys.stderr)
            return 1
        Path(basedir, "BENCH_modal.json").unlink()
        Path(canddir, "BENCH_modal.json").unlink()

        write(basedir, "slow", 4.0)
        write(canddir, "slow", 2.0)     # -50%: must trip
        if compare(collect(basedir), collect(canddir), 0.10) != ["slow"]:
            print("selftest: FAILED (missed regression)", file=sys.stderr)
            return 1

        # A generous threshold forgives the same 50% drop.
        if compare(collect(basedir), collect(canddir), 0.60):
            print("selftest: FAILED (threshold ignored)", file=sys.stderr)
            return 1

        # Regression attribution: plant a spill-stall CPI gap in the
        # taxonomy blocks of the regressed bench and check the report
        # names it as the top cause.
        import io
        from contextlib import redirect_stdout

        def write_tax(d, name, mips, cycles, leaves):
            doc = {"bench": name, "host": {"sim_mips": mips},
                   "cycle_taxonomy": {"arch": "vca", "bench": "crafty",
                                      "phys_regs": 192,
                                      "cycles": cycles, "insts": 1000,
                                      "leaves": leaves}}
            Path(d, f"BENCH_{name}.json").write_text(json.dumps(doc))

        spill = "backend_memory.spill_stall"
        base_leaves = {"retiring": 1000, "backend_memory.dcache": 500,
                       spill: 0}
        write_tax(basedir, "slow", 4.0, 1500, base_leaves)
        write_tax(canddir, "slow", 2.0, 1900,
                  dict(base_leaves, **{spill: 400}))
        out = io.StringIO()
        with redirect_stdout(out):
            explain_regressions(["slow"], basedir, canddir)
        report = out.getvalue()
        if f"    {spill} " not in report.splitlines()[1]:
            print("selftest: FAILED (planted spill_stall gap not the "
                  "top attributed cause)", file=sys.stderr)
            return 1

        # Identical taxonomy on both sides: the report must call the
        # regression host-side instead of inventing a cause.
        write_tax(canddir, "slow", 2.0, 1500, base_leaves)
        out = io.StringIO()
        with redirect_stdout(out):
            explain_regressions(["slow"], basedir, canddir)
        if "host-side" not in out.getvalue():
            print("selftest: FAILED (unchanged CPI not reported as "
                  "host-side)", file=sys.stderr)
            return 1

        # A baseline with other leaf names (the six coarse buckets of
        # older exports) is a notice, never a ranking.
        write_tax(basedir, "slow", 4.0, 1900,
                  {"retiring": 1000, "mem_stall": 500,
                   "rename_stall": 400})
        out = io.StringIO()
        with redirect_stdout(out):
            explain_regressions(["slow"], basedir, canddir)
        if "leaf names differ" not in out.getvalue():
            print("selftest: FAILED (mismatched leaf sets were "
                  "attributed)", file=sys.stderr)
            return 1

        # No taxonomy block at all degrades to a notice, not a crash.
        write(canddir, "slow", 2.0)
        out = io.StringIO()
        with redirect_stdout(out):
            explain_regressions(["slow"], basedir, canddir)
        if "cannot attribute" not in out.getvalue():
            print("selftest: FAILED (missing taxonomy block not "
                  "handled)", file=sys.stderr)
            return 1
        Path(basedir, "BENCH_slow.json").unlink()
        Path(canddir, "BENCH_slow.json").unlink()

        # A non-detailed document WITHOUT the sampling block (old
        # baseline) is a one-line notice and an empty map -- never an
        # input error.
        from contextlib import redirect_stderr

        def write_sampled(d, name, points):
            doc = {"bench": name, "mode": "sampled",
                   "host": {"sim_mips": 40.0}}
            if points is not None:
                doc["sampling"] = [
                    {"label": lab, "workload": "crafty",
                     "phys_regs": regs, "samples": 20, "ipc": ipc,
                     "ipc_ci_lo": lo, "ipc_ci_hi": hi,
                     "ci_unbounded": unb, "mean_cpi": 1 / ipc,
                     "cpi_variance": 0.001,
                     "mean_tag_valid_fraction": 0.5,
                     "mean_bpred_table_occupancy": 0.2}
                    for lab, regs, ipc, lo, hi, unb in points]
            Path(d, f"BENCH_{name}.json").write_text(json.dumps(doc))

        write_sampled(basedir, "old", None)
        err = io.StringIO()
        with redirect_stderr(err):
            if load_sampling_points(Path(basedir, "BENCH_old.json")):
                print("selftest: FAILED (missing sampling block not "
                      "an empty map)", file=sys.stderr)
                return 1
        if "without a sampling block" not in err.getvalue():
            print("selftest: FAILED (missing sampling block not "
                  "noticed)", file=sys.stderr)
            return 1
        Path(basedir, "BENCH_old.json").unlink()

        # CI-aware comparison: disjoint intervals are significant (a
        # lower candidate regresses), overlapping ones are not, and
        # unbounded n=1 intervals never flag.
        write_sampled(basedir, "ci", [
            ("vca", 192, 2.00, 1.90, 2.10, False),
            ("vca", 256, 2.00, 1.90, 2.10, False),
            ("ideal", 192, 2.00, 1.90, 2.10, True),
        ])
        write_sampled(canddir, "ci", [
            ("vca", 192, 1.50, 1.40, 1.60, False),  # disjoint drop
            ("vca", 256, 1.95, 1.85, 2.05, False),  # overlaps
            ("ideal", 192, 1.00, 0.90, 1.10, False),  # base unbounded
        ])
        out = io.StringIO()
        with redirect_stdout(out):
            ipc_regressed = compare_sampling(
                collect_sampling(basedir), collect_sampling(canddir))
        if ipc_regressed != ["ci:vca/crafty@192"]:
            print(f"selftest: FAILED (CI comparison flagged "
                  f"{ipc_regressed})", file=sys.stderr)
            return 1
        if "significant drop" not in out.getvalue():
            print("selftest: FAILED (significant drop not reported)",
                  file=sys.stderr)
            return 1

    print("selftest: OK")
    return 0


def main():
    ap = argparse.ArgumentParser(
        description="Diff host-MIPS between two BENCH_*.json directories")
    ap.add_argument("baseline", nargs="?", help="directory of baseline "
                    "BENCH_*.json files")
    ap.add_argument("candidate", nargs="?", help="directory of candidate "
                    "BENCH_*.json files")
    ap.add_argument("--threshold", type=float, default=0.10,
                    metavar="FRAC",
                    help="allowed fractional regression (default 0.10)")
    ap.add_argument("--selftest", action="store_true",
                    help="exercise the comparison on synthetic inputs")
    args = ap.parse_args()

    if args.selftest:
        return selftest()
    if not args.baseline or not args.candidate:
        ap.error("baseline and candidate directories are required")
    if not 0.0 <= args.threshold < 1.0:
        ap.error("--threshold must be in [0, 1)")
    for d in (args.baseline, args.candidate):
        if not Path(d).is_dir():
            print(f"error: {d} is not a directory", file=sys.stderr)
            return 2

    try:
        base = collect(args.baseline)
        cand = collect(args.candidate)
    except MissingHostStats as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    regressed = compare(base, cand, args.threshold)
    ipc_regressed = compare_sampling(collect_sampling(args.baseline),
                                     collect_sampling(args.candidate))
    if regressed:
        print(f"FAIL: {len(regressed)} bench(es) regressed more than "
              f"{args.threshold:.0%}: {', '.join(regressed)}",
              file=sys.stderr)
        explain_regressions(regressed, args.baseline, args.candidate)
    if ipc_regressed:
        print(f"FAIL: {len(ipc_regressed)} sampled point(s) with a "
              f"statistically significant IPC drop: "
              f"{', '.join(ipc_regressed)}", file=sys.stderr)
    return 1 if regressed or ipc_regressed else 0


if __name__ == "__main__":
    sys.exit(main())
