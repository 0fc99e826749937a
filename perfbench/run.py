#!/usr/bin/env python3
"""Benchmark of the VCA simulator: end-to-end and per-layer host cost.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a checkout. Builds perfbench/ (the simulator
libraries plus harness.cc) into $CARGO_TARGET_DIR (default
.bench_build), then runs rounds of one workload, each in a fresh
harness process, for --seconds seconds, and prints as its last stdout
line one JSON object: correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics (README.md says how each
is taken over the rounds).
--trace 1 alternates untraced and traced rounds and reports the
per-layer metrics from the traced ones; README.md defines them all.

Workloads: smt-membound, sampled-whole, fig-warm.
Rounds start only while they fit in --seconds, which is capped at
MAX_SECONDS (printed when it applies) so a run ends within 180 s.
Seeds: 1 is the default for every recorded number, 2 is the held-out
seed; any seed picks points from the same pools.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchstats as bs  # noqa: E402

WORKLOADS = ("smt-membound", "sampled-whole", "fig-warm")
DEFAULT_SEED = 1
HELDOUT_SEED = 2

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

MIN_ROUNDS = 3           # per kind of round (untraced, traced)
ROUND_TIMEOUT_S = 120    # one harness process
MAX_SECONDS = 120        # longest measuring time a run accepts

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "sim_mips": "MIPS",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "wload.generate_s": "s", "wload.programs": "count",
    "runner.self_s": "s", "runner.load_us_per_hit": "us",
    "runner.store_us_per_miss": "us", "runner.cache_hits": "count",
    "runner.cache_misses": "count", "runner.points_failed": "count",
    "runner.points_retried": "count",
    "experiment.point_s_p50": "s", "experiment.point_s_max": "s",
    "experiment.pathlen_s": "s", "experiment.run_timing_calls": "count",
    "func.insts": "count", "func.s": "s", "func.mips": "MIPS",
    "cpu.construct_s": "s", "cpu.run_s": "s", "cpu.cycles": "count",
    "cpu.insts": "count", "cpu.ns_per_inst": "ns",
    "cpu.ns_per_cycle": "ns", "cpu.mem_stall_frac": "ratio",
    "cpu.squash_ratio": "ratio", "cpu.window_traps": "count",
    "core.spills": "count", "core.fills": "count",
    "core.table_hit_ratio": "ratio", "core.stalls_astq": "count",
    "core.stalls_no_free_reg": "count",
    "mem.dcache_accesses": "count", "mem.dcache_miss_ratio": "ratio",
    "mem.l2_miss_ratio": "ratio", "mem.mshr_rejects": "count",
    "bpred.lookups": "count", "bpred.mispredict_ratio": "ratio",
    "sampling.samples": "count", "sampling.func_s": "s",
    "sampling.detail_s": "s", "sampling.other_s": "s",
    "sampling.detail_inst_share": "ratio",
    "sampling.ipc_err_pct": "%", "sampling.speedup_vs_detailed": "x",
    "sampling.ci95_halfwidth_pct": "%",
    "trace.overhead_pct": "%",
}

# Which src/ layer each timed call belongs to, for the self-time table.
LAYER_OF = {
    "round": "perfbench (harness loop)",
    "SweepRunner::run": "analysis/runner",
    "ResultCache::load": "analysis/runner",
    "analysis::runTiming": "analysis/experiment",
    "analysis::pathLength": "analysis/experiment (func step path)",
    "analysis::executionTime": "analysis/experiment",
}

# What each workload must load, checked in every traced run:
# (metric, comparison, limit). pathlen_share is experiment.pathlen_s
# over the traced wall_s.
LOAD_CHECKS = {
    "smt-membound": [("cpu.mem_stall_frac", ">=", 0.8)],
    "sampled-whole": [("sampling.detail_inst_share", "<=", 0.10)],
    "fig-warm": [("experiment.run_timing_calls", "==", 0),
                 ("pathlen_share", ">=", 0.9)],
}

# Self times may differ from the harness's own timer by this much.
SELF_TIME_TOLERANCE_S = 1e-3


def scrubbed_env():
    """The environment minus every VCA_* knob (jobs, isolation, mode,
    fault injection, cache dir, progress, ...)."""
    return {k: v for k, v in os.environ.items() if not k.startswith("VCA_")}


def build(env):
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                             or ".bench_build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "perfbench_harness"])
    for cmd in steps:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr,
                              stderr=sys.stderr)
        if proc.returncode != 0:
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench_harness")


def source_id():
    """The commit when the checkout is a git repository, else a hash of
    the sources the benchmark builds."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            return proc.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for f in sorted(files):
                path = os.path.join(dirpath, f)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def run_harness(harness, env, args):
    proc = subprocess.run([harness] + args, env=env, capture_output=True,
                          text=True, timeout=ROUND_TIMEOUT_S)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit("perfbench: harness %s exited %d"
                         % (" ".join(args), proc.returncode))
    return json.loads(proc.stdout)


def check_trace_file(path):
    checker = os.path.join(ROOT, "scripts", "check_chrome_trace.py")
    proc = subprocess.run([sys.executable, checker, path],
                          capture_output=True, text=True)
    return proc.returncode == 0, (proc.stdout + proc.stderr).strip()


def traced_round_metrics(rnd, spans):
    """Per-layer numbers of one traced round (times from its spans,
    counts from the harness)."""
    c = rnd["counts"]
    host = rnd["host"]

    def total(name, phase=None):
        return sum(s.dur for s in spans
                   if s.name == name and (phase is None or s.phase == phase))

    def durs(name):
        return [s.dur for s in spans if s.name == name]

    root = next(s for s in spans if s.name == "round")
    selfs = bs.self_times(spans)
    points = durs("analysis::runTiming")
    loads, stores = durs("ResultCache::load"), durs("ResultCache::store")
    pathlen_s = total("analysis::pathLength")
    measure_s = total("OooCpu::run", "measure")
    sampled = c["sampling.samples"] > 0
    func_s = pathlen_s + host["func_s"]
    m = {
        "wload.generate_s": total("wload::cachedProgram"),
        "wload.programs": c["wload.programs"],
        "runner.self_s": sum(selfs[s.sid] for s in spans
                             if s.name == "SweepRunner::run"),
        "runner.load_us_per_hit":
            1e6 * bs.ratio(sum(loads), len(loads)),
        "runner.store_us_per_miss":
            1e6 * bs.ratio(sum(stores), len(stores)),
        "runner.cache_hits": c["runner.cache_hits"],
        "runner.cache_misses": c["runner.cache_misses"],
        "runner.points_failed": c["runner.points_failed"],
        "runner.points_retried": c["runner.points_retried"],
        "experiment.point_s_p50": bs.median(points) if points else 0.0,
        "experiment.point_s_max": max(points) if points else 0.0,
        "experiment.pathlen_s": pathlen_s,
        "experiment.run_timing_calls": c["experiment.run_timing_calls"],
        "func.insts": c["func.insts"],
        "func.s": func_s,
        "func.mips": bs.ratio(c["func.insts"], func_s) / 1e6,
        "cpu.construct_s": total("OooCpu::OooCpu"),
        "cpu.run_s": total("OooCpu::run"),
        "cpu.cycles": c["cpu.cycles"],
        "cpu.insts": c["cpu.insts"],
        "cpu.ns_per_inst": 1e9 * bs.ratio(measure_s, c["cpu.insts"]),
        "cpu.ns_per_cycle": 1e9 * bs.ratio(measure_s, c["cpu.cycles"]),
        "cpu.mem_stall_frac":
            bs.ratio(c["cpu.mem_stall_cycles"], c["cpu.cycles"]),
        "cpu.squash_ratio": bs.ratio(c["cpu.squashed"], c["cpu.fetched"]),
        "cpu.window_traps":
            c["cpu.overflow_traps"] + c["cpu.underflow_traps"],
        "core.spills": c["core.spills"],
        "core.fills": c["core.fills"],
        "core.table_hit_ratio": bs.ratio(
            c["core.table_hits"],
            c["core.table_hits"] + c["core.table_misses"]),
        "core.stalls_astq": c["core.stalls_astq"],
        "core.stalls_no_free_reg": c["core.stalls_no_free_reg"],
        "mem.dcache_accesses": c["mem.dcache_accesses"],
        "mem.dcache_miss_ratio":
            bs.ratio(c["mem.dcache_misses"], c["mem.dcache_accesses"]),
        "mem.l2_miss_ratio":
            bs.ratio(c["mem.l2_misses"], c["mem.l2_accesses"]),
        "mem.mshr_rejects": c["mem.dcache_mshr_rejects"] +
            c["mem.l2_mshr_rejects"] + c["mem.icache_mshr_rejects"],
        "bpred.lookups": c["bpred.lookups"],
        "bpred.mispredict_ratio": bs.ratio(
            c["bpred.cond_mispredicts"] + c["bpred.ras_mispredicts"],
            c["bpred.lookups"]),
        "sampling.samples": c["sampling.samples"],
        "sampling.func_s": host["func_s"] if sampled else 0.0,
        "sampling.detail_s": host["detail_s"] if sampled else 0.0,
        "sampling.other_s": (sum(points) - host["func_s"] -
                             host["detail_s"]) if sampled else 0.0,
        "sampling.detail_inst_share":
            bs.ratio(c["sampling.sim_insts"], c["sampling.func_insts"]),
        "sampling.ci95_halfwidth_pct": rnd["ci95_halfwidth_pct"],
    }
    return m, root


# Per-layer metrics that are counts or ratios of counts: they must
# repeat exactly across traced rounds of one seed.
def is_count(name):
    return PER_LAYER[name] in ("count", "ratio") or name in (
        "sampling.ci95_halfwidth_pct",)


def run_rounds(harness, env, work, workload, seed, seconds, trace, ops):
    fill = None
    cache_warm = None
    if workload == "fig-warm":
        cache_warm = os.path.join(work, "cache-filled")
        fill = os.path.join(work, "fill.jsonl")
        res = run_harness(harness, env, ["--workload", workload, "--seed",
                                       str(seed), "--cache", cache_warm,
                                       "--phase", "fill", "--fill", fill])
        ops.add(res["attempted"], res["failed"], res["errors"])
    rounds = []
    start = time.monotonic()
    i = 0
    while True:
        traced = trace and i % 2 == 1
        cache = cache_warm or os.path.join(work, "cache-%d" % i)
        args = ["--workload", workload, "--seed", str(seed),
                "--cache", cache]
        if fill:
            args += ["--fill", fill]
        trace_path = None
        if traced:
            trace_path = os.path.join(work, "trace-%d.json" % i)
            args += ["--trace", trace_path]
        t0 = time.monotonic()
        res = run_harness(harness, env, args)
        res["round_s"] = time.monotonic() - t0
        res["trace_path"] = trace_path
        ops.add(res["attempted"], res["failed"], res["errors"])
        rounds.append(res)
        if not cache_warm:
            shutil.rmtree(cache, ignore_errors=True)
        i += 1
        # Stop before a round that would end past the measuring time,
        # once every kind of round has run MIN_ROUNDS times.
        kinds = 2 if trace else 1
        elapsed = time.monotonic() - start
        next_end = elapsed + kinds * bs.median([r["round_s"]
                                                for r in rounds])
        if next_end > seconds and i >= MIN_ROUNDS * kinds and \
                i % kinds == 0:
            return rounds


def print_points(workload, seed, rnd):
    print("# digest %s seed=%d: %s (%d points)"
          % (workload, seed, rnd["digest"], len(rnd["points"])))
    for label, digest in rnd["points"]:
        print("#   point %s %s" % (label, digest))


def print_summary(name, unit, values):
    s = bs.summarize(values)
    extra = "".join(" %s=%.6g" % (k, s[k]) for k in ("q1", "q3") if k in s)
    pct = [k for k in s if k.startswith("p") and k[1:].isdigit()]
    extra += "".join(" %s=%.6g" % (k, s[k]) for k in pct)
    print("# %s: median=%.6g %s (n=%d%s max=%.6g)"
          % (name, s["median"], unit, s["n"], extra, s["max"]))


def end_to_end(rounds):
    """wall_s and sim_mips are throughput over the whole run (timed
    seconds per round, instructions per timed second); the host's noise
    is broad rather than a few outliers, so these spread less from run
    to run than per-round medians. setup_s and peak_rss_mb are medians:
    set-up times have rare rounds many times slower than the rest."""
    values = {
        "wall_s": [r["wall_s"] for r in rounds],
        "setup_s": [r["setup_s"] for r in rounds],
        "sim_mips": [r["insts"] / r["wall_s"] / 1e6 for r in rounds],
        "peak_rss_mb": [r["peak_rss_mb"] for r in rounds],
    }
    print("# rounds wall_s: %s" % " ".join("%.4f" % v
                                           for v in values["wall_s"]))
    wall = sum(values["wall_s"])
    headline = {
        "wall_s": wall / len(rounds),
        "setup_s": bs.median(values["setup_s"]),
        "sim_mips": sum(r["insts"] for r in rounds) / wall / 1e6,
        "peak_rss_mb": bs.median(values["peak_rss_mb"]),
    }
    metrics = {}
    for name, unit in END_TO_END.items():
        print_summary(name, unit, values[name])
        metrics[name] = {"value": headline[name], "unit": unit}
    return metrics


def per_layer(harness, env, workload, seed, rounds, ops):
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    per_round = []
    for k, rnd in enumerate(traced):
        ok, msg = check_trace_file(rnd["trace_path"])
        print("# trace %s" % msg.replace(ROOT + os.sep, ""))
        if not ok:
            ops.fail("trace file invalid: " + msg)
            continue
        with open(rnd["trace_path"]) as fh:
            spans = bs.spans_from_trace(json.load(fh)["traceEvents"])
        m, root = traced_round_metrics(rnd, spans)
        by_name = bs.self_time_by_name(spans, root)
        total = sum(by_name.values())
        if abs(total - rnd["wall_s"]) > SELF_TIME_TOLERANCE_S:
            ops.fail("self times sum to %.6f s, traced wall_s is %.6f s"
                     % (total, rnd["wall_s"]))
        if k == 0:
            print("# self time by layer (traced round, wall_s=%.6f s):"
                  % rnd["wall_s"])
            for name, sec in sorted(by_name.items(), key=lambda kv: -kv[1]):
                print("#   %-40s %-28s %10.6f s"
                      % (LAYER_OF.get(name, "?"), name, sec))
            print("#   %-69s %10.6f s" % ("sum", total))
        per_round.append(m)
    if not per_round:
        raise SystemExit("perfbench: no valid traced round")

    metrics = {}
    for name in PER_LAYER:
        values = [m[name] for m in per_round if name in m]
        if not values:
            continue
        if is_count(name) and len(set(values)) != 1:
            ops.fail("%s differs across traced rounds: %s" % (name, values))
        metrics[name] = bs.median(values)

    wall_plain = bs.median([r["wall_s"] for r in plain])
    wall_traced = bs.median([r["wall_s"] for r in traced])
    metrics["trace.overhead_pct"] = 100.0 * (wall_traced / wall_plain - 1)

    print("# experiment.point_s_p50/max: over %d runTiming calls per "
          "traced round, median of %d traced rounds"
          % (per_round[0]["experiment.run_timing_calls"], len(per_round)))

    metrics["sampling.ipc_err_pct"] = 0.0
    metrics["sampling.speedup_vs_detailed"] = 0.0
    if per_round[0]["sampling.samples"] > 0:
        res = run_harness(harness, env, ["--workload", workload, "--seed",
                                       str(seed), "--phase", "matched"])
        ops.add(res["attempted"], res["failed"], res["errors"])
        pts = res["points"]
        errs = [100.0 * abs(p["sampled_ipc"] - p["detailed_ipc"]) /
                p["detailed_ipc"] for p in pts if p["detailed_ipc"] > 0]
        metrics["sampling.ipc_err_pct"] = sum(errs) / len(errs)
        metrics["sampling.speedup_vs_detailed"] = bs.ratio(
            sum(p["detailed_s"] for p in pts),
            sum(p["sampled_s"] for p in pts))

    load = dict(metrics)
    load["pathlen_share"] = metrics["experiment.pathlen_s"] / wall_traced
    for name, op, limit in LOAD_CHECKS[workload]:
        ok = {"<=": load[name] <= limit, ">=": load[name] >= limit,
              "==": load[name] == limit}[op]
        print("# load check: %s=%.4f (want %s %g) %s"
              % (name, load[name], op, limit, "ok" if ok else "FAILED"))
        if not ok:
            ops.fail("load check: %s=%.4f, want %s %g"
                     % (name, load[name], op, limit))
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in PER_LAYER.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="workload seed (default %d; held-out seed %d)"
                    % (DEFAULT_SEED, HELDOUT_SEED))
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 0:
        ap.error("--seed must be non-negative")
    if a.seconds > MAX_SECONDS:
        print("# --seconds %g capped at %d" % (a.seconds, MAX_SECONDS))
        a.seconds = MAX_SECONDS

    env = scrubbed_env()
    harness = build(env)
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=a.workload + "-",
                            dir=os.path.join(ROOT, ".bench_work"))
    ops = bs.Ops()
    try:
        rounds = run_rounds(harness, env, work, a.workload, a.seed,
                            a.seconds, bool(a.trace), ops)
        digests = {r["digest"] for r in rounds}
        if len(digests) != 1:
            ops.fail("rounds of one seed disagree: digests %s"
                     % sorted(digests))
        print("# perfbench env: build=%s; nproc=%d; loadavg=%s; "
              "source=%s; jobs=1; VCA_* scrubbed"
              % (" ".join(rounds[0]["build_flags"].split()),
                 os.cpu_count() or 0,
                 " ".join("%.2f" % x for x in os.getloadavg()),
                 source_id()))
        print_points(a.workload, a.seed, rounds[0])
        if a.trace:
            metrics = per_layer(harness, env, a.workload, a.seed, rounds,
                                ops)
        else:
            metrics = end_to_end(rounds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run's work directory is still there
    for e in ops.errors[:20]:
        print("# FAILED: %s" % e)
    print("# %d rounds, %d operations attempted, %d failed (share %.4f)"
          % (len(rounds), ops.attempted, ops.failed, ops.share()))
    print(json.dumps({"correct": ops.failed == 0,
                      "attempted": ops.attempted,
                      "failed": ops.failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
