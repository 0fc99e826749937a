"""Arithmetic behind the perfbench metrics: order statistics with their
sample counts, span self time, and failure accounting.

Pure functions only, so test_benchstats.py can pin them down without
building or running the simulator.
"""

import statistics

# Bench-side spans (perfbench/harness.cc) and the sweep runner's own
# host-time slices (src/analysis/runner.cc) live on these trace pids.
BENCH_PID = 200
RUNNER_PID = 100

# A runner slice is named "<kind> <point label>"; each kind times one
# public call.
RUNNER_SLICE_CALLS = {"sim": "analysis::runTiming",
                      "hit": "ResultCache::load"}


def median(values):
    return statistics.median(values)


def percentile(values, p):
    """Linear-interpolated p-th percentile (0 <= p <= 100)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def reportable_percentile(n, min_beyond=10):
    """Highest whole percentile with at least min_beyond of n samples
    above it, or None when even the median lacks them."""
    best = None
    for p in range(50, 100):
        if n * (100 - p) / 100.0 >= min_beyond:
            best = p
    return best


def summarize(values):
    """Median, quartiles, max and the highest percentile that has ten
    samples beyond it, with the sample count."""
    out = {"n": len(values), "median": median(values), "max": max(values)}
    if len(values) >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(values, n=4)
    p = reportable_percentile(len(values))
    if p is not None and p > 50:
        out["p%d" % p] = percentile(values, p)
    return out


class Ops:
    """Operations attempted and failed, summed over rounds and phases."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def add(self, attempted, failed, errors=()):
        if attempted < 0 or failed < 0 or failed > attempted:
            raise ValueError("bad operation counts %d/%d"
                             % (failed, attempted))
        self.attempted += attempted
        self.failed += failed
        self.errors.extend(errors)

    def fail(self, error):
        """A check that failed outside any counted operation (e.g. two
        rounds disagreeing): one more operation, failed."""
        self.add(1, 1, [error])

    def share(self):
        return self.failed / self.attempted if self.attempted else 0.0


class Span:
    def __init__(self, name, start, end, sid, parent, phase=None):
        self.name = name
        self.start = start
        self.end = end
        self.sid = sid
        self.parent = parent
        self.phase = phase

    @property
    def dur(self):
        return self.end - self.start


def spans_from_trace(events):
    """Rebuild spans (seconds) from Chrome trace events.

    Bench spans carry their id and parent in the B event's args. Runner
    slices become children of the innermost bench span named
    SweepRunner::run that contains them.
    """
    bench, runner = [], []
    open_events = {}
    for ev in events:
        ph = ev.get("ph")
        if ph not in ("B", "E"):
            continue
        track = (ev["pid"], ev["tid"])
        if ph == "B":
            open_events.setdefault(track, []).append(ev)
            continue
        b = open_events[track].pop()
        start, end = b["ts"] / 1e6, ev["ts"] / 1e6
        if ev["pid"] == BENCH_PID:
            a = b.get("args", {})
            bench.append(Span(b["name"], start, end, a["span"],
                              a["parent"], a.get("phase")))
        elif ev["pid"] == RUNNER_PID:
            kind = b["name"].split(" ", 1)[0]
            if kind in RUNNER_SLICE_CALLS:
                runner.append((RUNNER_SLICE_CALLS[kind], start, end))
    runs = [s for s in bench if s.name == "SweepRunner::run"]
    next_id = max([s.sid for s in bench] + [-1]) + 1
    for name, start, end in sorted(runner, key=lambda r: r[1]):
        parents = [r for r in runs if r.start <= start and end <= r.end]
        parent = min(parents, key=lambda r: r.dur).sid if parents else -1
        bench.append(Span(name, start, end, next_id, parent))
        next_id += 1
    return bench


def union_length(intervals):
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Span id -> duration minus the part of it its children cover."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = [(max(c.start, s.start), min(c.end, s.end))
                   for c in children.get(s.sid, [])]
        covered = [(lo, hi) for lo, hi in covered if hi > lo]
        out[s.sid] = s.dur - union_length(covered)
    return out


def subtree(spans, root_sid):
    by_parent = {}
    for s in spans:
        by_parent.setdefault(s.parent, []).append(s)
    out, todo = [], [root_sid]
    while todo:
        sid = todo.pop()
        for c in by_parent.get(sid, []):
            out.append(c)
            todo.append(c.sid)
    return out


def self_time_by_name(spans, root):
    """Self time per span name over root and everything below it."""
    selfs = self_times(spans)
    totals = {root.name: selfs[root.sid]}
    for s in subtree(spans, root.sid):
        totals[s.name] = totals.get(s.name, 0.0) + selfs[s.sid]
    return totals


def ratio(num, den):
    return num / den if den else 0.0
