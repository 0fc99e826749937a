"""Tests for the benchmark's arithmetic (benchstats.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchstats as bs  # noqa: E402


def bench_b(name, ts, sid, parent, point=-1, phase=None):
    args = {"span": sid, "parent": parent, "point": point}
    if phase:
        args["phase"] = phase
    return {"ph": "B", "pid": bs.BENCH_PID, "tid": 0, "name": name,
            "ts": ts, "args": args}


def bench_e(ts):
    return {"ph": "E", "pid": bs.BENCH_PID, "tid": 0, "ts": ts,
            "name": ""}


def runner_slice(name, ts, dur, tid=1):
    return [{"ph": "B", "pid": bs.RUNNER_PID, "tid": tid, "name": name,
             "ts": ts},
            {"ph": "E", "pid": bs.RUNNER_PID, "tid": tid, "ts": ts + dur,
             "name": ""}]


class Percentiles(unittest.TestCase):
    def test_percentile_interpolates(self):
        xs = [4, 1, 3, 2]
        self.assertEqual(bs.percentile(xs, 0), 1)
        self.assertEqual(bs.percentile(xs, 100), 4)
        self.assertAlmostEqual(bs.percentile(xs, 50), 2.5)
        self.assertAlmostEqual(bs.percentile(list(range(101)), 90), 90)

    def test_percentile_of_nothing_is_an_error(self):
        with self.assertRaises(ValueError):
            bs.percentile([], 50)

    def test_reportable_percentile_needs_ten_samples_beyond(self):
        self.assertIsNone(bs.reportable_percentile(19))
        self.assertEqual(bs.reportable_percentile(20), 50)
        self.assertEqual(bs.reportable_percentile(40), 75)
        self.assertEqual(bs.reportable_percentile(100), 90)
        self.assertEqual(bs.reportable_percentile(1000), 99)

    def test_summary_states_sample_count(self):
        s = bs.summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual(s["n"], 5)
        self.assertEqual(s["median"], 3.0)
        self.assertEqual(s["max"], 5.0)
        self.assertNotIn("p50", s)
        s = bs.summarize([float(i) for i in range(100)])
        self.assertAlmostEqual(s["p90"], 89.1)


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # round [0, 100] > run [10, 60] > sim slice [20, 50];
        # pathLength [70, 90] directly under round.
        events = [bench_b("round", 0, 0, -1),
                  bench_b("SweepRunner::run", 10, 1, 0)]
        events += runner_slice("sim a/vca/192", 20, 30)
        events += [bench_e(60),
                   bench_b("analysis::pathLength", 70, 2, 0),
                   bench_e(90), bench_e(100)]
        spans = bs.spans_from_trace(events)
        root = next(s for s in spans if s.name == "round")
        by_name = bs.self_time_by_name(spans, root)
        self.assertAlmostEqual(by_name["round"], 30e-6)
        self.assertAlmostEqual(by_name["SweepRunner::run"], 20e-6)
        self.assertAlmostEqual(by_name["analysis::runTiming"], 30e-6)
        self.assertAlmostEqual(by_name["analysis::pathLength"], 20e-6)
        self.assertAlmostEqual(sum(by_name.values()), root.dur)

    def test_overlapping_children_count_once(self):
        spans = [bs.Span("p", 0.0, 10.0, 0, -1),
                 bs.Span("a", 1.0, 5.0, 1, 0),
                 bs.Span("b", 4.0, 6.0, 2, 0),
                 bs.Span("c", 9.0, 12.0, 3, 0)]  # clipped at 10
        self.assertAlmostEqual(bs.self_times(spans)[0], 10 - 5 - 1)

    def test_runner_slices_attach_to_innermost_run(self):
        events = [bench_b("round", 0, 0, -1),
                  bench_b("SweepRunner::run", 0, 1, 0), bench_e(10),
                  bench_b("SweepRunner::run", 20, 2, 0)]
        events += runner_slice("hit x/vca/128", 21, 2, tid=0)
        events += [bench_e(30), bench_e(40)]
        spans = bs.spans_from_trace(events)
        load = next(s for s in spans if s.name == "ResultCache::load")
        self.assertEqual(load.parent, 2)
        self.assertAlmostEqual(load.dur, 2e-6)

    def test_phase_survives(self):
        spans = bs.spans_from_trace(
            [bench_b("OooCpu::run", 0, 0, -1, point=3, phase="measure"),
             bench_e(5)])
        self.assertEqual(spans[0].phase, "measure")


class Failures(unittest.TestCase):
    def test_rounds_accumulate(self):
        ops = bs.Ops()
        ops.add(30, 0)
        ops.add(30, 2, ["a", "b"])
        self.assertEqual((ops.attempted, ops.failed), (60, 2))
        self.assertAlmostEqual(ops.share(), 2 / 60)
        self.assertEqual(ops.errors, ["a", "b"])

    def test_check_outside_an_operation_counts_as_one(self):
        ops = bs.Ops()
        ops.add(4, 0)
        ops.fail("digests differ")
        self.assertEqual((ops.attempted, ops.failed), (5, 1))

    def test_impossible_counts_rejected(self):
        ops = bs.Ops()
        with self.assertRaises(ValueError):
            ops.add(1, 2)
        with self.assertRaises(ValueError):
            ops.add(-1, 0)
        self.assertEqual(bs.Ops().share(), 0.0)

    def test_ratio_of_nothing_is_zero(self):
        self.assertEqual(bs.ratio(5, 0), 0.0)
        self.assertEqual(bs.ratio(1, 4), 0.25)


if __name__ == "__main__":
    unittest.main()
