"""Tests of the benchmark's own arithmetic and of the tracer's wiring.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import json
import os
import sys
import unittest

import measure
import run
import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class TailTest(unittest.TestCase):
    def test_highest_rung_with_ten_samples_beyond(self):
        samples = list(range(100, 0, -1))
        value, pct, n = measure.tail(samples)
        self.assertEqual((value, pct, n), (90, 90, 100))
        self.assertEqual(sum(1 for s in samples if s > value), 10)

    def test_rung_follows_the_sample_count(self):
        self.assertEqual(measure.tail(range(1000))[:2], (989, 99))
        self.assertEqual(measure.tail(range(999))[:2], (979, 98))
        self.assertEqual(measure.tail(range(499))[:2], (474, 95))
        self.assertEqual(measure.tail(range(40))[:2], (29, 75))
        self.assertEqual(measure.tail(range(20))[:2], (9, 50))
        self.assertEqual(measure.tail(range(20000))[:2], (19989, 99.95))

    def test_rung_is_steady_between_nearby_counts(self):
        pcts = {measure.tail(range(n))[1] for n in range(500, 1000, 37)}
        self.assertEqual(pcts, {98})

    def test_fewer_than_twenty_samples_give_the_maximum(self):
        self.assertEqual(measure.tail([3, 1, 2]), (3, 100.0, 3))
        self.assertEqual(measure.tail(range(19)), (18, 100.0, 19))

    def test_ties_count_by_rank(self):
        self.assertEqual(measure.tail([5] * 30), (5, 50, 30))

    def test_no_samples(self):
        with self.assertRaises(ValueError):
            measure.tail([])


def self_times(spans_):
    """self_times on (start, end, parent) triples."""
    starts, ends, parents = zip(*spans_)
    return measure.self_times(starts, ends, parents)


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        # root 0-10 holds a 1-4 (which holds 2-3) and b 5-9
        got = self_times([(0, 10, -1), (1, 4, 0), (2, 3, 1), (5, 9, 0)])
        self.assertEqual(got, [3, 2, 1, 4])

    def test_leaf_and_sibling_roots(self):
        self.assertEqual(self_times([(0, 2, -1), (2, 5, -1)]), [2, 3])

    def test_overlapping_children_are_counted_once(self):
        self.assertEqual(self_times([(0, 10, -1), (1, 5, 0), (4, 8, 0)]), [3, 4, 4])

    def test_child_time_outside_the_parent_is_not_subtracted(self):
        self.assertEqual(self_times([(0, 10, -1), (8, 12, 0)])[0], 8)

    def test_self_times_sum_to_root_duration(self):
        layout = [(0.0, 1.0, -1), (0.1, 0.4, 0), (0.15, 0.2, 1), (0.25, 0.35, 1),
                  (0.5, 0.9, 0), (0.6, 0.7, 4)]
        self.assertAlmostEqual(sum(self_times(layout)), 1.0)


class NormalizedTest(unittest.TestCase):
    def test_scaled_by_the_mean_reference(self):
        nominal = measure.NOMINAL_REFERENCE_S
        self.assertAlmostEqual(measure.normalized(3.0, 2 * nominal, 4 * nominal), 1.0)
        self.assertAlmostEqual(measure.normalized(0.5, nominal, nominal), 0.5)


class SpreadTest(unittest.TestCase):
    def test_interquartile_share_of_median(self):
        values = [10.0] * 5 + [11.0] * 5
        q1, q2, q3 = 10.0, 10.5, 11.0
        self.assertAlmostEqual(measure.spread(values), (q3 - q1) / q2)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(measure.spread([4.0] * 10), 0.0)


class TracerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, SRC)
        import ncunfold
        import ncunfold.cli

        cls.nc = ncunfold

    def test_rebinds_every_importer_and_restores(self):
        nc = self.nc
        original = nc.polyvector.schouten_bracket
        tracer = spans.Tracer()
        tracer.install(nc)
        try:
            for module in (nc, nc.polyvector, nc.unfolding, nc.cli):
                self.assertIsNot(module.schouten_bracket, original)
            self.assertIs(nc.cli.schouten_bracket, nc.unfolding.schouten_bracket)
        finally:
            tracer.uninstall()
        for module in (nc, nc.polyvector, nc.unfolding, nc.cli):
            self.assertIs(module.schouten_bracket, original)

    def test_spans_nest_and_count(self):
        nc = self.nc
        ctx = nc.RingContext(("x", "y", "z"))
        x = nc.parse_polynomial("x^2 + y", ctx)
        d1 = nc.GElement.gen(ctx, 1)
        tracer = spans.Tracer()
        tracer.install(nc)
        try:
            tracer.active = True
            tracer.op = 7
            nc.ad_f(x, d1)
            nc.ad_f(x, d1)
            tracer.active = False
            nc.ad_f(x, d1)
        finally:
            tracer.uninstall()
        metrics = tracer.layer_metrics()
        self.assertEqual(tracer.hits["ad_f"], 2)
        self.assertEqual(metrics["polyvector.bracket.calls"], 2)
        self.assertEqual(metrics["polyvector.bracket.repeat_ratio"], 2.0)
        self.assertEqual(metrics["polyvector.bracket.term_pairs"], 2)
        names = [tracer.names[i][1] for i in tracer.span_name]
        first_bracket = names.index("schouten_bracket")
        self.assertEqual(names[tracer.span_parent[first_bracket]], "ad_f")
        self.assertEqual(set(tracer.span_op), {7})
        self.assertGreater(metrics["polyvector.self_s"], 0)


class TallyTest(unittest.TestCase):
    def test_raise_outside_known_defects_is_wrong(self):
        tally = run.Tally()
        tally.record(1, KeyError("terms"), None)
        self.assertEqual((tally.attempted, tally.failed, tally.wrong), (1, 1, 1))

    def test_known_defect_fails_without_being_wrong(self):
        tally = run.Tally()
        tally.record(1, KeyError("terms"), None, known_defect=True)
        tally.record(2, None, "exit code 3, expected 1", known_defect=True)
        self.assertEqual((tally.attempted, tally.failed, tally.wrong), (2, 2, 0))

    def test_wrong_result_is_wrong(self):
        tally = run.Tally()
        self.assertTrue(tally.record(1, None, None))
        self.assertFalse(tally.record(2, None, "milnor number 7 != 8"))
        self.assertEqual((tally.attempted, tally.failed, tally.wrong), (2, 1, 1))


class ContractTest(unittest.TestCase):
    def test_run_reports_every_declared_metric(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            config = json.load(fh)
        per_layer = {m["name"] for m in config["per_layer"]}
        reported = set(spans.Tracer().layer_metrics()) | {"trace.overhead_ratio"}
        self.assertEqual(per_layer, reported)
        untraced = set(run.end_to_end([1.0], [0.1] * 20, 20)[0]) | {"peak_rss_mb"}
        self.assertEqual({m["name"] for m in config["end_to_end"]}, untraced)


if __name__ == "__main__":
    unittest.main()
