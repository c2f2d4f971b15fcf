"""Self-tests of the benchmark harness (not of the system under test).

    python3 -m unittest perfbench.test_harness      # from the repository root
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench import common, inputs, serve, tracing  # noqa: E402
from perfbench.tracing import Span, Tracer  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_refuses_fewer_than_ten_beyond(self):
        with self.assertRaises(common.TooFewSamples):
            common.percentile(list(range(199)), 95)  # 9.95 beyond
        with self.assertRaises(common.TooFewSamples):
            common.percentile(list(range(99)), 90)  # 9.9 beyond
        with self.assertRaises(common.TooFewSamples):
            common.percentile(list(range(19)), 50)

    def test_accepts_exactly_ten_beyond(self):
        self.assertEqual(common.percentile(list(range(200)), 95), float(np.percentile(range(200), 95)))
        self.assertEqual(common.percentile(list(range(100)), 90), float(np.percentile(range(100), 90)))
        self.assertEqual(common.percentile(list(range(21)), 50), 10.0)


def _span(sid, start, end, parent=None):
    return Span(sid, f"s{sid}", start, end, parent)


class SelfTimeTest(unittest.TestCase):
    def test_nested_self_times_partition_the_root(self):
        spans = [
            _span(1, 0.0, 10.0),
            _span(2, 1.0, 4.0, parent=1),
            _span(3, 2.0, 3.0, parent=2),
            _span(4, 5.0, 6.0, parent=1),
        ]
        selfs = tracing.self_times(spans)
        self.assertEqual(selfs, {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0})
        self.assertEqual(tracing.partition_error(spans, selfs), 0.0)

    def test_overlapping_children_count_once_and_are_clipped(self):
        spans = [
            _span(1, 0.0, 10.0),
            _span(2, 1.0, 5.0, parent=1),
            _span(3, 3.0, 6.0, parent=1),  # overlaps span 2 on [3, 5]
            _span(4, 8.0, 12.0, parent=1),  # leaves the parent at 10
        ]
        selfs = tracing.self_times(spans)
        self.assertEqual(selfs[1], 10.0 - 5.0 - 2.0)
        self.assertEqual(tracing.covered_length([(1, 5), (3, 6), (8, 10)]), 7.0)

    def test_aggregate_filters_by_root_name(self):
        spans = [
            Span(1, "bench.pass", 0.0, 4.0),
            Span(2, "sketch.query", 1.0, 2.0, parent=1, n=5),
            Span(3, "bench.reads", 5.0, 6.0),
            Span(4, "sketch.query", 5.0, 5.5, parent=3, n=7),
        ]
        selfs = tracing.self_times(spans)
        agg = tracing.aggregate(spans, selfs, {"bench.pass"})
        self.assertEqual(agg["sketch.query"]["n"], 5)
        self.assertEqual(agg["sketch.query"]["self"], 1.0)
        self.assertEqual(agg["bench.pass"]["self"], 3.0)


class MergedSpansTest(unittest.TestCase):
    def test_server_spans_are_clipped_to_their_client_span(self):
        log = serve.Log(spans=[Span(7, "client.read", 0.0, 10.0, rid=7)])
        report = {"spans": [
            Span(1, "http.handler", 1.0, 10.5, rid=7).as_list(),  # outlives the client
            Span(2, "serving.engine_pair", 2.0, 3.0, parent=1).as_list(),
            Span(3, "http.handler", 11.0, 12.0, rid=99).as_list(),  # no client span
        ]}
        spans, clipped = serve.merged_spans(log, report)
        self.assertEqual(clipped, 1)
        self.assertEqual(sorted(s.name for s in spans),
                         ["client.read", "http.handler", "serving.engine_pair"])
        handler = next(s for s in spans if s.name == "http.handler")
        self.assertEqual((handler.start, handler.end), (1.0, 10.0))
        self.assertEqual(tracing.partition_error(spans), 0.0)


class _Toy:
    def work(self, items):
        return self.inner(items) + 1

    def inner(self, items):
        return len(items)

    @classmethod
    def make(cls):
        return cls()


class TracerTest(unittest.TestCase):
    def test_patch_records_nested_spans_and_restore_undoes_it(self):
        tracer = Tracer()
        original = _Toy.__dict__["work"]
        tracer.patch(_Toy, "work", "toy.work", count=lambda a, k, r: len(a[1]))
        tracer.patch(_Toy, "inner", "toy.inner")
        tracer.patch(_Toy, "make", "toy.make")
        with tracer.span("root"):
            self.assertEqual(_Toy.make().work([1, 2, 3]), 4)
        tracer.restore()
        self.assertIs(_Toy.__dict__["work"], original)
        by_name = {s.name: s for s in tracer.spans}
        self.assertEqual(set(by_name), {"root", "toy.make", "toy.work", "toy.inner"})
        self.assertEqual(by_name["toy.inner"].parent, by_name["toy.work"].sid)
        self.assertEqual(by_name["toy.work"].parent, by_name["root"].sid)
        self.assertEqual(by_name["toy.work"].n, 3)
        self.assertLess(tracing.partition_error(tracer.spans), 1e-9)


class InputsTest(unittest.TestCase):
    @staticmethod
    def _rows_equal(a, b):
        return len(a) == len(b) and all(
            np.array_equal(x[0], y[0]) and np.array_equal(x[1], y[1]) for x, y in zip(a, b)
        )

    def test_batch_inputs_repeat_per_seed(self):
        for make in (inputs.ingest_narrow, inputs.ingest_wide):
            a, b, c = make(3), make(3), make(4)
            self.assertTrue(self._rows_equal(a.rows, b.rows))
            self.assertEqual(a.reads, b.reads)
            self.assertTrue(np.array_equal(a.planted, b.planted))
            self.assertFalse(self._rows_equal(a.rows, c.rows))

    def test_serve_inputs_repeat_per_seed(self):
        a, b, c = (inputs.serve_mixed(s, 2.0) for s in (3, 3, 4))
        self.assertEqual(a.batch_bodies, b.batch_bodies)
        self.assertEqual(a.warmup_bodies, b.warmup_bodies)
        self.assertEqual(a.reads, b.reads)
        self.assertTrue(np.array_equal(a.check_keys, b.check_keys))
        self.assertNotEqual(a.batch_bodies, c.batch_bodies)

    def test_narrow_schedule_resolves(self):
        data = inputs.ingest_narrow(0)
        spec = inputs.narrow_spec(data.rows[: data.pilot_rows])
        self.assertEqual(spec.method, "ascs")
        self.assertGreater(spec.schedule[0], 0)


class BenchmarkFileTest(unittest.TestCase):
    def test_benchmark_json_matches_the_harness(self):
        path = ROOT / "BENCHMARK.json"
        if not path.is_file():
            self.skipTest("no BENCHMARK.json beside the benchmark")
        spec = json.loads(path.read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, common.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, common.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(inputs.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
