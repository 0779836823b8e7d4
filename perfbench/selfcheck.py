"""Self-check of the benchmark harness on synthetic inputs.

Covers the span self-time arithmetic, the rule that a percentile needs at
least ten samples beyond it, and a corrupted digest being counted as a
failed operation. perfbench/run.py runs it before every measurement; it
also runs on its own:

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import io
import os
import sys
import tempfile
import threading
import unittest

from figures import median, percentile
from gate import Ledger, digest_after
from spans import Tracer


class FakeClock:
    def __init__(self, times):
        self._times = iter(times)

    def __call__(self):
        return next(self._times)


class SpanSelfTime(unittest.TestCase):
    def test_self_time_is_span_minus_direct_children(self):
        # parent [0, 100] holds a [10, 30] and b [40, 70]; b holds c [45, 50].
        tr = Tracer(clock=FakeClock([0, 10, 30, 40, 45, 50, 70, 100]), keep=("parent",))
        tr.begin("parent")
        tr.begin("a")
        tr.end()
        tr.begin("b")
        tr.begin("c")
        tr.end()
        tr.end()
        tr.end()
        agg = tr.aggregates()
        self.assertEqual(agg["parent"], (1, 100, 50))
        self.assertEqual(agg["a"], (1, 20, 20))
        self.assertEqual(agg["b"], (1, 30, 25))
        self.assertEqual(agg["c"], (1, 5, 5))
        self.assertEqual(tr.spans, [("parent", None, 0, 100)])

    def test_repeated_children_and_generator_spans(self):
        def gen():
            yield 1
            yield 2

        tr = Tracer(clock=FakeClock(range(0, 1000, 10)))
        traced = tr.wrap_gen(gen, "g")
        tr.begin("outer")
        self.assertEqual(list(traced()), [1, 2])
        tr.end()
        agg = tr.aggregates()
        # three next() calls of 10 ns each, the last one ending the generator
        self.assertEqual(agg["g"], (3, 30, 30))
        self.assertEqual(agg["outer"], (1, 70, 40))  # gaps of 10 ns between next() calls
        self.assertEqual(tr.counters()["g.items"], 2)

    def test_threads_keep_separate_stacks(self):
        tr = Tracer()
        tr.begin("main")

        def other():
            tr.begin("worker")
            tr.end()

        t = threading.Thread(target=other)
        t.start()
        t.join(10)
        self.assertFalse(t.is_alive())
        tr.end()
        agg = tr.aggregates()
        self.assertEqual(agg["main"][1], agg["main"][2])  # no child on its thread
        self.assertEqual(agg["worker"][0], 1)


class PercentileRule(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(percentile(list(range(999)), 99))
        self.assertEqual(percentile(list(range(1, 1001)), 99), 990.0)
        self.assertIsNone(percentile(list(range(19)), 50))
        self.assertEqual(percentile(list(range(1, 21)), 50), 10.0)
        self.assertIsNone(percentile([], 50))

    def test_median_of_few(self):
        self.assertEqual(median([3.0]), 3.0)
        self.assertEqual(median([1.0, 2.0, 10.0]), 2.0)


class BrokenDigestCounts(unittest.TestCase):
    def test_corrupt_body_is_a_failed_operation(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "synthetic.bag")
            body = b'{"t":0,"topic":"bio.ecg","seq":0,"data":{"v":0.5}}\n'
            with open(path, "wb") as fh:
                fh.write(b"MWBAG1\n{}\n" + body)
            pinned, size, lines = digest_after(path, 2)
            self.assertEqual((size, lines), (len(body), 1))
            ledger = Ledger()
            ledger.record_checks({"bag_digest": digest_after(path, 2)[0] == pinned})
            with open(path, "r+b") as fh:
                fh.seek(-3, io.SEEK_END)
                fh.write(b"6")
            ledger.record_checks({"bag_digest": digest_after(path, 2)[0] == pinned})
        self.assertEqual((ledger.attempted, ledger.failed), (2, 1))
        self.assertEqual(ledger.failed_share, 0.5)
        self.assertEqual(ledger.errors, ["bag_digest: output differs"])


def run() -> bool:
    """Run every check quietly; True when all pass."""
    suite = unittest.defaultTestLoader.loadTestsFromModule(sys.modules[__name__])
    result = unittest.TextTestRunner(stream=io.StringIO(), verbosity=0).run(suite)
    for _, trace in result.failures + result.errors:
        print(trace, file=sys.stderr)
    return result.wasSuccessful()


if __name__ == "__main__":
    unittest.main()
