"""Tests for the benchmark harness itself (not for bicayley).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import importlib
import signal
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MODULES = ("", ".abelian", ".graphs", ".symmetry", ".construction", ".voltage", ".bci", ".census", ".cli")


class FakeClock:
    def __init__(self, readings):
        self.readings = iter(readings)

    def __call__(self):
        return next(self.readings)


class WrapperTest(unittest.TestCase):
    def test_install_and_remove_leave_every_attribute_identical(self):
        modules = [importlib.import_module("bicayley" + m) for m in MODULES]
        perm_group = importlib.import_module("bicayley.symmetry").PermGroup
        owners = modules + [perm_group]
        before = [dict(vars(owner)) for owner in owners]
        census = importlib.import_module("bicayley.census")
        bci = importlib.import_module("bicayley.bci")
        symmetry = importlib.import_module("bicayley.symmetry")
        original = symmetry.certificate

        tracer = tracing.Tracer()
        tracer.install()
        try:
            # the from-imported names are rebound too, to the same wrapper
            self.assertIsNot(symmetry.certificate, original)
            self.assertIs(census.certificate, symmetry.certificate)
            self.assertIs(bci.certificate, symmetry.certificate)
            self.assertIsNot(perm_group.__dict__["order"], before[-1]["order"])
        finally:
            tracer.remove()

        for owner, snapshot in zip(owners, before):
            after = dict(vars(owner))
            self.assertEqual(after.keys(), snapshot.keys(), owner)
            for key, value in snapshot.items():
                self.assertIs(after[key], value, f"{owner}.{key}")

    def test_wrapped_calls_record_spans_with_parents(self):
        symmetry = importlib.import_module("bicayley.symmetry")
        construction = importlib.import_module("bicayley.construction")
        graph = construction.generalized_petersen(5, 2).graph
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.call("workload", symmetry.k_arc_regularity, graph)
        finally:
            tracer.remove()
        names = [span[0] for span in tracer.spans]
        self.assertEqual(names[:2], ["workload", "symmetry.k_arc_regularity"])
        self.assertIn("symmetry.automorphism_group", names)
        self.assertIn("symmetry.chain", names)
        self.assertTrue(all(span[3] >= 0 for span in tracer.spans[1:]))


class SelfTimeTest(unittest.TestCase):
    def test_self_time_of_a_nested_call(self):
        # outer [0, 10] holds inner [1, 3] and inner [4, 7]
        tracer = tracing.Tracer(clock=FakeClock([0, 1, 3, 4, 7, 10]))
        inner = tracer.wrap("graphs.is_connected", lambda: None)

        def outer():
            inner()
            inner()

        tracer.wrap("graphs.girth", outer)()
        metrics = tracing.layer_metrics(tracer.spans)
        self.assertEqual(tracing.self_times(tracer.spans), [5, 2, 3])
        self.assertEqual(metrics["graphs.girth.self_s"], 5)
        self.assertEqual(metrics["graphs.girth.total_s"], 10)
        self.assertEqual(metrics["graphs.is_connected.calls"], 2)
        self.assertEqual(metrics["graphs.is_connected.self_s"], 5)
        self.assertEqual(metrics["graphs.is_connected.total_s"], 5)

    def test_a_layer_nested_in_itself_counts_its_time_once(self):
        # chain [0, 10] holds chain [2, 6]
        tracer = tracing.Tracer(clock=FakeClock([0, 2, 6, 10]))
        inner = tracer.wrap("symmetry.chain", lambda: None)
        tracer.wrap("symmetry.chain", inner)()
        metrics = tracing.layer_metrics(tracer.spans)
        self.assertEqual(metrics["symmetry.chain.calls"], 2)
        self.assertEqual(metrics["symmetry.chain.self_s"], 10)
        self.assertEqual(metrics["symmetry.chain.total_s"], 10)

    def test_tail_leaves_ten_samples_above(self):
        values = list(range(55))
        self.assertEqual(tracing.tail(values), 44)
        self.assertEqual(sum(v > tracing.tail(values) for v in values), 10)
        self.assertEqual(tracing.tail([3, 1, 2]), 3)


class CheckTest(unittest.TestCase):
    def theorem_a_records(self, names):
        shapes = workloads.THEOREM_A_EXPECTED
        return [{"name": n, "vertices": shapes[n][0], "arc_type": shapes[n][1]} for n in names]

    def test_expected_outputs_pass(self):
        checks = workloads.Checks()
        workloads.check_theorem_a(checks, self.theorem_a_records(workloads.THEOREM_A_EXPECTED))
        self.assertEqual((checks.attempted, checks.failures), (5, []))

    def test_wrong_expectations_show_as_failed_checks(self):
        checks = workloads.Checks()
        workloads.check_theorem_a(checks, self.theorem_a_records(["K_4", "Q_3", "GP(8,3)"]))
        self.assertEqual(len(checks.failures), 2)

        checks = workloads.Checks()
        records = [
            {"description": f"m{i}", "is_bci": i != 0, "oracle_checked": i < 7}
            for i in range(workloads.THEOREM_B_MEMBERS)
        ]
        workloads.check_theorem_b(checks, records)
        self.assertEqual(checks.failures, ["m0: not BCI"])

        checks = workloads.Checks()
        workloads.check_census_record(checks, 2, {"description": "row 3", "ok": True, "arc_type": 3})
        self.assertEqual(checks.failures, ["row 3: arc type 3"])

    @staticmethod
    def a_pass(wall, attempted, failures):
        return {
            "wall_s": wall,
            "wall_ref_s": 2 * wall,
            "peak_rss_mb": 10.0,
            "attempted": attempted,
            "failures": failures,
        }

    def test_failed_checks_reach_the_summary(self):
        passes = {"run": [self.a_pass(2.0, 5, []), self.a_pass(1.0, 5, ["K_4 missing"])]}
        setups = [{"setup_s": s, "setup_wall_s": 2 * s} for s in (0.1, 0.3, 0.2)]
        summary = run.summarize(setups, passes, trace=False)
        self.assertEqual((summary["attempted"], summary["failed"]), (10, 1))
        self.assertEqual(summary["fail_ratio"], 0.1)
        self.assertEqual(summary["end_to_end"]["wall_s"], 1.5)
        self.assertEqual(summary["end_to_end"]["wall_ref_s"], 3.0)
        self.assertEqual(summary["end_to_end"]["setup_s"], 0.2)
        self.assertEqual(summary["end_to_end"]["setup_wall_s"], 0.4)

    def test_a_run_that_checked_nothing_fails(self):
        passes = {"run": [self.a_pass(1.0, 0, [])]}
        with self.assertRaises(run.RunError):
            run.summarize([{"setup_s": 0.1, "setup_wall_s": 0.1}], passes, trace=False)


class SpeedTest(unittest.TestCase):
    def test_each_slice_is_counted_in_lengths_of_the_sample_after_it(self):
        # a pass over [0, 10]: samples timing 0.5 and 0.25 s inside it, the last one after it;
        # each sample's warm-up call takes the 0.1 s before its timed call
        stamps = [(3.9, 4.0, 4.5), (7.9, 8.0, 8.25), (10.1, 10.2, 10.45)]
        wall, ref = speed.reference_seconds(0.0, 10.0, stamps)
        self.assertAlmostEqual(wall, 3.9 + 3.4 + 1.75)
        self.assertAlmostEqual(ref, (3.9 / 0.5 + 3.4 / 0.25 + 1.75 / 0.25) * speed.REFERENCE_S)

    def test_a_host_at_half_speed_reads_the_same(self):
        fast = [(1.0, 1.0, 1.25), (2.25, 2.25, 2.5)]
        slow = [(2.0, 2.0, 2.5), (4.5, 4.5, 5.0)]
        self.assertAlmostEqual(
            speed.reference_seconds(0.0, 2.25, fast)[1], speed.reference_seconds(0.0, 4.5, slow)[1]
        )

    def test_set_up_is_counted_in_lengths_of_the_median_sample(self):
        # set-up over [0, 1]: samples timing 0.1, 0.3 and 0.2 s (0.2, 0.6 and 0.4 s
        # with their warm-up calls), the last one after it
        stamps = [(0.1, 0.2, 0.3), (0.2, 0.5, 0.8), (1.0, 1.2, 1.4)]
        self.assertAlmostEqual(
            speed.setup_reference_seconds(0.0, 1.0, stamps), (1.0 - 0.8) / 0.2 * speed.REFERENCE_S
        )

    def test_the_sampler_samples_and_restores_the_signal(self):
        before = signal.getsignal(signal.SIGALRM)
        sampler = speed.SpeedSampler()
        sampler.start()
        end = time.perf_counter() + 5 * speed.INTERVAL_S
        while time.perf_counter() < end:
            pass
        sampler.stop()
        self.assertGreaterEqual(len(sampler.stamps), 3)
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))


if __name__ == "__main__":
    unittest.main()
