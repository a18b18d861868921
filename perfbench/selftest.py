"""Self-tests of the benchmark, at a tiny size.

    python3 perfbench/selftest.py

Named so that a plain ``pytest`` of the repository does not collect it.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_isomon()

import elements  # noqa: E402
from tracer import Tracer  # noqa: E402

import isomon  # noqa: E402
from isomon import harness, natmonoid  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def shifted(e):
    """The element moved one step further: a wrong result for any input."""
    if isinstance(e, natmonoid.NatIsometry):
        return dataclasses.replace(e, shift=e.shift + 1)
    return dataclasses.replace(e, unit=dataclasses.replace(e.unit, a=e.unit.a + 1))


def fake_call(report_text, rc=0):
    return {"report": report_text, "rc": rc, "run_s": 1.5, "import_s": 0.2,
            "wall_s": 1.8, "maxrss_self_kb": 1000, "maxrss_children_kb": 2000}


class MetricNames(unittest.TestCase):
    def assert_all_printed(self, metrics, declared):
        self.assertEqual(set(metrics), {m["name"] for m in declared})
        for m in declared:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(metrics[m["name"]]["value"], (int, float))

    def test_check_result_prints_every_end_to_end_metric(self):
        ref_text, reference = run.load_reference()
        out = run.check_metrics([fake_call(ref_text)], [0.2], ref_text, reference)
        self.assert_all_printed(out["metrics"], SPEC["end_to_end"])
        self.assertEqual((out["attempted"], out["failed"]), (len(reference), 0))

    def test_elements_result_prints_every_end_to_end_metric(self):
        latencies, failed = run.run_ops(elements.SparseWorkload(1), 250, 0)
        out = run.elements_metrics(latencies, failed, [0.2], 1000)
        self.assert_all_printed(out["metrics"], SPEC["end_to_end"])
        self.assertEqual((out["attempted"], out["failed"]), (250, 0))

    def test_layer_result_prints_every_per_layer_metric(self):
        _, reference = run.load_reference()
        out = run.layer_metrics({}, {}, {}, run.suite_runs(reference), 0.0)
        self.assert_all_printed(out, SPEC["per_layer"])

    def test_declared_workloads_exist(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(run.WORKLOADS))


class FailureCounting(unittest.TestCase):
    def setUp(self):
        self.ref_text, self.reference = run.load_reference()

    def test_reference_matches(self):
        self.assertEqual(run.count_failed_suite_runs(
            self.ref_text, 0, self.ref_text, self.reference), 0)

    def test_injected_wrong_result_counts_once(self):
        got = json.loads(self.ref_text)
        got[3]["instances"] += 1
        wrong = json.dumps(got, sort_keys=True) + "\n"
        out = run.check_metrics([fake_call(wrong)], [0.2], self.ref_text, self.reference)
        self.assertEqual(out["failed"], 1)
        self.assertLess(out["metrics"]["pass_frac"]["value"], 1.0)

    def test_failed_suite_run_counts_even_if_reference_agrees(self):
        got = json.loads(self.ref_text)
        got[0]["pass"] = False
        reference = json.loads(self.ref_text)
        reference[0]["pass"] = False
        self.assertEqual(run.count_failed_suite_runs(
            json.dumps(got, sort_keys=True), 1, self.ref_text, reference), 1)

    def test_corrupted_reference_object_counts_once(self):
        reference = json.loads(self.ref_text)
        reference[5]["counters"] = {"bogus": 1}
        self.assertEqual(run.count_failed_suite_runs(
            self.ref_text, 0, self.ref_text, reference), 1)

    def test_unparseable_report_fails_every_run(self):
        self.assertEqual(run.count_failed_suite_runs(
            "Traceback", 1, self.ref_text, self.reference), len(self.reference))

    def test_byte_difference_alone_fails(self):
        spaced = json.dumps(json.loads(self.ref_text), sort_keys=True, indent=1)
        self.assertEqual(run.count_failed_suite_runs(
            spaced, 0, self.ref_text, self.reference), 1)

    def test_injected_wrong_element_counts_once(self):
        for make in elements.WORKLOADS.values():
            work = make(3)
            real_op, calls = work.op, []

            def corrupt(case, real_op=real_op, calls=calls):
                out = real_op(case)
                calls.append(case)
                if len(calls) == 7:
                    out.gh = shifted(out.gh)
                return out

            work.op = corrupt
            _, failed = run.run_ops(work, 40, 0)
            self.assertEqual(failed, 1, make.__name__)

    def test_raising_operation_counts_once(self):
        work = elements.SparseWorkload(3)
        real_op, calls = work.op, []

        def boom(case):
            calls.append(case)
            if len(calls) == 2:
                raise ValueError("injected")
            return real_op(case)

        work.op = boom
        _, failed = run.run_ops(work, 10, 0)
        self.assertEqual(failed, 1)


class Streams(unittest.TestCase):
    def take(self, stream, n=300):
        return [getattr(c, "text", None) or json.dumps(c.obj()) for c, _ in zip(stream, range(n))]

    def test_long_stream_is_a_function_of_the_seed(self):
        a = self.take(elements.long_stream(11))
        self.assertEqual(a, self.take(elements.long_stream(11)))
        self.assertNotEqual(a, self.take(elements.long_stream(12)))

    def test_sparse_stream_is_a_function_of_the_seed(self):
        a = self.take(elements.sparse_stream(11))
        self.assertEqual(a, self.take(elements.sparse_stream(11)))
        self.assertNotEqual(a, self.take(elements.sparse_stream(12)))

    def test_long_stream_takes_each_slice_once_per_block(self):
        n_block, cap = elements.BLOCK, elements.LONG_CAP
        cases = self.take(elements.long_stream(5), n_block)
        ns = sorted(int(t.split()[2][2:]) for t in cases)
        for i, n in enumerate(ns):
            self.assertLessEqual(elements.log_uniform(i / n_block, 1, cap), n)
            self.assertLessEqual(n, elements.log_uniform((i + 1) / n_block, 1, cap))


class JobsGuard(unittest.TestCase):
    def test_rejects_more_workers_than_cpus(self):
        with self.assertRaises(ValueError):
            run.check_jobs((os.cpu_count() or 1) + 1)

    def test_rejects_zero_workers(self):
        with self.assertRaises(ValueError):
            run.check_jobs(0)

    def test_accepts_cpu_count(self):
        self.assertEqual(run.check_jobs(os.cpu_count() or 1), os.cpu_count() or 1)
        self.assertLessEqual(run.parallel_jobs(), os.cpu_count() or 1)


class TracerPatching(unittest.TestCase):
    def test_aliases_and_imported_names_are_patched_and_restored(self):
        originals = (natmonoid.NatIsometry.compose, harness.decompose, isomon.evaluate)
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIs(natmonoid.NatIsometry.__mul__, natmonoid.NatIsometry.compose)
            self.assertIsNot(harness.decompose, originals[1])
            x = natmonoid.NatIsometry(2) * natmonoid.NatIsometry(-1, [1])
            harness.decompose(x)
            isomon.evaluate(isomon.parse("a b"))  # two more products
        finally:
            tracer.uninstall()
        self.assertEqual((natmonoid.NatIsometry.compose, harness.decompose,
                          isomon.evaluate), originals)
        summary = tracer.summary()
        self.assertEqual(summary["natmonoid.NatIsometry.compose"]["calls"], 3)
        self.assertEqual(summary["words.decompose"]["calls"], 1)
        self.assertEqual(summary["words.evaluate"]["calls"], 1)

    def test_self_time_excludes_children(self):
        tracer = Tracer()
        tracer.install()
        try:
            isomon.evaluate(isomon.parse("b^300"))
        finally:
            tracer.uninstall()
        ids, parent, dur = tracer.arrays()
        idx = tracer.names.index("words.evaluate")
        (span,) = [i for i in range(len(ids)) if ids[i] == idx]
        children = sum(dur[i] for i in range(len(ids)) if parent[i] == span)
        self.assertGreater(children, 0)
        self.assertAlmostEqual(tracer.summary()["words.evaluate"]["self_s"],
                               dur[span] - children, places=12)

    def test_paused_calls_are_not_counted(self):
        tracer = Tracer()
        tracer.install()
        try:
            tracer.pause()
            isomon.evaluate(isomon.parse("a"))
            tracer.resume()
            isomon.evaluate(isomon.parse("b"))
        finally:
            tracer.uninstall()
        self.assertEqual(tracer.summary()["words.evaluate"]["calls"], 1)

    def test_suite_runs_are_spans_with_instances(self):
        tracer = Tracer()
        tracer.install()
        try:
            report = harness.run_suite("lemma-3.3", harness.NAT_DEFAULT)
        finally:
            tracer.uninstall()
        span = "harness.run_suite.lemma-3.3.nat"
        self.assertEqual(tracer.summary()[span]["calls"], 1)
        self.assertEqual(tracer.instances[span], report.instances)

    def test_two_traced_runs_count_the_same(self):
        counts = []
        for _ in range(2):
            tracer = Tracer()
            tracer.install()
            try:
                run.run_ops(elements.LongWorkload(2), 12, 0, tracer)
                run.run_ops(elements.SparseWorkload(2), 60, 0, tracer)
            finally:
                tracer.uninstall()
            counts.append(({k: v["calls"] for k, v in tracer.summary().items()},
                           tracer.distinct_frac()))
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0][0]["cli.main"], 0)


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_program(self):
        bare = run.OUT_DIR / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "elements-sparse",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
