"""isomon benchmark: one workload per run, one JSON result on the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports isomon from ``src`` there and
from nowhere else.  Load is a closed loop driven by this one process, with no
threads: the next call starts when the previous one has returned.

Workloads
  check-serial     a fresh interpreter runs ``isomon check --all --format json
                   --jobs 1`` at the default bounds; repeated while time lasts
  check-parallel   the same with ``--jobs`` = the CPUs this process may use,
                   never more than ``os.cpu_count()``
  elements-long    words with dense prefixes of up to about a thousand holes
  elements-sparse  elements with few holes at coordinates up to 10**12

End-to-end metrics (``--trace 0``)
  setup_s          median time for a fresh interpreter to ``import isomon``,
                   sampled at even intervals across the run
  run_s            check-*: median wall time of the ``check --all`` call after
                   set-up; elements-*: mean time of a block of 100
                   consecutive operations, the fastest and slowest tenth
                   of blocks left out
  ops_per_s        check-*: suite instances verified per second of run_s;
                   elements-*: operations per second of operation time
  latency_p50_ms,  elements-*: per-operation percentiles; check-*: the whole
  latency_p99_ms   ``check --all`` process from spawn to exit (fewer than 100
                   samples, so p99 is the slowest call)
  peak_rss_mb      max of ru_maxrss over this process and its children
                   (a check call reports its own and its largest worker's)
  pass_frac        share of attempted operations that passed: check-*
                   counts the 21 suite runs per call against the stored
                   reference, elements-* the independently checked operations

Per-layer metrics (``--trace 1``) come from a separate traced pass over the
same work, see ``tracer.py``; ``trace.overhead_s`` is its run_s minus the
untraced run_s measured in the same run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference" / "check_all.json"
OUT_DIR = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from child import import_isomon  # noqa: E402
from tracer import DISTINCT, TARGETS  # noqa: E402

SETUP_SAMPLES = 19
BATCH = 100
TRIM = 0.1
TRACE_OPS = {"elements-long": 300, "elements-sparse": 6000}
CHILD_TIMEOUT = 120


def load_reference() -> tuple[str, list[dict]]:
    text = REFERENCE.read_text(encoding="utf-8")
    return text, json.loads(text)


def suite_runs(reference: list[dict]) -> list[str]:
    return [f"harness.run_suite.{o['suite']}.{o['monoid']}" for o in reference]


def check_jobs(jobs: int) -> int:
    """Refuse a worker count below 1 or above the machine's CPU count."""
    cpus = os.cpu_count() or 1
    if not 1 <= jobs <= cpus:
        raise ValueError(f"--jobs {jobs} is outside 1..{cpus}")
    return jobs


def parallel_jobs() -> int:
    return check_jobs(len(os.sched_getaffinity(0)))


# -- children ---------------------------------------------------------------


def run_child(*args: str) -> dict:
    """Run child.py in a fresh interpreter and return its JSON result."""
    proc = subprocess.run([sys.executable, str(CHILD), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"child {' '.join(args)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SetupSampler:
    """Import times of SETUP_SAMPLES fresh interpreters, taken at even
    intervals between the operations of a run.

    The host's speed drifts over seconds, so samples spread over the whole
    run give a steadier median than the same number taken back to back.  A
    first import, which may compile bytecode into the checkout, is not
    counted."""

    def __init__(self, seconds: float):
        run_child("import")
        self.samples: list[float] = []
        self.every = seconds / SETUP_SAMPLES
        self.due = time.perf_counter()

    def take(self) -> None:
        self.samples.append(run_child("import")["import_s"])

    def poll(self) -> None:
        """Take the samples that are due by now."""
        while len(self.samples) < SETUP_SAMPLES and time.perf_counter() >= self.due:
            self.take()
            self.due += self.every

    def finish(self) -> list[float]:
        """Take any samples still missing and return all of them."""
        while len(self.samples) < SETUP_SAMPLES:
            self.take()
        return self.samples


# -- result checking --------------------------------------------------------


def count_failed_suite_runs(report_text: str, rc: int, ref_text: str,
                            reference: list[dict]) -> int:
    """Suite runs whose JSON object differs from the reference or did not
    pass.  A report that does not parse fails every run; a report whose
    objects all match but whose bytes differ fails at least one."""
    try:
        got = json.loads(report_text)
    except json.JSONDecodeError:
        return len(reference)
    if not isinstance(got, list):
        return len(reference)
    failed = 0
    for i, ref in enumerate(reference):
        obj = got[i] if i < len(got) else None
        if (not isinstance(obj, dict) or obj.get("pass") is not True
                or json.dumps(obj, sort_keys=True) != json.dumps(ref, sort_keys=True)):
            failed += 1
    failed += max(0, len(got) - len(reference))
    if failed == 0 and (report_text != ref_text or rc != 0):
        failed = 1
    return min(failed, len(reference))


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) by ``statistics.quantiles``' exclusive rule."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# -- check-* ----------------------------------------------------------------


def check_calls(jobs: int, seconds: float, setup: SetupSampler):
    """Closed loop of fresh ``check --all`` processes for ``seconds``, with
    set-up samples taken between calls.

    Another call starts only while the previous call's duration still fits
    in the time left, and at least one call is made."""
    calls = []
    begin = time.perf_counter()
    while True:
        setup.poll()
        t0 = time.perf_counter()
        out = run_child("check", "--jobs", str(jobs))
        out["wall_s"] = time.perf_counter() - t0
        calls.append(out)
        elapsed = time.perf_counter() - begin
        if elapsed + out["wall_s"] > seconds:
            return calls


def check_metrics(calls: list[dict], setup: list[float], ref_text: str,
                  reference: list[dict]) -> dict:
    """The end-to-end result of a run of check calls (see the module doc)."""
    failed = sum(count_failed_suite_runs(c["report"], c["rc"], ref_text, reference)
                 for c in calls)
    attempted = len(reference) * len(calls)
    run_s = statistics.median(c["run_s"] for c in calls)
    instances = sum(o["instances"] for o in reference)
    walls = [c["wall_s"] * 1e3 for c in calls]
    rss_kb = max(max(c["maxrss_self_kb"], c["maxrss_children_kb"]) for c in calls)
    return {"attempted": attempted, "failed": failed, "metrics": {
        "setup_s": metric(statistics.median(setup), "s"),
        "run_s": metric(run_s, "s"),
        "ops_per_s": metric(instances / run_s, "1/s"),
        "latency_p50_ms": metric(statistics.median(walls), "ms"),
        "latency_p99_ms": metric(max(walls), "ms"),
        "peak_rss_mb": metric(rss_kb / 1024, "MB"),
        "pass_frac": metric((attempted - failed) / attempted, "fraction"),
    }}


def run_check(workload: str, seconds: float, trace: bool) -> dict:
    jobs = 1 if workload == "check-serial" else parallel_jobs()
    ref_text, reference = load_reference()
    if not trace:
        setup = SetupSampler(seconds)
        calls = check_calls(jobs, seconds, setup)
        return check_metrics(calls, setup.finish() + [c["import_s"] for c in calls],
                             ref_text, reference)
    plain = run_child("check", "--jobs", str(jobs))
    OUT_DIR.mkdir(exist_ok=True)
    traced = run_child("check", "--jobs", str(jobs), "--trace", "1",
                       "--spans", str(OUT_DIR / f"spans-{workload}.npz"))
    failed = sum(count_failed_suite_runs(c["report"], c["rc"], ref_text, reference)
                 for c in (plain, traced))
    return {"attempted": 2 * len(reference), "failed": failed,
            "metrics": layer_metrics(traced["layers"], traced["instances"],
                                     traced["distinct"], suite_runs(reference),
                                     traced["run_s"] - plain["run_s"])}


# -- elements-* -------------------------------------------------------------


def run_ops(work, count: int | None, seconds: float, tracer=None, setup=None):
    """Closed loop over the workload's stream: time each operation, then
    check it untimed, and take any set-up samples that are due.  Stops after
    ``count`` operations, or else when ``seconds`` of wall time have
    passed."""
    latencies: list[float] = []
    failed = 0
    clock = time.perf_counter
    deadline = clock() + seconds
    while (len(latencies) < count) if count is not None else (clock() < deadline):
        case = work.next_case()
        t0 = clock()
        try:
            out = work.op(case)
            errors = None
        except Exception:  # a failed operation is counted, not fatal
            out, errors = None, [traceback.format_exc(limit=3)]
        latencies.append(clock() - t0)
        if tracer is not None:
            tracer.pause()
        if errors is None:
            errors = work.check(case, out)
            work.advance(case, out)
        if tracer is not None:
            tracer.resume()
        if setup is not None:
            setup.poll()
        if errors:
            failed += 1
            if failed <= 3:
                print(f"operation {len(latencies)} failed: {errors}", file=sys.stderr)
    return latencies, failed


def batch_time(latencies: list[float]) -> float:
    """Mean time of consecutive blocks of BATCH operations, without the
    fastest and the slowest TRIM share of blocks.

    The host's speed moves between regimes a few seconds long, so block
    times spread widely within a run.  A median then jumps with the share
    of time spent in each regime; a trimmed mean follows that share
    smoothly and still drops the blocks hit by a pause."""
    blocks = sorted(sum(latencies[i:i + BATCH])
                    for i in range(0, len(latencies) - BATCH + 1, BATCH))
    k = int(len(blocks) * TRIM)
    return statistics.mean(blocks[k:len(blocks) - k] or [sum(latencies)])


def elements_metrics(latencies: list[float], failed: int, setup: list[float],
                     rss_kb: int) -> dict:
    """The end-to-end result of a run of element operations."""
    n = len(latencies)
    return {"attempted": n, "failed": failed, "metrics": {
        "setup_s": metric(statistics.median(setup), "s"),
        "run_s": metric(batch_time(latencies), "s"),
        "ops_per_s": metric(n / sum(latencies), "1/s"),
        "latency_p50_ms": metric(statistics.median(latencies) * 1e3, "ms"),
        "latency_p99_ms": metric(percentile(latencies, 99) * 1e3, "ms"),
        "peak_rss_mb": metric(rss_kb / 1024, "MB"),
        "pass_frac": metric((n - failed) / n, "fraction"),
    }}


def run_elements(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import_isomon()
    import elements
    make = elements.WORKLOADS[workload]

    if not trace:
        setup = SetupSampler(seconds)
        latencies, failed = run_ops(make(seed), None, seconds, setup=setup)
        samples = setup.finish()
        rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                     resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        return elements_metrics(latencies, failed, samples, rss_kb)

    from tracer import Tracer
    count = TRACE_OPS[workload]
    plain, failed = run_ops(make(seed), count, seconds)
    tracer = Tracer()
    tracer.install()
    try:
        traced, failed_traced = run_ops(make(seed), count, seconds, tracer)
    finally:
        tracer.uninstall()
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{workload}.npz")
    _, reference = load_reference()
    return {"attempted": 2 * count, "failed": failed + failed_traced,
            "metrics": layer_metrics(tracer.summary(), tracer.instances,
                                     tracer.distinct_frac(), suite_runs(reference),
                                     batch_time(traced) - batch_time(plain))}


# -- per-layer metrics ------------------------------------------------------


def layer_metrics(layers: dict, instances: dict, distinct: dict, runs: list[str],
                  overhead_s: float) -> dict:
    """Every per-layer metric; a span that never ran reports zero."""
    out = {}
    for _, _, span in TARGETS:
        entry = layers.get(span, {})
        out[f"{span}.calls"] = metric(entry.get("calls", 0), "count")
        out[f"{span}.self_s"] = metric(entry.get("self_s", 0.0), "s")
    for run in runs:
        out[f"{run}.s"] = metric(layers.get(run, {}).get("s", 0.0), "s")
        out[f"{run}.instances"] = metric(instances.get(run, 0), "count")
    enum = layers.get("harness.enumerate_universe", {})
    out["harness.enumerate_universe.calls"] = metric(enum.get("calls", 0), "count")
    out["harness.enumerate_universe.s"] = metric(enum.get("s", 0.0), "s")
    for name in DISTINCT.values():
        out[name] = metric(distinct.get(name, 0.0), "fraction")
    out["trace.overhead_s"] = metric(overhead_s, "s")
    return out


# -- entry ------------------------------------------------------------------

WORKLOADS = ("check-serial", "check-parallel", "elements-long", "elements-sparse")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload.startswith("check-"):
        result = run_check(args.workload, args.seconds, bool(args.trace))
    else:
        result = run_elements(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"correct": result["failed"] == 0, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
