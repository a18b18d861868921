"""Run every workload on several seeds and record the baseline.

    python3 perfbench/baseline.py [--first-seed 1] [--out FILE]

For each workload in ``BENCHMARK.json``, runs ``run.py`` untraced on RUNS
consecutive seeds, prints every end-to-end metric with its unit, median,
quartiles and spread (quartile distance over median, against the metric's
bound), then runs the traced pass twice on the first seed and checks that
every count repeats exactly.  Writes all of it, with a block describing the
machine, to FILE (default ``perfbench/baseline.json``).  Exits 1 if a
result is wrong, a spread exceeds its bound or a count does not repeat.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Metrics that are exact counts or ratios of counts; they must repeat
# between two traced runs of the same seed.
EXACT_SUFFIXES = (".calls", ".instances", ".distinct_frac")
RUNS = 10


def machine() -> dict:
    import numpy
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(),
            "note": f"measured on Python {platform.python_version()}; the ROADMAP "
                    "baseline table was taken on Python 3.10.12, so its figures "
                    "are not comparable with these"}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", default=str(HERE / "baseline.json"))
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + RUNS))
    out = {"machine": machine(), "run_seconds": seconds, "seeds": seeds,
           "workloads": {}}
    steady = True
    for w in (w["name"] for w in spec["workloads"]):
        results = [run_once(w, s, seconds, 0) for s in seeds]
        entry = {"correct": all(r["correct"] for r in results),
                 "attempted": [r["attempted"] for r in results],
                 "failed": [r["failed"] for r in results], "end_to_end": {}}
        print(f"{w}: correct={entry['correct']} attempted={entry['attempted']}")
        for m in spec["end_to_end"]:
            s = summarize([r["metrics"][m["name"]]["value"] for r in results])
            s.update(unit=m["unit"], bound=m["bound"])
            entry["end_to_end"][m["name"]] = s
            ok = s["spread"] <= m["bound"]
            steady &= ok
            print(f"  {m['name']:15s} {s['median']:14.6g} {m['unit']:9s}"
                  f" q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.3f}"
                  f" / bound {m['bound']}{'' if ok else '  TOO WIDE'}")
        traced = [run_once(w, seeds[0], seconds, 1) for _ in range(2)]
        exact = [{k: v["value"] for k, v in t["metrics"].items()
                  if k.endswith(EXACT_SUFFIXES)} for t in traced]
        entry["traced"] = {k: v["value"] for k, v in traced[0]["metrics"].items()}
        entry["traced_counts_repeat"] = exact[0] == exact[1]
        steady &= entry["traced_counts_repeat"] and entry["correct"]
        print(f"  traced counts repeat: {entry['traced_counts_repeat']}")
        out["workloads"][w] = entry
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
