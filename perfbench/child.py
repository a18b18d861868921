"""The benchmark's fresh interpreters.

    python3 perfbench/child.py import
    python3 perfbench/child.py check --jobs N [--trace 1 --spans FILE]

Both import isomon from the checkout's ``src`` and print one JSON object.
``import`` reports the import time.  ``check`` then runs
``cli.main(["check", "--all", "--format", "json", "--jobs", N])`` with its
standard output captured, and also reports the run time, the exit code, the
captured report text, the peak resident set of this process and of its
largest child and, with tracing on, the per-layer summary.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_isomon():
    """Import isomon from the checkout's source tree, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import isomon
    if Path(isomon.__file__).resolve().parent != SRC / "isomon":
        raise ImportError(f"isomon came from {isomon.__file__}, not {SRC}")
    return isomon


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("import", "check"))
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None, help="file for the raw spans")
    args = ap.parse_args()

    t0 = time.perf_counter()
    import_isomon()
    import_s = time.perf_counter() - t0
    if args.mode == "import":
        print(json.dumps({"import_s": import_s}))
        return 0
    from isomon import cli

    tracer = None
    if args.trace:
        sys.path.insert(0, str(HERE))
        from tracer import Tracer
        tracer = Tracer()
        # workers of a pool die with their spans, so a parallel run is traced
        # at the harness boundary only
        tracer.install(layers=args.jobs == 1)

    buf = io.StringIO()
    t1 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["check", "--all", "--format", "json", "--jobs", str(args.jobs)])
    run_s = time.perf_counter() - t1

    out = {
        "import_s": import_s,
        "run_s": run_s,
        "rc": rc,
        "report": buf.getvalue(),
        "maxrss_self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "maxrss_children_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.summary()
        out["instances"] = tracer.instances
        out["distinct"] = tracer.distinct_frac()
        out["spans"] = len(tracer.start)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
