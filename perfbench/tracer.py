"""In-memory span tracer that wraps isomon's public functions from outside.

Each wrapped call records one span: a name id, its start and end
(``time.perf_counter``) and the index of the enclosing span, or -1.  Spans
are kept in flat arrays and written out once, when the traced run ends.

A function is patched under every name that refers to it: the defining
module's attribute, aliases in class bodies (``__mul__ = compose``) and the
copies other modules took with ``from .x import f``.  Patching only the
original attribute would miss calls made through those names and undercount.
"""

from __future__ import annotations

import array
import sys
import time
import types

import numpy as np

# (module, qualified name, span name).  A qualified name "Class.__init__" is a
# construction, reported as "Class.new": it includes the validation the
# constructor runs.
TARGETS = (
    ("intsets", "FiniteIntSet.__init__", "intsets.FiniteIntSet.new"),
    ("intsets", "symmetry_center", "intsets.symmetry_center"),
    ("isoz", "ZIsometry.compose", "isoz.ZIsometry.compose"),
    ("natmonoid", "NatIsometry.__init__", "natmonoid.NatIsometry.new"),
    ("natmonoid", "NatIsometry.compose", "natmonoid.NatIsometry.compose"),
    ("natmonoid", "NatIsometry.inverse", "natmonoid.NatIsometry.inverse"),
    ("natmonoid", "NatIsometry.markers", "natmonoid.NatIsometry.markers"),
    ("intmonoid", "IntIsometry.__init__", "intmonoid.IntIsometry.new"),
    ("intmonoid", "IntIsometry.compose", "intmonoid.IntIsometry.compose"),
    ("intmonoid", "IntIsometry.inverse", "intmonoid.IntIsometry.inverse"),
    ("intmonoid", "hclass_group", "intmonoid.hclass_group"),
    ("intmonoid", "restriction_isometries", "intmonoid.restriction_isometries"),
    ("homs", "extend_in", "homs.extend_in"),
    ("homs", "FiniteTailMap.__init__", "homs.FiniteTailMap.new"),
    ("homs", "FiniteTailMap.compose", "homs.FiniteTailMap.compose"),
    ("words", "parse", "words.parse"),
    ("words", "evaluate", "words.evaluate"),
    ("words", "decompose", "words.decompose"),
    ("words", "decompose_filtered", "words.decompose_filtered"),
    ("jsonio", "element_to_obj", "jsonio.element_to_obj"),
    ("jsonio", "element_from_obj", "jsonio.element_from_obj"),
    ("cli", "main", "cli.main"),
)

# The harness boundary: one span per suite run, named after the suite and
# monoid, plus universe enumeration.
HARNESS_TARGETS = (
    ("harness", "enumerate_universe", "harness.enumerate_universe"),
)

# Compositions whose distinct argument pairs are counted, for the waste
# ratio distinct pairs / calls.
DISTINCT = {
    "natmonoid.NatIsometry.compose": "natmonoid.compose.distinct_frac",
    "intmonoid.IntIsometry.compose": "intmonoid.compose.distinct_frac",
}


def element_key(e):
    """Exact, hashable value of a nat or int element, holding no reference to it."""
    unit = getattr(e, "unit", None)
    if unit is None:
        return (e.shift, e.exceptions.items)
    return (unit.a, unit.reflect, e.exceptions.items)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.parent = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack: list[int] = [-1]
        self.pairs: dict[str, set] = {name: set() for name in DISTINCT}
        self.instances: dict[str, int] = {}
        self._patches: list[tuple[object, str, object, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        """A function that records one span named ``name`` per call of ``fn``."""
        nid = self._id(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter
        pairs = self.pairs.get(name)

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            if pairs is not None:
                pairs.add((element_key(args[0]), element_key(args[1])))
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    def _wrap_run_suite(self, fn):
        tracer = self

        def traced(name, spec, jobs=1):
            idx = tracer.open(f"harness.run_suite.{name}.{spec.monoid}")
            try:
                report = fn(name, spec, jobs)
            finally:
                tracer.close(idx)
            key = f"harness.run_suite.{name}.{spec.monoid}"
            tracer.instances[key] = tracer.instances.get(key, 0) + report.instances
            return report

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr], value))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original, replacement) -> int:
        """Replace ``original`` under every module and class attribute of
        isomon that refers to it; return how many names were patched."""
        count = 0
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "isomon" or mod_name.startswith("isomon.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)
                    count += 1
                elif isinstance(value, type) and value.__module__ == mod_name:
                    for cattr, cvalue in list(vars(value).items()):
                        if cvalue is original:
                            self._set(value, cattr, replacement)
                            count += 1
        return count

    def install(self, layers: bool = True) -> None:
        """Patch the traced functions of the imported isomon package.

        With ``layers`` false only the harness boundary is patched: suite
        runs, universe enumeration and the CLI entry point.
        """
        targets = (TARGETS if layers else
                   tuple(t for t in TARGETS if t[0] == "cli")) + HARNESS_TARGETS
        for mod, qualname, span in targets:
            module = sys.modules[f"isomon.{mod}"]
            owner = module
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if not isinstance(original, types.FunctionType):
                raise TypeError(f"isomon.{mod}.{qualname} is not a function")
            if not self._patch_everywhere(original, self.wrap(original, span)):
                raise RuntimeError(f"isomon.{mod}.{qualname} was not patched")
        harness = sys.modules["isomon.harness"]
        original = harness.run_suite
        self._patch_everywhere(original, self._wrap_run_suite(original))

    def pause(self) -> None:
        """Restore the original functions; calls made now are not traced."""
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def resume(self) -> None:
        for owner, attr, _, traced in self._patches:
            setattr(owner, attr, traced)

    def uninstall(self) -> None:
        self.pause()
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def arrays(self):
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        return ids, parent, dur

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly, so children never overlap.
        """
        ids, parent, dur = self.arrays()
        n = len(self.names)
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0],
                            minlength=len(dur)) if len(dur) else np.zeros(0)
        self_dur = dur - child
        calls = np.bincount(ids, minlength=n)
        total = np.bincount(ids, weights=dur, minlength=n)
        selfs = np.bincount(ids, weights=self_dur, minlength=n)
        return {name: {"calls": int(calls[i]), "s": float(total[i]),
                       "self_s": float(selfs[i])}
                for i, name in enumerate(self.names)}

    def distinct_frac(self) -> dict[str, float]:
        summ = self.summary()
        out = {}
        for span, metric in DISTINCT.items():
            calls = summ.get(span, {}).get("calls", 0)
            out[metric] = len(self.pairs[span]) / calls if calls else 0.0
        return out

    def write(self, path) -> None:
        """Write every span: the name table plus flat arrays, as numpy .npz."""
        ids, parent, _ = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=ids, parent=parent,
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))
