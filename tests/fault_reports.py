"""Print the report of every suite at the default bounds, with faults injected.

    PYTHONPATH=src python tests/fault_reports.py --jobs J [--fault NAME]

isomon is imported from ``PYTHONPATH``, so the same script can run against
two source trees; their outputs are byte-identical exactly when both
harnesses report the same instances, counters and failures, in the same
order, for faulty code.  The faults are patched in before the run, so forked
worker processes inherit them.  With no ``--fault``, the first eight below
are injected at once; ``--fault NAME`` injects that one alone:

- ``int-left-holes``: int ``compose`` keeps only the left holes when a
  reflection meets an odd number of holes;
- ``int-hole-below``: int ``compose`` adds hole -50, below the ``assoc``
  window, when the translation by 2 meets the hole set {-2};
- ``int-hole-above``: int ``compose`` adds hole ``reach + 1``, just above
  that window, at the bit a reflection flag would take, when the
  translation by 2 meets a reflection with the hole set {2};
- ``nat-hole-9``: nat ``compose`` adds hole 9 when a shift by 1 meets
  hole 3;
- ``markers``: ``NatIsometry.markers`` raises ``nr_high`` on elements with
  two holes;
- ``decompose``: the harness's ``decompose`` returns the word of
  ``NatIsometry(1)`` on shift 2;
- ``is-monotone``: ``FiniteTailMap.is_monotone`` is False on maps with
  shift 1 from 1 on, the identity up to 0 and no middle points;
- ``order``: ``ZIsometry.order`` calls translations by 1 and -1 of order 1;
- ``packed-offset``, only by name: the ``assoc`` scan's packed compose adds
  1 to ``a`` when a key with ``a`` = 1 meets one with ``a`` = 0 (in nat, a
  shift by 1 meets a shift by 0).  It moves no hole, so no mask escapes the
  window, and it fails triples as well as pairs.

The file name keeps pytest from collecting it.
"""

import argparse
import dataclasses
import json

import numpy as np

from isomon import FiniteIntSet, IntIsometry, NatIsometry, ZIsometry, harness
from isomon.homs import FiniteTailMap

_INT_REACH = harness.INT_DEFAULT.exception_bound + 2 * harness.INT_DEFAULT.shift_bound


def _compose_fault(cls, applies, change):
    """``cls``'s compose returns ``change(x, x * y)`` where ``applies(x, y)``."""
    compose = cls.compose

    def wrong(x, y):
        p = compose(x, y)
        return change(x, p) if applies(x, y) else p
    cls.compose = cls.__mul__ = wrong


def _int_left_holes():
    _compose_fault(IntIsometry, lambda x, y: x.unit.reflect and len(y.exceptions) % 2,
                   lambda x, p: IntIsometry(p.unit, x.exceptions))


def _int_hole_below():
    _compose_fault(
        IntIsometry,
        lambda x, y: x.unit == ZIsometry(2) and y.exceptions == FiniteIntSet([-2]),
        lambda x, p: IntIsometry(p.unit, FiniteIntSet([*p.exceptions, -50])))


def _int_hole_above():
    _compose_fault(
        IntIsometry,
        lambda x, y: (x.unit == ZIsometry(2) and y.unit.reflect
                      and y.exceptions == FiniteIntSet([2])),
        lambda x, p: dataclasses.replace(p, exceptions=[*p.exceptions, _INT_REACH + 1]))


def _nat_hole_9():
    _compose_fault(NatIsometry, lambda x, y: x.shift == 1 and 3 in y.exceptions,
                   lambda x, p: NatIsometry(p.shift, FiniteIntSet([*p.exceptions, 9])))


def _markers():
    markers = NatIsometry.markers

    def wrong(g):
        m = markers(g)
        return m._replace(nr_high=m.nr_high + 1) if len(g.exceptions) == 2 else m
    NatIsometry.markers = wrong


def _decompose():
    decompose = harness.decompose
    harness.decompose = lambda g: decompose(NatIsometry(1) if g.shift == 2 else g)


def _is_monotone():
    is_monotone = FiniteTailMap.is_monotone
    FiniteTailMap.is_monotone = lambda f: (
        is_monotone(f) and not (f.pos_shift == 1 and f.neg_threshold == 0 and not f.middle))


def _order():
    order = ZIsometry.order
    ZIsometry.order = lambda z: 1 if not z.reflect and abs(z.a) == 1 else order(z)


def _packed_offset():
    compose = harness._Vec.compose

    def wrong(self, k1, k2):
        k = compose(self, k1, k2)
        hit = (self.fields(k1)[0] == 1) & (self.fields(k2)[0] == 0)
        return np.where(hit, k + (1 << (self.width + 1)), k)
    harness._Vec.compose = wrong


FAULTS = {"int-left-holes": _int_left_holes, "int-hole-below": _int_hole_below,
          "int-hole-above": _int_hole_above, "nat-hole-9": _nat_hole_9,
          "markers": _markers, "decompose": _decompose,
          "is-monotone": _is_monotone, "order": _order,
          "packed-offset": _packed_offset}
# the faults of a run with no --fault: its output is compared with older
# trees', so it keeps the set it had before packed-offset came
TOGETHER = [name for name in FAULTS if name != "packed-offset"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--fault", choices=list(FAULTS),
                        help="inject this fault alone (default: all but packed-offset)")
    args = parser.parse_args()
    for name in TOGETHER if args.fault is None else [args.fault]:
        FAULTS[name]()
    reports = harness.run_selected(list(harness.SUITES), jobs=args.jobs)
    print(json.dumps([r.to_obj() for r in reports], indent=1))


if __name__ == "__main__":
    main()
