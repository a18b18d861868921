"""Print the report of every suite at the default bounds, with eight faults injected.

    PYTHONPATH=src python tests/fault_reports.py --jobs J

isomon is imported from ``PYTHONPATH``, so the same script can run against
two source trees; their outputs are byte-identical exactly when both
harnesses report the same instances, counters and failures, in the same
order, for faulty code.  The faults are patched in before the run, so forked
worker processes inherit them:

- int ``compose`` keeps only the left holes when a reflection meets an odd
  number of holes;
- int ``compose`` adds hole -50, below the ``assoc`` window, when the
  translation by 2 meets the hole set {-2};
- int ``compose`` adds hole ``reach + 1``, just above that window, at the
  bit a reflection flag would take, when the translation by 2 meets a
  reflection with the hole set {2};
- nat ``compose`` adds hole 9 when a shift by 1 meets hole 3;
- ``NatIsometry.markers`` raises ``nr_high`` on elements with two holes;
- the harness's ``decompose`` returns the word of ``NatIsometry(1)`` on shift 2;
- ``FiniteTailMap.is_monotone`` is False on maps with shift 1 from 1 on,
  the identity up to 0 and no middle points;
- ``ZIsometry.order`` calls translations by 1 and -1 of order 1.

The file name keeps pytest from collecting it.
"""

import argparse
import dataclasses
import json

from isomon import FiniteIntSet, IntIsometry, NatIsometry, ZIsometry, harness
from isomon.homs import FiniteTailMap


def _patch_compose(cls, wrong):
    cls.compose = cls.__mul__ = wrong


def inject_faults():
    int_compose, nat_compose = IntIsometry.compose, NatIsometry.compose
    markers, decompose = NatIsometry.markers, harness.decompose
    is_monotone, order = FiniteTailMap.is_monotone, ZIsometry.order
    spec = harness.INT_DEFAULT
    reach = spec.exception_bound + 2 * spec.shift_bound

    def int_wrong(x, y):
        p = int_compose(x, y)
        if x.unit.reflect and len(y.exceptions) % 2:
            return IntIsometry(p.unit, x.exceptions)
        if x.unit == ZIsometry(2) and y.exceptions == FiniteIntSet([-2]):
            return IntIsometry(p.unit, FiniteIntSet([*p.exceptions, -50]))
        if x.unit == ZIsometry(2) and y.unit.reflect and y.exceptions == FiniteIntSet([2]):
            return dataclasses.replace(p, exceptions=[*p.exceptions, reach + 1])
        return p

    def nat_wrong(x, y):
        p = nat_compose(x, y)
        if x.shift == 1 and 3 in y.exceptions:
            return NatIsometry(p.shift, FiniteIntSet([*p.exceptions, 9]))
        return p

    def markers_wrong(g):
        m = markers(g)
        return m._replace(nr_high=m.nr_high + 1) if len(g.exceptions) == 2 else m

    _patch_compose(IntIsometry, int_wrong)
    _patch_compose(NatIsometry, nat_wrong)
    NatIsometry.markers = markers_wrong
    harness.decompose = lambda g: decompose(NatIsometry(1) if g.shift == 2 else g)
    FiniteTailMap.is_monotone = lambda f: (
        is_monotone(f) and not (f.pos_shift == 1 and f.neg_threshold == 0 and not f.middle))
    ZIsometry.order = lambda z: 1 if not z.reflect and abs(z.a) == 1 else order(z)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()
    inject_faults()
    reports = harness.run_selected(harness.suite_names(), jobs=args.jobs)
    print(json.dumps([r.to_obj() for r in reports], indent=1))


if __name__ == "__main__":
    main()
