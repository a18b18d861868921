"""Composition and inversion against the pointwise oracles, on elements far
outside every harness universe: large shifts, sparse far holes and negative
int holes.  Each comparison runs on a sparse window of domain points that
covers every hole of the operands and of the result, their neighbours, and
a few drawn points."""

from hypothesis import given
from hypothesis import strategies as st

from isomon import FiniteIntSet, IntIsometry, NatIsometry, ZIsometry

from oracles import agree_on, compose_points, int_points_on, nat_points_on

FAR = 10 ** 6

points = st.sets(st.integers(-FAR - 10, FAR + 10), max_size=8)


def _nat(shift, holes):
    # a shift by -t needs 1..t among the holes, so its cost is t
    return NatIsometry(shift, FiniteIntSet(holes | set(range(1, 1 - shift))))


def nat_elements(lowest=-500, highest=FAR):
    return st.builds(_nat, st.integers(lowest, highest),
                     st.sets(st.integers(1, FAR), max_size=6))


int_elements = st.builds(
    lambda a, reflect, holes: IntIsometry(ZIsometry(a, reflect), FiniteIntSet(holes)),
    st.integers(-FAR, FAR), st.booleans(), st.sets(st.integers(-FAR, FAR), max_size=6))


def _around(*sets):
    return {p + d for s in sets for p in s for d in (-1, 0, 1)}


@given(nat_elements(), nat_elements(), points)
def test_nat_compose_matches_the_oracle(x, y, extra):
    p = x * y
    window = _around(x.exceptions, p.exceptions, extra,
                     {h - x.shift for h in y.exceptions})
    first = nat_points_on(x, window)
    expected = compose_points(first, nat_points_on(y, first.values()))
    assert agree_on(p, expected, window)


@given(int_elements, int_elements, points)
def test_int_compose_matches_the_oracle(x, y, extra):
    p = x * y
    a = x.unit.a
    window = _around(x.exceptions, p.exceptions, extra,
                     {h - a for h in y.exceptions}, {a - h for h in y.exceptions})
    first = int_points_on(x, window)
    expected = compose_points(first, int_points_on(y, first.values()))
    assert agree_on(p, expected, window)


# the inverse of a nat shift by s lists 1..s as holes, so s stays small
@given(nat_elements(-500, 500), points)
def test_nat_inverse_matches_the_oracle(x, extra):
    inv = x.inverse()
    domain = _around(x.exceptions, extra, {y - x.shift for y in inv.exceptions})
    inverted = {v: k for k, v in nat_points_on(x, domain).items()}
    window = (set(inv.exceptions) | set(inverted)
              | {h + x.shift for h in x.exceptions})
    assert agree_on(inv, inverted, window)


@given(int_elements, points)
def test_int_inverse_matches_the_oracle(x, extra):
    inv = x.inverse()
    a = x.unit.a
    domain = _around(x.exceptions, extra, {y - a for y in inv.exceptions},
                     {a - y for y in inv.exceptions})
    inverted = {v: k for k, v in int_points_on(x, domain).items()}
    window = (set(inv.exceptions) | set(inverted)
              | {x.unit.apply(h) for h in x.exceptions})
    assert agree_on(inv, inverted, window)
