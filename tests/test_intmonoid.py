import dataclasses
import pickle
from itertools import product

import pytest

from isomon import (FiniteIntSet, FullUnitsError, HClassKind, IntIsometry,
                    NatIsometry, ZIsometry, hclass_group, restriction_isometries)
from isomon.harness import UniverseSpec, enumerate_universe
from isomon.intmonoid import identity, identity_on, natural_le, sigma

from oracles import agree_on, compose_points, int_points

SMALL = enumerate_universe(UniverseSpec("int", 1, 1))


def test_compose_examples():
    assert identity_on(FiniteIntSet([0])) * identity_on(FiniteIntSet([1, 2])) == \
        identity_on(FiniteIntSet([0, 1, 2]))
    shifted = IntIsometry(ZIsometry(1), FiniteIntSet([0]))
    assert shifted * identity_on(FiniteIntSet([1, 2])) == \
        IntIsometry(ZIsometry(1), FiniteIntSet([0, 1]))
    g = IntIsometry(ZIsometry(2, True), FiniteIntSet([-1, 4]))
    assert g * g.inverse() == identity_on(g.exceptions)


def test_inverse_examples():
    assert IntIsometry(ZIsometry(2), FiniteIntSet([0])).inverse() == \
        IntIsometry(ZIsometry(-2), FiniteIntSet([2]))
    refl = IntIsometry(ZIsometry(3, True), FiniteIntSet([0, 3]))
    assert refl.inverse() == refl
    assert identity_on(FiniteIntSet([5])).inverse() == identity_on(FiniteIntSet([5]))


def test_compose_matches_pointwise_oracle():
    radius = 12
    window = range(-5, 6)
    for x, y in product(SMALL, repeat=2):
        expected = compose_points(int_points(x, radius), int_points(y, radius + 3))
        assert agree_on(x * y, expected, window)
        assert (x * y).unit == x.unit * y.unit


def test_inverse_matches_pointwise_oracle():
    radius = 12
    window = range(-5, 6)
    for x in SMALL:
        inverted = {v: k for k, v in int_points(x, radius).items()}
        assert agree_on(x.inverse(), inverted, window)


def test_associativity_and_inverse_axioms_small():
    tiny = enumerate_universe(UniverseSpec("int", 1, 0))
    for x, y, z in product(tiny, repeat=3):
        assert (x * y) * z == x * (y * z)
    for g in SMALL:
        gi = g.inverse()
        assert g * gi * g == g
        assert gi * g * gi == gi


def test_deficiency():
    assert identity_on(FiniteIntSet([0, 1, 2])).deficiency == 3
    assert IntIsometry(ZIsometry(4, True)).deficiency == 0
    shifted = IntIsometry(ZIsometry(1), FiniteIntSet([0]))
    prod = shifted * identity_on(FiniteIntSet([1, 2]))
    assert prod.deficiency == 2
    assert max(1, 2) <= prod.deficiency <= 1 + 2


def test_deficiency_bounds_exhaustive():
    for x, y in product(SMALL, repeat=2):
        d = (x * y).deficiency
        assert max(x.deficiency, y.deficiency) <= d <= x.deficiency + y.deficiency


def test_no_one_sided_units():
    # a product can be the identity only when both factors are units
    for x, y in product(SMALL, repeat=2):
        if x * y == identity():
            assert x.deficiency == 0 and y.deficiency == 0


def test_sigma():
    # sigma sends an element to its unit, the unique unit above it
    g = IntIsometry(ZIsometry(1), FiniteIntSet([0]))
    assert sigma(g) == ZIsometry(1)
    assert sigma(identity_on(FiniteIntSet([0, 1]))) == ZIsometry(0)
    for x, y in product(SMALL, repeat=2):
        assert sigma(x * y) == sigma(x) * sigma(y)


def test_idempotents_are_the_partial_identities():
    assert identity_on(FiniteIntSet([0, 3])).is_idempotent()
    assert [g for g in SMALL if g.is_idempotent()] == [g for g in SMALL if g * g == g]
    assert not IntIsometry(ZIsometry(0, True)).is_idempotent()
    assert not IntIsometry(ZIsometry(1)).is_idempotent()


def test_natural_order():
    g = IntIsometry(ZIsometry(2, True), FiniteIntSet([0, 1]))
    assert natural_le(g, IntIsometry(ZIsometry(2, True), FiniteIntSet([0])))
    assert not natural_le(g, IntIsometry(ZIsometry(2), FiniteIntSet([0])))
    for g in SMALL:
        assert natural_le(g, IntIsometry(g.unit))
        for h in SMALL:
            assert natural_le(g, h) == (
                g.unit == h.unit and h.exceptions.issubset(g.exceptions))


def test_restriction_isometries_examples():
    two = restriction_isometries(FiniteIntSet([0, 3]))
    assert two == (identity_on(FiniteIntSet([0, 3])),
                   IntIsometry(ZIsometry(3, True), FiniteIntSet([0, 3])))
    one = restriction_isometries(FiniteIntSet([0, 2, 3]))
    assert one == (identity_on(FiniteIntSet([0, 2, 3])),)
    singleton = restriction_isometries(FiniteIntSet([4]))
    assert singleton == (identity_on(FiniteIntSet([4])),
                         IntIsometry(ZIsometry(8, True), FiniteIntSet([4])))
    with pytest.raises(FullUnitsError):
        restriction_isometries(FiniteIntSet())


def brute_restrictions(exc: FiniteIntSet) -> set[IntIsometry]:
    bound = 2 * max(abs(exc.min()), abs(exc.max())) + 2
    points = set(exc)
    found = set()
    for a in range(-bound, bound + 1):
        for unit in (ZIsometry(a), ZIsometry(a, True)):
            if {unit.apply(x) for x in points} == points:
                found.add(IntIsometry(unit, exc))
    return found


def test_restriction_isometries_against_brute_force():
    for mask in range(1, 1 << 7):
        exc = FiniteIntSet(o - 3 for o in range(7) if mask >> o & 1)
        impl = set(restriction_isometries(exc))
        assert impl == brute_restrictions(exc)
        kind = hclass_group(exc)
        assert kind == (HClassKind.Z2 if len(impl) == 2 else HClassKind.TRIVIAL)
        # every returned map has the right domain and fixes it setwise
        for g in impl:
            assert g.exceptions == exc
            assert {g.unit.apply(x) for x in exc} == set(exc)


def test_hclass_examples():
    assert hclass_group(FiniteIntSet()) == HClassKind.FULL_UNITS
    assert hclass_group(FiniteIntSet([0, 3])) == HClassKind.Z2
    assert hclass_group(FiniteIntSet([0, 2, 3])) == HClassKind.TRIVIAL


REFLECTING = IntIsometry(ZIsometry(2, True), FiniteIntSet([-1, 4]))


def test_replace_goes_through_the_public_constructor():
    moved = dataclasses.replace(REFLECTING, unit=ZIsometry(5))
    assert moved == IntIsometry(ZIsometry(5), FiniteIntSet([-1, 4]))
    listed = dataclasses.replace(REFLECTING, exceptions=[3, -2, 3])
    assert listed == IntIsometry(ZIsometry(2, True), FiniteIntSet([-2, 3]))
    assert isinstance(listed.exceptions, FiniteIntSet)


def test_fields_are_unit_and_exceptions():
    assert [f.name for f in dataclasses.fields(REFLECTING)] == ["unit", "exceptions"]


def test_pickle_round_trip():
    for g in (REFLECTING, REFLECTING.inverse(), REFLECTING * REFLECTING, identity()):
        back = pickle.loads(pickle.dumps(g))
        assert back == g and hash(back) == hash(g)
        assert back.unit == g.unit and back.exceptions == g.exceptions


def test_elements_are_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        REFLECTING.unit = ZIsometry(0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        REFLECTING.key = (0, False, ())


def test_default_constructor_is_the_identity():
    assert IntIsometry() == identity()
    assert hash(IntIsometry()) == hash(identity())


def test_never_equal_to_a_nat_element():
    assert IntIsometry() != NatIsometry()
    assert IntIsometry(ZIsometry(1), FiniteIntSet([1])) != NatIsometry(1, FiniteIntSet([1]))


def test_repr_lists_the_unit_and_the_exceptions():
    text = ("IntIsometry(unit=ZIsometry(a=2, reflect=True), "
            "exceptions=FiniteIntSet([-1, 4]))")
    assert repr(REFLECTING) == text
    assert repr(REFLECTING * identity()) == text
