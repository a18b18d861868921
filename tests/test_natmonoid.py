import dataclasses
import pickle
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from isomon import (Bicyclic, FiniteIntSet, NatIsometry, bicyclic_mul,
                    from_bicyclic, gen_a, gen_b, gen_e, is_bicyclic,
                    to_bicyclic)
from isomon.harness import UniverseSpec, enumerate_universe
from isomon.natmonoid import f_cover, identity, natural_le, sigma

from oracles import agree_on, compose_points, nat_is_canonical, nat_points

SMALL = enumerate_universe(UniverseSpec("nat", 3, 2))
TINY = enumerate_universe(UniverseSpec("nat", 2, 1))


def test_validity():
    with pytest.raises(ValueError):
        NatIsometry(0, FiniteIntSet([0]))
    with pytest.raises(ValueError):
        NatIsometry(-1)  # 1 would map to 0
    NatIsometry(-1, FiniteIntSet([1]))  # fine: domain starts at 2


@pytest.mark.parametrize("shift, bad", [(1.5, "1.5"), (True, "True"), (2.0, "2.0"),
                                        ("1", "'1'")])
def test_non_int_shifts_are_refused(shift, bad):
    with pytest.raises(ValueError, match=f"^shift must be an int, got {bad}$"):
        NatIsometry(shift, [2])


@pytest.mark.parametrize("holes, bad", [([1.5], "1.5"), ([True], "True"), ([2, 3.0], "3.0")])
def test_non_int_exceptions_are_refused(holes, bad):
    # [1.5] once gave nd_high 2.5, and [True] became the prefix 1
    with pytest.raises(ValueError, match=f"^set members must be ints, got {bad}$"):
        NatIsometry(0, holes)


@pytest.mark.parametrize("k, bad", [(2.5, "2.5"), (3.0, "3.0"), (True, "True")])
def test_gen_e_refuses_a_non_int_index(k, bad):
    with pytest.raises(ValueError, match=f"^hole index must be an int, got {bad}$"):
        gen_e(k)


def test_generators():
    assert gen_a() == NatIsometry(1)
    assert gen_b() == NatIsometry(-1, FiniteIntSet([1]))
    assert gen_e(2) == NatIsometry(0, FiniteIntSet([2]))
    with pytest.raises(ValueError):
        gen_e(1)


def test_compose_examples():
    assert gen_a() * gen_b() == identity()
    assert gen_b() * gen_a() == NatIsometry(0, FiniteIntSet([1]))
    g = NatIsometry(2, FiniteIntSet([1, 3]))
    assert g * g.inverse() == NatIsometry(0, FiniteIntSet([1, 3]))


def test_inverse_examples():
    assert NatIsometry(2, FiniteIntSet([1, 3])).inverse() == \
        NatIsometry(-2, FiniteIntSet([1, 2, 3, 5]))
    assert identity().inverse() == identity()
    assert gen_e(4).inverse() == gen_e(4)


def test_compose_matches_pointwise_oracle():
    hi = 24
    window = range(1, hi - 5)
    for x, y in product(SMALL, repeat=2):
        expected = compose_points(nat_points(x, hi), nat_points(y, hi + 3))
        assert agree_on(x * y, expected, window)
        assert nat_is_canonical(x * y)
        assert (x * y).shift == x.shift + y.shift


def test_inverse_matches_pointwise_oracle():
    hi = 24
    window = range(1, hi - 5)
    for x in SMALL:
        inverted = {v: k for k, v in nat_points(x, hi).items()}
        assert agree_on(x.inverse(), inverted, window)
        assert nat_is_canonical(x.inverse())


def test_markers_examples():
    assert NatIsometry(2, FiniteIntSet([1, 3])).markers() == (2, 4, 4, 6)
    assert identity().markers() == (1, 1, 1, 1)
    for k in range(2, 7):
        star = NatIsometry(0, FiniteIntSet(range(2, k + 2)))
        m = star.markers()
        assert m.nd_high - m.nd_low == k + 1


def test_gap_examples():
    assert gen_e(4).gap() == 4
    assert NatIsometry(2, FiniteIntSet([1, 3])).gap() == 2
    for g in SMALL:
        if is_bicyclic(g):
            assert g.gap() == 0


def test_filtration_examples():
    assert NatIsometry(0, FiniteIntSet([3])).in_filtration(3)
    assert not NatIsometry(0, FiniteIntSet([3])).in_filtration(2)
    assert identity().in_filtration(0)


def test_idempotents_and_natural_order():
    assert NatIsometry(0, FiniteIntSet([1, 3])).is_idempotent()
    assert natural_le(NatIsometry(0, FiniteIntSet([1, 3])),
                      NatIsometry(0, FiniteIntSet([3])))
    assert not natural_le(gen_a(), identity())


small_sets = st.sets(st.integers(1, 40), max_size=8)


@given(st.integers(0, 40), st.integers(0, 40), small_sets, small_sets, small_sets)
def test_natural_order_is_inclusion_of_exception_sets(k, lift, base, more_x, more_y):
    # both exception sets start with the run 1..k, so the shift -k + lift is
    # valid for both, and their prefixes may still differ
    common = set(range(1, k + 1)) | base
    x = NatIsometry(lift - k, common | more_x)
    y = NatIsometry(lift - k, common | more_y)
    assert natural_le(x, y) == (common | more_y <= common | more_x)
    assert not natural_le(x, NatIsometry(lift - k + 1, common | more_x))


def test_stored_parts_and_the_exceptions_view():
    g = NatIsometry(-2, FiniteIntSet([1, 2, 3, 5, 9]))
    assert (g.shift, g.prefix, g.holes) == (-2, 3, (5, 9))
    inv = g.inverse()
    assert (inv.shift, inv.prefix, inv.holes) == (2, 1, (3, 7))
    assert inv.exceptions == FiniteIntSet([1, 3, 7])
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.shift = 0


def test_elements_pickle_and_replace_through_their_public_fields():
    g = NatIsometry(2, FiniteIntSet([1, 3]))
    assert [f.name for f in dataclasses.fields(g)] == ["shift", "exceptions"]
    assert dataclasses.replace(g, shift=3) == NatIsometry(3, FiniteIntSet([1, 3]))
    assert dataclasses.replace(g, exceptions=[1, 2]) == NatIsometry(2, FiniteIntSet([1, 2]))
    for h in (g, g.inverse(), identity()):
        assert pickle.loads(pickle.dumps(h)) == h


def test_e_unitarity():
    # anything above an idempotent in the natural order is idempotent
    for e, g in product(SMALL, repeat=2):
        if e.is_idempotent() and natural_le(e, g):
            assert g.is_idempotent()


def test_sigma_is_shift_and_homomorphism():
    assert sigma(gen_a()) == 1
    assert sigma(NatIsometry(0, FiniteIntSet([2, 5]))) == 0
    assert sigma(NatIsometry(2, FiniteIntSet([1, 3]))) == 2
    for x, y in product(TINY, repeat=2):
        assert sigma(x * y) == sigma(x) + sigma(y)


def test_f_cover():
    assert f_cover(NatIsometry(0, FiniteIntSet([1, 3]))) == identity()
    assert f_cover(NatIsometry(-2, FiniteIntSet([1, 2, 5]))) == \
        NatIsometry(-2, FiniteIntSet([1, 2]))
    assert f_cover(NatIsometry(3, FiniteIntSet([4]))) == NatIsometry(3)
    for g in SMALL:
        cover = f_cover(g)
        assert natural_le(g, cover)
        for other in SMALL:
            if sigma(other) == sigma(g):
                assert natural_le(other, cover)


def test_associativity_small():
    for x, y, z in product(TINY, repeat=3):
        assert (x * y) * z == x * (y * z)


def test_inverse_axioms_small():
    for g in SMALL:
        gi = g.inverse()
        assert g * gi * g == g
        assert gi * g * gi == gi


def test_bicyclic_conversions():
    assert from_bicyclic(Bicyclic(2, 3)) == NatIsometry(1, FiniteIntSet([1, 2]))
    assert to_bicyclic(identity()) == Bicyclic(0, 0)
    assert to_bicyclic(gen_e(2)) is None
    assert not is_bicyclic(gen_e(2))
    for g in SMALL:
        nf = to_bicyclic(g)
        if nf is not None:
            assert from_bicyclic(nf) == g
    for nf in (Bicyclic(-1, 0), Bicyclic(0, -1)):
        with pytest.raises(ValueError, match="^normal form needs non-negative exponents"):
            from_bicyclic(nf)


def test_bicyclic_mul_examples():
    assert bicyclic_mul(Bicyclic(2, 3), Bicyclic(1, 1)) == Bicyclic(2, 3)
    assert bicyclic_mul(Bicyclic(0, 0), Bicyclic(4, 2)) == Bicyclic(4, 2)
    assert bicyclic_mul(Bicyclic(0, 1), Bicyclic(1, 0)) == Bicyclic(0, 0)


def test_bicyclic_mul_against_composition():
    for k, l, m, n in product(range(7), repeat=4):
        u, v = Bicyclic(k, l), Bicyclic(m, n)
        assert from_bicyclic(bicyclic_mul(u, v)) == \
            from_bicyclic(u) * from_bicyclic(v)


def test_products_reaching_the_unit_shifts_factor_through_tails():
    # if a product equals the total up shift, its first non-identity factor
    # has full domain, hence a tail domain; dually for the down shift
    for x, y in product(SMALL, repeat=2):
        if x * y == gen_a():
            first = x if x != identity() else y
            assert is_bicyclic(first)
        if x * y == gen_b():
            last = y if y != identity() else x
            assert is_bicyclic(last)
    for x, y, z in product(TINY, repeat=3):
        if x * y * z == gen_a():
            first = next((g for g in (x, y, z) if g != identity()), identity())
            assert is_bicyclic(first)
        if x * y * z == gen_b():
            last = next((g for g in (z, y, x) if g != identity()), identity())
            assert is_bicyclic(last)
