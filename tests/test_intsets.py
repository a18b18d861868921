import pytest
from hypothesis import given
from hypothesis import strategies as st

from isomon import FiniteIntSet, HalfInteger, symmetry_center


def test_canonical_representation():
    assert FiniteIntSet([3, 1, 3, 2]).items == (1, 2, 3)
    assert FiniteIntSet([1, 3]) == FiniteIntSet((3, 1))
    assert hash(FiniteIntSet([1, 3])) == hash(FiniteIntSet([3, 1]))


def test_set_algebra_examples():
    assert FiniteIntSet([0, 3]).reflect(HalfInteger(3)) == FiniteIntSet([0, 3])
    assert 2 in FiniteIntSet([1, 2]) and 5 not in FiniteIntSet([1, 2])


def test_min_max():
    s = FiniteIntSet([4, -1, 7])
    assert s.min() == -1 and s.max() == 7
    with pytest.raises(ValueError):
        FiniteIntSet().min()
    with pytest.raises(ValueError):
        FiniteIntSet().max()


def test_half_integer():
    assert HalfInteger(3).is_integer is False
    assert str(HalfInteger(3)) == "3/2"
    assert str(HalfInteger(8)) == "4"
    assert HalfInteger(1) < HalfInteger(2)


def test_symmetry_center_examples():
    assert symmetry_center(FiniteIntSet([0, 1])) == HalfInteger(1)
    assert symmetry_center(FiniteIntSet([4])) == HalfInteger(8)
    assert symmetry_center(FiniteIntSet([0, 2, 3])) is None
    assert symmetry_center(FiniteIntSet()) is None


finite_sets = st.sets(st.integers(min_value=-30, max_value=30), max_size=8)


@given(finite_sets)
def test_symmetry_center_iff_reflection_fixes(items):
    s = FiniteIntSet(items)
    c = symmetry_center(s)
    if not s:
        assert c is None
        return
    if c is not None:
        assert s.reflect(c) == s
    # the midpoint of the extremes is the only possible center
    for doubled in range(2 * s.min(), 2 * s.max() + 1):
        cand = HalfInteger(doubled)
        if s.reflect(cand) == s:
            assert c == cand
        else:
            assert c != cand


@given(finite_sets)
def test_reflect_is_an_involution(items):
    s = FiniteIntSet(items)
    c = HalfInteger(5)
    assert s.reflect(c).reflect(c) == s
