"""The harness's lemma checks on elements far outside every harness universe.

``isomon check`` runs its checks over small bounded universes.  Here the same
check functions, imported from the harness and not copied, run on drawn pairs
whose coordinates reach 10**12.  The ceilings of lemma 3.6 (k <= 5) and of
the filtered decomposition (k <= 4) limit the gap, not the coordinates, so a
nat element with its prefix and shift near 10**12 and its holes just above
the prefix still gets instances of both.

Lemma 2.9's suite tries every unit up to twice the largest hole, so here its
far check is an oracle of its own instead (see ``_restrictions_oracle``)."""

from collections import Counter

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from isomon import FiniteIntSet, IntIsometry, ZIsometry
from isomon.harness import (SUITES, _bicyclic_check, _conjugation_check,
                            _cor212_check, _cor212_homs, _cor212_row,
                            _extension_check, _extension_row, _extensions,
                            _filtered_check, _filtration_check, _inverse_check,
                            _lemma33_check, _roundtrip_check)
from isomon.intmonoid import (FullUnitsError, HClassKind, hclass_group,
                              restriction_isometries)
from isomon.natmonoid import _make

FAR = 10 ** 12


@st.composite
def far_nat_elements(draw):
    """Prefix 1..k with k near 10**12, a shift that maps the domain minimum
    near 1 or near 2 * 10**12, or anywhere between, and holes among k + 2 ..
    k + 4, so the gap is at most 4.  Some have no hole, so that lemmas 3.4
    and 3.5 get a bicyclic factor."""
    k = draw(st.integers(FAR - 6, FAR + 6))
    shift = draw(st.one_of(st.integers(-k, -k + 6), st.integers(FAR - 6, FAR + 6),
                           st.integers(-k, FAR)))
    holes = draw(st.sets(st.integers(k + 2, k + 4)))
    return _make(shift, k, tuple(sorted(holes)))


far_int_elements = st.builds(
    lambda a, reflect, holes: IntIsometry(ZIsometry(a, reflect), FiniteIntSet(holes)),
    st.one_of(st.integers(-6, 6), st.integers(-FAR, FAR)), st.booleans(),
    st.sets(st.one_of(st.integers(-6, 6), st.integers(-FAR, FAR)), max_size=6))


def _pairwise(name, x, y, counters):
    """The items the suite's pairwise check yields for the pair (x, y), from
    its own per-element values."""
    chunk = SUITES[name].chunk
    return list(chunk.check(chunk.each(x), chunk.each(y), chunk.each(x * y), counters))


def _passes(items) -> bool:
    return all(item is None for item in items)


@given(far_nat_elements(), far_nat_elements())
def test_nat_lemma_checks_pass_on_far_pairs(x, y):
    counters = Counter()
    lemma36 = _pairwise("lemma-3.6", x, y, counters)
    filtered = list(_filtered_check(x, counters))
    # gaps of at most 4 leave every k up to the ceilings
    assert lemma36 and filtered
    assert _passes(lemma36) and _passes(filtered)
    assert _passes(_inverse_check(x, counters))
    assert _passes(_lemma33_check(x, counters))
    assert _passes(_filtration_check((x, x.gap() + 2), counters))
    assert _passes(_roundtrip_check(x, counters))
    for name in ("lemma-3.4", "lemma-3.5", "sigma-hom"):
        assert _passes(_pairwise(name, x, y, counters))


@given(far_nat_elements(), far_nat_elements())
def test_cor212_checks_pass_on_far_pairs(x, y):
    row_counters = Counter()
    assert _passes(_cor212_row(0, x, _cor212_homs(x), row_counters))
    assert row_counters == {"z2_reflections" if x.shift % 2 else "z2_identities": 1}
    homs = [_cor212_homs(g) for g in (x, y, x * y)]
    assert [*_cor212_check(*homs, Counter())] == [None, None]  # translation, z2


@given(far_nat_elements(), far_nat_elements())
def test_extension_checks_pass_on_far_pairs(x, y):
    exts = [_extensions(g) for g in (x, y, x * y)]
    row = [*_extension_row(0, x, exts[0], Counter()), *_extension_row(1, y, exts[1], Counter())]
    assert row == [None] * 7  # the identity's extension, then monotone at each point
    assert [*_extension_check(*exts, Counter())] == [None] * 3  # x * y at each point


@given(st.integers(FAR - 6, FAR + 6), st.data())
def test_conjugation_check_passes_on_far_indices(k, data):
    l = data.draw(st.one_of(st.integers(k - 6, k - 1), st.integers(2, 8)))
    assert _passes(_conjugation_check((k, l), Counter()))


far_exponents = st.one_of(st.integers(0, 6), st.integers(FAR - 6, FAR + 6))


@given(st.tuples(far_exponents, far_exponents, far_exponents, far_exponents))
def test_bicyclic_check_passes_on_far_exponents(exponents):
    assert _passes(_bicyclic_check(exponents, Counter()))


@st.composite
def far_hole_sets(draw):
    """Non-empty int hole sets with coordinates up to about 10**12.  About
    half are mirrored about a drawn point or half point, so they have a
    center; the rest have one by chance, as a single point always does."""
    coordinate = st.one_of(st.integers(-6, 6), st.integers(-FAR // 2, FAR // 2))
    points = draw(st.sets(coordinate, min_size=1, max_size=4))
    if draw(st.booleans()):
        doubled = draw(coordinate)
        points |= {doubled - x for x in points}
    return FiniteIntSet(points)


def _restrictions_oracle(holes):
    """The restriction isometries of a non-empty hole set, without
    ``symmetry_center``.  An isometry that maps a finite set onto itself
    fixes or swaps its minimum and maximum, so the identity and
    x -> min + max - x are the only candidates; each is kept when it maps the
    set onto itself."""
    points = set(holes)
    units = (ZIsometry(0), ZIsometry(holes.min() + holes.max(), True))
    return {IntIsometry(u, holes) for u in units
            if {u.apply(x) for x in points} == points}


@given(far_hole_sets())
@example(FiniteIntSet())
def test_lemma29_matches_the_far_oracle(holes):
    if not holes:
        assert hclass_group(holes) is HClassKind.FULL_UNITS
        with pytest.raises(FullUnitsError):
            restriction_isometries(holes)
        return
    impl = restriction_isometries(holes)
    oracle = _restrictions_oracle(holes)
    assert len(impl) == len(set(impl)) and set(impl) == oracle
    assert hclass_group(holes) is {1: HClassKind.TRIVIAL, 2: HClassKind.Z2}[len(oracle)]


@given(far_int_elements, far_int_elements)
def test_int_lemma_checks_pass_on_far_pairs(x, y):
    counters = Counter()
    assert _passes(_inverse_check(x, counters))
    for name in ("lemma-2.1", "prop-2.2", "sigma-hom"):
        assert _passes(_pairwise(name, x, y, counters))
