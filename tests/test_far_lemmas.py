"""The harness's lemma checks on elements far outside every harness universe.

``isomon check`` runs its checks over small bounded universes.  Here the same
check functions, imported from the harness and not copied, run on drawn pairs
whose coordinates reach 10**12.  The ceilings of lemma 3.6 (k <= 5) and of
the filtered decomposition (k <= 4) limit the gap, not the coordinates, so a
nat element with its prefix and shift near 10**12 and its holes just above
the prefix still gets instances of both."""

from collections import Counter

from hypothesis import given
from hypothesis import strategies as st

from isomon import FiniteIntSet, IntIsometry, ZIsometry
from isomon.harness import (SUITES, _filtered_check, _filtration_check,
                            _inverse_check, _lemma33_check)
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
    for name in ("lemma-3.4", "lemma-3.5", "sigma-hom"):
        assert _passes(_pairwise(name, x, y, counters))


@given(far_int_elements, far_int_elements)
def test_int_lemma_checks_pass_on_far_pairs(x, y):
    counters = Counter()
    assert _passes(_inverse_check(x, counters))
    for name in ("lemma-2.1", "prop-2.2", "sigma-hom"):
        assert _passes(_pairwise(name, x, y, counters))
