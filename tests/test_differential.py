"""Composition, inversion, the word decompositions and the extension to the
integer line, with products of extensions, against the pointwise oracles, on
elements far outside every harness universe: long prefixes, large shifts of
both signs, sparse far holes and negative int holes.  Each comparison runs on
a sparse window of domain points that covers every place where the domain of
an operand or of the result changes (the end of a nat prefix, every sparse
hole), their neighbours, and a few drawn points."""

from hypothesis import example, given
from hypothesis import strategies as st

from isomon import (FiniteIntSet, IntIsometry, NatIsometry, ZIsometry, decompose,
                    decompose_filtered, extend_in, intmonoid)
from isomon.natmonoid import _make

from oracles import (agree_on, compose_points, int_is_canonical, int_points_on,
                     nat_is_canonical, nat_points_on, word_apply)

FAR = 10 ** 6

points = st.sets(st.integers(-FAR - 10, FAR + 10), max_size=8)


@st.composite
def nat_elements(draw, max_prefix=FAR, max_offset=FAR):
    """Prefix 1..k, shift from -k up, and sparse holes at k + d.  Some of
    each are small, so that products often absorb holes into their prefix,
    and some far.  Built from those parts directly, since listing a long
    prefix costs its length."""
    k = draw(st.one_of(st.integers(0, 6), st.integers(0, max_prefix)))
    shift = draw(st.one_of(st.integers(-k, 6), st.integers(-k, FAR)))
    offsets = draw(st.sets(st.one_of(st.integers(2, 6), st.integers(2, max_offset)),
                           max_size=6))
    return _make(shift, k, tuple(sorted(k + d for d in offsets)))


def _edges(e: NatIsometry) -> set[int]:
    # the points next to which a nat domain changes
    return {1, e.prefix + 1, *e.holes}


int_elements = st.builds(
    lambda a, reflect, holes: IntIsometry(ZIsometry(a, reflect), FiniteIntSet(holes)),
    st.integers(-FAR, FAR), st.booleans(), st.sets(st.integers(-FAR, FAR), max_size=6))


def _around(*sets):
    return {p + d for s in sets for p in s for d in (-1, 0, 1)}


@given(nat_elements(), nat_elements(), points)
def test_nat_compose_matches_the_oracle(x, y, extra):
    p = x * y
    assert nat_is_canonical(p)
    window = _around(_edges(x), _edges(p), extra, {h - x.shift for h in _edges(y)})
    first = nat_points_on(x, window)
    expected = compose_points(first, nat_points_on(y, first.values()))
    assert agree_on(p, expected, window)


@given(int_elements, int_elements, points)
def test_int_compose_matches_the_oracle(x, y, extra):
    p = x * y
    assert int_is_canonical(p)
    a = x.unit.a
    window = _around(x.exceptions, p.exceptions, extra,
                     {h - a for h in y.exceptions}, {a - h for h in y.exceptions})
    first = int_points_on(x, window)
    expected = compose_points(first, int_points_on(y, first.values()))
    assert agree_on(p, expected, window)


@given(nat_elements(), points)
def test_nat_inverse_matches_the_oracle(x, extra):
    inv = x.inverse()
    assert nat_is_canonical(inv)
    window = _around(_edges(inv), extra, {h + x.shift for h in _edges(x)})
    # the domain window holds the only possible preimage of each window point
    domain = {y - x.shift for y in window}
    inverted = {v: k for k, v in nat_points_on(x, domain).items()}
    assert agree_on(inv, inverted, window)


@given(nat_elements(max_prefix=2000, max_offset=2000))
def test_nat_parts_match_the_public_constructor(g):
    listed = FiniteIntSet([*range(1, g.prefix + 1), *g.holes])
    assert NatIsometry(g.shift, listed) == g
    assert g.exceptions == listed


@given(int_elements, points)
def test_int_inverse_matches_the_oracle(x, extra):
    inv = x.inverse()
    assert int_is_canonical(inv)
    a = x.unit.a
    domain = _around(x.exceptions, extra, {y - a for y in inv.exceptions},
                     {a - y for y in inv.exceptions})
    inverted = {v: k for k, v in int_points_on(x, domain).items()}
    window = (set(inv.exceptions) | set(inverted)
              | {x.unit.apply(h) for h in x.exceptions})
    assert agree_on(inv, inverted, window)


# reflections and translations, with holes on both sides of 0
@given(st.integers(-FAR, FAR), st.booleans(),
       st.sets(st.integers(-FAR, FAR), max_size=6) | st.sets(st.integers(-6, 6)))
@example(3, True, {-4, -1, 0, 2, 7})
def test_int_parts_match_the_public_constructor(a, reflect, holes):
    g = intmonoid._make(a, reflect, tuple(sorted(holes)))
    built = IntIsometry(ZIsometry(a, reflect), FiniteIntSet(holes))
    assert g == built and hash(g) == hash(built)
    assert g.unit == ZIsometry(a, reflect) and g.exceptions == FiniteIntSet(holes)
    assert int_is_canonical(g) and int_is_canonical(built)


def _word_points(word, window) -> dict[int, int]:
    """The map a word denotes, as explicit pairs on the positive window points."""
    return {x: y for x in window
            if x >= 1 and (y := word_apply(word.tokens, x)) is not None}


@given(nat_elements(), points)
def test_decompose_matches_the_oracle(g, extra):
    window = _around(_edges(g), extra)
    assert _word_points(decompose(g), window) == nat_points_on(g, window)


@given(nat_elements(), st.integers(0, 3), points)
def test_decompose_filtered_matches_the_oracle(g, slack, extra):
    k = max(2, g.gap()) + slack
    word = decompose_filtered(g, k)
    assert all(t.kind in ("a", "b") or t.index == k for t in word.tokens)
    window = _around(_edges(g), extra)
    assert _word_points(word, window) == nat_points_on(g, window)


def _extension_points(g: NatIsometry, n: int, window) -> dict[int, int]:
    """The extension of g at n as explicit pairs on the window: the identity
    up to n, nothing from n + 1 to 0, and g from 1 on."""
    window = set(window)
    return {x: x for x in window if x <= n} | nat_points_on(g, (x for x in window if x >= 1))


def _extension_edges(n: int) -> set[int]:
    # the points next to which an extension's domain changes below 1
    return {n, 0, -FAR * FAR}


@given(nat_elements(), st.integers(-FAR, 0), points)
def test_extend_in_matches_the_oracle(g, n, extra):
    ext = extend_in(g, n)
    assert ext.is_monotone()
    window = _around(_edges(g), extra, _extension_edges(n))
    assert agree_on(ext, _extension_points(g, n, window), window)


@given(nat_elements(), nat_elements(), st.integers(-FAR, 0), points)
def test_extension_products_match_the_oracle(x, y, n, extra):
    p = extend_in(x, n) * extend_in(y, n)
    assert p == extend_in(x * y, n)
    window = _around(_edges(x), _extension_edges(n), extra,
                     {h - x.shift for h in _edges(y) | _extension_edges(n)})
    first = _extension_points(x, n, window)
    expected = compose_points(first, _extension_points(y, n, first.values()))
    assert agree_on(p, expected, window)
