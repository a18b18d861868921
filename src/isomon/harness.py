"""Exhaustive desk-scale verification suites over bounded universes.

A universe is every valid element whose exceptions and shift fit inside the
given bounds.  Each suite scans its whole instance space (pairs, triples,
exception sets, ...) and reports a deterministic count plus any
counterexamples; reports are byte-stable across runs and across worker
counts, so two runs of ``isomon check --all --format json`` are identical.

A suite is a sequence of instances plus a check that yields one item per
instance, None or the whole failure.  ``_each`` scans any such sequence, the
universe's elements by default; ``_pairwise`` scans the universe's pairs, with
two options, ``each`` and ``row``.  Only the packed ``assoc`` scan is its own.

Suites shard their instance sequence over contiguous chunks.  With
``--jobs`` above 1, one set of worker processes lives for the whole
``check`` run, and chunk c of every suite runs on worker c; the merge is
order-preserving, which is the only synchronization point.

Every suite that composes pairs reads them from one product table per
universe and process (``_products``): row i holds ``elems[i] * y`` for every
y, built on first use, so a worker builds only its own chunks' rows, once,
and reuses them in every later suite of the run.  Equal products are one
interned object, so values a suite derives from a product are computed once
per distinct product.  The packed ``assoc`` scan checks each triple through
the distinct pair products, which it composes once with every element on
each side.
"""

from __future__ import annotations

import contextlib
import itertools
import multiprocessing
import operator
import pickle
import time
import traceback
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Callable, Sequence

import numpy as np

from . import intmonoid, natmonoid
from .homs import (IDENTITY_MAP, eps_conjugation, extend_in, hom_translation,
                   hom_z2, refute_finite_generation)
from .intmonoid import (FullUnitsError, HClassKind, IntIsometry, hclass_group,
                        restriction_isometries)
from .intsets import FiniteIntSet
from .isoz import ZIsometry
from .jsonio import element_to_obj
from .natmonoid import (Bicyclic, NatIsometry, bicyclic_mul, from_bicyclic,
                        gen_a, gen_b, gen_e, is_bicyclic)
from .words import decompose, decompose_filtered, evaluate, format_word, parse

_REPORT_FAIL_CAP = 50
_SCAN_BUDGET = 1 << 20  # elements per packed-scan array, or n * n if larger


@dataclass(frozen=True)
class UniverseSpec:
    monoid: str
    exception_bound: int
    shift_bound: int

    def __post_init__(self):
        if self.monoid not in ("nat", "int"):
            raise ValueError(f"unknown monoid {self.monoid!r}")
        if self.exception_bound < 0 or self.shift_bound < 0:
            raise ValueError("bounds must be non-negative")


NAT_DEFAULT = UniverseSpec("nat", 5, 2)
INT_DEFAULT = UniverseSpec("int", 2, 2)


def enumerate_universe(spec: UniverseSpec) -> list:
    """Every valid element within bounds, exactly once, in a fixed order."""
    out = []
    B, S = spec.exception_bound, spec.shift_bound
    if spec.monoid == "nat":
        for s in range(-S, S + 1):
            for mask in range(1 << B):
                exc = FiniteIntSet(i + 1 for i in range(B) if mask >> i & 1)
                try:
                    out.append(NatIsometry(s, exc))
                except ValueError:
                    continue
    else:
        sets = _window_sets(B)
        for a in range(-S, S + 1):
            for reflect in (False, True):
                out.extend(IntIsometry(ZIsometry(a, reflect), exc) for exc in sets)
    return out


def _window_sets(B: int) -> list:
    """Every subset of -B..B, in the order of its bitmask over the window."""
    offsets = range(-B, B + 1)
    return [FiniteIntSet(o for b, o in enumerate(offsets) if mask >> b & 1)
            for mask in range(1 << (2 * B + 1))]


def count_universe(spec: UniverseSpec) -> int:
    """Closed-form cardinality of :func:`enumerate_universe`."""
    B, S = spec.exception_bound, spec.shift_bound
    if spec.monoid == "nat":
        # shifts >= 0 are unrestricted; shift -t forces 1..t into the exceptions
        return (S + 1) * 2 ** B + sum(2 ** (B - t) for t in range(1, min(S, B) + 1))
    return 2 * (2 * S + 1) * 2 ** (2 * B + 1)


@lru_cache(maxsize=None)
def _universe(spec: UniverseSpec) -> tuple:
    return tuple(enumerate_universe(spec))


@lru_cache(maxsize=None)
def _table(spec: UniverseSpec, mul: Callable) -> tuple[dict, dict]:
    # keyed on the product in force too, so a replaced compose gets its own
    return {}, {}


def _products(spec: UniverseSpec, i: int) -> tuple:
    """Row i of the universe's product table, ``elems[i] * y`` for every y.

    Rows are built on first use, so a worker builds only its own chunk's.
    Equal products are interned: each distinct product is one object.
    """
    elems = _universe(spec)
    x = elems[i]
    rows, distinct = _table(spec, type(x).__mul__)
    if i not in rows:
        rows[i] = tuple(distinct.setdefault(p, p) for p in (x * y for y in elems))
    return rows[i]


@dataclass
class SuiteReport:
    suite: str
    spec: UniverseSpec
    instances: int
    failures: list
    failure_count: int
    counters: dict
    wall_time: float

    @property
    def passed(self) -> bool:
        return self.failure_count == 0

    def to_obj(self) -> dict:
        # wall_time stays out: serialized reports must be byte-stable
        return {
            "suite": self.suite,
            "monoid": self.spec.monoid,
            "exception_bound": self.spec.exception_bound,
            "shift_bound": self.spec.shift_bound,
            "instances": self.instances,
            "failure_count": self.failure_count,
            "failures": self.failures,
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "pass": self.passed,
        }


class _FailLog:
    """Ordered failure collector; a chunk stores no more failures than a
    report keeps, as a report's failures never reach past any chunk's cap."""

    def __init__(self):
        self.items: list = []
        self.total = 0

    def add(self, obj: dict):
        self.total += 1
        if len(self.items) < _REPORT_FAIL_CAP:
            self.items.append(obj)

    def scan(self, items) -> int:
        n = 0
        for failure in items:
            n += 1
            if failure is not None:
                self.add(failure)
        return n


# ---------------------------------------------------------------------------
# Vectorized element encoding for the associativity scan.
#
# Elements are packed into integers: the exception set as a bitmask over a
# window wide enough for every product of up to three universe elements, the
# shift (and reflection flag) above it.  Composition then becomes a handful
# of elementwise numpy operations, which makes the full triple scan cheap.
# ``key_bits`` is the length of the widest key a triple product can have;
# keys are int64 when they fit in 63 bits, else Python ints in object arrays.


def _shift_bits(m, k):
    # bit index += k, elementwise; k may be negative
    kk = np.asarray(k)
    left = np.left_shift(m, np.maximum(kk, 0))
    right = np.right_shift(m, np.maximum(-kk, 0))
    return np.where(kk >= 0, left, right)


class _Vec:
    """A packed encoding: ``parts(e)``, the ints of one element with the
    exception mask last, and ``layout``, which packs them (or arrays) into keys."""

    @property
    def dtype(self):
        return np.int64 if self.key_bits <= 63 else object

    def pack(self, elems):
        return tuple(np.array(col, dtype=self.dtype)
                     for col in zip(*map(self.parts, elems)))

    def key(self, t):
        if np.any(t[-1] >> self.width):
            raise AssertionError("exception mask escaped its window")
        return self.layout(t)

    def obj_key(self, e) -> int:
        # unchecked, so a product with a hole outside the window mismatches
        return self.layout(self.parts(e))


class _NatVec(_Vec):
    def __init__(self, spec: UniverseSpec):
        self.width = spec.exception_bound + 2 * spec.shift_bound
        self.koff = 3 * spec.shift_bound + 1
        self.key_bits = self.width + (2 * self.koff).bit_length()

    def parts(self, e: NatIsometry) -> tuple:
        return e.shift, sum(1 << (x - 1) for x in e.exceptions)

    def layout(self, t):
        s, m = t
        return (s + self.koff) << self.width | m

    def compose(self, t1, t2):
        s1, m1 = t1
        s2, m2 = t2
        # preimages below 1 fall off the low end of the mask, as they should
        return s1 + s2, m1 | _shift_bits(m2, -s1)

    def decode(self, key: int) -> NatIsometry:
        m = key & ((1 << self.width) - 1)
        s = (key >> self.width) - self.koff
        return NatIsometry(s, FiniteIntSet(b + 1 for b in range(self.width)
                                           if m >> b & 1))


class _IntVec(_Vec):
    def __init__(self, spec: UniverseSpec):
        self.radius = spec.exception_bound + 2 * spec.shift_bound
        self.width = 2 * self.radius + 1
        self.koff = 3 * spec.shift_bound + 1
        self.key_bits = self.width + 1 + (2 * self.koff).bit_length()

    def parts(self, e: IntIsometry) -> tuple:
        return (e.unit.a, int(e.unit.reflect),
                sum(1 << (x + self.radius) for x in e.exceptions))

    def layout(self, t):
        a, r, m = t
        return ((a + self.koff) << (self.width + 1)) | (r << self.width) | m

    def _mirror(self, m):
        # bit b -> bit width-1-b: the window reflected about 0
        out = np.zeros_like(m)
        for b in range(self.width):
            out |= ((m >> b) & 1) << (self.width - 1 - b)
        return out

    def compose(self, t1, t2):
        a1, r1, m1 = t1
        a2, r2, m2 = t2
        a = np.where(r2 == 1, a2 - a1, a1 + a2)
        r = r1 ^ r2
        pre = np.where(r1 == 1,
                       _shift_bits(self._mirror(m2), a1),
                       _shift_bits(m2, -a1))
        return a, r, m1 | pre

    def decode(self, key: int) -> IntIsometry:
        m = key & ((1 << self.width) - 1)
        r = (key >> self.width) & 1
        a = (key >> (self.width + 1)) - self.koff
        exc = FiniteIntSet(b - self.radius for b in range(self.width) if m >> b & 1)
        return IntIsometry(ZIsometry(int(a), bool(r)), exc)


def _vec(spec: UniverseSpec):
    """The packed encoding of a universe."""
    return _NatVec(spec) if spec.monoid == "nat" else _IntVec(spec)


# ---------------------------------------------------------------------------
# Suite chunk functions.  ``chunk(spec, instances, lo, hi, log, counters)``
# scans ``instances[lo:hi]``, adds failures to ``log`` and counts to
# ``counters`` (whose keys the suite declares), and returns the number of
# instances it checked.


def _objs(*elems) -> list:
    return [element_to_obj(e) for e in elems]


def _memo(f):
    """``f`` computed once per object.  Keyed on ``id``, which is safe for
    universe elements and interned products: their caches keep them alive."""
    values: dict = {}

    def value(obj):
        if id(obj) not in values:
            values[id(obj)] = f(obj)
        return values[id(obj)]
    return value


def _each(check):
    """Chunk over the instances themselves: ``check(item, counters)`` yields
    one item per instance it checks, None or the whole failure."""
    def chunk(spec, instances, lo, hi, log, counters):
        return sum(log.scan(check(item, counters)) for item in instances[lo:hi])
    return chunk


def _pairwise(check, each=None, row=None):
    """Chunk over pairs (x, y) of universe elements with x in rows [lo, hi).
    ``check(x, y, p, counters)``, with p = x * y from the product table,
    yields one item per instance it checks: None, or the failure's fields
    besides ``inputs``.  With ``each``, it gets ``each(x)``, ``each(y)`` and
    ``each(p)`` instead, computed once per element and once per distinct
    product in a chunk.  ``row(i, x, each(x), counters)`` yields row i's own
    items, failures whole, before its pairs."""
    def chunk(spec, elems, lo, hi, log, counters):
        value = None if each is None else _memo(each)
        vals = elems if value is None else [value(e) for e in elems]
        n = 0
        for i in range(lo, hi):
            x, xv = elems[i], vals[i]
            if row is not None:
                n += log.scan(row(i, x, xv, counters))
            for j, p in enumerate(_products(spec, i)):
                for fields in check(xv, vals[j], p if value is None else value(p),
                                    counters):
                    n += 1
                    if fields is not None:
                        log.add({"inputs": _objs(x, elems[j]), **fields})
        return n
    return chunk


def _assoc_chunk(spec, elems, lo, hi, log, counters):
    n = len(elems)
    vec = _vec(spec)
    arrays = vec.pack(elems)
    cols = tuple(x[None, :] for x in arrays)
    pairwise = vec.compose(tuple(x[:, None] for x in arrays), cols)
    pair_keys = vec.key(pairwise)
    # cross-check the packed composition against the real one, row by row;
    # equal products are one object, so each distinct one is keyed once
    key = _memo(vec.obj_key)
    for i in range(lo, hi):
        obj_row = np.fromiter(map(key, _products(spec, i)), dtype=vec.dtype, count=n)
        for j in np.nonzero(obj_row != pair_keys[i])[0]:
            log.add({"inputs": _objs(elems[i], elems[j]),
                     "check": "packed product mismatch"})
        counters["pair_checks"] += n
    # Keys are injective, so every triple product goes through one of the
    # distinct pair products q: (x_i y_j) z_k = pz[idx[i, j], k] and
    # x_i (y_j z_k) = xq[i, idx[j, k]].
    _, first, idx = np.unique(pair_keys, return_index=True, return_inverse=True)
    idx = idx.reshape(n, n)
    prods = tuple(x.reshape(-1)[first] for x in pairwise)
    del pairwise, pair_keys  # n * n arrays; only the distinct products are used now
    # No array exceeds the budget: pz holds the distinct products of a block
    # of rows against every z, so a block is every row when all distinct
    # products fit, else as many rows as hold n products each.
    budget = max(_SCAN_BUDGET, n * n)
    block = hi - lo if len(first) * n <= budget else budget // (n * n)
    for b0 in range(lo, hi, block):
        b1 = min(hi, b0 + block)
        used, local = np.unique(idx[b0:b1], return_inverse=True)
        local = local.reshape(b1 - b0, n)
        pz = vec.key(vec.compose(tuple(x[used][:, None] for x in prods), cols))
        xq = vec.key(vec.compose(tuple(x[b0:b1, None] for x in arrays),
                                 tuple(x[None, :] for x in prods)))
        for i in range(b0, b1):
            left = pz[local[i - b0]]
            right = xq[i - b0][idx]
            for j, k in np.argwhere(left != right):
                log.add({"inputs": _objs(elems[i], elems[j], elems[k]),
                         "left": element_to_obj(vec.decode(int(left[j, k]))),
                         "right": element_to_obj(vec.decode(int(right[j, k])))})
    return (hi - lo) * n * n


def _inverse_check(g, counters):
    gi = g.inverse()
    ok = g * gi * g == g and gi * g * gi == gi
    yield None if ok else {"input": element_to_obj(g), "inverse": element_to_obj(gi)}


def _lemma21_check(x, y, p, counters):
    dx, dy = x.deficiency, y.deficiency
    d = p.deficiency
    yield None if max(dx, dy) <= d <= dx + dy else {"deficiencies": [dx, dy], "got": d}


_INT_IDENTITY = intmonoid.identity()


def _prop22_check(x, y, p, counters):
    yield {} if p == _INT_IDENTITY and (x.deficiency or y.deficiency) else None


def _lemma29_check(exc, counters):
    kind = hclass_group(exc)
    counters[kind.value] += 1
    if not exc:
        ok = kind is HClassKind.FULL_UNITS
        try:
            restriction_isometries(exc)
            ok = False
        except FullUnitsError:
            pass
        yield None if ok else {"exceptions": [], "got": kind.value}
        return
    impl = restriction_isometries(exc)
    bound = 2 * max(abs(exc.min()), abs(exc.max())) + 2
    points = set(exc)
    brute = [IntIsometry(u, exc)
             for a in range(-bound, bound + 1)
             for u in (ZIsometry(a), ZIsometry(a, True))
             if {u.apply(x) for x in points} == points]
    sized = {HClassKind.FULL_UNITS: None, HClassKind.Z2: 2,
             HClassKind.TRIVIAL: 1}[kind]
    ok = set(impl) == set(brute) and len(impl) == sized
    yield None if ok else {
        "exceptions": list(exc),
        "impl": _objs(*impl),
        "brute": _objs(*sorted(brute, key=lambda e: (e.unit.a, e.unit.reflect))),
        "hclass": kind.value}


def _lemma33_check(g, counters):
    m = g.markers()
    ok = m.nr_high - m.nr_low == m.nd_high - m.nd_low
    yield None if ok else {"input": element_to_obj(g), "markers": list(m)}


# Lemmas 3.4 and 3.5 see the gaps of the factors and the product.  Only pairs
# whose tail-defined factor g (gap 0, that is bicyclic) is on the lemma's side
# are instances, and d's gap bounds the product's
def _lemma34_check(g_gap, d_gap, p_gap, counters):
    if g_gap == 0:
        yield None if p_gap <= d_gap else {"got": p_gap, "bound": d_gap}


def _lemma35_check(d_gap, g_gap, p_gap, counters):
    if g_gap == 0:
        yield None if p_gap <= d_gap else {"got": p_gap, "bound": d_gap}


_MARKER_CASES = {(True, True): "case1", (False, True): "case2",
                 (True, False): "case3", (False, False): "case4"}


def _lemma36_values(g):
    return g.gap(), g.markers(), is_bicyclic(g)


def _lemma36_check(gv, dv, pv, counters):
    (g_gap, mg, g_tail), (d_gap, md, d_tail), (p_gap, _, p_tail) = gv, dv, pv
    case = None
    if not (g_tail or d_tail or p_tail):
        case = _MARKER_CASES[mg.nr_low <= md.nd_low, mg.nr_high <= md.nd_high]
    # one instance per k = 2..5 that bounds both factors' gaps
    for k in range(max(2, g_gap, d_gap), 6):
        if case is not None:
            counters[case] += 1
        yield {"k": k, "got": p_gap} if p_gap > k else None


def _filtration_instances(spec):
    top = spec.exception_bound + spec.shift_bound + 2
    return [(g, top) for g in _universe(spec)]


def _filtration_check(instance, counters):
    g, top = instance
    chain = all(not g.in_filtration(k) or g.in_filtration(k + 1) for k in range(top))
    base = g.in_filtration(0) == g.in_filtration(1) == is_bicyclic(g)
    yield None if chain and base else {"input": element_to_obj(g), "gap": g.gap()}


def _sigma_check(x, y, p, counters):
    if isinstance(x, NatIsometry):
        ok = natmonoid.sigma(p) == natmonoid.sigma(x) + natmonoid.sigma(y)
    else:
        ok = intmonoid.sigma(p) == intmonoid.sigma(x) * intmonoid.sigma(y)
    yield None if ok else {}


def _roundtrip_check(g, counters):
    w = decompose(g)
    if evaluate(w) != g:
        yield {"input": element_to_obj(g), "word": format_word(w),
               "evaluates_to": element_to_obj(evaluate(w))}
    elif parse(format_word(w)) != w:
        yield {"input": element_to_obj(g), "word": format_word(w),
               "check": "parse/print round-trip"}
    else:
        yield None


def _filtered_check(g, counters):
    # one instance per k = 2..4 that bounds g's gap
    for k in range(max(2, g.gap()), 5):
        w = decompose_filtered(g, k)
        ok = evaluate(w) == g and all(t.kind in ("a", "b") or t.index == k
                                      for t in w.tokens)
        yield None if ok else {"input": element_to_obj(g), "k": k,
                               "word": format_word(w),
                               "evaluates_to": element_to_obj(evaluate(w))}


_CONJUGATION_PAIRS = [(k, l) for k in range(3, 13) for l in range(2, k)]


def _conjugation_check(pair, counters):
    k, l = pair
    got = eps_conjugation(k, l)
    yield None if got == gen_e(l) else {"k": k, "l": l, "got": element_to_obj(got)}


_EXTENSION_POINTS = (0, -1, -2)


def _extensions(g):
    return tuple(extend_in(g, n) for n in _EXTENSION_POINTS)


def _extension_row(i, g, exts, counters):
    if i == 0:
        yield (None if extend_in(natmonoid.identity(), 0) == IDENTITY_MAP
               else {"check": "extension of the identity at 0"})
    for n, ext in zip(_EXTENSION_POINTS, exts):
        yield (None if ext.is_monotone()
               else {"input": element_to_obj(g), "n": n, "check": "monotone"})


def _extension_check(g_exts, d_exts, p_exts, counters):
    for n, eg, ed, ep in zip(_EXTENSION_POINTS, g_exts, d_exts, p_exts):
        yield None if ep == eg * ed else {"n": n}


def _cor212_homs(g):
    return hom_translation(g), hom_z2(g)


def _cor212_row(i, g, homs, counters):
    if i == 0:
        yield (None if hom_translation(gen_a()).unit.order() is None
               else {"check": "translation image must have infinite order"})
    counters["z2_reflections" if homs[1].unit.reflect else "z2_identities"] += 1


@lru_cache(maxsize=None)
def _image_product(hg, hd, mul):
    # the images take a handful of values, so each pair is composed once;
    # keyed on the product in force too, so a replaced compose gets its own
    return mul(hg, hd)


def _cor212_check(g_homs, d_homs, p_homs, counters):
    for hom, hg, hd, hp in zip(("translation", "z2"), g_homs, d_homs, p_homs):
        yield None if hp == _image_product(hg, hd, type(hg).__mul__) else {"hom": hom}


def _cor212_finalize(spec, counters):
    if counters.get("z2_identities") and counters.get("z2_reflections"):
        return []
    return [{"check": "two-element image not realized over this universe",
             "counters": dict(sorted(counters.items()))}]


# exponents (k, l, m, n) of the pairs b^k a^l, b^m a^n, each in 0..6
_BICYCLIC_EXPONENTS = list(itertools.product(range(7), repeat=4))


def _bicyclic_check(exponents, counters):
    k, l, m, n = exponents
    u, v = Bicyclic(k, l), Bicyclic(m, n)
    got = from_bicyclic(bicyclic_mul(u, v))
    expect = from_bicyclic(u) * from_bicyclic(v)
    yield None if got == expect else {"inputs": [[k, l], [m, n]],
                                      "normal_form": element_to_obj(got),
                                      "composed": element_to_obj(expect)}


_REFUTE_DEPTH = 4


def _refute_check(gens, counters):
    # one instance for the witness, then one per product of up to
    # _REFUTE_DEPTH generators, none of which may reach it
    w = refute_finite_generation(gens)
    expected = NatIsometry(0, FiniteIntSet([2, 3, 4]))
    ok = (w.element == expected and w.certificate == 4
          and w.element.gap() == w.certificate == w.bound_k + 1)
    yield None if ok else {"witness": element_to_obj(w.element),
                           "bound_k": w.bound_k, "certificate": w.certificate}
    for length in range(1, _REFUTE_DEPTH + 1):
        for combo in itertools.product(gens, repeat=length):
            counters["products_checked"] += 1
            prod = reduce(operator.mul, combo)
            yield {"factors": _objs(*combo)} if prod == w.element else None


# ---------------------------------------------------------------------------
# Registry and the runner.


@dataclass(frozen=True)
class _Suite:
    defaults: tuple[UniverseSpec, ...]
    chunk: Callable
    counters: tuple[str, ...] = ()
    instances: Callable[[UniverseSpec], Sequence] = _universe
    finalize: Callable | None = None

    @property
    def monoids(self) -> tuple[str, ...]:
        return tuple(spec.monoid for spec in self.defaults)


_NAT = (NAT_DEFAULT,)
_INT = (INT_DEFAULT,)
_BOTH = (NAT_DEFAULT, INT_DEFAULT)

SUITES: dict[str, _Suite] = {
    "assoc": _Suite(_BOTH, _assoc_chunk, ("pair_checks",)),
    "inverse-axioms": _Suite(_BOTH, _each(_inverse_check)),
    "lemma-2.1": _Suite(_INT, _pairwise(_lemma21_check)),
    "prop-2.2": _Suite(_INT, _pairwise(_prop22_check)),
    "lemma-2.9-oracle": _Suite((UniverseSpec("int", 4, 2),), _each(_lemma29_check),
                               ("Trivial", "Z2", "FullUnits"),
                               lambda spec: _window_sets(spec.exception_bound)),
    "lemma-3.3": _Suite(_NAT, _each(_lemma33_check)),
    "lemma-3.4": _Suite(_NAT, _pairwise(_lemma34_check, each=NatIsometry.gap)),
    "lemma-3.5": _Suite(_NAT, _pairwise(_lemma35_check, each=NatIsometry.gap)),
    "lemma-3.6": _Suite(_NAT, _pairwise(_lemma36_check, each=_lemma36_values),
                        ("case1", "case2", "case3", "case4")),
    "filtration": _Suite(_NAT, _each(_filtration_check),
                         instances=_filtration_instances),
    "sigma-hom": _Suite(_BOTH, _pairwise(_sigma_check)),
    "decompose-roundtrip": _Suite(_NAT, _each(_roundtrip_check)),
    "decompose-filtered": _Suite(_NAT, _each(_filtered_check)),
    "remark-3.9": _Suite(_NAT, _each(_conjugation_check),
                         instances=lambda spec: _CONJUGATION_PAIRS),
    "example-2.13": _Suite(_NAT, _pairwise(_extension_check, each=_extensions,
                                           row=_extension_row)),
    "cor-2.12": _Suite(_NAT, _pairwise(_cor212_check, each=_cor212_homs,
                                       row=_cor212_row),
                       ("z2_identities", "z2_reflections"), finalize=_cor212_finalize),
    "bicyclic-oracle": _Suite(_NAT, _each(_bicyclic_check),
                              instances=lambda spec: _BICYCLIC_EXPONENTS),
    "refute-fg": _Suite(_NAT, _each(_refute_check), ("products_checked",),
                        lambda spec: [(gen_a(), gen_b(), gen_e(2), gen_e(3))]),
}


def suite_names() -> list[str]:
    return list(SUITES)


def default_specs(name: str) -> tuple[UniverseSpec, ...]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name].defaults


def _chunk_entry(args):
    name, spec, lo, hi = args
    suite = SUITES[name]
    log = _FailLog()
    counters = dict.fromkeys(suite.counters, 0)
    instances = suite.chunk(spec, suite.instances(spec), lo, hi, log, counters)
    return instances, log.items, log.total, counters


class _RemoteTraceback(Exception):
    """The traceback text of an exception raised in a worker process."""


def _serve(conn):
    """A worker's loop: run each chunk task received and reply with
    ``(result, None)`` or ``(None, (exception, traceback text))``; stop at None.

    An exception that does not survive pickling is replied as a RuntimeError
    naming its type and message.
    """
    while (task := conn.recv()) is not None:
        try:
            reply = _chunk_entry(task), None
        except Exception as exc:
            error, tb = exc, traceback.format_exc()
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:
                error = RuntimeError(f"{type(exc).__name__}: {exc}")
            reply = None, (error, tb)
        conn.send(reply)


# (process, connection) per worker of the run in progress, else None
_workers: list | None = None


@contextlib.contextmanager
def _worker_set(count: int):
    """The workers of the run in progress, or ``count`` new ones for the block.

    New workers are stopped and joined when the block ends, and terminated
    first if it raises, so none outlives the run.
    """
    global _workers
    if _workers is not None:
        yield _workers
        return
    workers = []
    try:
        for _ in range(count):
            conn, child = multiprocessing.Pipe()
            proc = multiprocessing.Process(target=_serve, args=(child,), daemon=True)
            proc.start()
            child.close()
            workers.append((proc, conn))
        _workers = workers
        yield workers
    except BaseException:
        for proc, _ in workers:
            proc.terminate()
        raise
    finally:
        _workers = None
        for proc, conn in workers:
            with contextlib.suppress(OSError):
                conn.send(None)
            proc.join()
            conn.close()


def _map(workers, tasks):
    """Chunk c on worker c; the results in chunk order, or the first failed
    chunk's exception once every worker has replied."""
    used = workers[:len(tasks)]
    for (_, conn), task in zip(used, tasks, strict=True):
        conn.send(task)
    replies = [conn.recv() for _, conn in used]
    for _, error in replies:
        if error is not None:
            exc, tb = error
            raise exc from _RemoteTraceback(tb)
    return [result for result, _ in replies]


def run_suite(name: str, spec: UniverseSpec, jobs: int = 1) -> SuiteReport:
    """Run one named suite over the given universe; deterministic for any jobs."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    suite = SUITES[name]
    if spec.monoid not in suite.monoids:
        raise ValueError(f"suite {name!r} does not apply to the {spec.monoid} monoid")
    start = time.perf_counter()
    total = len(suite.instances(spec))
    parts_count = max(1, min(jobs, total))
    tasks = [(name, spec, total * c // parts_count, total * (c + 1) // parts_count)
             for c in range(parts_count)]
    if parts_count == 1:
        parts = [_chunk_entry(tasks[0])]
    else:
        with _worker_set(parts_count) as workers:
            parts = _map(workers, tasks)
    instances = 0
    failures: list = []
    failure_total = 0
    counters = dict.fromkeys(suite.counters, 0)
    for inst, fails, total_fails, cnts in parts:
        instances += inst
        failures.extend(fails)
        failure_total += total_fails
        for key, val in cnts.items():
            counters[key] += val
    if suite.finalize is not None:
        extra = suite.finalize(spec, counters)
        failures.extend(extra)
        failure_total += len(extra)
    return SuiteReport(name, spec, instances, failures[:_REPORT_FAIL_CAP],
                       failure_total, counters, time.perf_counter() - start)


def run_selected(names: list[str], bound: int | None = None,
                 shift_bound: int | None = None, jobs: int = 1) -> list[SuiteReport]:
    """Run suites over their default universes, with optional bound overrides.

    With ``jobs`` above 1 the worker processes are started once for the whole
    call, so each keeps the product rows of its chunks for later suites.
    """
    reports = []
    with _worker_set(jobs) if jobs > 1 else contextlib.nullcontext():
        for name in names:
            for spec in default_specs(name):
                if bound is not None:
                    spec = UniverseSpec(spec.monoid, bound, spec.shift_bound)
                if shift_bound is not None:
                    spec = UniverseSpec(spec.monoid, spec.exception_bound, shift_bound)
                reports.append(run_suite(name, spec, jobs))
    return reports
