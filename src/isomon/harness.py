"""Exhaustive desk-scale verification suites over bounded universes.

A universe is every valid element whose exceptions and shift fit inside the
given bounds.  Each suite scans its whole instance space (pairs, triples,
exception sets, ...) and reports a deterministic count plus any
counterexamples; reports are byte-stable across runs and across worker
counts, so two runs of ``isomon check --all --format json`` are identical.

A suite is a sequence of instances plus a check that yields one item per
instance, None or the whole failure.  ``_each`` scans any such sequence, the
universe's elements by default; ``_Pairwise`` scans the universe's pairs
through a value of each element and product, with an optional ``row`` check.
Only the packed ``assoc`` scan is its own.

Suites shard their instance sequence over contiguous chunks.  With
``--jobs`` above 1, one set of worker processes lives for the whole
``check`` run, and chunk c of every suite runs on worker c; the merge is
order-preserving, which is the only synchronization point.

Every suite that composes pairs reads them from one product table per
universe chunk and process (``_product_rows``): for each x in the chunk's
rows and every y, the id of ``x * y`` among the chunk's distinct products,
each of which is one interned object.  The table is built once per chunk and
compose in force, and chunk c of every suite is the same rows, so a worker
builds its table once and reuses it in every later suite of the run.  A
pairwise check runs once per distinct triple of values of x, y and x * y,
and its items are counted over that triple's pairs.  The packed ``assoc``
scan checks each triple through the distinct pair products, which it
composes once with every element on each side; it decodes each distinct
packed pair product and compares it with the table's, so the library's
compose is checked on the universe's pairs, not on the pair products the
triple scan composes.
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
        for bound in (self.exception_bound, self.shift_bound):
            if not isinstance(bound, int) or isinstance(bound, bool) or bound < 0:
                raise ValueError(f"bounds must be non-negative ints, got {bound!r}")


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


def _product_rows(spec: UniverseSpec, lo: int, hi: int) -> tuple[np.ndarray, list]:
    """Rows [lo, hi) of the universe's product table: for each x in the
    rows and every y, the id of ``x * y`` among the rows' distinct products,
    and those products by id.  Equal products are one interned object."""
    return _chunk_table(spec, type(_universe(spec)[0]).__mul__, lo, hi)


@lru_cache(maxsize=None)
def _chunk_table(spec: UniverseSpec, mul: Callable, lo: int, hi: int) -> tuple:
    # keyed on the product in force too, so a replaced compose gets its own
    elems = _universe(spec)
    ids: dict = {}
    rows = np.array([[ids.setdefault(mul(x, y), len(ids)) for y in elems]
                     for x in elems[lo:hi]])
    return rows, list(ids)


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
# An element of either monoid is packed as three integers ``(a, r, m)``: its
# unit x -> x + a, or x -> a - x when r = 1 (a nat element has r = 0), and
# its exception mask, where bit b is the point low + b.  With reach = B + 2S
# the window holds every hole of a product of up to three universe elements:
# nat has low = 1 and width = reach, so preimages below 1 fall off its low
# end; int has low = -reach and width = 2 * reach + 1.  A key packs a
# (offset to be positive), r and m, high bits to low.  Composition then
# becomes a handful of elementwise numpy operations, which makes the full
# triple scan cheap.  ``key_bits`` is the length of the widest key a triple
# product can have; keys are int64 when they fit in 63 bits, else Python
# ints in object arrays.


def _shift_bits(m, k):
    # bit index += k, elementwise; k may be negative
    kk = np.asarray(k)
    left = np.left_shift(m, np.maximum(kk, 0))
    right = np.right_shift(m, np.maximum(-kk, 0))
    return np.where(kk >= 0, left, right)


class _Vec:
    """The packed encoding of a universe: ``parts(e)`` is ``(a, r, m)`` for
    one element, ``key`` packs those ints (or arrays) into keys, and
    ``decode`` turns a key back into an element.  Packed products are only
    ever decoded and compared with the library's; no element is keyed."""

    def __init__(self, spec: UniverseSpec):
        self.nat = spec.monoid == "nat"
        reach = spec.exception_bound + 2 * spec.shift_bound
        self.low, self.width = (1, reach) if self.nat else (-reach, 2 * reach + 1)
        self.koff = 3 * spec.shift_bound + 1
        self.key_bits = self.width + 1 + (2 * self.koff).bit_length()
        self.dtype = np.int64 if self.key_bits <= 63 else object

    def parts(self, e) -> tuple:
        a, r, holes = (e.shift, 0, e.exceptions) if self.nat else e.key
        return a, int(r), sum(1 << (x - self.low) for x in holes)

    def pack(self, elems):
        return tuple(np.array(col, dtype=self.dtype)
                     for col in zip(*map(self.parts, elems)))

    def key(self, t):
        a, r, m = t
        if np.any(m >> self.width):
            raise AssertionError("exception mask escaped its window")
        return ((a + self.koff) << (self.width + 1)) | (r << self.width) | m

    def _mirror(self, m):
        # bit b -> bit width-1-b: the int window reflected about 0
        out = np.zeros_like(m)
        for b in range(self.width):
            out |= ((m >> b) & 1) << (self.width - 1 - b)
        return out

    def compose(self, t1, t2):
        a1, r1, m1 = t1
        a2, r2, m2 = t2
        a = np.where(r2, a2 - a1, a1 + a2)
        pre = _shift_bits(m2, -a1)
        if np.count_nonzero(r1):  # never for nat
            pre = np.where(r1, _shift_bits(self._mirror(m2), a1), pre)
        return a, r1 ^ r2, m1 | pre

    def decode(self, key: int):
        m = key & ((1 << self.width) - 1)
        r = (key >> self.width) & 1
        a = (key >> (self.width + 1)) - self.koff
        exc = FiniteIntSet(self.low + b for b in range(self.width) if m >> b & 1)
        return NatIsometry(a, exc) if self.nat else IntIsometry(ZIsometry(a, bool(r)), exc)


# ---------------------------------------------------------------------------
# Suite chunk functions.  ``chunk(spec, instances, lo, hi, log, counters)``
# scans ``instances[lo:hi]``, adds failures to ``log`` and counts to
# ``counters`` (whose keys the suite declares), and returns the number of
# instances it checked.


def _objs(*elems) -> list:
    return [element_to_obj(e) for e in elems]


def _each(check):
    """Chunk over the instances themselves: ``check(item, counters)`` yields
    one item per instance it checks, None or the whole failure."""
    def chunk(spec, instances, lo, hi, log, counters):
        return sum(log.scan(check(item, counters)) for item in instances[lo:hi])
    return chunk


@dataclass(frozen=True)
class _Pairwise:
    """Chunk over pairs (x, y) of universe elements with x in rows [lo, hi).

    ``check(xv, yv, pv, counters)`` gets ``each(x)``, ``each(y)`` and
    ``each(p)`` for p = x * y from the chunk's product table, so ``each``
    runs once per element and distinct product, and yields one item per
    instance it checks: None, or the failure's fields besides ``inputs``.
    ``each`` values are hashable, and values that compare equal give equal
    check items and counts: the check runs once per distinct value triple,
    and its instances, counts and failures are spread over that triple's
    pairs in scan order.  ``row(i, x, each(x), counters)`` yields row i's own
    items, failures whole, before its pairs.
    """
    check: Callable
    each: Callable
    row: Callable | None = None

    def __call__(self, spec, elems, lo, hi, log, counters):
        ids, objs = _product_rows(spec, lo, hi)
        code: dict = {}  # each distinct value's code, in order of first sight
        ex = np.array([code.setdefault(v, len(code)) for v in map(self.each, elems)])
        nx = len(code)
        pc = np.array([code.setdefault(v, len(code)) for v in map(self.each, objs)])
        values, nv = list(code), len(code)
        if nx * nx * nv >> 63:
            raise AssertionError("value class keys overflow int64")
        keys = (ex[lo:hi, None] * nx + ex) * nv + pc[ids]
        classes, inverse, sizes = np.unique(keys, return_inverse=True,
                                            return_counts=True)
        inverse = inverse.reshape(keys.shape)
        n, fails = 0, []
        for key, size in zip(classes.tolist(), sizes.tolist()):
            xy, vp = divmod(key, nv)
            delta = dict.fromkeys(counters, 0)
            xv, yv, pv = values[xy // nx], values[xy % nx], values[vp]
            items = list(self.check(xv, yv, pv, delta))
            n += size * len(items)
            for name, count in delta.items():
                counters[name] += size * count
            fails.append([fields for fields in items if fields is not None])
        failing = np.array([bool(f) for f in fails])
        for i in range(lo, hi):
            x, row = elems[i], inverse[i - lo]
            if self.row is not None:
                n += log.scan(self.row(i, x, values[ex[i]], counters))
            for j in np.flatnonzero(failing[row]):
                for fields in fails[row[j]]:
                    log.add({"inputs": _objs(x, elems[j]), **fields})
        return n


def _assoc_chunk(spec, elems, lo, hi, log, counters):
    # What is checked: the library's compose on the pairs U x U of universe
    # elements, through the cross-check, and the packed formula on every
    # triple.  The library's compose of a pair product q with an element
    # (Q x U and U x Q) is never run, so a compose that is wrong only there
    # passes; tests/test_harness.py pins such a fault as a known gap.
    n = len(elems)
    vec = _Vec(spec)
    arrays = vec.pack(elems)
    cols = tuple(x[None, :] for x in arrays)
    pairwise = vec.compose(tuple(x[:, None] for x in arrays), cols)
    pair_keys = vec.key(pairwise)
    # Keys are injective, so every triple product goes through one of the
    # distinct pair products q: (x_i y_j) z_k = pz[idx[i, j], k] and
    # x_i (y_j z_k) = xq[i, idx[j, k]].
    keys, first, idx = np.unique(pair_keys, return_index=True, return_inverse=True)
    idx = idx.reshape(n, n)
    # the cross-check: each distinct packed product is decoded once and
    # looked up among the chunk's products, -1 where none equals it (as for
    # a product with a hole outside the window)
    ids, objs = _product_rows(spec, lo, hi)
    where = {p: k for k, p in enumerate(objs)}
    packed = np.array([where.get(vec.decode(key), -1) for key in keys.tolist()])
    for i, j in np.argwhere(packed[idx[lo:hi]] != ids):
        log.add({"inputs": _objs(elems[lo + i], elems[j]),
                 "check": "packed product mismatch"})
    counters["pair_checks"] += (hi - lo) * n
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


def _lemma21_check(dx, dy, d, counters):
    yield None if max(dx, dy) <= d <= dx + dy else {"deficiencies": [dx, dy], "got": d}


_INT_IDENTITY = intmonoid.identity()


def _prop22_values(g):
    return g.deficiency, g == _INT_IDENTITY


def _prop22_check(xv, yv, pv, counters):
    yield {} if pv[1] and (xv[0] or yv[0]) else None


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


def _sigma(g):
    return natmonoid.sigma(g) if isinstance(g, NatIsometry) else intmonoid.sigma(g)


def _sigma_check(sx, sy, sp, counters):
    # nat's image is the integers under addition, int's the unit group
    yield None if sp == (sx + sy if isinstance(sx, int) else sx * sy) else {}


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


def _cor212_check(g_homs, d_homs, p_homs, counters):
    for hom, hg, hd, hp in zip(("translation", "z2"), g_homs, d_homs, p_homs):
        yield None if hp == hg * hd else {"hom": hom}


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
    "lemma-2.1": _Suite(_INT, _Pairwise(_lemma21_check,
                                        operator.attrgetter("deficiency"))),
    "prop-2.2": _Suite(_INT, _Pairwise(_prop22_check, _prop22_values)),
    "lemma-2.9-oracle": _Suite((UniverseSpec("int", 4, 2),), _each(_lemma29_check),
                               ("Trivial", "Z2", "FullUnits"),
                               lambda spec: _window_sets(spec.exception_bound)),
    "lemma-3.3": _Suite(_NAT, _each(_lemma33_check)),
    "lemma-3.4": _Suite(_NAT, _Pairwise(_lemma34_check, NatIsometry.gap)),
    "lemma-3.5": _Suite(_NAT, _Pairwise(_lemma35_check, NatIsometry.gap)),
    "lemma-3.6": _Suite(_NAT, _Pairwise(_lemma36_check, _lemma36_values),
                        ("case1", "case2", "case3", "case4")),
    "filtration": _Suite(_NAT, _each(_filtration_check),
                         instances=_filtration_instances),
    "sigma-hom": _Suite(_BOTH, _Pairwise(_sigma_check, _sigma)),
    "decompose-roundtrip": _Suite(_NAT, _each(_roundtrip_check)),
    "decompose-filtered": _Suite(_NAT, _each(_filtered_check)),
    "remark-3.9": _Suite(_NAT, _each(_conjugation_check),
                         instances=lambda spec: _CONJUGATION_PAIRS),
    "example-2.13": _Suite(_NAT, _Pairwise(_extension_check, _extensions,
                                           _extension_row)),
    "cor-2.12": _Suite(_NAT, _Pairwise(_cor212_check, _cor212_homs, _cor212_row),
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
