"""Cofinite partial isometries of the positive integers.

Every such map is a partial shift: x -> x + shift on a cofinite domain,
so an element is a shift plus the finite set of positive integers missing
from the domain.  Composition reads left to right, ``x (fg) = ((x)f)g``.

An element is stored the way the bicyclic monoid sits inside the monoid:
as a shift, a prefix k (the points 1..k, the longest initial run of holes,
which is the q^k factor of the normal form q^k p^l) and the sorted tuple of
the remaining, sparse holes, all above k + 1.  Composition and inversion
are prefix arithmetic plus a merge of the sparse holes, so their cost
tracks the number of sparse holes and not the size of the coordinates; the
markers, the gap and the bicyclic normal form take constant time.  The
full exception set is a view, built from the stored parts on each access,
so only what lists the holes pays for the prefix.

The monoid carries four derived quantities per element (its markers): the
least point of the domain, the least point from which the domain is a
full tail, and the images of both.  The difference of the first two (the
gap) drives the tail filtration and the word decompositions in
:mod:`isomon.words`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .intsets import FiniteIntSet, _check_ints


class Markers(NamedTuple):
    nd_low: int    # min of the domain
    nd_high: int   # least point from which the domain is a full tail
    nr_low: int    # image of nd_low
    nr_high: int   # image of nd_high


class Bicyclic(NamedTuple):
    """Normal form q^k p^l of the bicyclic monoid <p, q | pq = 1>."""

    k: int
    l: int


_set = object.__setattr__


def _run_end(items: tuple, i: int, first: int) -> int:
    """The index just past the run ``first, first + 1, ...`` that starts at
    ``items[i]``.  ``items`` is sorted and distinct with ``items[i] >= first``,
    so ``items[j] - j`` never decreases from i on and equals ``first - i``
    exactly along the run."""
    return bisect_right(range(len(items)), first - i, lo=i, key=lambda j: items[j] - j)


# A dataclass so that ``dataclasses.replace`` and ``fields`` see the two
# public fields, shift and exceptions; the constructor, equality, hash and
# repr are written out, and ``exceptions`` is read through its view.
@dataclass(frozen=True, init=False, repr=False, eq=False)
class NatIsometry:
    __slots__ = ("shift", "prefix", "holes")

    shift: int
    exceptions: FiniteIntSet

    def __init__(self, shift: int = 0, exceptions: Iterable[int] = FiniteIntSet()):
        _check_ints("shift must be an int", shift)
        if not isinstance(exceptions, FiniteIntSet):
            exceptions = FiniteIntSet(exceptions)
        items = exceptions.items
        if items and items[0] < 1:
            raise ValueError(f"exceptions must be positive, got {exceptions!r}")
        k = _run_end(items, 0, 1)
        if k + 1 + shift < 1:
            raise ValueError(f"shift {shift} maps the domain minimum {k + 1} below 1")
        _set(self, "shift", shift)
        _set(self, "prefix", k)
        _set(self, "holes", items[k:])

    @property
    def exceptions(self) -> FiniteIntSet:
        """Every point outside the domain: the prefix 1..k and the holes.

        Built on each access, so it costs O(prefix + holes) each time."""
        return FiniteIntSet._from_sorted((*range(1, self.prefix + 1), *self.holes))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, NatIsometry):
            return (self.shift == other.shift and self.prefix == other.prefix
                    and self.holes == other.holes)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.shift, self.prefix, self.holes))

    def __repr__(self) -> str:
        return f"NatIsometry(shift={self.shift}, prefix={self.prefix}, holes={self.holes})"

    def _repr_pretty_(self, printer, cycle):
        # pretty printers would otherwise list each field, the prefix too
        printer.text(repr(self))

    def __reduce__(self):
        return _make, (self.shift, self.prefix, self.holes)

    def apply(self, x: int) -> int | None:
        if x < 1 or x <= self.prefix or x in self.holes:
            return None
        return x + self.shift

    def compose(self, other: "NatIsometry") -> "NatIsometry":
        # The right operand's prefix pulls back to 1..k2-s, which meets or
        # extends this prefix (its domain minimum maps to 1 or above).
        s = self.shift
        k = max(self.prefix, other.prefix - s)
        holes = self.holes
        if other.holes:
            holes = sorted({*holes, *(h - s for h in other.holes)})
        # drop the holes the prefix covers, then absorb a run from k + 1
        i = bisect_right(holes, k)
        end = _run_end(holes, i, k + 1)
        return _make(s + other.shift, k + end - i, tuple(holes[end:]))

    __mul__ = compose

    def inverse(self) -> "NatIsometry":
        s = self.shift
        return _make(-s, self.prefix + s, tuple(h + s for h in self.holes))

    def markers(self) -> Markers:
        lo = self.prefix + 1
        hi = self.holes[-1] + 1 if self.holes else lo
        return Markers(lo, hi, lo + self.shift, hi + self.shift)

    def gap(self) -> int:
        m = self.markers()
        return m.nd_high - m.nd_low

    def in_filtration(self, k: int) -> bool:
        return self.gap() <= k

    def is_idempotent(self) -> bool:
        return self.shift == 0


def _make(shift: int, prefix: int, holes: tuple) -> NatIsometry:
    """An element from its parts, unchecked: ``prefix + shift >= 0`` and
    ``holes`` sorted, distinct and all above ``prefix + 1``."""
    g = object.__new__(NatIsometry)
    _set(g, "shift", shift)
    _set(g, "prefix", prefix)
    _set(g, "holes", holes)
    return g


def identity() -> NatIsometry:
    return _make(0, 0, ())


def gen_a() -> NatIsometry:
    """The total shift x -> x + 1 (word token ``a``)."""
    return _make(1, 0, ())


def gen_b() -> NatIsometry:
    """The down shift x -> x - 1 defined off {1} (word token ``b``)."""
    return _make(-1, 1, ())


def gen_e(k: int) -> NatIsometry:
    """Identity map with a single hole at k >= 2 (word token ``e[k]``)."""
    _check_ints("hole index must be an int", k)
    if k < 2:
        raise ValueError(f"hole index must be >= 2, got {k}")
    return _make(0, 0, (k,))


def natural_le(x: NatIsometry, y: NatIsometry) -> bool:
    """Natural partial order: x is a restriction of y."""
    if x.shift != y.shift or y.prefix > x.prefix:
        return False
    holes = set(x.holes)
    return all(h <= x.prefix or h in holes for h in y.holes)


def sigma(x: NatIsometry) -> int:
    """Quotient map of the least group congruence, onto the integers."""
    return x.shift


def f_cover(x: NatIsometry) -> NatIsometry:
    """Maximum element of x's congruence class: same shift, fewest exceptions."""
    return _make(x.shift, max(0, -x.shift), ())


def is_bicyclic(x: NatIsometry) -> bool:
    """True when the domain is a full tail, i.e. the exceptions are 1..m."""
    return not x.holes


def to_bicyclic(x: NatIsometry) -> Bicyclic | None:
    if x.holes:
        return None
    return Bicyclic(x.prefix, x.prefix + x.shift)


def from_bicyclic(nf: Bicyclic) -> NatIsometry:
    if nf.k < 0 or nf.l < 0:
        raise ValueError(f"normal form needs non-negative exponents, got {nf}")
    return _make(nf.l - nf.k, nf.k, ())


def bicyclic_mul(u: Bicyclic, v: Bicyclic) -> Bicyclic:
    t = min(u.l, v.k)
    return Bicyclic(u.k + v.k - t, u.l + v.l - t)
