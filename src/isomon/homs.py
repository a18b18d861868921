"""Homomorphisms between the monoids, and the finite-generation refutation.

``extend_in`` embeds a partial isometry of the positive integers into the
cofinite partial bijections of the whole integer line by gluing an identity
tail below a chosen non-positive point; ``FiniteTailMap`` is the codomain:
two shift tails, the positive one stored by its holes, an explicit middle,
and ``middle`` and ``pos_threshold`` as views built on each access.

``hom_translation`` and ``hom_z2`` realize the two non-trivial shapes a
homomorphism into the integer-line monoid can take.
``refute_finite_generation`` produces, for any finite would-be generating
set, an element provably outside the generated submonoid together with its
certificate.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Sequence

from .intsets import FiniteIntSet
from .isoz import ZIsometry
from .intmonoid import IntIsometry
from .natmonoid import NatIsometry
from .words import Token, Word, evaluate


class FiniteTailMap:
    """Cofinite partial bijection of the integers with shift tails.

    ``x -> x + neg_shift`` for ``x <= neg_threshold``, ``x -> x + pos_shift``
    for ``x >= pos_threshold``, an explicit finite middle in between, and
    holes elsewhere.  The map is checked as given: int parts, ordered
    thresholds, disjoint tail images, and distinct middle inputs between the
    thresholds with distinct outputs between the tail images.

    Stored form: the maximal negative tail; ``_pt``, the least defined point
    with only holes (the sorted tuple ``_holes``) and shifted points above
    it, so a shifted block costs its holes, not its length; and the dict
    ``_mid`` between.  ``pos_threshold`` and ``middle`` are views, built on
    each access.  A total shift has thresholds (0, 1), so structural
    equality is map equality.
    """

    __slots__ = ("neg_threshold", "neg_shift", "_pt", "pos_shift", "_mid", "_holes")

    def __init__(self, neg_threshold: int, neg_shift: int,
                 pos_threshold: int, pos_shift: int,
                 middle: Iterable[tuple[int, int]] = ()):
        nt, ns, pt, ps = neg_threshold, neg_shift, pos_threshold, pos_shift
        _check_ints("thresholds and shifts must be ints", nt, ns, pt, ps)
        if nt >= pt:
            raise ValueError("negative tail must end before the positive tail")
        lo, hi = nt + ns, pt + ps
        if lo >= hi:
            raise ValueError("tail ranges overlap; the map is not injective")
        pairs: dict[int, int] = {}
        seen: set[int] = set()
        for x, y in middle:
            _check_ints("middle pairs must be pairs of ints", x, y)
            if not nt < x < pt:
                raise ValueError(f"middle input {x} outside ({nt}, {pt})")
            if x in pairs:
                raise ValueError(f"duplicate middle input {x}")
            if not lo < y < hi:
                raise ValueError(f"middle output {y} collides with a tail range")
            if y in seen:
                raise ValueError(f"duplicate middle output {y}")
            pairs[x] = y
            seen.add(y)
        _canonical(nt, ns, pt, ps, pairs, (), self)

    @property
    def pos_threshold(self) -> int:
        """The least point from which every point maps by ``pos_shift``."""
        return self._holes[-1] + 1 if self._holes else self._pt

    @property
    def middle(self) -> tuple[tuple[int, int], ...]:
        """The middle pairs ``(x, image)``, sorted by input, block points too."""
        ps, holes = self.pos_shift, self._holes
        return (*sorted(self._mid.items()),
                *((x, x + ps) for a, b in zip((self._pt - 1, *holes), holes)
                  for x in range(a + 1, b)))

    def _parts(self):
        return self.neg_threshold, self.neg_shift, self._pt, self.pos_shift, self._holes

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FiniteTailMap):
            return self._parts() == other._parts() and self._mid == other._mid
        return NotImplemented

    def __hash__(self) -> int:
        return hash((*self._parts(), frozenset(self._mid.items())))

    def __repr__(self) -> str:
        return (f"FiniteTailMap(neg=({self.neg_threshold}, {self.neg_shift}), "
                f"pos=({self.pos_threshold}, {self.pos_shift}), middle={self.middle})")

    def apply(self, x: int) -> int | None:
        if x <= self.neg_threshold:
            return x + self.neg_shift
        if x >= self._pt:
            return None if x in self._holes else x + self.pos_shift
        return self._mid.get(x)

    def compose(self, other: "FiniteTailMap") -> "FiniteTailMap":
        """Composite mapping x to other(self(x)), where both legs are defined."""
        nt1, ns1, pt1, ps1 = self.neg_threshold, self.neg_shift, self._pt, self.pos_shift
        nt2, ns2, pt2, ps2 = other.neg_threshold, other.neg_shift, other._pt, other.pos_shift
        holes1, holes2 = self._holes, other._holes
        nt = nt1 if nt1 < nt2 - ns1 else nt2 - ns1
        pt = pt1 if pt1 > pt2 - ps1 else pt2 - ps1
        mid = {x: z for x, y in self._mid.items()
               if (z := other.apply(y)) is not None} if self._mid else {}
        for y, z in other._mid.items():  # pulled back through self's tails
            if y - ns1 <= nt1:
                mid[y - ns1] = z
            elif y - ps1 >= pt1 and y - ps1 not in holes1:
                mid[y - ps1] = z
        if pt2 - ns1 <= nt1:  # self's negative tail lands in other's positive tail
            mid.update((x, x + ns1 + ps2) for x in range(pt2 - ns1, nt1 + 1)
                       if x + ns1 not in holes2)
        if pt1 <= nt2 - ps1:  # and the other way round
            mid.update((x, x + ps1 + ns2) for x in range(pt1, nt2 - ps1 + 1)
                       if x not in holes1)
        holes1 = holes1[bisect_left(holes1, pt):]
        holes2 = holes2[bisect_left(holes2, pt + ps1):]
        if holes2:
            pulled = [h - ps1 for h in holes2]
            holes1 = tuple(sorted({*holes1, *pulled}) if holes1 else pulled)
        return _canonical(nt, ns1 + ns2, pt, ps1 + ps2, mid, holes1)

    __mul__ = compose

    def is_monotone(self) -> bool:
        """True when the map is order-preserving on its whole domain."""
        ys = (self.neg_threshold + self.neg_shift, *(y for _, y in sorted(self._mid.items())),
              self._pt + self.pos_shift)
        return all(a < b for a, b in zip(ys, ys[1:]))


def _check_ints(what: str, *values) -> None:
    if bad := [v for v in values if not isinstance(v, int) or isinstance(v, bool)]:
        raise ValueError(f"{what}, got {bad[0]!r}")


def _canonical(nt, ns, pt, ps, mid: dict, holes: tuple, f=None) -> FiniteTailMap:
    """The map of these parts in canonical form, in f or a new instance; unchecked:
    ``mid`` is over the gap (nt, pt), ``holes`` every undefined point from pt on."""
    while mid and mid.get(nt + 1) == nt + 1 + ns:
        del mid[nt + 1]
        nt += 1
    if nt + 1 == pt and ns == ps:  # the tails meet, up to the first hole
        nt, pt = (holes[0] - 1, holes[0]) if holes else (0, 1)
    if holes and holes[0] == pt:  # a defined point begins the positive tail
        i = 1
        while i < len(holes) and holes[i] == pt + i:
            i += 1
        pt, holes = pt + i, holes[i:]
    keys, low = sorted(mid) if mid else [], pt
    while keys and mid[keys[-1]] == keys[-1] + ps:  # shifted points atop the gap
        low = keys.pop()
    if low < pt:
        holes = (*(x for x in range(low + 1, pt) if x not in mid), *holes)
        pt, mid = low, {x: mid[x] for x in keys}
    f = object.__new__(FiniteTailMap) if f is None else f
    f.neg_threshold, f.neg_shift, f.pos_shift = nt, ns, ps
    f._pt, f._mid, f._holes = pt, mid, holes
    return f


IDENTITY_MAP = FiniteTailMap(0, 0, 1, 0)


def extend_in(g: NatIsometry, n: int) -> FiniteTailMap:
    """Extend g to the integer line by the identity on ``(-inf, n]``.

    The points ``n+1 .. 0`` and g's own exceptions stay outside the domain.
    """
    _check_ints("extension point must be an int", n)
    if n > 0:
        raise ValueError(f"extension point must be <= 0, got {n}")
    return _canonical(n, 0, g.prefix + 1, g.shift, {}, g.holes)


def hom_translation(g: NatIsometry) -> IntIsometry:
    """Homomorphism whose image is the infinite cyclic group of translations."""
    return IntIsometry(ZIsometry(g.shift))


def hom_z2(g: NatIsometry) -> IntIsometry:
    """Homomorphism whose image is the two-element group {identity, x -> -x}."""
    return IntIsometry(ZIsometry(0, reflect=bool(g.shift % 2)))


def eps_conjugation(k: int, l: int) -> NatIsometry:
    """Evaluate a^(k-l) e[k] b^(k-l); the result equals the hole map e[l]."""
    if not 2 <= l < k:
        raise ValueError(f"need 2 <= l < k, got l={l}, k={k}")
    m = k - l
    return evaluate(Word([Token("a", m), Token("e", 1, k), Token("b", m)]))


@dataclass(frozen=True)
class Witness:
    """An element outside the submonoid generated by a finite set.

    ``certificate`` is the element's gap; it always exceeds ``bound_k``, the
    largest gap among the generators, and the gap of any product of elements
    with gap at most ``bound_k`` stays at most ``bound_k``.
    """

    element: NatIsometry
    bound_k: int
    certificate: int


def refute_finite_generation(gens: Sequence[NatIsometry]) -> Witness:
    """Produce a witness that the given finite set generates a proper submonoid.

    The bound is the largest generator gap, clamped to at least 1 since every
    gap is either 0 or at least 2; the witness is the identity map with holes
    at ``2 .. bound+1``, whose gap is ``bound + 1``.
    """
    if not gens:
        raise ValueError("need at least one generator")
    k = max(1, max(g.gap() for g in gens))
    elem = NatIsometry(0, FiniteIntSet(range(2, k + 2)))
    return Witness(elem, k, k + 1)
