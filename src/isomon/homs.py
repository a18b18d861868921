"""Homomorphisms between the monoids, and the finite-generation refutation.

``extend_in`` embeds a partial isometry of the positive integers into the
cofinite partial bijections of the whole integer line by gluing an identity
tail below a chosen non-positive point; ``FiniteTailMap`` is the codomain
representation (two shift tails plus a finite explicit middle).

``hom_translation`` and ``hom_z2`` realize the two non-trivial shapes a
homomorphism into the integer-line monoid can take.
``refute_finite_generation`` produces, for any finite would-be generating
set, an element provably outside the generated submonoid together with its
certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .intsets import FiniteIntSet
from .isoz import ZIsometry
from .intmonoid import IntIsometry
from .natmonoid import NatIsometry, gen_a, gen_b, gen_e, identity


class FiniteTailMap:
    """Cofinite partial bijection of the integers with shift tails.

    ``x -> x + neg_shift`` for ``x <= neg_threshold``, ``x -> x + pos_shift``
    for ``x >= pos_threshold``, an explicit finite middle in between, and
    holes elsewhere.  The middle is stored once, as a dict from input to
    image; ``middle`` is its sorted view, built on each access.  Instances
    are canonical: middle pairs that agree with a tail rule are absorbed into
    the tail, and a map that is a single total shift is stored with
    thresholds (0, 1).  Structural equality therefore coincides with
    equality of maps.
    """

    __slots__ = ("neg_threshold", "neg_shift", "pos_threshold", "pos_shift", "_mid")

    def __init__(self, neg_threshold: int, neg_shift: int,
                 pos_threshold: int, pos_shift: int,
                 middle: Iterable[tuple[int, int]] = ()):
        nt, ns, pt, ps = neg_threshold, neg_shift, pos_threshold, pos_shift
        if nt >= pt:
            raise ValueError("negative tail must end before the positive tail")
        pairs: dict[int, int] = {}
        for x, y in middle:
            if not nt < x < pt:
                raise ValueError(f"middle input {x} outside ({nt}, {pt})")
            if x in pairs:
                raise ValueError(f"duplicate middle input {x}")
            pairs[x] = y

        # absorb into each tail the run of middle pairs that continues it;
        # trimming one tail never lets the other absorb more
        while nt + 1 < pt and pairs.get(nt + 1) == nt + 1 + ns:
            del pairs[nt + 1]
            nt += 1
        while pt - 1 > nt and pairs.get(pt - 1) == pt - 1 + ps:
            del pairs[pt - 1]
            pt -= 1
        if not pairs and pt == nt + 1 and ns == ps:
            nt, pt = 0, 1

        lo, hi = nt + ns, pt + ps
        if lo >= hi:
            raise ValueError("tail ranges overlap; the map is not injective")
        seen: set[int] = set()
        for x, y in pairs.items():
            if not lo < y < hi:
                raise ValueError(f"middle output {y} collides with a tail range")
            if y in seen:
                raise ValueError(f"duplicate middle output {y}")
            seen.add(y)

        self.neg_threshold, self.neg_shift = nt, ns
        self.pos_threshold, self.pos_shift = pt, ps
        self._mid = pairs

    @property
    def middle(self) -> tuple[tuple[int, int], ...]:
        """The middle pairs ``(x, image)``, sorted by input."""
        return tuple(sorted(self._mid.items()))

    def _tails(self):
        return self.neg_threshold, self.neg_shift, self.pos_threshold, self.pos_shift

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FiniteTailMap):
            return self._tails() == other._tails() and self._mid == other._mid
        return NotImplemented

    def __hash__(self) -> int:
        return hash((*self._tails(), self.middle))

    def __repr__(self) -> str:
        return ("FiniteTailMap(neg=({0}, {1}), pos=({2}, {3}), middle={4})"
                .format(*self._tails(), self.middle))

    def apply(self, x: int) -> int | None:
        if x <= self.neg_threshold:
            return x + self.neg_shift
        if x >= self.pos_threshold:
            return x + self.pos_shift
        return self._mid.get(x)

    def compose(self, other: "FiniteTailMap") -> "FiniteTailMap":
        """Composite mapping x to other(self(x)), where both legs are defined."""
        lo = min(self.neg_threshold, other.neg_threshold - self.neg_shift)
        hi = max(self.pos_threshold, other.pos_threshold - self.pos_shift)
        mid = []
        for x in range(lo + 1, hi):
            y = self.apply(x)
            z = other.apply(y) if y is not None else None
            if z is not None:
                mid.append((x, z))
        return FiniteTailMap(lo, self.neg_shift + other.neg_shift,
                             hi, self.pos_shift + other.pos_shift, mid)

    __mul__ = compose

    def is_monotone(self) -> bool:
        """True when the map is order-preserving on its whole domain."""
        prev = self.neg_threshold + self.neg_shift
        for _, y in self.middle:
            if y <= prev:
                return False
            prev = y
        return prev < self.pos_threshold + self.pos_shift


IDENTITY_MAP = FiniteTailMap(0, 0, 1, 0)


def extend_in(g: NatIsometry, n: int) -> FiniteTailMap:
    """Extend g to the integer line by the identity on ``(-inf, n]``.

    The points ``n+1 .. 0`` and g's own exceptions stay outside the domain.
    """
    if n > 0:
        raise ValueError(f"extension point must be <= 0, got {n}")
    tail_from = g.markers().nd_high
    holes = set(g.holes)
    mid = [(x, x + g.shift) for x in range(g.prefix + 1, tail_from) if x not in holes]
    return FiniteTailMap(n, 0, tail_from, g.shift, mid)


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
    out = identity()
    for _ in range(k - l):
        out = out * gen_a()
    out = out * gen_e(k)
    for _ in range(k - l):
        out = out * gen_b()
    return out


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
