"""Cofinite partial isometries of the integer line.

Each element extends uniquely to a full isometry of the integers, so it is
that unit together with the finite set of points excluded from the domain.
Composition reads left to right, as everywhere in the library.

An element is stored written out, the way a nat element is: as one key
tuple ``(a, reflect, holes)``, the unit x -> x + a (or x -> a - x when
``reflect``) and the sorted tuple of holes.  Equality and hash are on the
key, and the key is all an element stores.  ``.unit`` (a ``ZIsometry``) and
``.exceptions`` (a ``FiniteIntSet``) are views, built from the key on each
access.  Composition and inversion are integer arithmetic on the parts: the
right operand's holes are pulled back in order, which a translation keeps
and a reflection reverses, and merged with the left holes; no ``ZIsometry``
or ``FiniteIntSet`` is built for the product.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .intsets import FiniteIntSet, _check_ints, symmetry_center
from .isoz import ZIsometry


class FullUnitsError(ValueError):
    """The requested listing is the whole (infinite) group of units."""


class HClassKind(Enum):
    TRIVIAL = "Trivial"
    Z2 = "Z2"
    FULL_UNITS = "FullUnits"


_set = object.__setattr__


# A dataclass so that ``dataclasses.replace`` and ``fields`` see the two
# public fields, unit and exceptions; the constructor, equality, hash and
# repr are written out, and both fields are read through their views.
@dataclass(frozen=True, init=False, repr=False, eq=False)
class IntIsometry:
    __slots__ = ("key",)

    unit: ZIsometry
    exceptions: FiniteIntSet

    def __init__(self, unit: ZIsometry = ZIsometry(0),
                 exceptions: Iterable[int] = FiniteIntSet()):
        # checked here, not in ZIsometry, which ``.unit`` builds on each access
        _check_ints("unit offset must be an int", unit.a)
        if not isinstance(unit.reflect, bool):
            raise ValueError(f"unit reflection must be a bool, got {unit.reflect!r}")
        if not isinstance(exceptions, FiniteIntSet):
            exceptions = FiniteIntSet(exceptions)
        _set(self, "key", (unit.a, unit.reflect, exceptions.items))

    @property
    def unit(self) -> ZIsometry:
        """The unit above the element, its extension to the whole line."""
        return ZIsometry(self.key[0], self.key[1])

    @property
    def exceptions(self) -> FiniteIntSet:
        """Every point outside the domain: the holes."""
        return FiniteIntSet._from_sorted(self.key[2])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IntIsometry):
            return self.key == other.key
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        return f"IntIsometry(unit={self.unit!r}, exceptions={self.exceptions!r})"

    def __reduce__(self):
        return _make, self.key

    def apply(self, x: int) -> int | None:
        a, reflect, holes = self.key
        if x in holes:
            return None
        return a - x if reflect else x + a

    def compose(self, other: "IntIsometry") -> "IntIsometry":
        # the right holes pulled back through this unit: a translation keeps
        # their order and a reflection reverses it
        a, reflect, holes = self.key
        b, other_reflect, other_holes = other.key
        if other_holes:
            back = (tuple(a - h for h in reversed(other_holes)) if reflect
                    else tuple(h - a for h in other_holes))
            holes = tuple(sorted({*holes, *back})) if holes else back
        if other_reflect:
            return _make(b - a, not reflect, holes)
        return _make(a + b, reflect, holes)

    __mul__ = compose

    def inverse(self) -> "IntIsometry":
        a, reflect, holes = self.key
        if reflect:
            return _make(a, reflect, tuple(a - h for h in reversed(holes)))
        return _make(-a, reflect, tuple(h + a for h in holes))

    @property
    def deficiency(self) -> int:
        return len(self.key[2])

    def is_idempotent(self) -> bool:
        a, reflect, _ = self.key
        return a == 0 and not reflect


def _make(a: int, reflect: bool, holes: tuple) -> IntIsometry:
    """An element from its parts, unchecked: ``holes`` sorted and distinct."""
    g = object.__new__(IntIsometry)
    _set(g, "key", (a, reflect, holes))
    return g


def identity() -> IntIsometry:
    return _make(0, False, ())


def identity_on(exceptions: FiniteIntSet) -> IntIsometry:
    """Identity map of the complement of the given finite set."""
    return IntIsometry(ZIsometry(0), exceptions)


def natural_le(x: IntIsometry, y: IntIsometry) -> bool:
    """Natural partial order: x is a restriction of y."""
    return x.unit == y.unit and y.exceptions.issubset(x.exceptions)


def sigma(x: IntIsometry) -> ZIsometry:
    """Quotient map of the least group congruence, onto the unit group."""
    return x.unit


def restriction_isometries(exceptions: FiniteIntSet) -> tuple[IntIsometry, ...]:
    """All elements whose domain and range both equal the complement of
    ``exceptions``: the identity of that set, plus its symmetry when the
    excluded set has a center.
    """
    if not exceptions:
        raise FullUnitsError("complement of the empty set carries the whole unit group")
    out = [identity_on(exceptions)]
    c = symmetry_center(exceptions)
    if c is not None:
        out.append(IntIsometry(ZIsometry(c.doubled, reflect=True), exceptions))
    return tuple(out)


def hclass_group(exceptions: FiniteIntSet) -> HClassKind:
    """Isomorphism class of the maximal subgroup at the given domain."""
    if not exceptions:
        return HClassKind.FULL_UNITS
    if symmetry_center(exceptions) is not None:
        return HClassKind.Z2
    return HClassKind.TRIVIAL
