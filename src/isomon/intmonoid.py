"""Cofinite partial isometries of the integer line.

Each element extends uniquely to a full isometry of the integers, so it is
stored as that unit together with the finite set of points excluded from
the domain.  Composition reads left to right, as everywhere in the library.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .intsets import FiniteIntSet, symmetry_center
from .isoz import ZIsometry


class FullUnitsError(ValueError):
    """The requested listing is the whole (infinite) group of units."""


class HClassKind(Enum):
    TRIVIAL = "Trivial"
    Z2 = "Z2"
    FULL_UNITS = "FullUnits"


@dataclass(frozen=True)
class IntIsometry:
    unit: ZIsometry = ZIsometry(0)
    exceptions: FiniteIntSet = FiniteIntSet()

    def __post_init__(self):
        if not isinstance(self.exceptions, FiniteIntSet):
            object.__setattr__(self, "exceptions", FiniteIntSet(self.exceptions))

    def apply(self, x: int) -> int | None:
        if x in self.exceptions:
            return None
        return self.unit.apply(x)

    def compose(self, other: "IntIsometry") -> "IntIsometry":
        back = self.unit.inverse()
        exc = set(self.exceptions)
        exc.update(back.apply(y) for y in other.exceptions)
        return IntIsometry(self.unit * other.unit, FiniteIntSet(exc))

    __mul__ = compose

    def inverse(self) -> "IntIsometry":
        return IntIsometry(
            self.unit.inverse(),
            FiniteIntSet(self.unit.apply(e) for e in self.exceptions),
        )

    @property
    def deficiency(self) -> int:
        return len(self.exceptions)

    def is_idempotent(self) -> bool:
        return self.unit.is_identity()


def identity() -> IntIsometry:
    return IntIsometry(ZIsometry(0))


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
