"""Exact arithmetic on finite integer sets, plus half-integer symmetry centers.

All values are immutable and hashable; set operations return canonical
(sorted, duplicate-free) results, so structural equality is set equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


@dataclass(frozen=True, order=True)
class HalfInteger:
    """An exact multiple of 1/2, stored as twice its value."""

    doubled: int

    @property
    def is_integer(self) -> bool:
        return self.doubled % 2 == 0

    def __str__(self) -> str:
        if self.is_integer:
            return str(self.doubled // 2)
        return f"{self.doubled}/2"


class FiniteIntSet:
    """Immutable finite set of integers with a canonical sorted representation."""

    __slots__ = ("_items",)

    def __init__(self, items: Iterable[int] = ()):
        self._items: tuple[int, ...] = tuple(sorted(set(items)))

    @classmethod
    def _from_sorted(cls, items: tuple[int, ...]) -> "FiniteIntSet":
        """The set of ``items``, a tuple already sorted and duplicate-free."""
        s = object.__new__(cls)
        s._items = items
        return s

    @property
    def items(self) -> tuple[int, ...]:
        return self._items

    def __contains__(self, x: object) -> bool:
        return x in self._items

    def __iter__(self) -> Iterator[int]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FiniteIntSet):
            return self._items == other._items
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:
        return f"FiniteIntSet({list(self._items)!r})"

    def issubset(self, other: "FiniteIntSet") -> bool:
        return set(self._items) <= set(other._items)

    def reflect(self, center: HalfInteger) -> "FiniteIntSet":
        """Image under the reflection x -> 2*center - x."""
        return FiniteIntSet(center.doubled - x for x in self._items)

    def min(self) -> int:
        if not self._items:
            raise ValueError("empty set has no minimum")
        return self._items[0]

    def max(self) -> int:
        if not self._items:
            raise ValueError("empty set has no maximum")
        return self._items[-1]


def symmetry_center(s: FiniteIntSet) -> HalfInteger | None:
    """Center of symmetry of a finite set, or None.

    A set is symmetric only about the midpoint of its extremes, so that is
    the single candidate tested: in sorted order, the i-th point from either
    end must pair up about it.  The empty set has no center.
    """
    items = s.items
    if not items:
        return None
    doubled = items[0] + items[-1]
    if all(x + y == doubled for x, y in zip(items, reversed(items))):
        return HalfInteger(doubled)
    return None
