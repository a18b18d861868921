"""The group of isometries of the integer line.

Every isometry of the integers is either a translation x -> x + a or a
point reflection x -> a - x, so an element is a translation amount plus a
reflection flag.  Composition reads left to right throughout the library:
``(g * h).apply(x) == h.apply(g.apply(x))``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ZIsometry:
    a: int
    reflect: bool = False

    def apply(self, x: int) -> int:
        return self.a - x if self.reflect else x + self.a

    def compose(self, other: "ZIsometry") -> "ZIsometry":
        if other.reflect:
            return ZIsometry(other.a - self.a, not self.reflect)
        return ZIsometry(self.a + other.a, self.reflect)

    __mul__ = compose

    def inverse(self) -> "ZIsometry":
        return self if self.reflect else ZIsometry(-self.a)

    def order(self) -> int | None:
        """Order of the cyclic group this element generates; None is infinite."""
        if self.reflect:
            return 2
        return 1 if self.a == 0 else None

    def is_identity(self) -> bool:
        return self.a == 0 and not self.reflect
