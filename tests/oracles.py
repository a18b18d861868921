"""Independent pointwise models used as oracles by the tests.

Elements are realized as explicit dictionaries over a bounded window and
composed point by point, so none of the library's representation arithmetic
is involved.  Window margins are chosen so truncation never affects the
compared region.
"""

from isomon import IntIsometry, NatIsometry


def nat_points(e: NatIsometry, hi: int) -> dict[int, int]:
    """The map e as explicit pairs on domain points 1..hi."""
    return nat_points_on(e, range(1, hi + 1))


def nat_points_on(e: NatIsometry, window) -> dict[int, int]:
    """The map e as explicit pairs on the given domain points."""
    return {x: x + e.shift for x in window if x >= 1 and x not in e.exceptions}


def int_points(e: IntIsometry, radius: int) -> dict[int, int]:
    """The map e as explicit pairs on domain points -radius..radius."""
    return int_points_on(e, range(-radius, radius + 1))


def int_points_on(e: IntIsometry, window) -> dict[int, int]:
    """The map e as explicit pairs on the given domain points."""
    return {x: e.unit.apply(x) for x in window if x not in e.exceptions}


def compose_points(f: dict[int, int], g: dict[int, int]) -> dict[int, int]:
    """Pointwise left-to-right composition of explicit maps."""
    return {x: g[y] for x, y in f.items() if y in g}


def agree_on(e, points: dict[int, int], window) -> bool:
    """True when e.apply matches the explicit map everywhere on the window."""
    return all(e.apply(x) == points.get(x) for x in window)
