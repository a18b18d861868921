"""Independent pointwise models used as oracles by the tests.

Elements are realized as explicit dictionaries over a bounded window and
composed point by point, so none of the library's representation arithmetic
is involved.  Window margins are chosen so truncation never affects the
compared region.  A nat element's holes are read once per element, from its
stored prefix and sparse holes, so a window costs O(window) however long
the prefix.
"""

from isomon import IntIsometry, NatIsometry


def nat_points(e: NatIsometry, hi: int) -> dict[int, int]:
    """The map e as explicit pairs on domain points 1..hi."""
    return nat_points_on(e, range(1, hi + 1))


def nat_points_on(e: NatIsometry, window) -> dict[int, int]:
    """The map e as explicit pairs on the given domain points."""
    defined = nat_domain(e)
    return {x: x + e.shift for x in window if defined(x)}


def nat_domain(e: NatIsometry):
    """Membership in e's domain, with e's holes taken once: the initial run
    1..prefix as a bound, the sparse holes as a hash set."""
    prefix, holes = e.prefix, frozenset(e.holes)
    return lambda x: x > prefix and x not in holes


def nat_is_canonical(e: NatIsometry) -> bool:
    """The stored parts of e are its normal form: the domain minimum maps to
    1 or above, and the holes are sorted, distinct and above prefix + 1."""
    edges = (e.prefix + 1, *e.holes)
    return (e.prefix >= 0 and e.prefix + e.shift >= 0 and isinstance(e.holes, tuple)
            and all(a < b for a, b in zip(edges, edges[1:])))


def int_is_canonical(e: IntIsometry) -> bool:
    """The stored holes of e are its normal form: a tuple, strictly
    increasing, and the very points its exception set lists."""
    holes = e.key[2]
    return (isinstance(holes, tuple) and all(a < b for a, b in zip(holes, holes[1:]))
            and e.exceptions.items == holes)


def int_points(e: IntIsometry, radius: int) -> dict[int, int]:
    """The map e as explicit pairs on domain points -radius..radius."""
    return int_points_on(e, range(-radius, radius + 1))


def int_points_on(e: IntIsometry, window) -> dict[int, int]:
    """The map e as explicit pairs on the given domain points."""
    holes = set(e.exceptions)
    return {x: e.unit.apply(x) for x in window if x not in holes}


def compose_points(f: dict[int, int], g: dict[int, int]) -> dict[int, int]:
    """Pointwise left-to-right composition of explicit maps."""
    return {x: g[y] for x, y in f.items() if y in g}


def agree_on(e, points: dict[int, int], window) -> bool:
    """True when e.apply matches the explicit map everywhere on the window."""
    return all(e.apply(x) == points.get(x) for x in window)


def word_apply(tokens, x: int) -> int | None:
    """The image of x under a word's generators applied left to right:
    ``a^n`` adds n, ``b^n`` subtracts n where the result stays at 1 or above,
    ``e[k]`` fixes every point but k."""
    for t in tokens:
        if t.kind == "a":
            x += t.exp
        elif t.kind == "b":
            if x <= t.exp:
                return None
            x -= t.exp
        elif x == t.index:
            return None
    return x
