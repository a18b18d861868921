"""JSON encodings for the wire formats used by the CLI."""

from __future__ import annotations

from .homs import FiniteTailMap, Witness
from .intsets import FiniteIntSet, HalfInteger
from .intmonoid import IntIsometry
from .isoz import ZIsometry
from .natmonoid import NatIsometry


def element_to_obj(e: NatIsometry | IntIsometry) -> dict:
    if isinstance(e, NatIsometry):
        return {"kind": "nat", "shift": e.shift,
                "exceptions": [*range(1, e.prefix + 1), *e.holes]}
    if isinstance(e, IntIsometry):
        a, reflect, holes = e.key
        return {"kind": "int", "a": a, "reflect": reflect, "exceptions": list(holes)}
    raise TypeError(f"not a monoid element: {e!r}")


def _integer(value) -> int:
    # JSON true/false decode to bool, a subclass of int: refuse them too
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"expected a JSON integer, got {value!r}")
    return value


def increasing_set(values: list, field: str) -> FiniteIntSet:
    """The set of ``values``, a list of ints, refused unless strictly
    increasing: a list that sorting or deduplication would change is not
    coerced.  ``field`` names the input in the error message."""
    if values != sorted(set(values)):
        raise ValueError(f"{field}: expected strictly increasing integers, got {values!r}")
    return FiniteIntSet._from_sorted(tuple(values))


def element_from_obj(obj: dict) -> NatIsometry | IntIsometry:
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {obj!r}")
    try:
        kind = obj["kind"]
        if kind not in ("nat", "int"):
            raise ValueError(f"unknown element kind {kind!r}")
        items = obj["exceptions"]
        if not isinstance(items, list):
            raise ValueError(f"exceptions: expected a JSON array, got {items!r}")
        exc = increasing_set([_integer(x) for x in items], "exceptions")
        if kind == "nat":
            return NatIsometry(_integer(obj["shift"]), exc)
        reflect = obj["reflect"]
        if not isinstance(reflect, bool):
            raise ValueError(f"expected a JSON boolean, got {reflect!r}")
        return IntIsometry(ZIsometry(_integer(obj["a"]), reflect), exc)
    except KeyError as err:
        raise ValueError(f"malformed element object: {err}") from err


def isoz_to_obj(u: ZIsometry) -> dict:
    return {"a": u.a, "reflect": u.reflect}


def half_integer_to_obj(c: HalfInteger) -> dict:
    return {"doubled": c.doubled}


def tailmap_to_obj(f: FiniteTailMap) -> dict:
    return {"neg": [f.neg_threshold, f.neg_shift],
            "pos": [f.pos_threshold, f.pos_shift],
            "middle": [[x, y] for x, y in f.middle]}


def witness_to_obj(w: Witness) -> dict:
    return {"element": element_to_obj(w.element),
            "bound_k": w.bound_k,
            "certificate": w.certificate}
