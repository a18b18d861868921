"""Independent pointwise models that check the element workloads.

Nothing here calls isomon's composition, inversion or marker code.  A word
is modelled by applying its generators to a point one after another; a
generated element by the shift (or isometry) and hole set it was generated
from.  Each check returns a list of messages, empty when the output is
correct.
"""

from __future__ import annotations

import json

FAR = (10**6 + 3, 10**12 + 1, 3 * 10**12 + 7, 2**62 + 5)
EXTRA_PICKS = 8


class Model:
    """A partial map given by ``apply`` and the inverse ``back`` of the total
    map it restricts."""

    def preimage(self, y):
        x = self.back(y)
        return x if self.apply(x) == y else None


class WordModel(Model):
    """The map denoted by a token list [(kind, exp, index)], point by point."""

    def __init__(self, tokens):
        self.tokens = tuple(tokens)
        self.shift = sum(e if k == "a" else -e for k, e, _ in tokens if k != "e")

    def apply(self, x):
        if x < 1:
            return None
        for kind, exp, index in self.tokens:
            if kind == "a":
                x += exp
            elif kind == "b":
                if x <= exp:
                    return None
                x -= exp
            elif x == index:
                return None
        return x

    def back(self, y):
        return y - self.shift

    def anchors(self):
        """Domain points where the map can change: preimages of every hole
        and of every down-shift boundary, seen from the word's start."""
        out = set()
        pre = 0
        for kind, exp, index in self.tokens:
            if kind == "a":
                pre += exp
            elif kind == "b":
                out.add(exp - pre)
                pre -= exp
            else:
                out.add(index - pre)
        return out


class NatModel(Model):
    """x -> x + shift on the positive integers minus ``holes``."""

    def __init__(self, shift, holes):
        self.shift = shift
        self.holes = frozenset(holes)

    def apply(self, x):
        if x < 1 or x in self.holes:
            return None
        return x + self.shift

    def back(self, y):
        return y - self.shift

    def anchors(self):
        return set(self.holes) | {1}

    def markers(self):
        lo = 1
        while lo in self.holes:
            lo += 1
        hi = max(lo, max(self.holes) + 1) if self.holes else lo
        return (lo, hi, lo + self.shift, hi + self.shift)

    def obj(self):
        return {"kind": "nat", "shift": self.shift, "exceptions": sorted(self.holes)}


class IntModel(Model):
    """x -> a - x (reflect) or x + a on the integers minus ``holes``."""

    def __init__(self, a, reflect, holes):
        self.a = a
        self.reflect = reflect
        self.holes = frozenset(holes)

    def unit(self, x):
        return self.a - x if self.reflect else x + self.a

    def apply(self, x):
        return None if x in self.holes else self.unit(x)

    def back(self, y):
        return self.a - y if self.reflect else y - self.a

    def anchors(self):
        return set(self.holes) | {0}

    def center_doubled(self):
        """Twice the center of symmetry of the holes, or None."""
        if not self.holes:
            return None
        c = min(self.holes) + max(self.holes)
        return c if all(c - x in self.holes for x in self.holes) else None

    def obj(self):
        return {"kind": "int", "a": self.a, "reflect": self.reflect,
                "exceptions": sorted(self.holes)}


def around(points, radius=1):
    return {p + d for p in points for d in range(-radius, radius + 1)}


def sample_points(model, rng, extra=()):
    """Points near the model's anchors, at far coordinates, and near
    ``EXTRA_PICKS`` random members of ``extra`` (for example an element's
    reported holes) and its ends."""
    extra = list(extra)
    picked = set(rng.sample(extra, min(EXTRA_PICKS, len(extra))))
    if extra:
        picked |= {extra[0], extra[-1]}
    pts = around(model.anchors() | picked, 2) | set(FAR) | {1, 2, 3}
    if isinstance(model, IntModel):
        pts |= {-p for p in FAR} | {-1, 0}
    return pts


def check_apply(elem, model, points, what):
    """elem.apply agrees with the model on every point."""
    bad = [x for x in points if elem.apply(x) != model.apply(x)]
    return [f"{what}: apply differs at {bad[:3]}"] if bad else []


class Composite:
    """Left-to-right composite of two models: x -> second(first(x))."""

    def __init__(self, first, second):
        self.first, self.second = first, second

    def apply(self, x):
        y = self.first.apply(x)
        return None if y is None else self.second.apply(y)


class Inverse:
    """The inverse partial map of a model."""

    def __init__(self, model):
        self.model = model

    def apply(self, y):
        return self.model.preimage(y)


def check_product(prod, g, h, pts_g, pts_h, what):
    """prod agrees with g-then-h on g's points and near the preimages under
    g of h's points."""
    points = pts_g | around({g.back(y) for y in pts_h})
    return check_apply(prod, Composite(g, h), points, what)


def check_inverse(inv, model, pts, what):
    images = {model.apply(x) for x in pts}
    points = around({y for y in images if y is not None}) | pts
    return check_apply(inv, Inverse(model), points, what)


def check_markers(markers, gap, model, what):
    """Markers against the pointwise model: nd_low is the least domain
    point, nd_high the least point from which the domain is a full tail."""
    lo, hi, rlo, rhi = markers
    out = []
    below = {x for x in (1, lo // 2, lo - 1) if 1 <= x < lo}
    if model.apply(lo) is None or any(model.apply(x) is not None for x in below):
        out.append(f"{what}: nd_low {lo} is not the domain minimum")
    if hi > lo and model.apply(hi - 1) is not None:
        out.append(f"{what}: nd_high {hi} is not where the full tail starts")
    if any(model.apply(x) is None for x in (hi, hi + 1, hi + 2, *(f for f in FAR if f > hi))):
        out.append(f"{what}: domain is not a full tail from {hi}")
    if (rlo, rhi) != (model.apply(lo), model.apply(hi)) or gap != hi - lo:
        out.append(f"{what}: images or gap inconsistent with {markers}")
    return out


def check_cli_eval(text, expected_obj):
    want = json.dumps(expected_obj, sort_keys=True) + "\n"
    return [] if text == want else [f"cli eval printed {text[:80]!r}"]
