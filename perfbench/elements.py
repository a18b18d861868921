"""Seeded element streams, the timed operation on each input, and its check.

Two streams, both a pure function of the seed:

* ``long``: words ``a^m e[k] b^n e[j] a^r`` with exponents and hole indices
  drawn log-uniform from 1 (or 2) up to ``LONG_CAP``.  When n > m the
  element has a dense prefix of about n - m holes, which is what makes
  today's element construction quadratic.  Draws are stratified in blocks
  of ``BLOCK`` words: each parameter takes one value from each of ``BLOCK``
  equal-probability slices, and the slices of one word's parameters are
  tied by a fixed pattern.  So every block has the same mix of word shapes,
  and the seed picks the values within the slices and the order of words.
  Without the pattern, run time hinges on how the few largest n happen to
  pair with m, and moves by about a tenth between seeds.
* ``sparse``: nat elements with shift 0..10**12 and 0..12 holes at
  coordinates up to 10**12; int elements with far holes on both sides,
  reflections and a share of symmetric hole sets; nat elements with small
  negative shifts.  Cost should track the hole count, not the coordinates.

An operation is one input taken through the workload's whole sequence of
library calls.  Calls go through module attributes (``words.parse``), so a
tracer that patches those attributes sees them.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass

from isomon import cli, homs, intmonoid, intsets, jsonio, words
from isomon.intmonoid import IntIsometry
from isomon.natmonoid import NatIsometry

from oracles import (IntModel, NatModel, WordModel, check_apply, check_cli_eval,
                     check_inverse, check_markers, check_product, sample_points)

BLOCK = 100
LONG_CAP = 1000
SPARSE_COORD = 10**12
SPARSE_MAX_HOLES = 12
CLI_SHARE = 4  # every CLI_SHARE-th long word also goes through `isomon eval`


def log_uniform(u: float, lo: int, hi: int) -> int:
    return min(hi, int(lo * (hi / lo) ** u))


# Per parameter (m, k, n, j, r): the word in slot q of a block takes slice
# (q * mul + add) % BLOCK.  The multipliers are coprime to BLOCK, so each
# parameter still takes every slice once per block.
_SLICE_PATTERN = ((37, 11), (71, 3), (1, 0), (13, 59), (89, 29))


# -- elements-long ----------------------------------------------------------


@dataclass(frozen=True)
class LongCase:
    text: str
    tokens: tuple
    ext_n: int
    via_cli: bool


def long_stream(seed: int):
    rng = random.Random(seed)
    i = 0
    while True:
        slots = list(range(BLOCK))
        rng.shuffle(slots)
        for q in slots:
            um, uk, un, uj, ur = ((((q * mul + add) % BLOCK) + rng.random()) / BLOCK
                                  for mul, add in _SLICE_PATTERN)
            m, n, r = (log_uniform(u, 1, LONG_CAP) for u in (um, un, ur))
            k, j = (log_uniform(u, 2, LONG_CAP) for u in (uk, uj))
            tokens = (("a", m, 0), ("e", 1, k), ("b", n, 0), ("e", 1, j), ("a", r, 0))
            text = f"a^{m} e[{k}] b^{n} e[{j}] a^{r}"
            yield LongCase(text, tokens, -rng.randrange(3), i % CLI_SHARE == 0)
            i += 1


@dataclass
class LongOut:
    g: object
    inv: object
    gh: object
    hg: object
    markers: tuple
    gap: int
    word: object
    k: int
    fword: object
    ext: object
    back: object
    cli_rc: int | None
    cli_text: str | None


def long_op(case: LongCase, h) -> LongOut:
    g = words.evaluate(words.parse(case.text))
    inv = g.inverse()
    gh, hg = g * h, h * g
    mk, gap = g.markers(), g.gap()
    word = words.decompose(g)
    k = max(2, gap)
    fword = words.decompose_filtered(g, k)
    ext = homs.extend_in(g, case.ext_n)
    back = jsonio.element_from_obj(jsonio.element_to_obj(g))
    rc = text = None
    if case.via_cli:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["eval", case.text])
        text = buf.getvalue()
    return LongOut(g, inv, gh, hg, tuple(mk), gap, word, k, fword, ext, back, rc, text)


class LongWorkload:
    """Chains each word's element with the previous word's (h)."""

    def __init__(self, seed: int):
        self.cases = long_stream(seed)
        self.rng = random.Random(seed ^ 0x5EED)
        self.h = NatIsometry(0)
        self.h_model = WordModel(())
        self.h_points = sample_points(self.h_model, self.rng)

    def next_case(self):
        return next(self.cases)

    def op(self, case):
        return long_op(case, self.h)

    def check(self, case, out: LongOut) -> list[str]:
        model = WordModel(case.tokens)
        pts = sample_points(model, self.rng, out.g.exceptions.items)
        errs = check_apply(out.g, model, pts, "evaluate")
        errs += check_product(out.gh, model, self.h_model, pts, self.h_points, "g*h")
        errs += check_product(out.hg, self.h_model, model, self.h_points, pts, "h*g")
        errs += check_inverse(out.inv, model, pts, "inverse")
        errs += check_markers(out.markers, out.gap, model, "markers")
        if words.evaluate(out.word) != out.g:
            errs.append("evaluate(decompose(g)) != g")
        if (words.evaluate(out.fword) != out.g
                or any(t.kind == "e" and t.index != out.k for t in out.fword.tokens)):
            errs.append(f"decompose_filtered(g, {out.k}) is wrong")
        n = case.ext_n
        ext_ok = (all(out.ext.apply(x) == x for x in (n, n - 1, n - 10**12))
                  and all(out.ext.apply(x) is None for x in range(n + 1, 1))
                  and all(out.ext.apply(x) == model.apply(x) for x in pts if x >= 1))
        if not ext_ok:
            errs.append(f"extend_in(g, {n}) is wrong")
        if out.back != out.g:
            errs.append("element_from_obj(element_to_obj(g)) != g")
        if case.via_cli:
            if out.cli_rc != 0:
                errs.append(f"cli eval exited {out.cli_rc}")
            errs += check_cli_eval(out.cli_text, jsonio.element_to_obj(out.g))
        return errs

    def advance(self, case, out: LongOut) -> None:
        self.h = out.g
        self.h_model = WordModel(case.tokens)
        self.h_points = sample_points(self.h_model, self.rng, out.g.exceptions.items)


# -- elements-sparse --------------------------------------------------------


def _coord(rng: random.Random) -> int:
    return log_uniform(rng.random(), 1, SPARSE_COORD)


def sparse_stream(seed: int):
    """Models in a fixed rotation: nat with shift >= 0, int, nat with shift < 0."""
    rng = random.Random(seed)
    i = 0
    while True:
        family = i % 3
        holes = {_coord(rng) for _ in range(rng.randint(0, SPARSE_MAX_HOLES))}
        if family == 0:
            shift = 0 if rng.random() < 0.1 else _coord(rng)
            yield NatModel(shift, holes)
        elif family == 1:
            holes = {x if rng.random() < 0.5 else -x for x in holes}
            if holes and rng.random() < 0.25:
                c = rng.choice(sorted(holes)) + rng.choice((0, 1))
                holes |= {c - x for x in holes}
            a = _coord(rng) * rng.choice((1, -1))
            yield IntModel(a, rng.random() < 0.5, holes)
        else:
            t = rng.randint(1, 8)
            yield NatModel(-t, holes | set(range(1, t + 1)))
        i += 1


@dataclass
class SparseOut:
    g: object
    gh: object
    hg: object
    inv: object | None
    markers: tuple | None
    gap: int | None
    redecomposed: object | None
    hclass: object | None
    center: object | None
    back: object


def sparse_op(model, obj: dict, h) -> SparseOut:
    g = jsonio.element_from_obj(obj)
    gh, hg = g * h, h * g
    # A nat inverse lists every point below its shift as a hole, so it is
    # only taken where the shift is not positive; 10**12 holes would not fit.
    inv = g.inverse() if isinstance(model, IntModel) or model.shift <= 0 else None
    mk = gap = red = kind = center = None
    if isinstance(model, NatModel):
        mk, gap = tuple(g.markers()), g.gap()
        red = words.evaluate(words.decompose(g))
    else:
        kind = intmonoid.hclass_group(g.exceptions)
        center = intsets.symmetry_center(g.exceptions)
    back = jsonio.element_from_obj(jsonio.element_to_obj(g))
    return SparseOut(g, gh, hg, inv, mk, gap, red, kind, center, back)


class SparseWorkload:
    """Composes each element with the previous element of the same monoid.

    A case is a model with its JSON object, built before the timed call."""

    def __init__(self, seed: int):
        self.cases = sparse_stream(seed)
        self.rng = random.Random(seed ^ 0x5EED)
        self.prev = {}
        for model, elem in ((NatModel(0, ()), NatIsometry(0)),
                            (IntModel(0, False, ()), IntIsometry())):
            self.prev[type(model)] = (elem, model, sample_points(model, self.rng))

    def next_case(self):
        model = next(self.cases)
        return model, model.obj()

    def op(self, case):
        model, obj = case
        return sparse_op(model, obj, self.prev[type(model)][0])

    def check(self, case, out: SparseOut) -> list[str]:
        model, _ = case
        _, h_model, h_pts = self.prev[type(model)]
        pts = sample_points(model, self.rng)
        errs = check_apply(out.g, model, pts, "element_from_obj")
        errs += check_product(out.gh, model, h_model, pts, h_pts, "g*h")
        errs += check_product(out.hg, h_model, model, h_pts, pts, "h*g")
        if out.inv is not None:
            errs += check_inverse(out.inv, model, pts, "inverse")
        if isinstance(model, NatModel):
            lo, hi, _, _ = want = model.markers()
            if out.markers != want or out.gap != hi - lo:
                errs.append(f"markers {out.markers}, gap {out.gap}: want {want}")
            if out.redecomposed != out.g:
                errs.append("evaluate(decompose(g)) != g")
        else:
            doubled = model.center_doubled()
            want = ("FullUnits" if not model.holes else
                    "Trivial" if doubled is None else "Z2")
            got_center = None if out.center is None else out.center.doubled
            if out.hclass.value != want or got_center != doubled:
                errs.append(f"hclass {out.hclass.value}/{got_center}, want {want}/{doubled}")
        if out.back != out.g:
            errs.append("element_from_obj(element_to_obj(g)) != g")
        return errs

    def advance(self, case, out: SparseOut) -> None:
        model, _ = case
        self.prev[type(model)] = (out.g, model, sample_points(model, self.rng))


WORKLOADS = {"elements-long": LongWorkload, "elements-sparse": SparseWorkload}
