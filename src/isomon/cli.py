"""Command line interface (installed as ``isomon``).

``main`` builds its argument parser on its first call and reuses it for
every later call in the same process.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from . import harness, intmonoid, natmonoid
from .homs import extend_in, refute_finite_generation
from .intmonoid import HClassKind, hclass_group
from .intsets import FiniteIntSet, symmetry_center
from .isoz import ZIsometry
from .jsonio import (element_from_obj, element_to_obj, half_integer_to_obj,
                     increasing_set, isoz_to_obj, tailmap_to_obj, witness_to_obj)
from .natmonoid import NatIsometry
from .words import decompose, decompose_filtered, evaluate, format_word, parse


def _emit(obj) -> int:
    print(json.dumps(obj, sort_keys=True))
    return 0


def _read_json(path: str):
    """The JSON value in the file at ``path``, with nesting too deep to
    decode refused as a ValueError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to decode") from None


def _load_element(path: str):
    return element_from_obj(_read_json(path))


def _decimal(text: str) -> int:
    """An ASCII decimal integer, with optional sign and surrounding ASCII whitespace."""
    # int() alone would also take non-ASCII digits and underscores
    if not re.fullmatch(r"\s*[+-]?[0-9]+\s*", text, re.ASCII):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _parse_exceptions(text: str) -> FiniteIntSet:
    if not text.strip():
        return FiniteIntSet()
    values = []
    for part in text.split(","):
        try:
            values.append(_decimal(part))
        except argparse.ArgumentTypeError:
            raise ValueError(
                f"--exceptions: {part!r} is not a decimal integer") from None
    return increasing_set(values, "--exceptions")


def _cmd_eval(args) -> int:
    return _emit(element_to_obj(evaluate(parse(args.word))))


def _cmd_compose(args) -> int:
    x = _load_element(args.left)
    y = _load_element(args.right)
    if type(x) is not type(y):
        raise ValueError("cannot compose elements of different kinds")
    return _emit(element_to_obj(x * y))


def _cmd_decompose(args) -> int:
    g = _load_element(args.element)
    if not isinstance(g, NatIsometry):
        raise ValueError("decompose applies to nat elements")
    word = decompose(g) if args.k is None else decompose_filtered(g, args.k)
    print(format_word(word))
    return 0


def _cmd_sigma(args) -> int:
    g = _load_element(args.element)
    if isinstance(g, NatIsometry):
        return _emit(natmonoid.sigma(g))
    return _emit(isoz_to_obj(intmonoid.sigma(g)))


def _cmd_hclass(args) -> int:
    exc = _parse_exceptions(args.exceptions)
    kind = hclass_group(exc)
    out = {"group": kind.value}
    if kind is HClassKind.Z2:
        out["center"] = half_integer_to_obj(symmetry_center(exc))
    return _emit(out)


def _cmd_order(args) -> int:
    order = ZIsometry(args.a, args.reflect).order()
    print("infinite" if order is None else order)
    return 0


def _cmd_extend(args) -> int:
    g = _load_element(args.element)
    if not isinstance(g, NatIsometry):
        raise ValueError("extend applies to nat elements")
    return _emit(tailmap_to_obj(extend_in(g, args.n)))


def _cmd_refute_fg(args) -> int:
    objs = _read_json(args.generators)
    if not isinstance(objs, list):
        raise ValueError("generators file must hold a JSON array of elements")
    gens = [element_from_obj(obj) for obj in objs]
    if not all(isinstance(g, NatIsometry) for g in gens):
        raise ValueError("generators must all be nat elements")
    return _emit(witness_to_obj(refute_finite_generation(gens)))


def _cmd_check(args) -> int:
    names = list(harness.SUITES) if args.all or not args.suite else args.suite
    reports = harness.run_selected(names, args.bound, args.shift_bound, args.jobs)
    if args.format == "json":
        print(json.dumps([r.to_obj() for r in reports], sort_keys=True))
    else:
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            print(f"{status} {r.suite} [{r.spec.monoid} B={r.spec.exception_bound} "
                  f"S={r.spec.shift_bound}] instances={r.instances} "
                  f"failures={r.failure_count} time={r.wall_time:.2f}s")
            for key in sorted(r.counters):
                print(f"  {key}={r.counters[key]}")
            for failure in r.failures[:5]:
                print(f"  counterexample: {json.dumps(failure, sort_keys=True)}")
        bad = sum(1 for r in reports if not r.passed)
        print(f"{len(reports) - bad}/{len(reports)} suite runs passed")
    return 0 if all(r.passed for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isomon",
        description="Exact arithmetic and exhaustive checks for the monoids of "
                    "cofinite partial isometries of the positive integers (nat) "
                    "and of the integer line (int).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a word over a, b, e[k], I")
    p.add_argument("word")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("compose", help="compose two elements (matching kinds)")
    p.add_argument("left", help="path to an element JSON file")
    p.add_argument("right", help="path to an element JSON file")
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("decompose", help="write a nat element as a word")
    p.add_argument("--k", type=_decimal, default=None,
                   help="restrict the alphabet to a, b, e[k]")
    p.add_argument("element", help="path to an element JSON file")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("sigma", help="least-group-congruence image of an element")
    p.add_argument("element", help="path to an element JSON file")
    p.set_defaults(func=_cmd_sigma)

    p = sub.add_parser("hclass", help="maximal subgroup at a cofinite domain")
    p.add_argument("--exceptions", default="",
                   help="comma-separated integers excluded from the domain")
    p.set_defaults(func=_cmd_hclass)

    p = sub.add_parser("order", help="order of an isometry of the integer line")
    p.add_argument("--a", type=_decimal, required=True)
    p.add_argument("--reflect", action="store_true")
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("extend", help="extend a nat element to the integer line")
    p.add_argument("--n", type=_decimal, default=0,
                   help="identity tail covers all x <= n (n must be <= 0)")
    p.add_argument("element", help="path to an element JSON file")
    p.set_defaults(func=_cmd_extend)

    p = sub.add_parser("refute-fg",
                       help="witness that a finite set generates a proper submonoid")
    p.add_argument("generators", help="path to a JSON array of nat elements")
    p.set_defaults(func=_cmd_refute_fg)

    p = sub.add_parser("check", help="run verification suites")
    p.add_argument("--suite", action="append", choices=list(harness.SUITES),
                   help="suite to run (repeatable); default is all")
    p.add_argument("--all", action="store_true", help="run every suite")
    p.add_argument("--bound", type=_decimal, default=None,
                   help="override the exception bound")
    p.add_argument("--shift-bound", type=_decimal, default=None,
                   help="override the shift bound")
    p.add_argument("--jobs", type=_decimal, default=1,
                   help="worker processes (at most the CPU count)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_check)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # safe to share: parse_args writes only to the namespace it returns
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as err:
        print(f"isomon: {err}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
