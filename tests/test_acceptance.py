"""Acceptance suite: one test per criterion, each printing a PASS line with
its timing.  Time limits are the stated budgets; runs here use the packed
exhaustive scans, so they sit well inside them.
"""

import json
import time
from itertools import product
from pathlib import Path

from isomon import ZIsometry, gen_a, gen_b, gen_e, refute_finite_generation
from isomon.cli import main
from isomon.harness import (INT_DEFAULT, NAT_DEFAULT, UniverseSpec, run_suite)

REFERENCE_REPORT = (Path(__file__).parent.parent / "perfbench" / "reference"
                    / "check_all.json")


def _stamp(name, start, limit):
    elapsed = time.perf_counter() - start
    assert elapsed < limit, f"{name} took {elapsed:.1f}s (budget {limit}s)"
    print(f"PASS {name}: {elapsed:.2f}s (budget {limit}s)")


def test_criterion_01_semigroup_axioms():
    start = time.perf_counter()
    reports = [run_suite(name, spec)
               for name in ("assoc", "inverse-axioms")
               for spec in (NAT_DEFAULT, INT_DEFAULT)]
    assert all(r.passed for r in reports), [r.failures for r in reports]
    nat_assoc = reports[0]
    assert nat_assoc.spec == NAT_DEFAULT and nat_assoc.instances > 10 ** 4
    _stamp("criterion-01 semigroup axioms (assoc + inverse, nat and int)",
           start, 10.0)


def test_criterion_02_deficiency_bounds():
    start = time.perf_counter()
    report = run_suite("lemma-2.1", INT_DEFAULT)
    assert report.passed and report.instances == 320 * 320
    _stamp("criterion-02 deficiency bounds exhaustive", start, 5.0)


def test_criterion_03_no_one_sided_inverses():
    start = time.perf_counter()
    report = run_suite("prop-2.2", INT_DEFAULT)
    assert report.passed and report.instances == 320 * 320
    _stamp("criterion-03 identity products force units", start, 5.0)


def test_criterion_04_unit_orders_and_group_axioms():
    start = time.perf_counter()
    units = [ZIsometry(a, r) for a in range(-8, 9) for r in (False, True)]
    ident = ZIsometry(0)
    for g in units:
        acc, brute = g, None
        for n in range(1, 17):
            if acc.is_identity():
                brute = n
                break
            acc = acc * g
        assert g.order() == brute
    for g, h in product(units, repeat=2):
        assert g * g.inverse() == ident == g.inverse() * g
        for k in units:
            assert (g * h) * k == g * (h * k)
    _stamp("criterion-04 unit orders vs 16-step brute force, group axioms",
           start, 1.0)


def test_criterion_05_restriction_oracle():
    start = time.perf_counter()
    report = run_suite("lemma-2.9-oracle", UniverseSpec("int", 4, 2))
    assert report.passed
    assert report.instances == 2 ** 9
    classified = sum(report.counters[k] for k in ("Trivial", "Z2", "FullUnits"))
    assert classified == report.instances
    _stamp("criterion-05 restriction isometries vs brute force", start, 10.0)


def test_criterion_06_marker_lemmas():
    start = time.perf_counter()
    reports = [run_suite(name, NAT_DEFAULT)
               for name in ("lemma-3.3", "lemma-3.4", "lemma-3.5", "lemma-3.6")]
    assert all(r.passed for r in reports), [r.failures for r in reports]
    cases = reports[-1].counters
    assert all(cases[f"case{i}"] >= 1 for i in (1, 2, 3, 4)), cases
    _stamp("criterion-06 marker lemmas with all four product cases", start, 10.0)


def test_criterion_07_decomposition_round_trips():
    start = time.perf_counter()
    full = run_suite("decompose-roundtrip", NAT_DEFAULT)
    filtered = run_suite("decompose-filtered", NAT_DEFAULT)
    assert full.passed and full.instances == 120
    assert filtered.passed and filtered.instances > 0
    _stamp("criterion-07 decomposition round-trips (plain and filtered)",
           start, 10.0)


def test_criterion_08_hole_conjugation():
    start = time.perf_counter()
    report = run_suite("remark-3.9", NAT_DEFAULT)
    assert report.passed and report.instances == 55
    for k in range(3, 13):
        for l in range(2, k):
            from isomon import eps_conjugation
            assert eps_conjugation(k, l) == gen_e(l)
    _stamp("criterion-08 hole conjugation identities to k=12", start, 1.0)


def test_criterion_09_integer_line_extension():
    start = time.perf_counter()
    report = run_suite("example-2.13", NAT_DEFAULT)
    assert report.passed
    assert report.instances > 120 * 120 * 3
    _stamp("criterion-09 extension homomorphism and monotonicity", start, 10.0)


def test_criterion_10_realized_homomorphisms():
    start = time.perf_counter()
    report = run_suite("cor-2.12", NAT_DEFAULT)
    assert report.passed
    assert report.counters["z2_identities"] >= 1
    assert report.counters["z2_reflections"] >= 1
    _stamp("criterion-10 translation and two-element homomorphisms", start, 5.0)


def test_criterion_11_finite_generation_witness():
    start = time.perf_counter()
    report = run_suite("refute-fg", NAT_DEFAULT)
    assert report.passed
    assert report.counters["products_checked"] == 340
    w = refute_finite_generation([gen_a(), gen_b(), gen_e(2), gen_e(3)])
    assert w.element.gap() == 4 and w.certificate == 4
    assert list(w.element.exceptions) == [2, 3, 4]
    _stamp("criterion-11 finite-generation witness unreachable", start, 30.0)


def test_criterion_12_byte_identical_reports(capsys):
    start = time.perf_counter()
    outputs = []
    for argv in (["check", "--all", "--format", "json", "--jobs", "2"],
                 ["check", "--all", "--format", "json", "--jobs", "2"],
                 ["check", "--all", "--format", "json"]):
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1], "consecutive runs differ"
    assert outputs[0] == outputs[2], "jobs>1 changed the report"
    assert outputs[0] == REFERENCE_REPORT.read_text(encoding="utf-8"), \
        "the report differs from the committed reference"
    reports = json.loads(outputs[0])
    assert all(r["pass"] for r in reports)
    assert len(reports) == 21
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        print(f"PASS criterion-12 byte-identical reports: {elapsed:.2f}s")
