import dataclasses
import json
import multiprocessing
import os
import threading
from itertools import product

import numpy as np
import pytest

from isomon import FiniteIntSet, IntIsometry, NatIsometry, ZIsometry, harness
from isomon.harness import (_REPORT_FAIL_CAP, INT_DEFAULT, NAT_DEFAULT, SUITES,
                            UniverseSpec, _chunk_table, _product_rows, _universe,
                            _Vec, count_universe, enumerate_universe,
                            run_selected, run_suite)
from isomon.homs import FiniteTailMap, extend_in, hom_translation, hom_z2
from isomon.jsonio import element_to_obj
from isomon.natmonoid import gen_a, is_bicyclic
from isomon.words import WordSyntaxError


def naive_nat_count(B, S):
    count = 0
    for s in range(-S, S + 1):
        for mask in range(1 << B):
            exc = [i + 1 for i in range(B) if mask >> i & 1]
            m = 1
            while m in exc:
                m += 1
            if m + s >= 1:
                count += 1
    return count


def test_enumerate_examples():
    assert set(enumerate_universe(UniverseSpec("nat", 1, 0))) == {
        NatIsometry(0), NatIsometry(0, FiniteIntSet([1]))}
    assert set(enumerate_universe(UniverseSpec("nat", 1, 1))) == {
        NatIsometry(0), NatIsometry(0, FiniteIntSet([1])),
        NatIsometry(1), NatIsometry(1, FiniteIntSet([1])),
        NatIsometry(-1, FiniteIntSet([1]))}
    assert set(enumerate_universe(UniverseSpec("int", 0, 0))) == {
        IntIsometry(ZIsometry(0)), IntIsometry(ZIsometry(0), FiniteIntSet([0])),
        IntIsometry(ZIsometry(0, True)),
        IntIsometry(ZIsometry(0, True), FiniteIntSet([0]))}


@pytest.mark.parametrize("B", range(5))
@pytest.mark.parametrize("S", range(4))
def test_counts_match_closed_form_and_naive_oracle(B, S):
    for monoid in ("nat", "int"):
        spec = UniverseSpec(monoid, B, S)
        elems = enumerate_universe(spec)
        assert len(elems) == len(set(elems)), "duplicates in the enumeration"
        assert len(elems) == count_universe(spec)
        if monoid == "nat":
            assert count_universe(spec) == naive_nat_count(B, S)
        else:
            assert count_universe(spec) == 2 * (2 * S + 1) * 2 ** (2 * B + 1)


def test_enumeration_is_deterministic():
    spec = UniverseSpec("nat", 3, 2)
    assert enumerate_universe(spec) == enumerate_universe(spec)


def test_unknown_suite_and_wrong_monoid():
    with pytest.raises(ValueError):
        run_suite("no-such-suite", NAT_DEFAULT)
    with pytest.raises(ValueError):
        run_suite("lemma-3.3", INT_DEFAULT)
    with pytest.raises(ValueError):
        UniverseSpec("rat", 1, 1)


@pytest.mark.parametrize("bounds", [(True, 1), (1, False), (2.0, 1), (1, "2"),
                                    (-1, 0), (0, -1), (None, 0)])
def test_universe_spec_rejects_malformed_bounds(bounds):
    for monoid in ("nat", "int"):
        with pytest.raises(ValueError, match="^bounds must be non-negative ints"):
            UniverseSpec(monoid, *bounds)


SMALL_BY_MONOID = {"nat": UniverseSpec("nat", 3, 1), "int": UniverseSpec("int", 1, 1)}


@pytest.mark.parametrize("name", list(SUITES))
def test_every_suite_passes_at_small_bounds(name):
    for monoid in SUITES[name].monoids:
        spec = SMALL_BY_MONOID[monoid]
        if name == "lemma-2.9-oracle":
            spec = UniverseSpec("int", 2, 1)
        report = run_suite(name, spec)
        assert report.passed, report.failures
        assert report.instances > 0


# a 56-bit mask window, but the reflection bit and the shift field take the
# key to 65 bits
WIDE_NAT = UniverseSpec("nat", 0, 28)
# 32-bit keys: too wide for int32, so int64
NAT_32_BIT_KEYS = UniverseSpec("nat", 2, 11)


def test_packed_composition_matches_object_composition():
    # the associativity scan packs elements into integers; verify the decoded
    # packed product equals the real one on every pair product p and element
    # z, in both orders (the layer the triple scan actually composes); the
    # pair products are the table's distinct ones, each composed once
    for spec in (UniverseSpec("nat", 2, 2), UniverseSpec("int", 1, 1), NAT_32_BIT_KEYS,
                 WIDE_NAT):
        vec = _Vec(spec)
        elems = _universe(spec)
        products = list(_product_rows(spec, 0, len(elems))[1])
        decoded = lambda keys: [vec.decode(k) for k in keys.reshape(-1).tolist()]
        assert decoded(vec.pack(products + list(elems))) == products + list(elems)
        ps, zs = vec.pack(products)[:, None], vec.pack(elems)[None, :]
        assert decoded(vec.compose(ps, zs)) == [p * z for p in products for z in elems]
        assert decoded(vec.compose(zs, ps)) == [z * p for p in products for z in elems]


def test_assoc_packs_python_int_keys_beyond_63_bits():
    vec = _Vec(WIDE_NAT)
    assert vec.key_bits == 65
    assert vec.pack(_universe(WIDE_NAT)).dtype == object
    report = run_suite("assoc", WIDE_NAT)
    assert report.passed and report.instances == 29 ** 3
    assert report.counters == {"pair_checks": 29 * 29}


def test_assoc_packs_every_key_that_fits_63_bits():
    # a 25-bit mask window: 32-bit keys
    spec = UniverseSpec("int", 0, 6)
    assert _Vec(spec).key_bits == 32
    report = run_suite("assoc", spec)
    assert report.passed and report.instances == 52 ** 3
    assert report.counters == {"pair_checks": 52 * 52}


@pytest.mark.parametrize("spec, dtype, n", [
    (UniverseSpec("nat", 0, 8), np.int32, 9),  # width 16, and 16 + 2S = 32
    (UniverseSpec("nat", 1, 8), np.int64, 19),  # 17 + 2S = 33
    (UniverseSpec("nat", 1, 11), np.int64, 25),  # 31-bit keys, but 23 + 2S = 45
    (NAT_32_BIT_KEYS, np.int64, 51),
    (UniverseSpec("nat", 0, 16), np.int64, 17),  # 32 + 2S = 64
    (UniverseSpec("nat", 0, 20), object, 21),  # 48-bit keys, but 40 + 2S = 80
])
def test_assoc_keys_take_the_narrowest_type_that_holds_every_shift(monkeypatch, spec,
                                                                     dtype, n):
    # keys are int32 (int64) only if both the key and a mask bit below the
    # window's width shifted left by 2S, the most a compose shifts, fit in 32
    # (64) bits
    vec = _Vec(spec)
    assert vec.pack(_universe(spec)).dtype == dtype
    report = run_suite("assoc", spec)
    assert report.passed and report.instances == n ** 3
    assert report.counters == {"pair_checks": n * n}
    # the window's top bit, shifted by 2S in the key's type, is still seen
    shift_bits = harness._shift_bits
    top = lambda m: np.ones_like(m) << (vec.width - 1) << 2 * spec.shift_bound
    monkeypatch.setattr(harness, "_shift_bits", lambda m, k: shift_bits(m, k) | top(m))
    with pytest.raises(AssertionError, match="^exception mask escaped its window$"):
        run_suite("assoc", spec)


def _packed_assoc_failures(spec, vec):
    # what assoc must report for a packed compose, by a direct broadcast over
    # every triple: row by row, each pair (i, j) whose decoded packed product
    # is not the object product, then each triple (i, j, k) whose two packed
    # products differ, in (j, k) order
    elems = _universe(spec)
    keys = vec.pack(elems)
    x, y, z = keys[:, None, None], keys[None, :, None], keys[None, None, :]
    pairs = vec.compose(x, y)
    left = vec.compose(pairs, z)
    right = vec.compose(x, vec.compose(y, z))
    out = []
    for i, e in enumerate(elems):
        for j, d in enumerate(elems):
            if vec.decode(int(pairs[i, j, 0])) != e * d:
                out.append({"inputs": [element_to_obj(e), element_to_obj(d)],
                            "check": "packed product mismatch"})
        for j, k in np.argwhere(left[i] != right[i]):
            out.append({"inputs": [element_to_obj(elems[m]) for m in (i, j, k)],
                        "left": element_to_obj(vec.decode(int(left[i, j, k]))),
                        "right": element_to_obj(vec.decode(int(right[i, j, k])))})
    return out


def _nat_hole_after_shift(compose):
    # hole 1 appears when a shift by 1 is followed by a shift by 0
    def wrong(self, k1, k2):
        k = compose(self, k1, k2)
        return np.where((self.fields(k1)[0] == 1) & (self.fields(k2)[0] == 0), k | 1, k)
    return wrong


def _int_hole_after_reflection(compose):
    # hole 0 appears when a reflection is followed by a translation
    def wrong(self, k1, k2):
        k = compose(self, k1, k2)
        hole = (self.fields(k1)[1] == 1) & (self.fields(k2)[1] == 0)
        return np.where(hole, k | 1 << -self.low, k)
    return wrong


@pytest.mark.parametrize("spec, fault", [
    (UniverseSpec("nat", 2, 1), _nat_hole_after_shift),
    (UniverseSpec("int", 0, 1), _int_hole_after_reflection),
    (NAT_32_BIT_KEYS, _nat_hole_after_shift),
    (WIDE_NAT, _nat_hole_after_shift),
])
def test_assoc_reports_exactly_the_non_associative_triples(monkeypatch, spec, fault):
    monkeypatch.setattr(_Vec, "compose", fault(_Vec.compose))
    expected = _packed_assoc_failures(spec, _Vec(spec))
    assert any("left" in f for f in expected)
    # a budget of n * n scans one row per block; at 2 jobs the second chunk
    # starts past row 0, and the report must not change
    for budget, jobs in product((harness._SCAN_BUDGET, 0), (1, 2)):
        monkeypatch.setattr(harness, "_SCAN_BUDGET", budget)
        report = run_suite("assoc", spec, jobs=jobs)
        assert report.failure_count == len(expected)
        assert report.failures == expected[:_REPORT_FAIL_CAP]


def _count_element_to_obj(patch) -> list:
    calls = []
    encode = harness.element_to_obj
    patch.setattr(harness, "element_to_obj", lambda e: calls.append(e) or encode(e))
    return calls


def _encoded_elements(failures) -> int:
    # element_to_obj calls that building these failures takes
    return sum(len(f["inputs"]) + ("left" in f) + ("right" in f) for f in failures)


def test_assoc_builds_only_the_failures_it_keeps(monkeypatch):
    spec = SMALL_BY_MONOID["nat"]
    monkeypatch.setattr(_Vec, "compose", _nat_hole_after_shift(_Vec.compose))
    expected = _packed_assoc_failures(spec, _Vec(spec))
    assert len(expected) > _REPORT_FAIL_CAP
    calls = _count_element_to_obj(monkeypatch)
    report = run_suite("assoc", spec)
    assert json.loads(json.dumps(report.to_obj()))["failure_count"] == len(expected)
    assert report.failures == expected[:_REPORT_FAIL_CAP]
    assert len(calls) == _encoded_elements(report.failures) <= 5 * _REPORT_FAIL_CAP


def test_pairwise_suites_build_only_the_failures_they_keep(monkeypatch):
    _patch_int_compose(monkeypatch, _far_hole)
    calls = _count_element_to_obj(monkeypatch)
    report = run_suite("lemma-2.1", SMALL_BY_MONOID["int"])
    assert report.failure_count > _REPORT_FAIL_CAP
    assert len(calls) == _encoded_elements(report.failures) == 2 * _REPORT_FAIL_CAP


@pytest.mark.parametrize("spec", [SMALL_BY_MONOID["nat"], SMALL_BY_MONOID["int"]])
def test_assoc_stops_on_a_mask_that_escapes_its_window(monkeypatch, spec):
    shift_bits, width = harness._shift_bits, _Vec(spec).width
    monkeypatch.setattr(harness, "_shift_bits",
                        lambda m, k: shift_bits(m, k) | (1 << width))
    with pytest.raises(AssertionError, match="^exception mask escaped its window$"):
        run_suite("assoc", spec)


@pytest.mark.parametrize("hole", [
    lambda p, reach: -50,  # below the window
    # just above it, at the bit a reflection flag would take
    lambda p, reach: reach + 1 if p.unit.reflect else None,
], ids=["below", "reflection-bit"])
def test_assoc_reports_products_with_a_hole_outside_the_window(monkeypatch, hole):
    spec = SMALL_BY_MONOID["int"]
    reach = spec.exception_bound + 2 * spec.shift_bound
    elems = _universe(spec)
    compose = IntIsometry.compose
    expected = sum(hole(x * y, reach) is not None for x, y in product(elems, repeat=2))

    def wrong(x, y):
        p = compose(x, y)
        h = hole(p, reach)
        return p if h is None else dataclasses.replace(
            p, exceptions=FiniteIntSet([*p.exceptions, h]))
    monkeypatch.setattr(IntIsometry, "compose", wrong)
    monkeypatch.setattr(IntIsometry, "__mul__", wrong)
    report = run_suite("assoc", spec)
    # the packed products are right, so only the pair cross-check fails
    assert report.failure_count == expected > 0
    assert all(set(f) == {"inputs", "check"} for f in report.failures)


def _hole_zero_beyond_the_universe(compose):
    # hole 0 appears only when the left unit and the product's unit are not
    # the identity and the right operand has a hole at 3 or beyond, which no
    # universe element at int B=1 has, only products of them
    def wrong(x, y):
        p = compose(x, y)
        if (x.unit != ZIsometry(0) and p.unit != ZIsometry(0)
                and any(abs(h) >= 3 for h in y.exceptions)):
            return IntIsometry(p.unit, FiniteIntSet([*p.exceptions, 0]))
        return p
    return wrong


GAP_SPEC = UniverseSpec("int", 1, 2)


def _patch_int_compose(patch, fault):
    wrong = fault(IntIsometry.compose)
    patch.setattr(IntIsometry, "compose", wrong)
    patch.setattr(IntIsometry, "__mul__", wrong)


def test_a_compose_wrong_only_on_pair_products_is_not_associative(monkeypatch):
    compose = IntIsometry.compose
    elems = _universe(GAP_SPEC)
    _patch_int_compose(monkeypatch, _hole_zero_beyond_the_universe)
    x = y = IntIsometry(ZIsometry(-2))
    z = IntIsometry(ZIsometry(-2), FiniteIntSet([-1, 1]))
    assert (x * y) * z != x * (y * z)
    assert all(u * v == compose(u, v) for u, v in product(elems, repeat=2))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="known gap: assoc runs the library's compose on "
                   "universe pairs only, never on a pair product with an element")
def test_assoc_reports_a_compose_wrong_only_on_pair_products(monkeypatch):
    _patch_int_compose(monkeypatch, _hole_zero_beyond_the_universe)
    assert not run_suite("assoc", GAP_SPEC).passed


def _left_holes_after_odd_reflection(compose):
    # a reflection meeting an odd number of holes keeps only the left holes,
    # a fault inside the assoc window
    def wrong(x, y):
        p = compose(x, y)
        if x.unit.reflect and len(y.exceptions) % 2:
            return IntIsometry(p.unit, x.exceptions)
        return p
    return wrong


@pytest.mark.parametrize("jobs", [1, 2])
def test_assoc_reports_a_library_fault_only_as_pair_mismatches(monkeypatch, jobs):
    # the triple scan composes packed encodings, never the library, so a
    # wrong library compose is reported once per wrong pair and no triple
    # fails; a change that makes the triple scan run the library changes this
    spec = SMALL_BY_MONOID["int"]
    elems = _universe(spec)
    compose = IntIsometry.compose
    wrong = _left_holes_after_odd_reflection(compose)
    wrong_pairs = sum(wrong(x, y) != compose(x, y) for x, y in product(elems, repeat=2))
    _patch_int_compose(monkeypatch, _left_holes_after_odd_reflection)
    report = run_suite("assoc", spec, jobs=jobs)
    assert report.failure_count == wrong_pairs == 402
    assert all(set(f) == {"inputs", "check"} for f in report.failures)


def _far_hole(compose):
    # the product gains a hole outside every small universe
    def wrong(x, y):
        p = compose(x, y)
        return dataclasses.replace(p, exceptions=FiniteIntSet([*p.exceptions, 50]))
    return wrong


def _left_factor(compose):
    return lambda x, y: x


WRONG_COMPOSE = {  # suite: (fault, fields of each failure)
    "assoc": (_far_hole, {"inputs", "check"}),
    "inverse-axioms": (_far_hole, {"input", "inverse"}),
    "decompose-roundtrip": (_far_hole, {"input", "word", "evaluates_to"}),
    "lemma-2.1": (_far_hole, {"inputs", "deficiencies", "got"}),
    "lemma-3.4": (_far_hole, {"inputs", "got", "bound"}),
    "lemma-3.5": (_far_hole, {"inputs", "got", "bound"}),
    "prop-2.2": (_left_factor, {"inputs"}),
    "sigma-hom": (_left_factor, {"inputs"}),
    "lemma-3.6": (_far_hole, {"inputs", "k", "got"}),
    "example-2.13": (_far_hole, {"inputs", "n"}),
    "cor-2.12": (_left_factor, {"inputs", "hom"}),
    "decompose-filtered": (_far_hole, {"input", "k", "word", "evaluates_to"}),
}


@pytest.mark.parametrize("name", WRONG_COMPOSE)
def test_suites_report_a_wrong_compose(monkeypatch, name):
    fault, fields = WRONG_COMPOSE[name]
    for monoid in SUITES[name].monoids:
        cls = NatIsometry if monoid == "nat" else IntIsometry
        wrong = fault(cls.compose)
        with monkeypatch.context() as patch:
            patch.setattr(cls, "compose", wrong)
            patch.setattr(cls, "__mul__", wrong)
            report = run_suite(name, SMALL_BY_MONOID[monoid])
        assert report.failure_count > 0
        assert all(set(f) == fields for f in report.failures)


def test_gap_lemmas_check_every_pair_with_a_bicyclic_factor():
    spec = SMALL_BY_MONOID["nat"]
    elems = _universe(spec)
    bicyclic = sum(map(is_bicyclic, elems))
    assert 0 < bicyclic < len(elems)
    for name in ("lemma-3.4", "lemma-3.5"):
        assert run_suite(name, spec).instances == bicyclic * len(elems)


def test_example_2_13_extends_each_element_and_distinct_product_once(monkeypatch):
    spec = SMALL_BY_MONOID["nat"]
    elems = _universe(spec)
    distinct = _product_rows(spec, 0, len(elems))[1]
    calls = []
    extend_in = harness.extend_in
    monkeypatch.setattr(harness, "extend_in",
                        lambda g, n: calls.append(g) or extend_in(g, n))
    assert run_suite("example-2.13", spec).passed
    points = len(harness._EXTENSION_POINTS)
    # the identity's extension is checked once more, on its own
    assert len(calls) <= points * (len(elems) + len(distinct)) + 1
    assert points * (len(elems) + len(distinct)) + 1 < points * len(elems) ** 2


def test_cor_2_12_composes_the_images_once_per_value_class(monkeypatch):
    spec = SMALL_BY_MONOID["nat"]
    elems = _universe(spec)
    homs = lambda g: (hom_translation(g), hom_z2(g))
    classes = {(homs(x), homs(y), homs(x * y)) for x in elems for y in elems}
    calls = []
    compose = IntIsometry.compose

    def counting(x, y):
        calls.append((x, y))
        return compose(x, y)
    monkeypatch.setattr(IntIsometry, "compose", counting)
    monkeypatch.setattr(IntIsometry, "__mul__", counting)
    assert run_suite("cor-2.12", spec).passed
    # one composition per homomorphism and value class
    assert len(calls) <= 2 * len(classes) < len(elems) ** 2


@pytest.mark.parametrize("jobs", [1, 2])
def test_cor_2_12_reports_an_unrealized_two_element_image(jobs):
    # no element of this universe has an odd shift, so hom_z2 never reflects;
    # at 2 jobs the counters of both chunks are merged before the check
    report = run_suite("cor-2.12", UniverseSpec("nat", 1, 0), jobs=jobs)
    assert report.instances == 9 and report.failure_count == 1
    assert report.failures == [{
        "check": "two-element image not realized over this universe",
        "counters": {"z2_identities": 2, "z2_reflections": 0}}]


def _per_pair_report(name, spec):
    # what a pairwise suite must report, by a direct loop: row i's own items,
    # then every pair's items in column order, each pair composed and its
    # values computed on their own
    suite = SUITES[name]
    check, each, row = suite.chunk.check, suite.chunk.each, suite.chunk.row
    elems = _universe(spec)
    counters = dict.fromkeys(suite.counters, 0)
    instances, failures = 0, []
    for i, x in enumerate(elems):
        items = [] if row is None else list(row(i, x, each(x), counters))
        instances += len(items)
        failures += [f for f in items if f is not None]
        for y in elems:
            for fields in check(each(x), each(y), each(x * y), counters):
                instances += 1
                if fields is not None:
                    failures.append({"inputs": [element_to_obj(x), element_to_obj(y)],
                                     **fields})
    if suite.finalize is not None:
        failures += suite.finalize(spec, counters)
    return harness.SuiteReport(name, spec, instances, failures[:_REPORT_FAIL_CAP],
                               len(failures), counters, 0.0).to_obj()


PAIRWISE = [name for name, suite in SUITES.items()
            if isinstance(suite.chunk, harness._Pairwise)]


@pytest.mark.parametrize("fault", [None, _far_hole])
def test_pairwise_suites_match_a_per_pair_scan(monkeypatch, fault):
    assert {"lemma-3.4", "lemma-3.6", "example-2.13", "cor-2.12"} <= set(PAIRWISE)
    if fault is not None:
        for cls in (NatIsometry, IntIsometry):
            wrong = fault(cls.compose)
            monkeypatch.setattr(cls, "compose", wrong)
            monkeypatch.setattr(cls, "__mul__", wrong)
    over_cap = False
    for name in PAIRWISE:
        for monoid in SUITES[name].monoids:
            spec = SMALL_BY_MONOID[monoid]
            expected = _per_pair_report(name, spec)
            assert run_suite(name, spec).to_obj() == expected
            for jobs in (2, 3):
                _chunk_table.cache_clear()
                assert run_suite(name, spec, jobs=jobs).to_obj() == expected
            over_cap |= expected["failure_count"] > _REPORT_FAIL_CAP
    assert over_cap == (fault is not None)


def test_sigma_hom_composes_the_units_once_per_value_class(monkeypatch):
    spec = SMALL_BY_MONOID["int"]
    elems = _universe(spec)
    classes = {(x.unit, y.unit, (x * y).unit) for x in elems for y in elems}
    calls = []
    compose = ZIsometry.compose

    def counting(x, y):
        calls.append((x, y))
        return compose(x, y)
    monkeypatch.setattr(ZIsometry, "compose", counting)
    monkeypatch.setattr(ZIsometry, "__mul__", counting)
    assert run_suite("sigma-hom", spec).passed
    assert 0 < len(calls) <= len(classes) < len(elems) ** 2


def test_lemma_3_3_reports_wrong_markers(monkeypatch):
    markers = NatIsometry.markers
    monkeypatch.setattr(NatIsometry, "markers",
                        lambda g: markers(g)._replace(nr_high=markers(g).nr_high + 1))
    report = run_suite("lemma-3.3", SMALL_BY_MONOID["nat"])
    assert report.failure_count == report.instances > 0
    assert all(set(f) == {"input", "markers"} for f in report.failures)


def _full_units_not_refused(patch):
    # the empty set gets no isometries in place of a FullUnitsError
    real = harness.restriction_isometries
    patch.setattr(harness, "restriction_isometries", lambda exc: real(exc) if exc else ())


def _symmetry_dropped(patch):
    real = harness.restriction_isometries
    patch.setattr(harness, "restriction_isometries", lambda exc: real(exc)[:1])


def _wrong_certificate(patch):
    real = harness.refute_finite_generation
    patch.setattr(harness, "refute_finite_generation",
                  lambda gens: dataclasses.replace(real(gens), certificate=5))


def _int_obj(a, reflect, exceptions):
    return {"kind": "int", "a": a, "reflect": reflect, "exceptions": exceptions}


# each failure record that only a faulty library produces: (suite, universe,
# fault, failure count, first failure)
FAILURE_RECORDS = {
    "lemma-2.9-empty-set": (
        "lemma-2.9-oracle", UniverseSpec("int", 1, 0), _full_units_not_refused, 1,
        {"exceptions": [], "got": "FullUnits"}),
    "lemma-2.9-impl-brute": (
        "lemma-2.9-oracle", UniverseSpec("int", 1, 0), _symmetry_dropped, 7,
        {"exceptions": [-1], "impl": [_int_obj(0, False, [-1])],
         "brute": [_int_obj(-2, True, [-1]), _int_obj(0, False, [-1])], "hclass": "Z2"}),
    "roundtrip-parse-print": (
        "decompose-roundtrip", UniverseSpec("nat", 1, 1),
        lambda patch: patch.setattr(harness, "parse", lambda text: None), 5,
        {"input": {"kind": "nat", "shift": -1, "exceptions": [1]}, "word": "b",
         "check": "parse/print round-trip"}),
    "extension-of-the-identity": (
        "example-2.13", UniverseSpec("nat", 1, 1),
        lambda patch: patch.setattr(harness, "IDENTITY_MAP", extend_in(gen_a(), 0)), 1,
        {"check": "extension of the identity at 0"}),
    "extension-monotone": (
        "example-2.13", UniverseSpec("nat", 1, 1),
        lambda patch: patch.setattr(FiniteTailMap, "is_monotone", lambda f: False), 15,
        {"input": {"kind": "nat", "shift": -1, "exceptions": [1]}, "n": 0,
         "check": "monotone"}),
    "translation-order": (
        "cor-2.12", UniverseSpec("nat", 1, 1),
        lambda patch: patch.setattr(ZIsometry, "order", lambda u: 2), 1,
        {"check": "translation image must have infinite order"}),
    "refute-witness": (
        "refute-fg", UniverseSpec("nat", 1, 1), _wrong_certificate, 1,
        {"witness": {"kind": "nat", "shift": 0, "exceptions": [2, 3, 4]},
         "bound_k": 3, "certificate": 5}),
}


@pytest.mark.parametrize("record", FAILURE_RECORDS)
def test_suites_report_each_failure_record_in_full(monkeypatch, record):
    name, spec, fault, count, first = FAILURE_RECORDS[record]
    assert run_suite(name, spec).passed
    fault(monkeypatch)
    report = run_suite(name, spec)
    assert report.failure_count == count
    assert report.failures[0] == first


def _pin_cpus(patch, n):
    # the CPUs this process may use, as run_selected reads them
    patch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


@pytest.fixture
def three_cpus(monkeypatch):
    """Let run_selected start up to three workers on any host."""
    _pin_cpus(monkeypatch, 3)


def _count_starts(patch) -> list:
    # the harness starts its workers from the fork context, a singleton
    fork = multiprocessing.get_context("fork")
    started = []

    class Counted(fork.Process):
        def start(self):
            started.append(self)
            super().start()

    patch.setattr(fork, "Process", Counted)
    return started


@pytest.mark.parametrize("cpus, cpu_count, jobs, workers", [
    (1, 4, 2, 0),
    (2, 4, 6, 2),
    (None, None, 8, 0),
    (None, 2, 6, 0),
], ids=["one-of-four-cpus", "two-of-four-cpus", "no-affinity-count-unknown",
        "no-affinity-two-cpus"])
def test_run_selected_starts_at_most_one_worker_per_cpu(monkeypatch, cpus, cpu_count,
                                                        jobs, workers):
    expected = [r.to_obj() for r in run_selected(["lemma-3.3"])]
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        _pin_cpus(monkeypatch, cpus)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    started = _count_starts(monkeypatch)
    assert [r.to_obj() for r in run_selected(["lemma-3.3"], jobs=jobs)] == expected
    assert len(started) == workers
    assert not multiprocessing.active_children()


def test_run_suite_alone_starts_no_process(monkeypatch):
    _pin_cpus(monkeypatch, 4)
    expected = run_suite("lemma-3.3", NAT_DEFAULT).to_obj()
    started = _count_starts(monkeypatch)
    assert run_suite("lemma-3.3", NAT_DEFAULT, jobs=3).to_obj() == expected
    assert started == []


_BELOW_ONE = r"^--jobs must be at least 1, got -?[0-9]+$"


@pytest.mark.parametrize("run, message", [
    (lambda: run_suite("lemma-3.3", NAT_DEFAULT, jobs=0), _BELOW_ONE),
    (lambda: run_suite("lemma-3.3", NAT_DEFAULT, jobs=-3), _BELOW_ONE),
    (lambda: run_selected(["lemma-3.3"], jobs=-1), _BELOW_ONE),
    (lambda: run_selected(["lemma-3.3", "filtration"], jobs=0), _BELOW_ONE),
    (lambda: run_selected([], jobs=0), _BELOW_ONE),
    (lambda: run_suite("lemma-3.3", NAT_DEFAULT, jobs=2.5),
     r"^--jobs must be an int, got 2\.5$"),
    (lambda: run_suite("lemma-3.3", NAT_DEFAULT, jobs=True),
     r"^--jobs must be an int, got True$"),
    (lambda: run_suite("lemma-3.3", NAT_DEFAULT, jobs="2"),
     r"^--jobs must be an int, got '2'$"),
    (lambda: run_selected(["lemma-3.3"], jobs=2.5), r"^--jobs must be an int, got 2\.5$"),
    (lambda: run_selected(["lemma-3.3"], jobs=True), r"^--jobs must be an int, got True$"),
    (lambda: run_selected(["lemma-3.3"], jobs="2"), r"^--jobs must be an int, got '2'$"),
], ids=["run-suite-0", "run-suite-minus-3", "run-selected-minus-1", "run-selected-0",
        "run-selected-no-suites-0", "run-suite-2.5", "run-suite-true", "run-suite-str",
        "run-selected-2.5", "run-selected-true", "run-selected-str"])
def test_jobs_below_one_are_refused_before_any_chunk_runs(monkeypatch, run, message):
    started = _count_starts(monkeypatch)
    chunks = []
    monkeypatch.setattr(harness, "_chunk_entry", chunks.append)
    with pytest.raises(ValueError, match=message):
        run()
    assert started == [] and chunks == []


def test_default_specs(monkeypatch):
    assert SUITES["assoc"].defaults == (NAT_DEFAULT, INT_DEFAULT)
    assert SUITES["lemma-2.1"].defaults == (INT_DEFAULT,)
    assert SUITES["lemma-2.9-oracle"].defaults == (UniverseSpec("int", 4, 2),)

    def refuse(*args, **kwargs):
        raise AssertionError("a worker was started")

    monkeypatch.setattr(multiprocessing.get_context("fork"), "Process", refuse)
    for names in (["nope"], ["lemma-3.3", "nope"]):
        with pytest.raises(ValueError, match="^unknown suite 'nope'$"):
            run_selected(names, jobs=2)


def test_reports_are_deterministic_across_jobs():
    runs = [(UniverseSpec("nat", 3, 1), name) for name in
            ("assoc", "lemma-3.6", "decompose-roundtrip", "example-2.13")]
    runs += [(UniverseSpec("int", 1, 2), name) for name in
             ("assoc", "lemma-2.1", "sigma-hom")]
    for spec, name in runs:
        # each chunk builds its own product rows
        _chunk_table.cache_clear()
        sharded = run_suite(name, spec, jobs=3).to_obj()
        single = run_suite(name, spec, jobs=1).to_obj()
        assert json.dumps(single, sort_keys=True) == json.dumps(sharded, sort_keys=True)


@pytest.mark.parametrize("fault", [None, _far_hole])
def test_run_selected_is_deterministic_when_workers_reuse_rows(monkeypatch, three_cpus,
                                                               fault):
    # a wrong compose makes most suites fail in several chunks, so a merge
    # out of chunk order changes the stored failures
    if fault is not None:
        for cls in (NatIsometry, IntIsometry):
            wrong = fault(cls.compose)
            monkeypatch.setattr(cls, "compose", wrong)
            monkeypatch.setattr(cls, "__mul__", wrong)
    runs = []
    for jobs in (1, 2, 3):
        # workers start with the universes that listing the runs builds, but
        # without product rows, and keep the rows they build for later suites
        _chunk_table.cache_clear()
        _universe.cache_clear()
        reports = run_selected(list(SUITES), bound=2, shift_bound=1, jobs=jobs)
        runs.append([r.to_obj() for r in reports])
        assert not multiprocessing.active_children()
    assert runs[0] == runs[1] == runs[2]
    assert any(len(r["failures"]) > 1 for r in runs[0]) == (fault is not None)


@pytest.fixture
def forkserver_default():
    """Make forkserver the default start method, as on Linux from Python 3.14."""
    before = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("forkserver", force=True)
    yield
    multiprocessing.set_start_method(before, force=True)


def test_workers_see_a_patched_fault_whatever_the_default_start_method(
        monkeypatch, three_cpus, forkserver_default):
    for cls in (NatIsometry, IntIsometry):
        wrong = _far_hole(cls.compose)
        monkeypatch.setattr(cls, "compose", wrong)
        monkeypatch.setattr(cls, "__mul__", wrong)
    names = ["assoc", "inverse-axioms"]
    serial = [r.to_obj() for r in run_selected(names, bound=2, shift_bound=1)]
    started = _count_starts(monkeypatch)
    assert [r.to_obj() for r in run_selected(names, bound=2, shift_bound=1,
                                             jobs=2)] == serial
    assert len(started) == 2 and all(r["failure_count"] for r in serial)
    assert not multiprocessing.active_children()


def test_worker_failures_propagate(monkeypatch, three_cpus):
    names = ["lemma-3.3", "filtration"]
    expected = [r.to_obj() for r in run_selected(names, jobs=1)]

    def failing(spec, instances, lo, hi, log, counters):
        if lo > 0:
            raise LookupError(f"chunk from {lo}")
        return hi - lo

    with monkeypatch.context() as patch:
        patch.setitem(SUITES, "filtration",
                      dataclasses.replace(SUITES["filtration"], chunk=failing))
        with pytest.raises(LookupError, match="chunk from"):
            run_selected(names, jobs=2)
    assert not multiprocessing.active_children()
    assert [r.to_obj() for r in run_selected(names, jobs=2)] == expected


def test_run_selected_of_no_suites_is_empty():
    assert run_selected([], jobs=2) == []
    assert not multiprocessing.active_children()


def test_the_earliest_failing_run_raises_first(monkeypatch, three_cpus):
    def failing(name, start):
        def chunk(spec, instances, lo, hi, log, counters):
            if lo >= start:
                raise LookupError(f"{name} chunk from {lo}")
            return hi - lo
        return chunk

    # filtration fails on worker 0 while worker 1 fails on the earlier run
    for name, start in (("lemma-3.3", 1), ("filtration", 0)):
        monkeypatch.setitem(SUITES, name,
                            dataclasses.replace(SUITES[name], chunk=failing(name, start)))
    with pytest.raises(LookupError, match="^lemma-3.3 chunk from 60$"):
        run_selected(["lemma-3.3", "filtration"], jobs=2)
    assert not multiprocessing.active_children()


def test_worker_word_syntax_errors_arrive_intact(monkeypatch, three_cpus):
    def failing(text):
        raise WordSyntaxError("forced", 3)

    monkeypatch.setattr(harness, "parse", failing)
    with pytest.raises(WordSyntaxError) as err:
        run_selected(["decompose-roundtrip"], bound=2, shift_bound=1, jobs=2)
    assert str(err.value) == "forced (offset 3)" and err.value.offset == 3
    assert not multiprocessing.active_children()


def test_a_worker_that_exits_without_a_result_is_named(monkeypatch, three_cpus):
    def exiting(spec, instances, lo, hi, log, counters):
        os._exit(3)

    monkeypatch.setitem(SUITES, "filtration",
                        dataclasses.replace(SUITES["filtration"], chunk=exiting))
    with pytest.raises(RuntimeError, match=r"^suite run filtration\[nat\]: the worker "
                       "of rows 0 to 60 exited without a result$") as err:
        run_selected(["filtration"], jobs=2)
    assert isinstance(err.value.__cause__, EOFError)
    assert not multiprocessing.active_children()


class _LockHolder(Exception):
    def __init__(self, message):
        super().__init__(message)
        self.lock = threading.Lock()


def test_worker_errors_that_cannot_be_pickled_name_their_type(monkeypatch, three_cpus):
    def failing(spec, instances, lo, hi, log, counters):
        raise _LockHolder(f"chunk from {lo}")

    monkeypatch.setitem(SUITES, "filtration",
                        dataclasses.replace(SUITES["filtration"], chunk=failing))
    with pytest.raises(RuntimeError, match="^_LockHolder: chunk from 0$") as err:
        run_selected(["filtration"], jobs=2)
    assert "_LockHolder" in str(err.value.__cause__)
    assert "Traceback" in str(err.value.__cause__)
    assert not multiprocessing.active_children()


def test_product_rows_are_the_interned_products():
    spec = SMALL_BY_MONOID["int"]
    elems = _universe(spec)
    rows, products = _product_rows(spec, 0, len(elems))
    # the map is iterated in id order, and each row holds its products' ids
    assert list(products.values()) == list(range(len(products)))
    for x, row in zip(elems, rows):
        assert row.tolist() == [products[x * y] for y in elems]
    assert len(products) == len({x * y for x, y in product(elems, repeat=2)})
    assert len(products) < len(elems) ** 2


def test_product_table_follows_the_compose_in_force(monkeypatch):
    spec = SMALL_BY_MONOID["int"]
    assert run_suite("lemma-2.1", spec).passed
    wrong = _far_hole(IntIsometry.compose)
    with monkeypatch.context() as patch:
        patch.setattr(IntIsometry, "compose", wrong)
        patch.setattr(IntIsometry, "__mul__", wrong)
        assert not run_suite("lemma-2.1", spec).passed
    assert run_suite("lemma-2.1", spec).passed


def test_report_serialization_is_time_free():
    report = run_suite("lemma-3.3", UniverseSpec("nat", 2, 1))
    obj = report.to_obj()
    assert "wall_time" not in obj
    assert report.wall_time >= 0.0
    assert obj["pass"] is True
    json.dumps(obj)  # JSON-serializable throughout


def test_run_selected_overrides_bounds():
    reports = run_selected(["lemma-3.3"], bound=2, shift_bound=1)
    assert len(reports) == 1
    assert reports[0].spec == UniverseSpec("nat", 2, 1)
    both = run_selected(["inverse-axioms"])
    assert [r.spec.monoid for r in both] == ["nat", "int"]
