import dataclasses
import json
import multiprocessing
import threading
from itertools import product

import numpy as np
import pytest

from isomon import FiniteIntSet, IntIsometry, NatIsometry, ZIsometry, harness
from isomon.harness import (_REPORT_FAIL_CAP, INT_DEFAULT, NAT_DEFAULT, SUITES,
                            UniverseSpec, _chunk_table, _product_rows, _universe,
                            _Vec, count_universe, default_specs,
                            enumerate_universe, run_selected, run_suite,
                            suite_names)
from isomon.homs import hom_translation, hom_z2
from isomon.jsonio import element_to_obj
from isomon.natmonoid import is_bicyclic
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


@pytest.mark.parametrize("name", suite_names())
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


def test_packed_composition_matches_object_composition():
    # the associativity scan packs elements into integers; verify the decoded
    # packed product equals the real one on every pair product p and element
    # z, in both orders (the layer the triple scan actually composes)
    for spec in (UniverseSpec("nat", 2, 2), UniverseSpec("int", 1, 1), WIDE_NAT):
        vec = _Vec(spec)
        elems = _universe(spec)
        products = [x * y for x, y in product(elems, repeat=2)]
        decoded = lambda keys: [vec.decode(k) for k in keys.reshape(-1).tolist()]
        assert decoded(vec.key(vec.pack(products + list(elems)))) == products + list(elems)
        ps = tuple(a[:, None] for a in vec.pack(products))
        zs = tuple(a[None, :] for a in vec.pack(elems))
        assert decoded(vec.key(vec.compose(ps, zs))) == [p * z for p in products
                                                         for z in elems]
        assert decoded(vec.key(vec.compose(zs, ps))) == [z * p for p in products
                                                         for z in elems]


def test_assoc_packs_python_int_keys_beyond_63_bits():
    vec = _Vec(WIDE_NAT)
    assert vec.key_bits == 65
    assert all(a.dtype == object for a in vec.pack(_universe(WIDE_NAT)))
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


def _packed_assoc_failures(spec, vec):
    # what assoc must report for a packed compose, by a direct loop: every
    # pair whose decoded packed product is not the object product, then
    # every triple whose two packed products differ, in (i, j, k) order;
    # elements are one-element slices, so wide keys stay Python ints
    elems = _universe(spec)
    arrays = vec.pack(elems)
    packed = [tuple(a[i:i + 1] for a in arrays) for i in range(len(elems))]
    key = lambda t: int(vec.key(t)[0])
    out = []
    for (x, s), (y, t) in product(zip(elems, packed), repeat=2):
        if vec.decode(key(vec.compose(s, t))) != x * y:
            out.append({"inputs": [element_to_obj(x), element_to_obj(y)],
                        "check": "packed product mismatch"})
    for i, j, k in product(range(len(elems)), repeat=3):
        left = key(vec.compose(vec.compose(packed[i], packed[j]), packed[k]))
        right = key(vec.compose(packed[i], vec.compose(packed[j], packed[k])))
        if left != right:
            out.append({"inputs": [element_to_obj(elems[m]) for m in (i, j, k)],
                        "left": element_to_obj(vec.decode(left)),
                        "right": element_to_obj(vec.decode(right))})
    return out


def _nat_hole_after_shift(compose):
    # hole 1 appears when a shift by 1 is followed by a shift by 0
    def wrong(self, t1, t2):
        a, r, m = compose(self, t1, t2)
        return a, r, m | np.where((t1[0] == 1) & (t2[0] == 0), 1, 0)
    return wrong


def _int_hole_after_reflection(compose):
    # hole 0 appears when a reflection is followed by a translation
    def wrong(self, t1, t2):
        a, r, m = compose(self, t1, t2)
        return a, r, m | np.where((t1[1] == 1) & (t2[1] == 0), 1 << -self.low, 0)
    return wrong


@pytest.mark.parametrize("spec, fault", [
    (UniverseSpec("nat", 2, 1), _nat_hole_after_shift),
    (UniverseSpec("int", 0, 1), _int_hole_after_reflection),
    (WIDE_NAT, _nat_hole_after_shift),
])
def test_assoc_reports_exactly_the_non_associative_triples(monkeypatch, spec, fault):
    monkeypatch.setattr(_Vec, "compose", fault(_Vec.compose))
    expected = _packed_assoc_failures(spec, _Vec(spec))
    assert any("left" in f for f in expected)
    # a budget of n * n scans one row per block
    for budget in (harness._SCAN_BUDGET, 0):
        monkeypatch.setattr(harness, "_SCAN_BUDGET", budget)
        report = run_suite("assoc", spec)
        assert report.failure_count == len(expected)
        assert report.failures == expected[:_REPORT_FAIL_CAP]


@pytest.mark.parametrize("spec", [SMALL_BY_MONOID["nat"], SMALL_BY_MONOID["int"]])
def test_assoc_stops_on_a_mask_that_escapes_its_window(monkeypatch, spec):
    compose = _Vec.compose

    def wrong(self, t1, t2):
        a, r, m = compose(self, t1, t2)
        return a, r, m | (1 << self.width)
    monkeypatch.setattr(_Vec, "compose", wrong)
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
    rows, objs = _product_rows(spec, 0, len(elems))
    distinct = {objs[k] for k in rows.reshape(-1)}
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


def test_default_specs():
    assert default_specs("assoc") == (NAT_DEFAULT, INT_DEFAULT)
    assert default_specs("lemma-2.1") == (INT_DEFAULT,)
    assert default_specs("lemma-2.9-oracle") == (UniverseSpec("int", 4, 2),)
    with pytest.raises(ValueError):
        default_specs("nope")


def test_reports_are_deterministic_across_jobs():
    runs = [(UniverseSpec("nat", 3, 1), name) for name in
            ("assoc", "lemma-3.6", "decompose-roundtrip", "example-2.13")]
    runs += [(UniverseSpec("int", 1, 2), name) for name in
             ("assoc", "lemma-2.1", "sigma-hom")]
    for spec, name in runs:
        # workers start without product rows, so each builds its own chunk's
        _chunk_table.cache_clear()
        sharded = run_suite(name, spec, jobs=3).to_obj()
        single = run_suite(name, spec, jobs=1).to_obj()
        assert json.dumps(single, sort_keys=True) == json.dumps(sharded, sort_keys=True)


@pytest.mark.parametrize("fault", [None, _far_hole])
def test_run_selected_is_deterministic_when_workers_reuse_rows(monkeypatch, fault):
    # a wrong compose makes most suites fail in several chunks, so a merge
    # out of chunk order changes the stored failures
    if fault is not None:
        for cls in (NatIsometry, IntIsometry):
            wrong = fault(cls.compose)
            monkeypatch.setattr(cls, "compose", wrong)
            monkeypatch.setattr(cls, "__mul__", wrong)
    runs = []
    for jobs in (1, 2, 3):
        # workers start without universes or product rows and keep the ones
        # they build for the later suites of the run
        _chunk_table.cache_clear()
        _universe.cache_clear()
        reports = run_selected(suite_names(), bound=2, shift_bound=1, jobs=jobs)
        runs.append([r.to_obj() for r in reports])
        assert not multiprocessing.active_children()
    assert runs[0] == runs[1] == runs[2]
    assert any(len(r["failures"]) > 1 for r in runs[0]) == (fault is not None)


def test_worker_failures_propagate(monkeypatch):
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


def test_worker_word_syntax_errors_arrive_intact(monkeypatch):
    def failing(text):
        raise WordSyntaxError("forced", 3)

    monkeypatch.setattr(harness, "parse", failing)
    with pytest.raises(WordSyntaxError) as err:
        run_suite("decompose-roundtrip", UniverseSpec("nat", 2, 1), jobs=2)
    assert str(err.value) == "forced (offset 3)" and err.value.offset == 3
    assert not multiprocessing.active_children()


class _LockHolder(Exception):
    def __init__(self, message):
        super().__init__(message)
        self.lock = threading.Lock()


def test_worker_errors_that_cannot_be_pickled_name_their_type(monkeypatch):
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
    interned = {}
    rows, objs = _product_rows(spec, 0, len(elems))
    for x, row in zip(elems, rows):
        assert [objs[k] for k in row] == [x * y for y in elems]
        assert all(interned.setdefault(objs[k], objs[k]) is objs[k] for k in row)
    assert len(interned) < len(elems) ** 2


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
