import dataclasses
import json
import multiprocessing
import threading
from itertools import product

import numpy as np
import pytest

from isomon import FiniteIntSet, IntIsometry, NatIsometry, ZIsometry, harness
from isomon.harness import (_REPORT_FAIL_CAP, INT_DEFAULT, NAT_DEFAULT, SUITES,
                            UniverseSpec, _IntVec, _NatVec, _products, _table,
                            _universe, _vec, count_universe, default_specs,
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


# a 56-bit mask window, but the shift field takes the key to 64 bits
WIDE_NAT = UniverseSpec("nat", 0, 28)


def test_packed_composition_matches_object_composition():
    # the associativity scan packs elements into integers; verify the packed
    # product agrees with the real one on every pair product p and element z,
    # in both orders (the layer the triple scan actually composes)
    for spec in (UniverseSpec("nat", 2, 2), UniverseSpec("int", 1, 1), WIDE_NAT):
        vec = _vec(spec)
        elems = _universe(spec)
        products = [x * y for x, y in product(elems, repeat=2)]
        for e in products + list(elems):
            assert vec.decode(vec.obj_key(e)) == e
        ps = tuple(a[:, None] for a in vec.pack(products))
        zs = tuple(a[None, :] for a in vec.pack(elems))
        left = np.array([[vec.obj_key(p * z) for z in elems] for p in products],
                        dtype=vec.dtype)
        right = np.array([[vec.obj_key(z * p) for z in elems] for p in products],
                         dtype=vec.dtype)
        assert np.array_equal(vec.key(vec.compose(ps, zs)), left)
        assert np.array_equal(vec.key(vec.compose(zs, ps)), right)


def test_assoc_packs_python_int_keys_beyond_63_bits():
    vec = _vec(WIDE_NAT)
    assert vec.key_bits == 64
    assert all(a.dtype == object for a in vec.pack(_universe(WIDE_NAT)))
    report = run_suite("assoc", WIDE_NAT)
    assert report.passed and report.instances == 29 ** 3
    assert report.counters == {"pair_checks": 29 * 29}


def test_assoc_packs_every_key_that_fits_63_bits():
    # a 25-bit mask window: 32-bit keys
    spec = UniverseSpec("int", 0, 6)
    assert _vec(spec).key_bits == 32
    report = run_suite("assoc", spec)
    assert report.passed and report.instances == 52 ** 3
    assert report.counters == {"pair_checks": 52 * 52}


def _packed_assoc_failures(spec, vec):
    # what assoc must report for a packed compose, by a direct loop: every
    # pair whose packed product disagrees with the object product, then
    # every triple whose two packed products differ, in (i, j, k) order;
    # elements are one-element slices, so wide keys stay Python ints
    elems = _universe(spec)
    arrays = vec.pack(elems)
    packed = [tuple(a[i:i + 1] for a in arrays) for i in range(len(elems))]
    key = lambda t: int(vec.key(t)[0])
    out = []
    for (x, s), (y, t) in product(zip(elems, packed), repeat=2):
        if key(vec.compose(s, t)) != vec.obj_key(x * y):
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
        s, m = compose(self, t1, t2)
        return s, m | np.where((t1[0] == 1) & (t2[0] == 0), 1, 0)
    return wrong


def _int_hole_after_reflection(compose):
    # hole 0 appears when a reflection is followed by a translation
    def wrong(self, t1, t2):
        a, r, m = compose(self, t1, t2)
        return a, r, m | np.where((t1[1] == 1) & (t2[1] == 0), 1 << self.radius, 0)
    return wrong


@pytest.mark.parametrize("spec, vec_cls, fault", [
    (UniverseSpec("nat", 2, 1), _NatVec, _nat_hole_after_shift),
    (UniverseSpec("int", 0, 1), _IntVec, _int_hole_after_reflection),
    (WIDE_NAT, _NatVec, _nat_hole_after_shift),
])
def test_assoc_reports_exactly_the_non_associative_triples(monkeypatch, spec,
                                                           vec_cls, fault):
    monkeypatch.setattr(vec_cls, "compose", fault(vec_cls.compose))
    expected = _packed_assoc_failures(spec, _vec(spec))
    assert any("left" in f for f in expected)
    # a budget of n * n scans one row per block
    for budget in (harness._SCAN_BUDGET, 0):
        monkeypatch.setattr(harness, "_SCAN_BUDGET", budget)
        report = run_suite("assoc", spec)
        assert report.failure_count == len(expected)
        assert report.failures == expected[:_REPORT_FAIL_CAP]


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
    distinct = {p for i in range(len(elems)) for p in _products(spec, i)}
    calls = []
    extend_in = harness.extend_in
    monkeypatch.setattr(harness, "extend_in",
                        lambda g, n: calls.append(g) or extend_in(g, n))
    assert run_suite("example-2.13", spec).passed
    points = len(harness._EXTENSION_POINTS)
    # the identity's extension is checked once more, on its own
    assert len(calls) <= points * (len(elems) + len(distinct)) + 1
    assert points * (len(elems) + len(distinct)) + 1 < points * len(elems) ** 2


def test_cor_2_12_composes_each_distinct_pair_of_images_once(monkeypatch):
    spec = SMALL_BY_MONOID["nat"]
    elems = _universe(spec)
    images = {(hom(x), hom(y)) for hom in (hom_translation, hom_z2)
              for x in elems for y in elems}
    calls = []
    compose = IntIsometry.compose

    def counting(x, y):
        calls.append((x, y))
        return compose(x, y)
    monkeypatch.setattr(IntIsometry, "compose", counting)
    monkeypatch.setattr(IntIsometry, "__mul__", counting)
    assert run_suite("cor-2.12", spec).passed
    assert len(calls) <= len(images) < len(elems) ** 2


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
        _table.cache_clear()
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
        _table.cache_clear()
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
    for i, x in enumerate(elems):
        row = _products(spec, i)
        assert list(row) == [x * y for y in elems]
        assert all(interned.setdefault(p, p) is p for p in row)
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
