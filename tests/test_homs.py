from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from isomon import (FiniteIntSet, FiniteTailMap, IntIsometry, NatIsometry,
                    ZIsometry, eps_conjugation, extend_in, gen_a, gen_b,
                    gen_e, hom_translation, hom_z2, refute_finite_generation)
from isomon.harness import UniverseSpec, enumerate_universe
from isomon.homs import IDENTITY_MAP
from isomon.natmonoid import identity

SMALL = enumerate_universe(UniverseSpec("nat", 3, 1))


@st.composite
def tail_maps(draw, tails=None):
    """A small valid map: thresholds in -6..11, shifts in -4..4 (or the given
    ``(neg_threshold, neg_shift, pos_threshold, pos_shift)``), and each middle
    image either absent, a tail rule's image or any free value."""
    if tails is None:
        nt = draw(st.integers(-6, 10))
        pt = draw(st.integers(nt + 1, 11))
        ns = draw(st.integers(-4, 4))
        ps = draw(st.integers(max(-4, nt + ns - pt + 1), 4))  # tail ranges apart
    else:
        nt, ns, pt, ps = tails
    free = set(range(nt + ns + 1, pt + ps))
    middle = []
    for x in range(nt + 1, pt):
        y = draw(st.sampled_from((None, x + ns, x + ps, *range(nt + ns + 1, pt + ps))))
        if y in free:
            free.remove(y)
            middle.append((x, y))
    return FiniteTailMap(nt, ns, pt, ps, middle)


def window(f, g):
    """From 12 below both maps' thresholds to 12 above them: beyond it both
    maps follow their tails, so agreeing on it is agreeing everywhere."""
    return range(min(f.neg_threshold, g.neg_threshold) - 12,
                 max(f.pos_threshold, g.pos_threshold) + 13)


class TestFiniteTailMap:
    def test_canonicalization_absorbs_into_tails(self):
        a = FiniteTailMap(4, 0, 6, 0)
        b = FiniteTailMap(2, 0, 6, 0, [(3, 3), (4, 4)])
        c = FiniteTailMap(4, 0, 8, 0, [(6, 6), (7, 7)])
        assert a == b == c

    def test_full_shift_normal_form(self):
        assert FiniteTailMap(7, 3, 8, 3) == FiniteTailMap(0, 3, 1, 3)
        assert FiniteTailMap(-2, 0, -1, 0) == IDENTITY_MAP

    def test_kink_maps_stay_distinct(self):
        assert FiniteTailMap(0, 0, 1, 1) != FiniteTailMap(1, 0, 2, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            FiniteTailMap(3, 0, 3, 0)  # tails overlap
        with pytest.raises(ValueError):
            FiniteTailMap(0, 0, 4, 0, [(1, 1), (1, 2)])  # duplicate input
        with pytest.raises(ValueError):
            FiniteTailMap(0, 0, 4, 0, [(5, 5)])  # input outside the gap
        with pytest.raises(ValueError):
            FiniteTailMap(0, 0, 4, 0, [(1, -3)])  # output inside a tail range
        with pytest.raises(ValueError):
            FiniteTailMap(0, 10, 1, 0)  # ranges overlap

    def test_apply(self):
        f = FiniteTailMap(-1, 0, 4, 2, [(2, 4)])
        assert f.apply(-5) == -5
        assert f.apply(2) == 4
        assert f.apply(0) is None
        assert f.apply(1) is None
        assert f.apply(3) is None
        assert f.apply(10) == 12

    def test_compose_tail_shifts_add(self):
        f = FiniteTailMap(0, 2, 1, 2)
        g = FiniteTailMap(0, 3, 1, 3)
        assert f * g == FiniteTailMap(0, 5, 1, 5)

    def test_compose_identity(self):
        f = extend_in(NatIsometry(2, FiniteIntSet([1, 3])), -1)
        assert f * IDENTITY_MAP == f
        assert IDENTITY_MAP * f == f

    @given(tail_maps(), st.data(), st.integers(0, 3), st.integers(0, 3))
    def test_structural_equality_is_map_equality(self, f, data, below, above):
        nt, ns, pt, ps = f.neg_threshold, f.neg_shift, f.pos_threshold, f.pos_shift
        # another map, often with f's tails and another middle
        g = data.draw(st.one_of(tail_maps(), tail_maps((nt, ns, pt, ps))))
        # f written with its tails pushed outwards is the same map
        wide = FiniteTailMap(nt - below, ns, pt + above, ps, [
            *f.middle, *((x, x + ns) for x in range(nt - below + 1, nt + 1)),
            *((x, x + ps) for x in range(pt, pt + above))])
        for h in (g, wide):
            agree = all(f.apply(x) == h.apply(x) for x in window(f, h))
            assert (f == h) == agree
            if agree:
                assert hash(f) == hash(h)
        assert f == wide

    @given(tail_maps())
    def test_middle_is_sorted_and_rebuilds_the_map(self, f):
        assert list(f.middle) == sorted(f.middle)
        assert FiniteTailMap(f.neg_threshold, f.neg_shift, f.pos_threshold,
                             f.pos_shift, f.middle) == f

    @given(tail_maps(), tail_maps())
    def test_compose_applies_left_then_right(self, f, g):
        fg = f * g
        for x in window(f, g):
            y = f.apply(x)
            assert fg.apply(x) == (None if y is None else g.apply(y))

    def test_monotone(self):
        assert IDENTITY_MAP.is_monotone()
        swapped = FiniteTailMap(0, 0, 6, 0, [(1, 5), (2, 4)])
        assert not swapped.is_monotone()


class TestExtension:
    def test_examples(self):
        assert extend_in(gen_a(), 0) == FiniteTailMap(0, 0, 1, 1)
        assert extend_in(identity(), 0) == IDENTITY_MAP
        assert extend_in(NatIsometry(2, FiniteIntSet([1, 3])), -1) == \
            FiniteTailMap(-1, 0, 4, 2, [(2, 4)])

    def test_positive_extension_point_rejected(self):
        with pytest.raises(ValueError):
            extend_in(gen_a(), 1)

    def test_homomorphism_exhaustive(self):
        ext = {(i, n): extend_in(g, n)
               for i, g in enumerate(SMALL) for n in (0, -1, -2)}
        for (i, x), (j, y) in product(enumerate(SMALL), repeat=2):
            for n in (0, -1, -2):
                assert extend_in(x * y, n) == ext[(i, n)] * ext[(j, n)]

    def test_images_are_monotone(self):
        for g in SMALL:
            for n in (0, -1, -2):
                assert extend_in(g, n).is_monotone()

    def test_pointwise_shape(self):
        f = extend_in(gen_a(), 0)
        assert all(f.apply(x) == x for x in range(-6, 1))
        assert all(f.apply(x) == x + 1 for x in range(1, 8))
        g = extend_in(NatIsometry(2, FiniteIntSet([1, 3])), -1)
        assert g.apply(0) is None and g.apply(1) is None and g.apply(3) is None


class TestRealizedHomomorphisms:
    def test_translation_examples(self):
        assert hom_translation(gen_a()) == IntIsometry(ZIsometry(1))
        assert hom_translation(gen_e(3)) == IntIsometry(ZIsometry(0))
        assert hom_translation(gen_a()).unit.order() is None

    def test_z2_examples(self):
        reflection = IntIsometry(ZIsometry(0, True))
        assert hom_z2(gen_a()) == reflection
        assert hom_z2(gen_b()) == reflection
        assert hom_z2(gen_a() * gen_a()) == IntIsometry(ZIsometry(0))
        assert hom_z2(gen_a() * gen_b()) == hom_z2(gen_a()) * hom_z2(gen_b())

    def test_homomorphism_exhaustive(self):
        for x, y in product(SMALL, repeat=2):
            p = x * y
            assert hom_translation(p) == hom_translation(x) * hom_translation(y)
            assert hom_z2(p) == hom_z2(x) * hom_z2(y)

    def test_image_sizes(self):
        z2_image = {hom_z2(g) for g in SMALL}
        assert len(z2_image) == 2


class TestConjugation:
    def test_examples(self):
        assert eps_conjugation(5, 2) == gen_e(2)
        assert eps_conjugation(3, 2) == gen_e(2)
        assert eps_conjugation(10, 9) == gen_e(9)

    def test_all_pairs_up_to_twelve(self):
        for k in range(3, 13):
            for l in range(2, k):
                assert eps_conjugation(k, l) == gen_e(l)

    def test_bad_indices(self):
        with pytest.raises(ValueError):
            eps_conjugation(5, 5)
        with pytest.raises(ValueError):
            eps_conjugation(5, 1)
        with pytest.raises(ValueError):
            eps_conjugation(2, 3)


class TestRefutation:
    def test_mixed_generators(self):
        w = refute_finite_generation([gen_a(), gen_b(), gen_e(2), gen_e(3)])
        assert w.element == NatIsometry(0, FiniteIntSet([2, 3, 4]))
        assert w.bound_k == 3
        assert w.certificate == 4

    def test_tail_defined_generators(self):
        # every generator gap is 0, so the bound clamps to 1
        w = refute_finite_generation([gen_a(), gen_b()])
        assert w.element == NatIsometry(0, FiniteIntSet([2]))
        assert w.bound_k == 1
        assert w.certificate == 2

    def test_single_hole_generator(self):
        w = refute_finite_generation([gen_e(5)])
        assert w.element == NatIsometry(0, FiniteIntSet(range(2, 7)))
        assert w.bound_k == 5
        assert w.certificate == 6

    def test_witness_invariant(self):
        for gens in ([gen_a()], [gen_e(2), gen_e(4)], SMALL[:9]):
            w = refute_finite_generation(gens)
            assert w.element.gap() == w.certificate == w.bound_k + 1
            assert w.bound_k >= max(g.gap() for g in gens)

    def test_witness_not_reachable_by_short_products(self):
        gens = [gen_a(), gen_b(), gen_e(2), gen_e(3)]
        w = refute_finite_generation(gens)
        for length in range(1, 5):
            for combo in product(gens, repeat=length):
                acc = combo[0]
                for g in combo[1:]:
                    acc = acc * g
                assert acc != w.element

    def test_empty_input(self):
        with pytest.raises(ValueError):
            refute_finite_generation([])
