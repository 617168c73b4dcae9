"""Tests for the group ring, the relation ideal, and the normal-form map.

The ideal closure is the membership oracle: expected cardinalities {1, 2,
16, 2048} for r = 0..3 follow from the quotient identity |ring| / |ideal|
= 4·2^r, which verify_isomorphism checks directly; the specific r = 1 ideal
is small enough to freeze element by element.
"""

import itertools
import random

import pytest

from wittcurve.curve import WittClass, enumerate_classes
from wittcurve.fields import SquareClass
from wittcurve.groupring import (
    GroupRingElement,
    RelationGenerator,
    all_elements,
    ideal_closure,
    normal_form,
    relation_generators,
    relation_tuples,
    verify_isomorphism,
)
from wittcurve.pic2 import Pic2Group, PicElement
from wittcurve.wittk import WittK

ONE, NS = SquareClass.ONE, SquareClass.NONSQUARE


def mono(c, L, group):
    return GroupRingElement.monomial(c, L, group)


def test_construction_and_validation():
    g = Pic2Group(2)
    zero = GroupRingElement.zero(1, g)
    assert zero.is_zero() and zero.support_size() == 0
    f = mono(WittK.one(1), g.element("10"), g)
    assert f.coefficient(g.element("10")) == WittK.one(1)
    assert f.coefficient(g.identity).is_zero()
    # zero coefficients are dropped
    h = GroupRingElement(1, g, [(g.identity, WittK.zero(1))])
    assert h.is_zero()
    with pytest.raises(ValueError):
        GroupRingElement(2, g)
    with pytest.raises(ValueError):
        GroupRingElement(1, g, [(Pic2Group(3).identity, WittK.one(1))])
    with pytest.raises(ValueError):
        GroupRingElement(1, g, [(g.identity, WittK.one(3))])
    with pytest.raises(ValueError):
        GroupRingElement(1, g, [(g.identity, WittK.one(1)), (g.identity, WittK.s(1))])
    with pytest.raises(TypeError):
        GroupRingElement(1, g, [(g.identity, 1)])
    # an r = 0 curve class has a W(k) code but is not a W(k) value
    with pytest.raises(TypeError):
        GroupRingElement(1, g, [(g.identity, WittClass.one(1, Pic2Group(0)))])
    # coefficients are stored by slot: a bundle of another rank with the
    # same code has no coefficient, and terms() gives back the bundles
    assert f.coefficient(Pic2Group(3).element(2)).is_zero()
    assert f.coefficient(Pic2Group(1).element(1)).is_zero()
    terms = (mono(WittK.s(1), g.element("11"), g) + f).terms()
    assert terms == [(g.element("10"), WittK.one(1)), (g.element("11"), WittK.s(1))]
    assert all(type(L) is PicElement for L, _ in terms)
    with pytest.raises(ValueError):
        f + GroupRingElement.zero(3, Pic2Group(2))
    with pytest.raises(ValueError):
        f + GroupRingElement.zero(1, Pic2Group(3))


def test_add_and_mul_examples():
    for ctx in (1, 3):
        g = Pic2Group(2)
        L, M = g.element("10"), g.element("01")
        f = mono(WittK.one(ctx), L, g)
        assert f + GroupRingElement.zero(ctx, g) == f
        assert GroupRingElement.zero(ctx, g) + f == f
        assert f * f == mono(WittK.one(ctx), g.identity, g)
        assert f * mono(WittK.s(ctx), M, g) == mono(WittK.s(ctx), L * M, g)
        assert (f - f).is_zero()


def test_convolution_collects_terms():
    for ctx in (1, 3):
        g = Pic2Group(1)
        L = g.element("1")
        one, s = WittK.one(ctx), WittK.s(ctx)
        f = mono(one, g.identity, g) + mono(one, L, g)
        h = f * (mono(one, g.identity, g) + mono(s, L, g))
        # (1 + L)(1 + sL) = <1> + <s> at both slots
        expected_coef = one + s
        assert h.coefficient(g.identity) == expected_coef
        assert h.coefficient(L) == expected_coef


def test_ring_axioms_exhaustive_rank_le_1():
    for ctx in (1, 3):
        for r in (0, 1):
            g = Pic2Group(r)
            elements = all_elements(ctx, g)
            assert len(elements) == 4**g.n
            zero = GroupRingElement.zero(ctx, g)
            one = mono(WittK.one(ctx), g.identity, g)
            for a, b, c in itertools.product(elements, repeat=3):
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c
            for a in elements:
                assert a + zero == a
                assert a * one == a
                assert (a + (-a)).is_zero()
            for a, b in itertools.product(elements, repeat=2):
                assert a + b == b + a
                assert a * b == b * a


def test_ring_axioms_randomized_rank_4():
    rng = random.Random(99)
    for ctx in (1, 3):
        g = Pic2Group(4)
        letters = WittK.elements(ctx)

        def rand_element():
            return GroupRingElement(
                ctx,
                g,
                [
                    (g.element(code), rng.choice(letters))
                    for code in rng.sample(range(g.n), rng.randrange(5))
                ],
            )

        for _ in range(500):
            a, b, c = rand_element(), rand_element(), rand_element()
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a


def test_results_hold_no_zero_coefficient_and_match_the_public_constructor():
    # sums, differences and products skip the constructor's checks, so each
    # must already be what the constructor would build from its terms
    rng = random.Random(404)

    def check(f, g):
        for h in (f + g, f - g, f * g):
            assert not any(c.is_zero() for _, c in h.terms())
            rebuilt = GroupRingElement(h.context, h.group, h.terms())
            assert h == rebuilt and rebuilt == h and hash(h) == hash(rebuilt)

    for ctx in (1, 3):
        for r in (0, 1):
            for f, g in itertools.product(all_elements(ctx, Pic2Group(r)), repeat=2):
                check(f, g)
        g4 = Pic2Group(4)
        letters = WittK.elements(ctx)

        def rand_element():
            support = rng.sample(range(g4.n), rng.randrange(g4.n + 1))
            return GroupRingElement(ctx, g4, [(g4.element(L), rng.choice(letters)) for L in support])

        for _ in range(200):
            check(rand_element(), rand_element())


def test_relation_generator_counts_and_trivial_case():
    assert len(relation_tuples(Pic2Group(0))) == 4
    assert len(relation_tuples(Pic2Group(1))) == 16
    assert len(relation_tuples(Pic2Group(2))) == 64
    for ctx in (1, 3):
        g0 = Pic2Group(0)
        for gen in relation_generators(ctx, g0):
            assert gen.is_zero()
        assert len(relation_generators(ctx, g0)) == 4


def test_relation_generator_frozen_value():
    # u = 1, v = s, L = M nontrivial: collect terms at the identity and at L
    g = Pic2Group(1)
    L = g.element("1")
    gen = RelationGenerator(ONE, NS, L, L)
    e1 = gen.element(1, g)
    assert e1.coefficient(g.identity) == WittK.even(1)
    assert e1.coefficient(L) == WittK.even(1)
    e3 = gen.element(3, g)
    assert e3.is_zero()


def test_relation_generator_is_an_immutable_value():
    g = Pic2Group(1)
    gen = RelationGenerator(ONE, NS, g.element("1"), g.identity)
    same = RelationGenerator(ONE, NS, g.element("1"), g.identity)
    assert gen == same and gen != RelationGenerator(ONE, ONE, g.element("1"), g.identity)
    assert hash(gen) == hash(same)
    assert repr(gen) == (
        "RelationGenerator(u=<SquareClass.ONE: '1'>, v=<SquareClass.NONSQUARE: 's'>,"
        " L=PicElement(1), M=PicElement(0))"
    )
    with pytest.raises(AttributeError):
        gen.u = NS


def test_relation_generator_str():
    g = Pic2Group(2)
    gen = RelationGenerator(ONE, NS, g.element("10"), g.element("01"))
    assert str(gen) == "<1> - <1>10 - <s>01 + <s>11"
    gen0 = RelationGenerator(NS, NS, g.identity, g.identity)
    assert str(gen0) == "<1> - <s> - <s> + <1>"


def test_normal_form_examples():
    for ctx in (1, 3):
        g = Pic2Group(2)
        L = g.element("01")
        assert normal_form(mono(WittK.s(ctx), L, g)) == WittClass.odd(NS, L, ctx)
        assert normal_form(GroupRingElement.zero(ctx, g)) == WittClass.zero(ctx, g)
        assert normal_form(mono(WittK.one(ctx), g.identity, g)) == WittClass.one(ctx, g)
        # the nontrivial even coefficient at the identity is the class of
        # <1,1> (q = 3) or <1,s> (q = 1); both are the nonzero even class
        # with trivial line bundle part
        nf = normal_form(mono(WittK.even(ctx), g.identity, g))
        assert nf == WittClass.even(NS, g.identity, ctx)
        assert not nf.is_zero()


def test_normal_form_matches_base_ring_at_identity():
    # coefficients at the identity slot behave exactly like the base ring
    for ctx in (1, 3):
        g = Pic2Group(1)
        for a, b in itertools.product(WittK.elements(ctx), repeat=2):
            fa, fb = mono(a, g.identity, g), mono(b, g.identity, g)
            nf_sum = normal_form(fa + fb)
            direct = mono(a + b, g.identity, g)
            assert nf_sum == normal_form(direct)


def test_normal_form_kills_generators_exhaustive():
    for ctx in (1, 3):
        for r in range(6):
            g = Pic2Group(r)
            zero = WittClass.zero(ctx, g)
            for gen in relation_generators(ctx, g):
                assert normal_form(gen) == zero


def test_normal_form_kills_generators_sampled_rank8():
    rng = random.Random(13)
    for ctx in (1, 3):
        g = Pic2Group(8)
        zero = WittClass.zero(ctx, g)
        for _ in range(500):
            gen = RelationGenerator(
                rng.choice((ONE, NS)),
                rng.choice((ONE, NS)),
                g.element(rng.randrange(g.n)),
                g.element(rng.randrange(g.n)),
            )
            assert normal_form(gen.element(ctx, g)) == zero


def test_normal_form_surjective():
    for ctx in (1, 3):
        for r in (0, 1, 2):
            g = Pic2Group(r)
            images = {normal_form(f) for f in all_elements(ctx, g)}
            assert images == set(enumerate_classes(ctx, g))


def test_normal_form_constant_on_cosets_sampled():
    rng = random.Random(7)
    for ctx in (1, 3):
        g = Pic2Group(2)
        ideal = list(ideal_closure(relation_generators(ctx, g), ctx, g))
        elements = all_elements(ctx, g)
        for _ in range(300):
            f = rng.choice(elements)
            x = rng.choice(ideal)
            assert normal_form(f + x) == normal_form(f)


def test_ideal_closure_trivial_and_frozen_sizes():
    for ctx in (1, 3):
        g0 = Pic2Group(0)
        only_zero = ideal_closure([GroupRingElement.zero(ctx, g0)], ctx, g0)
        assert only_zero == {GroupRingElement.zero(ctx, g0)}
        assert ideal_closure(relation_generators(ctx, g0), ctx, g0) == only_zero
        for r, size in [(1, 2), (2, 16), (3, 2048)]:
            g = Pic2Group(r)
            ideal = ideal_closure(relation_generators(ctx, g), ctx, g)
            assert len(ideal) == size
            assert 4**g.n // len(ideal) == 4 * 2**r
    with pytest.raises(ValueError):
        ideal_closure([], 1, Pic2Group(4))


def test_ideal_r1_exact_membership():
    for ctx in (1, 3):
        g = Pic2Group(1)
        L = g.element("1")
        expected = {
            GroupRingElement.zero(ctx, g),
            mono(WittK.even(ctx), g.identity, g) + mono(WittK.even(ctx), L, g),
        }
        assert ideal_closure(relation_generators(ctx, g), ctx, g) == expected


def test_ideal_is_closed():
    rng = random.Random(3)
    for ctx in (1, 3):
        g = Pic2Group(2)
        ideal = ideal_closure(relation_generators(ctx, g), ctx, g)
        members = list(ideal)
        for _ in range(200):
            x, y = rng.choice(members), rng.choice(members)
            assert x + y in ideal
            m = mono(rng.choice((WittK.one(ctx), WittK.s(ctx))), g.element(rng.randrange(g.n)), g)
            assert x * m in ideal


def test_verify_isomorphism_small_ranks():
    for ctx in (1, 3):
        for r in (0, 1, 2):
            report = verify_isomorphism(ctx, Pic2Group(r))
            assert len(report) == 5
            for name, passed, detail in report:
                assert passed, f"r = {r}, ctx = {ctx}: {name}: {detail}"


def test_verify_isomorphism_rank3_cardinality_only():
    for ctx in (1, 3):
        report = verify_isomorphism(ctx, Pic2Group(3))
        assert len(report) == 2
        assert all(passed for _, passed, _ in report)
        assert "2048" in report[1][2]
    with pytest.raises(ValueError):
        verify_isomorphism(1, Pic2Group(4))


def test_json_roundtrip_and_str():
    g = Pic2Group(2)
    f = mono(WittK.even(1), g.element("01"), g) + mono(WittK.s(1), g.element("11"), g)
    data = f.to_json()
    assert data == [{"coef": "e", "L": "01"}, {"coef": "s", "L": "11"}]
    assert GroupRingElement.from_json(data, 1, g) == f
    assert str(f) == "E*01 + <s>*11"
    assert str(GroupRingElement.zero(1, g)) == "0"
    one_term = mono(WittK.one(3), g.identity, g)
    assert str(one_term) == "<1>"
    assert GroupRingElement.from_json([], 3, g).is_zero()
