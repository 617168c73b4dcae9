"""Tests for the four-element Witt ring of a nondyadic finite field.

The arithmetic tables are cross-checked against concrete diagonal forms:
to_form produces representatives, the forms are combined with orthogonal sum
or tensor product, and from_concrete_form maps back.  Decomposition of the
concrete forms is the authority; the symbolic tables must agree with it.
"""

import itertools
import operator
import random

import pytest

from wittcurve.curve import WittClass
from wittcurve.fields import SquareClass, canonical_nonsquare, make_field
from wittcurve.forms import (
    DiagonalForm,
    find_isotropic_vector,
    orthogonal_sum,
    tensor_product,
    witt_equal,
)
from wittcurve.pic2 import Pic2Group
from wittcurve.wittk import WittK, from_concrete_form, verify_bullets

ONE, NS = SquareClass.ONE, SquareClass.NONSQUARE
SAMPLE = {1: [(5, 1), (13, 1), (3, 2)], 3: [(3, 1), (7, 1), (11, 1), (3, 3)]}


def test_four_distinct_elements():
    for ctx in (1, 3):
        elems = WittK.elements(ctx)
        assert len(set(elems)) == 4
        for a in elems:
            assert (a.rank_parity, a.disc) in {(0, ONE), (0, NS), (1, ONE), (1, NS)}
        assert WittK.zero(ctx).is_zero()
        assert not WittK.even(ctx).is_zero()
    # equal codes in different contexts are different elements
    assert not any(a == b for a in WittK.elements(1) for b in WittK.elements(3))


def test_construction_validation():
    with pytest.raises(ValueError):
        WittK(0, ONE, 2)
    with pytest.raises(ValueError):
        WittK(2, ONE, 1)
    with pytest.raises(TypeError):
        WittK(0, "1", 1)
    for op in (operator.add, operator.mul, operator.sub):
        with pytest.raises(ValueError, match="mixed contexts: q = 1 vs 3 mod 4"):
            op(WittK.zero(1), WittK.zero(3))
        with pytest.raises(TypeError, match="expected WittK, got int"):
            op(WittK.zero(1), 1)
        # W(k) is the r = 0 class ring, but its values and r = 0 curve
        # classes are kept apart by type
        with pytest.raises(TypeError, match="expected WittK, got WittClass"):
            op(WittK.one(1), WittClass.one(1, Pic2Group(0)))
        with pytest.raises(TypeError, match="expected WittClass, got WittK"):
            op(WittClass.one(1, Pic2Group(0)), WittK.one(1))
    assert WittK.one(1) != WittClass.one(1, Pic2Group(0))


def test_addition_examples():
    one3 = WittK.one(3)
    assert one3 + one3 == WittK.even(3)
    one1 = WittK.one(1)
    assert one1 + one1 == WittK.zero(1)
    for ctx in (1, 3):
        for a in WittK.elements(ctx):
            assert a + WittK.zero(ctx) == a
            assert WittK.zero(ctx) + a == a


def test_multiplication_examples():
    for ctx in (1, 3):
        s = WittK.s(ctx)
        one = WittK.one(ctx)
        assert s * one == s
        assert s * s == one
        for a in WittK.elements(ctx):
            assert one * a == a
            assert a * one == a
            assert WittK.zero(ctx) * a == WittK.zero(ctx)
        assert WittK.even(ctx) * WittK.even(ctx) == WittK.zero(ctx)
        assert WittK.even(ctx) * s == WittK.even(ctx)


def test_negation():
    assert -WittK.one(1) == WittK.one(1)
    assert -WittK.one(3) == WittK.s(3)
    assert -WittK.s(3) == WittK.one(3)
    for ctx in (1, 3):
        assert -WittK.zero(ctx) == WittK.zero(ctx)
        for a in WittK.elements(ctx):
            assert a + (-a) == WittK.zero(ctx)
            assert a - a == WittK.zero(ctx)


def test_additive_group_structure():
    # q = 1 mod 4: exponent 2; q = 3 mod 4: <1> generates Z/4
    for a in WittK.elements(1):
        assert a + a == WittK.zero(1)
    one = WittK.one(3)
    assert one + one == WittK.even(3)
    assert one + one + one == WittK.s(3)
    assert one + one + one + one == WittK.zero(3)


def test_ring_axioms_exhaustive():
    for ctx in (1, 3):
        elems = WittK.elements(ctx)
        for a, b, c in itertools.product(elems, repeat=3):
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c


def test_from_concrete_form_examples():
    f7 = make_field(7)
    assert from_concrete_form(DiagonalForm(f7, (f7.one,))) == WittK.one(3)
    for p, e in [(5, 1), (7, 1), (3, 2)]:
        f = make_field(p, e)
        ones4 = DiagonalForm(f, (f.one,) * 4)
        assert from_concrete_form(ones4).is_zero()
    f5 = make_field(5)
    s5 = canonical_nonsquare(f5)
    assert from_concrete_form(DiagonalForm(f5, (f5.one, s5))) == WittK.even(1)


def test_to_form_roundtrip():
    for ctx, samples in SAMPLE.items():
        for p, e in samples:
            field = make_field(p, e)
            for a in WittK.elements(ctx):
                assert from_concrete_form(a.to_form(field)) == a
    with pytest.raises(ValueError):
        WittK.one(1).to_form(make_field(7))


def test_even_class_representative_is_anisotropic():
    for ctx, samples in SAMPLE.items():
        field = make_field(*samples[0])
        rep = WittK.even(ctx).to_form(field)
        assert rep.rank == 2
        assert find_isotropic_vector(rep) is None


def test_tables_match_concrete_forms_exhaustively():
    for ctx, samples in SAMPLE.items():
        for p, e in samples[:2]:
            field = make_field(p, e)
            for a, b in itertools.product(WittK.elements(ctx), repeat=2):
                fa, fb = a.to_form(field), b.to_form(field)
                assert from_concrete_form(orthogonal_sum(fa, fb)) == a + b
                assert from_concrete_form(tensor_product(fa, fb)) == a * b


def test_from_concrete_form_is_ring_homomorphism():
    rng = random.Random(17)
    for p, e in [(5, 1), (7, 1), (11, 1), (13, 1), (3, 2)]:
        field = make_field(p, e)
        nonzero = list(field.nonzero_elements())
        for _ in range(40):
            f = DiagonalForm(field, tuple(rng.choice(nonzero) for _ in range(rng.randrange(5))))
            g = DiagonalForm(field, tuple(rng.choice(nonzero) for _ in range(rng.randrange(5))))
            assert from_concrete_form(orthogonal_sum(f, g)) == from_concrete_form(f) + from_concrete_form(g)
            assert from_concrete_form(tensor_product(f, g)) == from_concrete_form(f) * from_concrete_form(g)


def test_from_concrete_form_constant_on_witt_classes():
    rng = random.Random(18)
    for p in [5, 7]:
        field = make_field(p)
        nonzero = list(field.nonzero_elements())
        for _ in range(30):
            f = DiagonalForm(field, tuple(rng.choice(nonzero) for _ in range(rng.randrange(4))))
            g = DiagonalForm(field, tuple(rng.choice(nonzero) for _ in range(rng.randrange(4))))
            if witt_equal(f, g):
                assert from_concrete_form(f) == from_concrete_form(g)
            else:
                assert from_concrete_form(f) != from_concrete_form(g)


def test_exactly_four_classes_by_enumeration():
    # anisotropic forms of rank <= 2 over any sample field fall into exactly
    # 4 classes under witt_equal
    for p, e in [(3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (3, 2)]:
        field = make_field(p, e)
        forms = [DiagonalForm(field, ())]
        forms += [DiagonalForm(field, (a,)) for a in field.nonzero_elements()]
        for a in field.nonzero_elements():
            for b in field.nonzero_elements():
                f = DiagonalForm(field, (a, b))
                if find_isotropic_vector(f) is None:
                    forms.append(f)
        classes = []
        for f in forms:
            if not any(witt_equal(f, rep) for rep in classes):
                classes.append(f)
        assert len(classes) == 4


def test_unit_and_letters():
    assert WittK.one(1).unit() is ONE
    assert WittK.s(3).unit() is NS
    assert WittK.of_unit(NS, 1) == WittK.s(1)
    with pytest.raises(ValueError):
        WittK.even(1).unit()
    for ctx in (1, 3):
        letters = [a.letter for a in WittK.elements(ctx)]
        assert letters == ["0", "1", "s", "e"]
        for a in WittK.elements(ctx):
            assert WittK.from_letter(a.letter, ctx) == a
    with pytest.raises(ValueError):
        WittK.from_letter("x", 1)
    assert str(WittK.even(3)) == "E"
    assert str(WittK.s(1)) == "<s>"


def test_inherited_constructors_stay_in_w_k():
    # odd, from_json and to_json work in kind: a W(k) value comes back as the
    # same interned WittK, a curve class stays a WittClass, and WittK refuses
    # a bundle of rank r > 0
    trivial = Pic2Group(0)
    for ctx in (1, 3):
        for a in WittK.elements(ctx):
            assert WittK.from_json(a.to_json(), ctx, trivial) is a
            back = WittClass.from_json(a.to_json(), ctx, trivial)
            assert type(back) is WittClass and back.code == a.code
        for u in (ONE, NS):
            assert WittK.odd(u, trivial.identity, ctx) is WittK.of_unit(u, ctx)
            assert type(WittClass.odd(u, trivial.identity, ctx)) is WittClass
        g = Pic2Group(2)
        with pytest.raises(TypeError, match="WittK has only the r = 0 ring, got r = 2"):
            WittK.odd(ONE, g.element("01"), ctx)
        with pytest.raises(TypeError, match="WittK has only the r = 0 ring"):
            WittK.from_json({"parity": "odd", "u": "1", "L": "01"}, ctx, g)
    assert WittK.one(1).to_json() == {"parity": "odd", "u": "1", "L": ""}
    with pytest.raises(TypeError, match="u must be a SquareClass"):
        WittK.odd("1", trivial.identity, 1)


def test_unit_diagonal():
    assert WittK.zero(1).unit_diagonal() == []
    assert WittK.one(3).unit_diagonal() == [ONE]
    assert WittK.even(1).unit_diagonal() == [ONE, NS]
    assert WittK.even(3).unit_diagonal() == [ONE, ONE]


def test_verify_bullets():
    for p in (5, 3):
        report = verify_bullets(make_field(p))
        assert len(report) == 4
        assert all(passed for _, passed, _ in report)
    for p, e in [(5, 1), (7, 1), (3, 2)]:
        report = verify_bullets(make_field(p, e))
        assert all(passed for _, passed, _ in report)
