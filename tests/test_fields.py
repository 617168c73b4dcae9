"""Tests for finite field construction, arithmetic, and square classes.

Expected values were produced by independent means before being frozen here:
moduli and irreducibility against sympy's galoistools, square sets by
exhaustive enumeration of {x*x}, small-field arithmetic facts by hand.
"""

import random

import pytest
from sympy import ZZ
from sympy.ntheory.residue_ntheory import is_quad_residue
from sympy.polys.galoistools import gf_irreducible_p

from wittcurve.fields import (
    CARDINALITY_BOUND,
    FiniteField,
    SquareClass,
    canonical_nonsquare,
    is_square,
    make_field,
    minus_one_class,
    square_class,
    square_class_bits,
    square_root,
)

SMALL_FIELDS = [(3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (3, 2), (5, 2), (3, 3)]


def test_make_field_basic():
    f = make_field(7)
    assert (f.p, f.e, f.q) == (7, 1, 7)
    assert f.modulus == (0, 1)
    f2 = make_field(3, 4)
    assert f2.q == 81
    assert len(f2.modulus) == 5 and f2.modulus[-1] == 1


def test_make_field_rejects_bad_input():
    with pytest.raises(ValueError):
        make_field(2)
    with pytest.raises(ValueError):
        make_field(2, 5)
    with pytest.raises(ValueError):
        make_field(9)
    with pytest.raises(ValueError):
        make_field(15)
    with pytest.raises(ValueError):
        make_field(7, 0)
    with pytest.raises(ValueError):
        make_field(3, 13)
    with pytest.raises(ValueError):
        make_field(1031, 2)  # 1031^2 > 2^20
    with pytest.raises(TypeError):
        make_field(7.0)
    assert CARDINALITY_BOUND == 1 << 20


def test_make_field_is_cached():
    assert make_field(5, 2) is make_field(5, 2)


def test_cardinality_bound():
    # 3^12 = 531441 and the prime 2^20 - 3 lie inside the bound, 3^13 = 1594323 does not
    assert make_field(3, 12).q == 531441
    with pytest.raises(ValueError, match="cardinality 3\\^13 exceeds the bound 1048576"):
        make_field(3, 13)
    assert make_field(1048573).q == 1048573


def test_frozen_moduli():
    # hand enumeration: first irreducible with constant coefficient fastest
    assert make_field(3, 2).modulus == (1, 0, 1)  # x^2 + 1
    assert make_field(5, 2).modulus == (2, 0, 1)  # x^2 + 2
    assert make_field(3, 3).modulus == (1, 2, 0, 1)  # x^3 + 2x + 1


def test_modulus_against_sympy():
    for p, e in [(3, 2), (3, 3), (3, 4), (5, 2), (7, 2), (11, 2), (5, 3)]:
        f = make_field(p, e)
        dense = list(reversed(f.modulus))  # sympy wants highest degree first
        assert gf_irreducible_p(dense, p, ZZ)
        # minimality: every earlier candidate in enumeration order is reducible
        for m in range(sum(c * p**i for i, c in enumerate(f.modulus[:-1]))):
            digits = []
            mm = m
            for _ in range(e):
                digits.append(mm % p)
                mm //= p
            cand = list(reversed(digits + [1]))
            assert not gf_irreducible_p(cand, p, ZZ)


def test_element_int_is_ring_homomorphism():
    for p, e in SMALL_FIELDS:
        f = make_field(p, e)
        assert f.element(0) == f.zero
        assert f.element(1) == f.one
        assert f.element(-1) == -f.one
        assert f.element(p) == f.zero
        assert f.element(7) == sum([f.one] * 7, f.zero)


def test_element_from_index_roundtrip():
    for p, e in SMALL_FIELDS:
        f = make_field(p, e)
        seen = set()
        for i in range(f.q):
            x = f.element_from_index(i)
            assert x.index == i
            seen.add(x)
        assert len(seen) == f.q
    with pytest.raises(ValueError):
        make_field(7).element_from_index(7)
    with pytest.raises(ValueError):
        make_field(7).element_from_index(-1)


def test_elements_enumeration_order():
    f = make_field(3, 2)
    elems = list(f.elements())
    assert elems[0] == f.zero
    assert elems[1] == f.one
    assert [x.coeffs for x in elems[:5]] == [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)]


def test_field_axioms_sampled():
    rng = random.Random(202)
    for p, e in [(7, 1), (3, 2), (5, 2), (3, 3)]:
        f = make_field(p, e)
        elems = list(f.elements())
        for _ in range(300):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a - b == a + (-b)
            assert a * f.one == a
            assert a + f.zero == a
            assert a * f.zero == f.zero


def test_negation_matches_subtraction_from_zero():
    # prime fields negate their one coefficient directly; extensions negate
    # every coefficient
    rng = random.Random(1048573)
    big = make_field(1048573, 1)
    samples = [list(make_field(p, e).elements()) for p, e in ((3, 1), (7, 1), (3, 2), (3, 3))]
    samples.append([big.element(rng.randrange(big.q)) for _ in range(200)])
    for elems in samples:
        for x in elems:
            zero = x.field.zero
            assert -x == zero - x
            assert x + (-x) == zero


def test_inverse_exhaustive():
    for p, e in [(7, 1), (3, 2), (5, 2), (3, 3)]:
        f = make_field(p, e)
        for x in f.nonzero_elements():
            assert x * x.inverse() == f.one
            assert x / x == f.one
            assert x ** (f.q - 1) == f.one  # Fermat
    with pytest.raises(ZeroDivisionError):
        make_field(7).zero.inverse()


def test_pow_negative_exponent():
    f = make_field(11)
    x = f.element(3)
    assert x**-2 == (x * x).inverse()
    assert x**0 == f.one


def test_extension_multiplication_hand_value():
    # F_9 = F_3[x]/(x^2 + 1), so x * x = -1 = 2
    f = make_field(3, 2)
    x = f.element((0, 1))
    assert x * x == f.element(2)
    assert str(x + f.one) == "x + 1"
    assert str(f.zero) == "0"


def test_cross_field_arithmetic_rejected():
    a = make_field(7).one
    b = make_field(11).one
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(TypeError):
        a + 1


def test_squares_by_exhaustive_enumeration():
    for p, e in SMALL_FIELDS:
        f = make_field(p, e)
        true_squares = {x * x for x in f.nonzero_elements()}
        assert len(true_squares) == (f.q - 1) // 2
        for x in f.nonzero_elements():
            assert is_square(x) == (x in true_squares)
            expected = SquareClass.ONE if x in true_squares else SquareClass.NONSQUARE
            assert square_class(x) is expected
    with pytest.raises(ValueError):
        is_square(make_field(7).zero)


def test_is_square_memo_independent_of_query_order():
    # each order runs on a fresh field object, so its memo starts empty; a
    # memo keyed by the constant coefficient alone would let the first
    # element queried decide for every element sharing that coefficient
    rng = random.Random(5)
    for p, e in [(3, 2), (5, 2), (3, 3)]:
        modulus = make_field(p, e).modulus
        reference = FiniteField(p, e, modulus)
        squares = {x * x for x in reference.nonzero_elements()}
        indices = list(range(1, reference.q))
        orders = [indices, indices[::-1]] + [rng.sample(indices, len(indices)) for _ in range(3)]
        for order in orders:
            field = FiniteField(p, e, modulus)
            for i in order:
                x = field.element_from_index(i)
                assert is_square(x) == (x in squares), (field, i)


def test_square_class_bits_on_cold_half_and_full_memo():
    # the bits agree with the exhaustive square set whether the memo is
    # absent, holds every other element, or holds them all, and zero raises
    rng = random.Random(11)
    for p, e in [(7, 1), (13, 1), (3, 2), (5, 2)]:
        field = FiniteField(p, e, make_field(p, e).modulus)
        squares = {x * x for x in field.nonzero_elements()}
        xs = list(field.nonzero_elements())
        xs = xs + rng.choices(xs, k=20)
        want = [0 if x in squares else 1 for x in xs]
        assert square_class_bits(xs) == want  # the memo starts absent
        field._squares = None
        for x in xs[::2]:
            is_square(x)
        assert square_class_bits(xs) == want
        assert square_class_bits(tuple(xs)) == want
        assert square_class_bits(()) == []
        with pytest.raises(ValueError, match="zero has no square class"):
            square_class_bits([field.one, field.zero])


def test_is_square_rejects_zero_with_memo_empty_and_full():
    # zero's memo slot, index 0, is never written: zero misses the memo and
    # raises on a fresh field and after every nonzero element is memoized
    for p, e in [(7, 1), (3, 2), (5, 2)]:
        field = FiniteField(p, e, make_field(p, e).modulus)
        with pytest.raises(ValueError, match="zero has no square class"):
            is_square(field.zero)
        assert field._squares is None or field._squares[0] == 0
        for x in field.nonzero_elements():
            is_square(x)
        assert all(field._squares[1:])
        with pytest.raises(ValueError, match="zero has no square class"):
            is_square(field.zero)
        assert field._squares[0] == 0


def test_square_root_against_enumerated_squares():
    # q = 17, 97, 257 make q - 1 divisible by 16, 32, 256, the deepest
    # Tonelli-Shanks loops; each query order runs on a fresh field object
    rng = random.Random(31)
    for p, e in [(3, 1), (5, 1), (7, 1), (3, 2), (13, 1), (17, 1), (5, 2), (3, 3), (3, 4), (97, 1), (257, 1)]:
        modulus = make_field(p, e).modulus
        reference = FiniteField(p, e, modulus)
        roots = {}
        for y in reference.elements():
            roots.setdefault(y * y, []).append(y)
        indices = list(range(1, reference.q))
        expected = None
        for order in [indices, indices[::-1], rng.sample(indices, len(indices))]:
            field = FiniteField(p, e, modulus)
            answers = {}
            for i in order:
                x = field.element_from_index(i)
                if x not in roots:
                    with pytest.raises(ValueError):
                        square_root(x)
                    continue
                r = square_root(x)
                assert r * r == x, (field, x)
                assert r in roots[x] and r.index <= (-r).index, (field, x, r)
                answers[i] = r
            assert len(answers) == (field.q - 1) // 2
            expected = expected or answers
            assert answers == expected, field
        assert square_root(reference.zero) == reference.zero


def test_squares_against_sympy_prime_fields():
    for p in [3, 5, 7, 11, 13, 17, 19, 23]:
        f = make_field(p)
        for a in range(1, p):
            assert is_square(f.element(a)) == is_quad_residue(a, p)


def test_frozen_square_sets():
    f7 = make_field(7)
    assert {x.index for x in f7.nonzero_elements() if is_square(x)} == {1, 2, 4}
    f5 = make_field(5)
    assert {x.index for x in f5.nonzero_elements() if is_square(x)} == {1, 4}
    f3 = make_field(3)
    assert {x.index for x in f3.nonzero_elements() if is_square(x)} == {1}


def test_canonical_nonsquare_frozen():
    assert canonical_nonsquare(make_field(3)).index == 2
    assert canonical_nonsquare(make_field(5)).index == 2
    assert canonical_nonsquare(make_field(7)).index == 3
    assert canonical_nonsquare(make_field(11)).index == 2
    assert canonical_nonsquare(make_field(3, 2)).index == 4  # x + 1
    assert canonical_nonsquare(make_field(5, 2)).index == 5  # x


def test_canonical_nonsquare_is_first_in_order():
    for p, e in SMALL_FIELDS:
        f = make_field(p, e)
        s = canonical_nonsquare(f)
        assert not is_square(s)
        for i in range(1, s.index):
            assert is_square(f.element_from_index(i))


def test_square_class_group():
    one, s = SquareClass.ONE, SquareClass.NONSQUARE
    assert one * one is one
    assert one * s is s
    assert s * one is s
    assert s * s is one
    assert str(s) == "s"
    assert SquareClass.from_string("1") is one
    assert SquareClass.from_string("s") is s
    with pytest.raises(ValueError):
        SquareClass.from_string("2")


def test_residue_class_mod4():
    # q = 1 mod 4 exactly when -1 is a square, found by squaring every element
    for (p, e), residue in [((5, 1), 1), ((3, 2), 1), ((13, 1), 1), ((3, 1), 3), ((7, 1), 3), ((3, 3), 3)]:
        f = make_field(p, e)
        assert f.q % 4 == residue
        assert any(x * x == f.element(-1) for x in f.elements()) == (residue == 1)


def test_minus_one_class_matches_fields():
    for p, e in SMALL_FIELDS:
        f = make_field(p, e)
        assert minus_one_class(f.q % 4) is square_class(f.element(-1))
    with pytest.raises(ValueError):
        minus_one_class(2)


def test_field_equality_and_repr():
    f = make_field(3, 2)
    g = FiniteField(3, 2, (1, 0, 1))
    assert f == g
    assert hash(f) == hash(g)
    assert f != make_field(3)
    assert repr(f) == "F_9"
    assert f.element((1, 1)) == g.element((1, 1))
    # equal but distinct objects, neither from make_field, still interoperate
    h = FiniteField(3, 2, (1, 0, 1))
    assert h is not g and h == g
    assert g.element((1, 1)) + h.element((2, 1)) == g.element((0, 2))
    assert h.element((0, 1)) * g.element((0, 1)) == h.element((2, 0))


def test_element_from_long_coefficient_sequence():
    # sequences longer than e are reduced mod the modulus
    f = make_field(3, 2)
    x = f.element((0, 1))
    assert f.element((0, 0, 1)) == x * x
    assert f.element((2, 1, 1)) == f.element(2) + x + x * x
