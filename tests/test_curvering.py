"""Tests for canonical Witt class arithmetic on a curve.

The four-element base ring is the r = 0 class ring with the same code,
which the r = 0 tests pin; ring axioms are exhaustive at small rank and
randomized at large rank per the stated bounds.
"""

import copy
import itertools
import operator
import pickle
import random
import tracemalloc

import pytest

from wittcurve.curve import (
    INTERN_RANK,
    WittClass,
    enumerate_classes,
    reduce_word,
    signed_discriminant_class,
)
from wittcurve.fields import SquareClass, minus_one_class
from wittcurve.pic2 import Pic2Group, PicElement
from wittcurve.verify import (
    _axioms_hold,
    _random_axiom_counterexample,
    _random_triples,
    curve_ring_axioms,
    rank_zero_degeneration,
)
from wittcurve.wittk import WittK

ONE, NS = SquareClass.ONE, SquareClass.NONSQUARE


def test_construction_validation():
    g = Pic2Group(2)
    L = g.element("10")
    with pytest.raises(ValueError):
        WittClass("flat", ONE, L, 1)
    with pytest.raises(TypeError):
        WittClass("odd", "1", L, 1)
    with pytest.raises(TypeError):
        WittClass("odd", ONE, "10", 1)
    with pytest.raises(ValueError):
        WittClass("odd", ONE, L, 5)
    a = WittClass.odd(ONE, L, 1)
    for op in (operator.add, operator.mul, operator.sub):
        with pytest.raises(ValueError, match="mixed contexts: 1 vs 3"):
            op(a, WittClass.odd(ONE, L, 3))
        with pytest.raises(ValueError, match="mixed group ranks: 2 vs 3"):
            op(a, WittClass.one(1, Pic2Group(3)))
        with pytest.raises(TypeError, match="expected WittClass, got int"):
            op(a, 7)
        c = WittClass.one(1, Pic2Group(0))
        with pytest.raises(TypeError, match="expected WittClass, got WittK"):
            op(c, WittK.one(1))
        with pytest.raises(TypeError, match="expected WittK, got WittClass"):
            op(WittK.one(1), c)


def test_zero_and_one():
    for ctx in (1, 3):
        g = Pic2Group(2)
        zero, one = WittClass.zero(ctx, g), WittClass.one(ctx, g)
        assert zero.is_zero()
        assert zero == WittClass.even(ONE, g.identity, ctx)
        for c in enumerate_classes(ctx, g):
            assert c + zero == c
            assert zero + c == c
            assert one * c == c
            assert c * one == c
            assert zero * c == zero


def test_addition_table_entries():
    for ctx in (1, 3):
        sigma = minus_one_class(ctx)
        g = Pic2Group(2)
        O = g.identity
        for u in (ONE, NS):
            for L in g:
                a = WittClass.odd(u, L, ctx)
                # a rank-1 class doubled is the class of <1,1>
                assert a + a == WittClass.even(sigma, O, ctx)
                # twisting one copy by s gives the class of <1,s>
                assert a + WittClass.odd(NS * u, L, ctx) == WittClass.even(sigma * NS, O, ctx)
        v, w = g.element("01"), g.element("11")
        assert WittClass.odd(ONE, v, ctx) + WittClass.odd(NS, w, ctx) == WittClass.even(
            sigma * NS, g.element("10"), ctx
        )
        assert WittClass.odd(NS, v, ctx) + WittClass.even(NS, w, ctx) == WittClass.odd(
            ONE, g.element("10"), ctx
        )
        assert WittClass.even(ONE, v, ctx) + WittClass.even(NS, w, ctx) == WittClass.even(
            NS, g.element("10"), ctx
        )


def test_multiplication_table_entries():
    for ctx in (1, 3):
        g = Pic2Group(2)
        O = g.identity
        one = WittClass.one(ctx, g)
        for u in (ONE, NS):
            for L in g:
                a = WittClass.odd(u, L, ctx)
                assert a * a == one
                assert a * WittClass.odd(NS * u, L, ctx) == WittClass.odd(NS, O, ctx)
        v, w = g.element("01"), g.element("11")
        e = WittClass.even(NS, w, ctx)
        assert WittClass.odd(NS, v, ctx) * e == e
        assert e * WittClass.even(ONE, v, ctx) == WittClass.zero(ctx, g)


def test_negation():
    g = Pic2Group(2)
    for ctx in (1, 3):
        zero = WittClass.zero(ctx, g)
        assert -zero == zero
        for c in enumerate_classes(ctx, g):
            assert c + (-c) == zero
            assert -(-c) == c
            assert c - c == zero
            if c.parity == "even":
                assert -c == c
    L = g.element("10")
    assert -WittClass.odd(ONE, L, 3) == WittClass.odd(NS, L, 3)
    assert -WittClass.odd(ONE, L, 1) == WittClass.odd(ONE, L, 1)


def test_signed_discriminant_class():
    g = Pic2Group(2)
    O = g.identity
    L = g.element("01")
    for ctx in (1, 3):
        assert signed_discriminant_class(WittClass.zero(ctx, g)) == (ONE, O)
        for w in (ONE, NS):
            assert signed_discriminant_class(WittClass.even(w, L, ctx)) == (w, L)
    assert signed_discriminant_class(WittClass.odd(NS, L, 1)) == (NS, L)
    assert signed_discriminant_class(WittClass.odd(NS, L, 3)) == (ONE, L)


def test_invariant_pair_is_injective():
    for ctx in (1, 3):
        for r in range(4):
            classes = enumerate_classes(ctx, Pic2Group(r))
            keys = {(c.parity, signed_discriminant_class(c)) for c in classes}
            assert len(keys) == len(classes) == 4 * 2**r


def test_enumerate_classes_counts():
    for ctx in (1, 3):
        for r, total in [(0, 4), (1, 8), (2, 16)]:
            classes = enumerate_classes(ctx, Pic2Group(r))
            assert len(classes) == total
            assert len(set(classes)) == total
            assert sum(1 for c in classes if c.parity == "odd") == total // 2
    # equal codes in another context or at another rank are other classes
    c1 = enumerate_classes(1, Pic2Group(1))
    assert not any(a == b for a in c1 for b in enumerate_classes(3, Pic2Group(1)))
    assert not any(a == b for a in c1 for b in enumerate_classes(1, Pic2Group(2)))
    with pytest.raises(ValueError):
        enumerate_classes(1, Pic2Group(21))


def test_ring_axioms_exhaustive_small_rank():
    for ctx in (1, 3):
        for r in (0, 1, 2):
            classes = enumerate_classes(ctx, Pic2Group(r))
            for a, b, c in itertools.product(classes, repeat=3):
                assert (a + b) + c == a + (b + c)
                assert a + b == b + a
                assert (a * b) * c == a * (b * c)
                assert a * b == b * a
                assert a * (b + c) == a * b + a * c


def test_ring_axioms_randomized_large_rank():
    # criterion 7 draws its triples at r = 8; these ranks lie between it and
    # the exhaustive r <= 2
    rng = random.Random(271)
    for ctx in (1, 3):
        for r in (3, 5):
            assert _random_axiom_counterexample(ctx, r, 20000, rng) is None


def test_chunked_draws_are_the_triples_of_one_call_each():
    # criterion 7 draws many triples per rng.choices call; its triples must
    # be those of 60000 calls of rng.choices(classes, k=3) with its seeds
    for ctx in (1, 3):
        classes = enumerate_classes(ctx, Pic2Group(8))
        rng = random.Random(2024 + ctx)
        expected = [tuple(rng.choices(classes, k=3)) for _ in range(60000)]
        got = list(_random_triples(classes, 60000, random.Random(2024 + ctx)))
        assert got == expected


def test_randomized_axioms_catch_a_high_bit_defect(monkeypatch):
    # odd x odd returns its right operand when the left L has bit 7 set, so
    # a * b != b * a only at r = 8: the random draws must reach that bit and
    # the exhaustive r <= 2 lines must not see it
    mul = WittClass.__mul__

    def broken(self, other):
        if self.code & other.code & 1 and self.L.code >> 7 & 1:
            return other
        return mul(self, other)

    monkeypatch.setattr(WittClass, "__mul__", broken)
    # with three odd classes and bit 7 in the first L only, associativity and
    # distributivity still hold, so only the shared a * b sees the defect
    g = Pic2Group(8)
    a, b, c = (WittClass.odd(ONE, g.element(code), 1) for code in (128, 1, 2))
    assert not _axioms_hold(a, b, c)
    passed = {result.name: result.passed for result in curve_ring_axioms()}
    for ctx in (1, 3):
        assert not passed[f"randomized ring axioms, r = 8, q = {ctx} context"]
        assert passed[f"exhaustive ring axioms, r <= 2, q = {ctx} context"]


def test_odd_classes_are_units_and_evens_are_square_zero_ideal():
    for ctx in (1, 3):
        g = Pic2Group(3)
        one = WittClass.one(ctx, g)
        zero = WittClass.zero(ctx, g)
        classes = enumerate_classes(ctx, g)
        odds = [c for c in classes if c.parity == "odd"]
        evens = [c for c in classes if c.parity == "even"]
        for c in odds:
            assert c * c == one
        for x in evens:
            for y in evens:
                assert x * y == zero
                assert (x + y).parity == "even"


def test_r0_degeneration_is_base_ring():
    # the four r = 0 classes with their tables match the four-element ring
    g = Pic2Group(0)
    for ctx in (1, 3):

        def phi(c):
            if c.parity == "odd":
                return WittK.of_unit(c.u, ctx)
            return WittK.zero(ctx) if c.u is ONE else WittK.even(ctx)

        classes = enumerate_classes(ctx, g)
        assert len({phi(c) for c in classes}) == 4
        for a, b in itertools.product(classes, repeat=2):
            assert phi(a + b) == phi(a) + phi(b)
            assert phi(a * b) == phi(a) * phi(b)
        assert phi(WittClass.zero(ctx, g)).is_zero()
        # one encoding: the W(k) values carry the codes of the r = 0 classes
        O = g.identity
        for u in (ONE, NS):
            assert WittK.of_unit(u, ctx).code == WittClass.odd(u, O, ctx).code
        assert WittK.zero(ctx).code == WittClass.zero(ctx, g).code
        assert WittK.even(ctx).code == WittClass.even(NS, O, ctx).code
        # the named constructors return the one interned value of each code
        values = WittK.elements(ctx)
        assert values == (WittK.zero(ctx), WittK.one(ctx), WittK.s(ctx), WittK.even(ctx))
        for x in values:
            assert WittK.from_letter(x.letter, ctx) is x
            assert WittK.elements(ctx)[values.index(x)] is x
        for name in ("zero", "one", "s", "even"):
            assert getattr(WittK, name)(ctx) is getattr(WittK, name)(ctx)
        assert WittK.of_unit(ONE, ctx) is WittK.one(ctx)
        assert WittK.of_unit(NS, ctx) is WittK.s(ctx)
        # the public constructor reads (rank parity, signed discriminant)
        for rank_parity in (0, 1):
            for disc in (ONE, NS):
                x = WittK(rank_parity, disc, ctx)
                assert (x.rank_parity, x.disc) == (rank_parity, disc)
                assert x in values


def test_rank_zero_degeneration_catches_table_defects(monkeypatch):
    # criterion 10 reads the r = 0 tables against concrete forms, so a
    # defect in the class operators shows even though W(k) shares them
    mul, add = WittClass.__mul__, WittClass.__add__

    def odd_products_are_one(self, other):
        if self.code & other.code & 1:
            return WittClass.one(self.context, Pic2Group(self.r))
        return mul(self, other)

    monkeypatch.setattr(WittClass, "__mul__", odd_products_are_one)
    assert not any(result.passed for result in rank_zero_degeneration())
    monkeypatch.setattr(WittClass, "__mul__", mul)

    def sum_without_flip(self, other):
        if self.code & other.code & 1:
            return WittClass.even(self.u * other.u, self.L * other.L, self.context)
        return add(self, other)

    monkeypatch.setattr(WittClass, "__add__", sum_without_flip)
    passed = {result.name: result.passed for result in rank_zero_degeneration()}
    assert not passed["r = 0 degeneration, q = 3 context"]
    assert passed["r = 0 degeneration, q = 1 context"]


def test_reduce_word_basics():
    g = Pic2Group(2)
    for ctx in (1, 3):
        assert reduce_word([], ctx, g) == WittClass.zero(ctx, g)
        L = g.element("10")
        assert reduce_word([(NS, L)], ctx, g) == WittClass.odd(NS, L, ctx)
        word = [(ONE, g.element("10")), (NS, g.element("11")), (ONE, g.element("01"))]
        result = reduce_word(word, ctx, g)
        assert result.parity == "odd"
        assert result.L == g.element("00")
    with pytest.raises(ValueError):
        reduce_word([(ONE, Pic2Group(3).identity)], 1, g)


def test_reduce_word_parity_and_pic_part():
    rng = random.Random(41)
    for ctx in (1, 3):
        g = Pic2Group(3)
        for _ in range(200):
            n = rng.randrange(7)
            word = [(rng.choice((ONE, NS)), g.element(rng.randrange(g.n))) for _ in range(n)]
            result = reduce_word(word, ctx, g)
            assert (result.parity == "odd") == (n % 2 == 1)
            prod = g.identity
            for _, L in word:
                prod = prod * L
            assert result.L == prod


def test_reduce_word_order_independent():
    rng = random.Random(42)
    for ctx in (1, 3):
        g = Pic2Group(2)
        for _ in range(300):
            word = [
                (rng.choice((ONE, NS)), g.element(rng.randrange(g.n)))
                for _ in range(rng.randrange(6))
            ]
            shuffled = word[:]
            rng.shuffle(shuffled)
            assert reduce_word(word, ctx, g) == reduce_word(shuffled, ctx, g)


def test_every_class_is_a_short_word():
    for ctx in (1, 3):
        for r in (0, 1, 2):
            g = Pic2Group(r)
            letters = [(u, L) for u in (ONE, NS) for L in g]
            images = {reduce_word([], ctx, g)}
            images |= {reduce_word([a], ctx, g) for a in letters}
            images |= {reduce_word([a, b], ctx, g) for a in letters for b in letters}
            assert images == set(enumerate_classes(ctx, g))


def test_labels():
    g = Pic2Group(3)
    assert str(WittClass.zero(1, g)) == "0"
    assert str(WittClass.one(3, g)) == "<1>"
    assert str(WittClass.odd(NS, g.identity, 1)) == "<s>"
    assert str(WittClass.odd(ONE, g.element("101"), 1)) == "<1.101>"
    assert str(WittClass.odd(NS, g.element("101"), 1)) == "<s.101>"
    assert str(WittClass.even(NS, g.identity, 3)) == "<1,-s>"
    assert str(WittClass.even(ONE, g.element("011"), 3)) == "<1,-1.011>"
    assert str(WittClass.even(NS, g.element("011"), 3)) == "<1,-s.011>"
    assert str(WittClass.zero(1, Pic2Group(0))) == "0"
    # the r = 1 classes carry eight distinct labels
    g1 = Pic2Group(1)
    labels = {str(c) for c in enumerate_classes(1, g1)}
    assert len(labels) == 8


def test_json_roundtrip():
    for ctx in (1, 3):
        for r in (0, 1, 2):
            g = Pic2Group(r)
            for c in enumerate_classes(ctx, g):
                data = c.to_json()
                assert set(data) == {"parity", "u", "L"}
                assert WittClass.from_json(data, ctx, g) == c
    data = WittClass.odd(NS, Pic2Group(2).element("01"), 1).to_json()
    assert data == {"parity": "odd", "u": "s", "L": "01"}


# An independent model of the class arithmetic: a class is the triple
# (parity bit, u bit, L code), and each operation is transcribed case by
# case from the symbolic addition and multiplication tables of the curve
# ring, with sigma the u bit of -1 (set exactly when q = 3 mod 4).


def _model_add(a, b, ctx):
    sigma = 1 if ctx == 3 else 0
    (pa, ua, la), (pb, ub, lb) = a, b
    if pa and pb:
        return (0, sigma ^ ua ^ ub, la ^ lb)  # <u>L + <v>M = <1,-sigma uv>LM
    if pa or pb:
        return (1, ua ^ ub, la ^ lb)  # the odd class absorbs the even one
    return (0, ua ^ ub, la ^ lb)


def _model_neg(a, ctx):
    sigma = 1 if ctx == 3 else 0
    p, u, l = a
    return (1, sigma ^ u, l) if p else a


def _model_mul(a, b):
    (pa, ua, la), (pb, ub, lb) = a, b
    if pa and pb:
        return (1, ua ^ ub, la ^ lb)
    if pa:
        return b
    if pb:
        return a
    return (0, 0, 0)


def _model_str(a, r):
    p, u, l = a
    tag = "s" if u else "1"
    if l:
        tag = f"{tag}.{l:0{r}b}"
    if p:
        return f"<{tag}>"
    return "0" if (u, l) == (0, 0) else f"<1,-{tag}>"


def _model_json(a, r):
    p, u, l = a
    return {"parity": "odd" if p else "even", "u": "s" if u else "1", "L": f"{l:0{r}b}" if r else ""}


def _from_model(a, ctx, g):
    p, u, l = a
    return WittClass("odd" if p else "even", NS if u else ONE, g.element(l), ctx)


def _check_against_model(a, b, ctx, g):
    x, y = _from_model(a, ctx, g), _from_model(b, ctx, g)
    results = [
        (x + y, _model_add(a, b, ctx)),
        (x * y, _model_mul(a, b)),
        (-x, _model_neg(a, ctx)),
        (x - y, _model_add(a, _model_neg(b, ctx), ctx)),
    ]
    for got, want in results:
        assert got == _from_model(want, ctx, g)
        assert hash(got) == hash(_from_model(want, ctx, g))
        assert str(got) == _model_str(want, g.r)
        assert got.to_json() == _model_json(want, g.r)
    assert (x == y) == (a == b)


def test_packed_classes_match_model_exhaustive_small_rank():
    for ctx in (1, 3):
        for r in (0, 1, 2):
            g = Pic2Group(r)
            models = [(p, u, l) for p in (0, 1) for u in (0, 1) for l in range(g.n)]
            assert len({_from_model(a, ctx, g) for a in models}) == len(models)
            for a, b in itertools.product(models, repeat=2):
                _check_against_model(a, b, ctx, g)


def test_packed_classes_match_model_seeded_rank_16():
    rng = random.Random(1616)
    g = Pic2Group(16)
    for ctx in (1, 3):
        for _ in range(20000):
            a, b, c = ((rng.randrange(2), rng.randrange(2), rng.randrange(g.n)) for _ in range(3))
            _check_against_model(a, b, ctx, g)
            x, y, z = (_from_model(t, ctx, g) for t in (a, b, c))
            assert (x + y) * z == _from_model(_model_mul(_model_add(a, b, ctx), c), ctx, g)


def test_packed_fields_roundtrip_rank_20():
    rng = random.Random(2020)
    g = Pic2Group(20)
    codes = [0, 1, g.n - 1] + [rng.randrange(g.n) for _ in range(200)]
    for ctx in (1, 3):
        for l in codes:
            for parity in ("odd", "even"):
                for u in (ONE, NS):
                    c = WittClass(parity, u, g.element(l), ctx)
                    assert c.parity == parity
                    assert c.u is u
                    assert c.L == g.element(l) and c.L.rank == 20
                    assert c.r == 20 and c.context == ctx


def _random_model(rng, g):
    return (rng.randrange(2), rng.randrange(2), rng.randrange(g.n))


def test_packed_classes_match_model_across_the_intern_bound():
    # r = INTERN_RANK returns table entries, one rank up allocates; both
    # must agree with the model
    rng = random.Random(1011)
    for r in (INTERN_RANK, INTERN_RANK + 1):
        g = Pic2Group(r)
        for ctx in (1, 3):
            for _ in range(2000):
                _check_against_model(_random_model(rng, g), _random_model(rng, g), ctx, g)


def test_results_are_interned_up_to_the_intern_bound():
    rng = random.Random(1012)
    for r, interned in ((0, True), (2, True), (INTERN_RANK, True), (INTERN_RANK + 1, False)):
        g = Pic2Group(r)
        for ctx in (1, 3):
            for _ in range(200):
                x, y = (_from_model(_random_model(rng, g), ctx, g) for _ in range(2))
                assert ((x + y) is (x + y)) == interned
                assert (x + y) == (x + y)
                if x.parity == y.parity == "odd":
                    assert ((x * y) is (x * y)) == interned


def test_bundles_are_interned_up_to_the_intern_bound():
    # L reads the ring's bundle table up to the bound and allocates above
    # it; copies and pickles share the ring, so they share the table
    for r, interned in ((0, True), (INTERN_RANK, True), (INTERN_RANK + 1, False)):
        g = Pic2Group(r)
        for ctx in (1, 3):
            for c in (WittClass.odd(NS, g.element(g.n - 1), ctx), WittClass.zero(ctx, g)):
                assert (c.L is c.L) == interned and c.L == c.L
                for y in (copy.deepcopy(c), pickle.loads(pickle.dumps(c)), copy.copy(c)):
                    assert y == c and y.L == c.L
                    assert (y.L is c.L) == interned


def test_bundles_above_the_intern_bound_match_the_class_code():
    # above the bound L is built unchecked from the class code
    for r in (INTERN_RANK + 1, 20):
        g = Pic2Group(r)
        for ctx in (1, 3):
            for c in (
                WittClass.odd(NS, g.element(g.n - 1), ctx),
                WittClass.even(ONE, g.element(5), ctx),
                WittClass.zero(ctx, g),
            ):
                L = c.L
                assert type(L) is PicElement
                assert L == PicElement(r, c.code >> 2)
                assert (L.rank, L.code) == (r, c.code >> 2)


def test_classes_above_the_intern_bound_allocate_without_a_table():
    # a table at r = 20 would hold 4 * 2^20 classes; building classes and
    # running 1000 operators must stay far below that
    rng = random.Random(2021)
    g = Pic2Group(20)
    tracemalloc.start()
    try:
        pools = {
            ctx: [_from_model(_random_model(rng, g), ctx, g) for _ in range(50)] for ctx in (1, 3)
        }
        ops = (operator.add, operator.mul, operator.sub)
        results = [
            rng.choice(ops)(*rng.choices(pools[ctx], k=2)) for ctx in (1, 3) for _ in range(500)
        ]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(results) == 1000
    assert peak < 1 << 20
    assert all(c.ring.classes is None for pool in pools.values() for c in pool)


def test_copies_equal_and_combine_with_their_originals():
    # classes on each side of the intern bound, and every W(k) value
    rng = random.Random(216)
    values = []
    for ctx in (1, 3):
        values += WittK.elements(ctx)
        values += enumerate_classes(ctx, Pic2Group(2))
        g = Pic2Group(16)
        pool = [_from_model(_random_model(rng, g), ctx, g) for _ in range(8)]
        values += pool + [a + b for a in pool for b in pool]
    for x in values:
        for y in (copy.deepcopy(x), pickle.loads(pickle.dumps(x)), copy.copy(x)):
            assert y == x and x == y
            assert hash(y) == hash(x)
            assert x + y == y + x == x + x
            assert x * y == y * x == x * x
