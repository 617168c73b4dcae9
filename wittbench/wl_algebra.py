"""Workload `algebra`: seeded class, word and group-ring queries; no field or
form work.

The curve, W(k) and group-ring layers do the work here, at r beyond what the
battery covers exhaustively.  A forms change should not move this workload.
The mix is weighted so that class arithmetic (words and class batches) and
group-ring work each take a large share of the timed phase, and the rare
presentation checks at r in {2, 3} form the slow tail.

Every answer is checked against `Ref`, a separate integer model of the class
arithmetic written from the curve tables, and group-ring answers also against
the homomorphism property of normal_form.
"""

from __future__ import annotations

import random

import wittcurve as wc
from common import Op

ONE, NS = wc.SquareClass.ONE, wc.SquareClass.NONSQUARE

# queries per round, per context (1 and 3)
WORDS = {4: 60, 8: 60, 16: 60}          # r -> words of 1..64 letters
BATCHES = {8: 50, 16: 50}               # r -> distinct batches of BATCH class ops,
BATCH = 500                             # each asked BATCH_REPEATS times per round
BATCH_REPEATS = 5
PRODUCTS = {3: 40, 4: 40, 5: 40, 6: 40}  # r -> (f*g, f+g, normal forms)
PRESENTATION = {2: 1, 3: 1}             # r -> verify_isomorphism and ideal_closure each

TAIL_PCT = 99.9


class Ref:
    """Class arithmetic on (parity, u bit, bundle code) triples.

    Written from the curve tables: odd+odd = even(sigma*u*v, LM), odd+even =
    odd(uv, LM), even+even = even(uv, LM); -odd(u) = odd(sigma*u); odd*odd =
    odd(uv, LM), odd*even = the even factor, even*even = 0.  Parity 1 is odd
    and a u bit of 1 is the nonsquare class.
    """

    ZERO = (0, 0, 0)

    def __init__(self, context: int):
        self.sigma = 0 if context == 1 else 1

    def add(self, a, b):
        if a[0] and b[0]:
            return (0, self.sigma ^ a[1] ^ b[1], a[2] ^ b[2])
        return (a[0] | b[0], a[1] ^ b[1], a[2] ^ b[2])

    def neg(self, a):
        return (1, self.sigma ^ a[1], a[2]) if a[0] else a

    def mul(self, a, b):
        if a[0] and b[0]:
            return (1, a[1] ^ b[1], a[2] ^ b[2])
        if a[0]:
            return b
        if b[0]:
            return a
        return Ref.ZERO

    def fold(self, letters):
        acc = Ref.ZERO
        for u, code in letters:
            acc = self.add(acc, (1, u, code))
        return acc

    def normal_form(self, elem) -> tuple:
        """Fold the rank-1 letters of each coefficient: <1>, <s>, and E as
        <1,s> (q = 1 mod 4) or <1,1> (q = 3 mod 4)."""
        letters = []
        for L, c in elem.terms():
            units = {"0": [], "1": [0], "s": [1], "e": [0, 1] if self.sigma == 0 else [0, 0]}[c.letter]
            letters += [(u, L.code) for u in units]
        return self.fold(letters)


def encode(c) -> tuple:
    return (1 if c.parity == "odd" else 0, 1 if c.u is NS else 0, c.L.code)


def _ok(cond: bool, what: str):
    return 1, ([] if cond else [what])


def _unexpected(exc):
    return 1, [f"raised {type(exc).__name__}: {exc}"]


def setup(seed: int, tracer, scale: int = 1):
    """One round of queries from `seed`; `scale` divides every count (tiny runs)."""
    rng = random.Random(seed)
    ops: list[Op] = []
    for context in (1, 3):
        ref = Ref(context)
        for r, n in WORDS.items():
            group = wc.Pic2Group(r)
            ops += [_word_op(rng, ref, context, group) for _ in range(max(1, n // scale))]
        for r, n in BATCHES.items():
            group = wc.Pic2Group(r)
            pool = [_random_class(rng, context, group) for _ in range(256)]
            for _ in range(max(1, n // scale)):
                ops += [_batch_op(rng, ref, pool)] * BATCH_REPEATS
        for r, n in PRODUCTS.items():
            group = wc.Pic2Group(r)
            ops += [_product_op(rng, ref, context, group) for _ in range(max(1, n // scale))]
        for r, n in PRESENTATION.items():
            if scale > 1 and r > 2:
                continue
            group = wc.Pic2Group(r)
            gens = wc.relation_generators(context, group)
            for _ in range(n):
                ops.append(_isomorphism_op(context, group))
                ops.append(_closure_op(context, group, gens))
    rng.shuffle(ops)
    return ops


def _letters(rng, r: int, n: int):
    return [(rng.randrange(2), rng.randrange(1 << r)) for _ in range(n)]


def _word_op(rng, ref: Ref, context: int, group) -> Op:
    letters = _letters(rng, group.r, rng.randint(1, 64))
    word = [(NS if u else ONE, group.element(code)) for u, code in letters]

    def call(tr):
        tr.count("curve.reduce_word.letters", len(word))
        return wc.reduce_word(word, context, group)

    def check(ans, exc):
        if exc is not None:
            return _unexpected(exc)
        parity = len(letters) % 2
        bundle = 0
        for _, code in letters:
            bundle ^= code
        got = encode(ans)
        ok = got[0] == parity and got[2] == bundle and got == ref.fold(letters)
        return _ok(ok, f"reduce_word of {len(letters)} letters at r = {group.r}: {ans!r}")

    return Op("curve.reduce_word", call, check)


def _random_class(rng, context: int, group):
    parity = rng.choice(("odd", "even"))
    return wc.WittClass(parity, rng.choice((ONE, NS)), group.element(rng.randrange(group.n)), context)


def _batch_op(rng, ref: Ref, pool) -> Op:
    items = [(rng.choice("+-*"), rng.choice(pool), rng.choice(pool)) for _ in range(BATCH)]

    def call(tr):
        tr.count("curve.class_ops", len(items))
        return [a + b if op == "+" else a - b if op == "-" else a * b for op, a, b in items]

    def check(ans, exc):
        if exc is not None:
            return _unexpected(exc)
        bad = 0
        for (op, a, b), got in zip(items, ans):
            x, y = encode(a), encode(b)
            want = ref.add(x, y) if op == "+" else ref.add(x, ref.neg(y)) if op == "-" else ref.mul(x, y)
            bad += encode(got) != want
        return _ok(len(ans) == len(items) and not bad, f"{bad} of {len(items)} class ops wrong")

    return Op("curve.class_ops", call, check)


def _random_element(rng, context: int, group):
    nonzero = wc.WittK.elements(context)[1:]
    support = rng.sample(range(group.n), rng.randint(1, group.n))
    return wc.GroupRingElement(context, group, [(group.element(L), rng.choice(nonzero)) for L in support])


def _product_op(rng, ref: Ref, context: int, group) -> Op:
    f, g = _random_element(rng, context, group), _random_element(rng, context, group)

    def call(tr):
        with tr.span("groupring.mul"):
            prod = f * g
        tr.count("groupring.mul.term_pairs", f.support_size() * g.support_size())
        with tr.span("groupring.add"):
            total = f + g
        with tr.span("groupring.normal_form"):
            nf_prod = wc.normal_form(prod)
        with tr.span("groupring.normal_form"):
            nf_sum = wc.normal_form(total)
        return prod, total, nf_prod, nf_sum

    def check(ans, exc):
        if exc is not None:
            return _unexpected(exc)
        prod, total, nf_prod, nf_sum = ans
        nf_f, nf_g = ref.normal_form(f), ref.normal_form(g)
        ok = (
            encode(nf_prod) == ref.normal_form(prod) == ref.mul(nf_f, nf_g)
            and encode(nf_sum) == ref.normal_form(total) == ref.add(nf_f, nf_g)
        )
        return _ok(ok, f"normal_form does not respect + and * at r = {group.r}: f = {f}, g = {g}")

    return Op(f"algebra.product.r{group.r}", call, check)


def _isomorphism_op(context: int, group) -> Op:
    def check(ans, exc):
        if exc is not None:
            return _unexpected(exc)
        bad = [name for name, passed, _ in ans if not passed]
        return _ok(bool(ans) and not bad, f"verify_isomorphism(r = {group.r}, q = {context} mod 4): {bad}")

    return Op("groupring.verify_isomorphism", lambda tr: wc.verify_isomorphism(context, group), check)


def _closure_op(context: int, group, gens) -> Op:
    # |W(F_q)[G]| / |classes| = 4^(2^r) / (4 * 2^r)
    want = 4 ** group.n // (4 * group.n)

    def call(tr):
        ideal = wc.ideal_closure(gens, context, group)
        tr.count("groupring.ideal_size", len(ideal))
        return ideal

    def check(ans, exc):
        if exc is not None:
            return _unexpected(exc)
        zero = wc.GroupRingElement.zero(context, group)
        return _ok(len(ans) == want and zero in ans, f"|ideal| = {len(ans)} at r = {group.r}, want {want}")

    return Op("groupring.ideal_closure", call, check)
