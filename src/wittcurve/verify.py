"""Verification suites: every claim the library makes, checked at desk scale.

Each check function covers one acceptance-grade property and returns a list
of CheckResult lines, one per field/context sub-case, with a counterexample
in the detail on failure.  run_all flattens the full battery; the CLI's
verify subcommand and the acceptance tests are both thin wrappers around
this module, so they cannot drift apart.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator

from .curve import WittClass, enumerate_classes, reduce_word, signed_discriminant_class
from .fields import SquareClass, canonical_nonsquare, make_field, minus_one_class, square_class
from .forms import (
    DiagonalForm,
    find_isotropic_vector,
    orthogonal_sum,
    tensor_product,
    witt_decompose,
    witt_equal,
    witt_invariants,
)
from .groupring import verify_isomorphism
from .pic2 import Pic2Group
from .wittk import WittK, verify_bullets

_ONE, _NS = SquareClass.ONE, SquareClass.NONSQUARE

BULLET_FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (5, 2), (3, 3)]
COUNT_FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1)]
ISOTROPY_PRIMES = [3, 5, 7, 11]
COMPLETENESS_FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1)]
TRIPLES_PER_DRAW = 1000
AXIOM_SEED = 2024


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}  ({self.detail})"


def base_ring_identities() -> list[CheckResult]:
    """The four defining identities of the base Witt ring, per sample field."""
    out = []
    for p, e in BULLET_FIELDS:
        field = make_field(p, e)
        report = verify_bullets(field)
        ok = all(passed for _, passed, _ in report)
        bad = [name for name, passed, _ in report if not passed]
        out.append(
            CheckResult(
                f"base ring identities over F_{field.q}",
                ok,
                "all four hold" if ok else f"failed: {', '.join(bad)}",
            )
        )
    return out


def base_ring_size() -> list[CheckResult]:
    """Anisotropic forms of rank <= 2 fall into exactly 4 classes."""
    out = []
    for p, e in COUNT_FIELDS:
        field = make_field(p, e)
        forms = [DiagonalForm(field, ())]
        forms += [DiagonalForm(field, (a,)) for a in field.nonzero_elements()]
        for a in field.nonzero_elements():
            for b in field.nonzero_elements():
                f = DiagonalForm(field, (a, b))
                if find_isotropic_vector(f) is None:
                    forms.append(f)
        reps: list[DiagonalForm] = []
        for f in forms:
            if not any(witt_equal(f, rep) for rep in reps):
                reps.append(f)
        out.append(
            CheckResult(
                f"class count over F_{field.q}",
                len(reps) == 4,
                f"{len(forms)} anisotropic forms, {len(reps)} classes",
            )
        )
    return out


def base_ring_additive_structure() -> list[CheckResult]:
    """Additive exponent 2 when q = 1 mod 4; <1> of order 4 when q = 3 mod 4."""
    out = []
    exp2 = all((a + a).is_zero() for a in WittK.elements(1))
    out.append(CheckResult("additive exponent 2 in the q = 1 context", exp2, "all four elements"))
    one = WittK.one(3)
    two, three, four = one + one, one + one + one, one + one + one + one
    order4 = (
        not two.is_zero()
        and two == WittK.even(3)
        and three == WittK.s(3)
        and four.is_zero()
    )
    out.append(
        CheckResult(
            "<1> has additive order 4 in the q = 3 context",
            order4,
            f"multiples: {one}, {two}, {three}, {four}",
        )
    )
    # concrete counterparts through forms
    f5 = make_field(5)
    doubled_ok = all(
        witt_decompose(orthogonal_sum(a.to_form(f5), a.to_form(f5)))[1].rank == 0
        for a in WittK.elements(1)
    )
    out.append(CheckResult("doubling vanishes over F_5", doubled_ok, "all four representatives"))
    f7 = make_field(7)
    ones = DiagonalForm(f7, (f7.one,) * 3)
    concrete_ok = witt_equal(ones, DiagonalForm(f7, (canonical_nonsquare(f7),)))
    concrete_ok = concrete_ok and witt_decompose(DiagonalForm(f7, (f7.one,) * 4))[1].rank == 0
    out.append(CheckResult("order-4 behavior over F_7", concrete_ok, "<1,1,1> = <s>, <1,1,1,1> = 0"))
    return out


def finite_field_isotropy() -> list[CheckResult]:
    """Rank 3 and 4 forms are isotropic; decomposition kernels are sound.

    A kernel has rank <= 2, is anisotropic and keeps the form's invariants.

    Entry tuples range over square-class representatives {1, s}, which is
    exhaustive because isotropy is invariant under scaling entries by
    squares.
    """
    out = []
    for p in ISOTROPY_PRIMES:
        field = make_field(p)
        units = (field.one, canonical_nonsquare(field))
        bad = None
        checked = 0
        for n in (3, 4):
            for tup in itertools.product(units, repeat=n):
                checked += 1
                if find_isotropic_vector(DiagonalForm(field, tup)) is None:
                    bad = tup
        out.append(
            CheckResult(
                f"rank 3 and 4 isotropy over F_{p}",
                bad is None,
                f"{checked} forms" if bad is None else f"anisotropic: {bad}",
            )
        )
        bad_kernel = None
        checked = 0
        for n in range(1, 5):
            for tup in itertools.product(units, repeat=n):
                checked += 1
                form = DiagonalForm(field, tup)
                _, kernel = witt_decompose(form)
                if (
                    kernel.rank > 2
                    or (kernel.rank and find_isotropic_vector(kernel) is not None)
                    or witt_invariants(kernel) != witt_invariants(form)
                ):
                    bad_kernel = tup
        out.append(
            CheckResult(
                f"kernel rank <= 2 over F_{p}",
                bad_kernel is None,
                f"{checked} forms" if bad_kernel is None else f"bad kernel for {bad_kernel}",
            )
        )
    return out


def field_invariant_completeness() -> list[CheckResult]:
    """witt_equal(f, g) iff equal rank parity and signed discriminant.

    Exhaustive for rank <= 4 in two stages that compose by transitivity:
    every form is equivalent (with equal invariants) to its square-class
    pattern, and all pattern pairs satisfy the biconditional directly.
    """
    out = []
    for p, e in COMPLETENESS_FIELDS:
        field = make_field(p, e)
        one, s = field.one, canonical_nonsquare(field)
        # each square-class pattern, keyed by its nonsquare bits, with its
        # invariants; built once per field, rank by rank in product order
        patterns = {}
        for n in range(5):
            for key in itertools.product((False, True), repeat=n):
                g = DiagonalForm(field, tuple(s if bit else one for bit in key))
                patterns[key] = (g, witt_invariants(g))

        bad = None
        total = 0
        nonzero = list(field.nonzero_elements())
        bits = [square_class(a) is _NS for a in nonzero]
        for n in range(5):
            # the two products run in step, so each key holds the bits of tup
            for tup, key in zip(
                itertools.product(nonzero, repeat=n), itertools.product(bits, repeat=n)
            ):
                total += 1
                f = DiagonalForm(field, tup)
                g, invariants = patterns[key]
                if witt_invariants(f) != invariants or not witt_equal(f, g):
                    bad = f
                    break
            if bad is not None:
                break
        out.append(
            CheckResult(
                f"forms match their square-class pattern over F_{field.q}",
                bad is None,
                f"{total} forms" if bad is None else f"counterexample: {bad!r}",
            )
        )

        bad_pair = None
        for f, f_invariants in patterns.values():
            for g, g_invariants in patterns.values():
                if witt_equal(f, g) != (f_invariants == g_invariants):
                    bad_pair = (f, g)
        out.append(
            CheckResult(
                f"pattern pairs satisfy the biconditional over F_{field.q}",
                bad_pair is None,
                f"{len(patterns)}^2 pairs"
                if bad_pair is None
                else f"counterexample: {bad_pair[0]!r} vs {bad_pair[1]!r}",
            )
        )
    return out


def curve_table_cells() -> list[CheckResult]:
    """Every cell of the two symbolic arithmetic tables, plus the four
    doubling identities, over all parameters with r <= 3 and both contexts."""
    out = []
    for context in (1, 3):
        sigma = minus_one_class(context)
        bad = None
        cells = 0
        for r in range(4):
            group = Pic2Group(r)
            O = group.identity
            odd_params = [(u, L) for u in (_ONE, _NS) for L in group]
            for (u, L), (v, M) in itertools.product(odd_params, repeat=2):
                a = WittClass.odd(u, L, context)
                b = WittClass.odd(v, M, context)
                e_b = WittClass.even(v, M, context)
                e_a = WittClass.even(u, L, context)
                checks = [
                    # multiplication cells
                    (b * a, WittClass.odd(u * v, L * M, context)),
                    (b * e_a, e_a),
                    (e_b * a, e_b),
                    (e_b * e_a, WittClass.zero(context, group)),
                    # addition cells
                    (b + a, WittClass.even(sigma * u * v, L * M, context)),
                    (b + e_a, WittClass.odd(v * u, M * L, context)),
                    (e_b + a, WittClass.odd(v * u, M * L, context)),
                    (e_b + e_a, WittClass.even(v * u, M * L, context)),
                ]
                cells += len(checks)
                for got, expected in checks:
                    if got != expected:
                        bad = (got, expected)
            # the four doubling identities on a single rank-1 class
            for u, L in odd_params:
                a = WittClass.odd(u, L, context)
                checks = [
                    (a + a, WittClass.even(sigma, O, context)),
                    (a + WittClass.odd(_NS * u, L, context), WittClass.even(sigma * _NS, O, context)),
                    (a * a, WittClass.one(context, group)),
                    (a * WittClass.odd(_NS * u, L, context), WittClass.odd(_NS, O, context)),
                ]
                cells += len(checks)
                for got, expected in checks:
                    if got != expected:
                        bad = (got, expected)
        out.append(
            CheckResult(
                f"table cells in the q = {context} context",
                bad is None,
                f"{cells} instantiated cells"
                if bad is None
                else f"got {bad[0]}, expected {bad[1]}",
            )
        )
    return out


def _axioms_hold(a: WittClass, b: WittClass, c: WittClass) -> bool:
    # all five axioms on every triple; the products and sums that two
    # axioms share are computed once
    ab, bc = a * b, b * c
    a_b, b_c = a + b, b + c
    return (
        a_b + c == a + b_c
        and a_b == b + a
        and ab * c == a * bc
        and ab == b * a
        and a * b_c == ab + a * c
    )


def _random_axiom_counterexample(
    context: int, r: int, n: int, rng: random.Random
) -> tuple[WittClass, WittClass, WittClass] | None:
    """The first of n random class triples at rank r that breaks a ring axiom.

    Each class is drawn uniformly from the 4·2^r classes of the context;
    returns None when all n triples pass.
    """
    classes = enumerate_classes(context, Pic2Group(r))
    for a, b, c in _random_triples(classes, n, rng):
        if not _axioms_hold(a, b, c):
            return a, b, c
    return None


def _random_triples(
    classes: list[WittClass], n: int, rng: random.Random
) -> Iterator[tuple[WittClass, WittClass, WittClass]]:
    """n uniform triples of classes, drawn TRIPLES_PER_DRAW at a time.

    choices without weights spends one random() per pick, so these are the
    triples of n calls of rng.choices(classes, k=3); the chunk bounds the
    picks held at once.
    """
    while n > 0:
        m = min(n, TRIPLES_PER_DRAW)
        picks = iter(rng.choices(classes, k=3 * m))
        yield from zip(picks, picks, picks)
        n -= m


def curve_ring_axioms() -> list[CheckResult]:
    """Commutative ring axioms: exhaustive r <= 2, randomized at r = 8."""
    out = []
    for context in (1, 3):
        bad = None
        triples = 0
        for r in range(3):
            classes = enumerate_classes(context, Pic2Group(r))
            for a, b, c in itertools.product(classes, repeat=3):
                triples += 1
                if not _axioms_hold(a, b, c):
                    bad = (a, b, c)
        out.append(
            CheckResult(
                f"exhaustive ring axioms, r <= 2, q = {context} context",
                bad is None,
                f"{triples} triples" if bad is None else f"counterexample: {bad}",
            )
        )

        n_random = 60000
        bad = _random_axiom_counterexample(context, 8, n_random, random.Random(AXIOM_SEED + context))
        out.append(
            CheckResult(
                f"randomized ring axioms, r = 8, q = {context} context",
                bad is None,
                f"{n_random} triples" if bad is None else f"counterexample: {bad}",
            )
        )
    return out


def curve_classification() -> list[CheckResult]:
    """Parity plus signed discriminant pair is injective; short words cover."""
    out = []
    for context in (1, 3):
        inj_ok = True
        detail = []
        for r in range(4):
            classes = enumerate_classes(context, Pic2Group(r))
            keys = {(c.parity, signed_discriminant_class(c)) for c in classes}
            if len(keys) != len(classes):
                inj_ok = False
            detail.append(f"r={r}: {len(keys)}/{len(classes)}")
        out.append(
            CheckResult(
                f"invariant pair injective, q = {context} context",
                inj_ok,
                "; ".join(detail),
            )
        )
        words_ok = True
        for r in range(4):
            group = Pic2Group(r)
            letters = [(u, L) for u in (_ONE, _NS) for L in group]
            reached = {reduce_word([], context, group)}
            reached |= {reduce_word([x], context, group) for x in letters}
            reached |= {
                reduce_word([x, y], context, group) for x in letters for y in letters
            }
            if reached != set(enumerate_classes(context, group)):
                words_ok = False
        out.append(
            CheckResult(
                f"words of length <= 2 reach every class, q = {context} context",
                words_ok,
                "r <= 3",
            )
        )
    return out


def presentation_isomorphism() -> list[CheckResult]:
    """The quotient presentation, exhaustive for r <= 2, cardinality at r = 3."""
    out = []
    for context in (1, 3):
        for r in range(4):
            report = verify_isomorphism(context, Pic2Group(r))
            for name, passed, detail in report:
                out.append(
                    CheckResult(f"r = {r}, q = {context} context: {name}", passed, detail)
                )
    return out


def rank_zero_degeneration() -> list[CheckResult]:
    """The r = 0 class ring is W(k): its tables agree with concrete forms.

    Each r = 0 class is read through its parity and twist u and built as a
    form over every sample field of its context, odd as <u> and even as
    <1, -u>; the four forms must have distinct invariants, and the sum and
    product tables must match orthogonal sum and tensor product.
    """
    out = []
    fields = [make_field(p, e) for p, e in BULLET_FIELDS]
    for context in (1, 3):
        classes = enumerate_classes(context, Pic2Group(0))
        ok = True
        bad = None
        for field in fields:
            if field.q % 4 != context:
                continue
            one, s = field.one, canonical_nonsquare(field)
            forms = {}
            for c in classes:
                u = one if c.u is _ONE else s
                forms[c] = DiagonalForm(field, (u,) if c.parity == "odd" else (one, -u))
            invariants = {c: witt_invariants(f) for c, f in forms.items()}
            if len(set(invariants.values())) != 4:
                ok = False
            for a, b in itertools.product(classes, repeat=2):
                fa, fb = forms[a], forms[b]
                if (
                    witt_invariants(orthogonal_sum(fa, fb)) != invariants[a + b]
                    or witt_invariants(tensor_product(fa, fb)) != invariants[a * b]
                ):
                    ok = False
                    bad = (a, b)
        out.append(
            CheckResult(
                f"r = 0 degeneration, q = {context} context",
                ok,
                "bijective and operation-preserving" if ok else f"counterexample: {bad}",
            )
        )
    return out


CRITERIA: list[tuple[str, object]] = [
    ("base ring identities", base_ring_identities),
    ("base ring has four classes", base_ring_size),
    ("additive structure split by q mod 4", base_ring_additive_structure),
    ("finite field isotropy", finite_field_isotropy),
    ("field invariant completeness", field_invariant_completeness),
    ("curve table cells", curve_table_cells),
    ("curve ring axioms", curve_ring_axioms),
    ("curve classification", curve_classification),
    ("presentation isomorphism", presentation_isomorphism),
    ("rank zero degeneration", rank_zero_degeneration),
]


def run_all() -> list[CheckResult]:
    results = []
    for _, fn in CRITERIA:
        results.extend(fn())
    return results
