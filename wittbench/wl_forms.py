"""Workload `forms`: a seeded stream of bilinear-form questions, warm.

All the work is in the fields, forms and scan layers (and the W(k) map of a
concrete form), at q where the Euler power and the isotropy scan cost
something; none of it is curve or group-ring work.

Every question is asked only where the library accepts it at this version:
the scan guard q^rank <= 10^7, and q <= 215 for any question that may split
a rank-3 subform (witt_decompose and witt_equal of total rank >= 3).  Larger
q with a rank-3 split fails today and is left out until the scan bounds the
work it does rather than the space.

A round holds the same number of questions of each kind for every field, so
seeds change the entries but not the mix.
"""

from __future__ import annotations

import random

from common import Op

import wittcurve as wc

MAX_SEARCH = 10**7
SPLIT_Q_LIMIT = 215

# (p, e): primes and extensions, both residues of q mod 4, q from 3 to ~3000
FIELDS = [
    (3, 1), (5, 1), (7, 1), (11, 1), (13, 1),
    (101, 1), (103, 1), (197, 1), (211, 1),
    (1019, 1), (1021, 1), (2999, 1), (3001, 1),
    (3, 2), (5, 2), (3, 3), (7, 2), (5, 3),
    (3, 5), (7, 3), (3, 6), (11, 3),
]

QUESTION_SETS = 12  # question sets per field, so the entries a seed draws average out
TAIL_PCT = 95.0


class Field:
    """A field with what the questions and the oracles need from it."""

    def __init__(self, field: "wc.FiniteField"):
        self.field = field
        self.q = field.q
        self._squares = None  # nonzero squares, built when an oracle first needs them

    def squares(self) -> set:
        if self._squares is None:
            self._squares = {x * x for x in self.field.nonzero_elements()}
        return self._squares

    def max_scan_rank(self) -> int:
        n = 1
        while n < 4 and self.q ** (n + 1) <= MAX_SEARCH:
            n += 1
        return n

    def max_split_rank(self) -> int:
        return 6 if self.q <= SPLIT_Q_LIMIT else 2


def warm(field: "wc.FiniteField", tracer) -> None:
    """Fill the field's lazy tables through public calls, as a caller would."""
    with tracer.span("fields.canonical_nonsquare"):
        wc.canonical_nonsquare(field)
    if hasattr(field, "op_tables"):  # dense tables may give way to another scan
        with tracer.span("fields.op_tables"):
            tables = field.op_tables()
        tracer.count("fields.op_tables.bytes", sum(t.nbytes for t in tables))
    one = field.one
    wc.find_isotropic_vector(wc.DiagonalForm(field, (one, one)))


def setup(seed: int, tracer, fields=FIELDS):
    """Build and warm every field, then one round of questions from `seed`."""
    rng = random.Random(seed)
    warmed = []
    for p, e in fields:
        with tracer.span("fields.make_field"):
            f = wc.make_field(p, e)
        warm(f, tracer)
        warmed.append(Field(f))
    ops = []
    for F in warmed:
        for _ in range(QUESTION_SETS):
            ops += _questions(rng, F)
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------- inputs

def _unit(rng, F: Field):
    return F.field.element_from_index(rng.randrange(1, F.q))


def _elem(rng, F: Field):
    return F.field.element_from_index(rng.randrange(F.q))


def _diag(rng, F: Field, n: int):
    return wc.DiagonalForm(F.field, tuple(_unit(rng, F) for _ in range(n)))


def _matmul(a, b, zero):
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), zero) for j in range(n)] for i in range(n)]


def _transpose(a):
    return [list(row) for row in zip(*a)]


def _gram(rng, F: Field, n: int, radical: int):
    """A symmetric n x n Gram matrix of known radical dimension.

    B is block diagonal: `radical` zeros, sometimes a hyperbolic block
    [[0, c], [c, 0]], the rest units.  P is a permutation (which keeps the
    zero diagonal the pivot rule must handle) or a product of unit
    triangular matrices; either way det P != 0, so P^T B P has radical
    dimension `radical`.
    """
    field = F.field
    zero, one = field.zero, field.one
    b = [[zero] * n for _ in range(n)]
    i = radical
    if n - i >= 2 and rng.random() < 0.4:
        c = _unit(rng, F)
        b[i][i + 1] = b[i + 1][i] = c
        i += 2
    for k in range(i, n):
        b[k][k] = _unit(rng, F)
    if rng.random() < 0.3:
        perm = list(range(n))
        rng.shuffle(perm)
        p = [[one if perm[r] == c else zero for c in range(n)] for r in range(n)]
    else:
        lower = [[one if r == c else (_elem(rng, F) if r > c else zero) for c in range(n)] for r in range(n)]
        upper = [[one if r == c else (_elem(rng, F) if r < c else zero) for c in range(n)] for r in range(n)]
        p = _matmul(lower, upper, zero)
    g = _matmul(_matmul(_transpose(p), b, zero), p, zero)
    return wc.GramForm(field, g)


def _witt_twin(rng, F: Field, f, max_rank: int):
    """A form Witt-equivalent to f: entries scaled by squares, shuffled, and a
    hyperbolic pair <c, -c> added when the rank allows."""
    entries = []
    for a in f.entries:
        x = _unit(rng, F)
        entries.append(a * x * x)
    if len(entries) + 2 <= max_rank and rng.random() < 0.5:
        c = _unit(rng, F)
        entries += [c, -c]
    rng.shuffle(entries)
    return wc.DiagonalForm(F.field, tuple(entries))


# ---------------------------------------------------------------- oracles

def _ok(cond: bool, what: str) -> tuple[int, list[str]]:
    return 1, ([] if cond else [what])


def _unexpected(exc) -> tuple[int, list[str]]:
    return 1, [f"raised {type(exc).__name__}: {exc}"]


def _signed_disc_is_square(F: Field, entries) -> bool:
    n = len(entries)
    prod = F.field.one
    for a in entries:
        prod = prod * a
    if (n * (n + 1) // 2) % 2:
        prod = -prod
    return n == 0 or prod in F.squares()


def _value(entries, v, zero):
    total = zero
    for a, x in zip(entries, v):
        total = total + a * x * x
    return total


def _scan_position(F: Field, v) -> int:
    """1-based position of v in the documented scan order of find_isotropic_vector."""
    n = len(v)
    lead = next(i for i in range(n) if v[i])
    pos = sum(F.q ** (n - 1 - k) for k in range(lead + 1, n))
    tail = 0
    for x in v[lead + 1:]:
        tail = tail * F.q + x.index
    return pos + tail + 1


def _remembering(check):
    """The oracle, skipped when a repeated question returns the answer it passed.

    Rounds repeat the same questions; equality with an answer the oracle
    already passed proves the repeat right and costs far less than the oracle.
    """
    passed = []

    def remembering(ans, exc):
        if exc is None and passed and ans == passed[0]:
            return 1, []
        n, bad = check(ans, exc)
        if exc is None and not bad:
            passed[:] = [ans]
        return n, bad

    return remembering


# ---------------------------------------------------------------- questions

def _questions(rng, F: Field) -> list[Op]:
    field = F.field
    ops: list[Op] = []

    for _ in range(4):
        x = _unit(rng, F)

        def check(ans, exc, x=x):
            if exc is not None:
                return _unexpected(exc)
            want = wc.SquareClass.ONE if x in F.squares() else wc.SquareClass.NONSQUARE
            return _ok(ans is want, f"square_class({x}) = {ans} over F_{F.q}")

        ops.append(Op("fields.square_class", lambda tr, x=x: wc.square_class(x), _remembering(check)))

    for n in range(1, 5):
        f = _diag(rng, F, n)

        def check_concrete(ans, exc, f=f):
            if exc is not None:
                return _unexpected(exc)
            sq = _signed_disc_is_square(F, f.entries)
            ok = ans.rank_parity == f.rank % 2 and (ans.disc is wc.SquareClass.ONE) == sq
            ok = ok and ans.context == F.q % 4
            return _ok(ok, f"from_concrete_form({f!r}) = {ans!r}")

        ops.append(Op("wittk.from_concrete_form", lambda tr, f=f: wc.from_concrete_form(f),
                      _remembering(check_concrete)))

        g = _diag(rng, F, n)

        def check_invariants(ans, exc, g=g):
            if exc is not None:
                return _unexpected(exc)
            sq = _signed_disc_is_square(F, g.entries)
            ok = ans.rank_parity == g.rank % 2 and (ans.signed_disc is wc.SquareClass.ONE) == sq
            return _ok(ok, f"witt_invariants({g!r}) = {ans}")

        ops.append(Op("forms.witt_invariants", lambda tr, g=g: wc.witt_invariants(g),
                      _remembering(check_invariants)))

    for n, radical in ((2, 0), (3, 0), (4, 0), (5, 0), (4, 2)):
        gram = _gram(rng, F, n, radical)

        def check_diag(ans, exc, gram=gram, radical=radical):
            if radical:
                ok = isinstance(exc, wc.DegenerateFormError) and exc.radical_dim == radical
                return _ok(ok, f"diagonalize {gram!r}: expected radical {radical}, got {exc or ans}")
            if exc is not None:
                return _unexpected(exc)
            diag, t = ans
            m = _matmul(_matmul(_transpose(t), gram.matrix, field.zero), t, field.zero)
            size = gram.rank
            want = [[diag.entries[i] if i == j else field.zero for j in range(size)] for i in range(size)]
            return _ok(diag.rank == gram.rank and m == want, f"T^T g T != diagonal for {gram!r}")

        ops.append(Op("forms.diagonalize", _diagonalize_call(gram), _remembering(check_diag)))

    for n in range(1, F.max_scan_rank() + 1):
        f = _diag(rng, F, n)

        def check_iso(ans, exc, f=f):
            if exc is not None:
                return _unexpected(exc)
            if ans is None:
                # only rank 1 and anisotropic planes <a, b> (-ab a nonsquare) have none
                aniso = f.rank == 1 or (f.rank == 2 and -(f.entries[0] * f.entries[1]) not in F.squares())
                return _ok(aniso, f"find_isotropic_vector({f!r}) = None")
            ok = len(ans) == f.rank and any(ans) and not _value(f.entries, ans, field.zero)
            return _ok(ok, f"find_isotropic_vector({f!r}) = {ans} is not isotropic")

        ops.append(Op("forms.find_isotropic", _scan_call(F, f), _remembering(check_iso)))

    for n in range(1, F.max_split_rank() + 1):
        f = _diag(rng, F, n)

        def check_decompose(ans, exc, f=f):
            if exc is not None:
                return _unexpected(exc)
            h, kernel = ans
            ok = 2 * h + kernel.rank == f.rank and kernel.rank <= 2
            if kernel.rank == 2:
                ok = ok and -(kernel.entries[0] * kernel.entries[1]) not in F.squares()
            ok = ok and _signed_disc_is_square(F, kernel.entries) == _signed_disc_is_square(F, f.entries)
            return _ok(ok, f"witt_decompose({f!r}) = {h}, {kernel!r}")

        ops.append(Op("forms.witt_decompose", _decompose_call(f), _remembering(check_decompose)))

    pairs = [(1, 1)] + ([(2, 2), (1, 3), (3, 3)] if F.q <= SPLIT_Q_LIMIT else [])
    for a, b in pairs:
        f = _diag(rng, F, a)
        g = _witt_twin(rng, F, f, F.max_split_rank() - a) if rng.random() < 0.5 else _diag(rng, F, b)

        def check_equal(ans, exc, f=f, g=g):
            if exc is not None:
                return _unexpected(exc)
            want = wc.witt_invariants(f) == wc.witt_invariants(g)
            return _ok(ans == want, f"witt_equal({f!r}, {g!r}) = {ans}")

        ops.append(Op("forms.witt_equal", lambda tr, f=f, g=g: wc.witt_equal(f, g), _remembering(check_equal)))
    return ops


def _scan_call(F: Field, f):
    def call(tr):
        v = wc.find_isotropic_vector(f)
        if tr.enabled:
            tr.count("forms.find_isotropic.hits", v is not None)
            full = sum(F.q**m for m in range(f.rank))
            tr.count("forms.find_isotropic.vectors_scanned", full if v is None else _scan_position(F, v))
        return v

    return call


def _diagonalize_call(gram):
    def call(tr):
        try:
            return wc.diagonalize_with_basis(gram)
        except wc.DegenerateFormError:
            tr.count("forms.diagonalize.degenerate")
            raise

    return call


def _decompose_call(f):
    def call(tr):
        ans = wc.witt_decompose(f)
        tr.count("forms.hyperbolic_planes", ans[0])
        return ans

    return call
