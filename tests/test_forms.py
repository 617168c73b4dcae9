"""Tests for diagonalization, invariants, isotropy, and Witt decomposition.

Hand-derived values are frozen with their derivations noted; structural
claims are checked by independent in-test oracles (exact Gaussian
elimination for ranks, exhaustive vector scans for isotropy, the explicit
change-of-basis search for isometry).
"""

import itertools
import random

import pytest

import wittcurve.forms as forms
from wittcurve.fields import FieldElement, SquareClass, canonical_nonsquare, is_square, make_field, square_class
from wittcurve.forms import (
    DegenerateFormError,
    DiagonalForm,
    GramForm,
    WittInvariants,
    determinant_class,
    diagonalize,
    diagonalize_with_basis,
    find_isotropic_vector,
    hyperbolic_plane,
    isometric_by_invariants,
    orthogonal_sum,
    signed_discriminant,
    tensor_product,
    witt_decompose,
    witt_equal,
    witt_invariants,
)

ONE, NS = SquareClass.ONE, SquareClass.NONSQUARE


def df(field, *ints):
    return DiagonalForm(field, tuple(field.element(i) for i in ints))


def gram(field, rows):
    return GramForm(field, [[field.element(x) for x in row] for row in rows])


def _matrix_rank(field, rows):
    """Row-reduction rank oracle, independent of the diagonalization code."""
    m = [list(r) for r in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        hit = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if hit is None:
            continue
        m[rank], m[hit] = m[hit], m[rank]
        inv = m[rank][c].inverse()
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                coef = m[i][c]
                m[i] = [x - coef * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def _mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    zero = a[0][0].field.zero
    out = [[zero for _ in range(m)] for _ in range(n)]
    for i in range(n):
        for j in range(m):
            acc = zero
            for t in range(k):
                acc = acc + a[i][t] * b[t][j]
            out[i][j] = acc
    return out


def _transpose(a):
    return [list(col) for col in zip(*a)]


def test_construction_validation():
    f5 = make_field(5)
    with pytest.raises(ValueError):
        DiagonalForm(f5, (f5.zero,))
    with pytest.raises(ValueError):
        DiagonalForm(f5, (make_field(7).one,))
    with pytest.raises(ValueError):
        gram(f5, [[1, 2], [3, 4]])  # not symmetric
    with pytest.raises(ValueError):
        GramForm(f5, [[f5.one, f5.one]])  # not square
    assert df(f5).rank == 0
    assert gram(f5, []).rank == 0


def test_diagonalize_identity():
    f5 = make_field(5)
    assert diagonalize(gram(f5, [[1, 0], [0, 1]])) == df(f5, 1, 1)


def test_diagonalize_antidiagonal_hand_value():
    # pivot rule by hand over F_7: zero diagonal, add basis 1 to basis 0
    # giving m00 = 2, then clear with c = -1/2 = 3; result <2,3>, and the
    # determinant class stays class(-1) = NonSquare mod 7
    f7 = make_field(7)
    d = diagonalize(gram(f7, [[0, 1], [1, 0]]))
    assert d == df(f7, 2, 3)
    assert determinant_class(d) is square_class(f7.element(-1))


def test_diagonalize_degenerate():
    f5 = make_field(5)
    with pytest.raises(DegenerateFormError) as err:
        diagonalize(gram(f5, [[0, 0], [0, 0]]))
    assert err.value.radical_dim == 2
    assert "2" in str(err.value)
    with pytest.raises(DegenerateFormError) as err:
        diagonalize(gram(f5, [[1, 0], [0, 0]]))
    assert err.value.radical_dim == 1
    with pytest.raises(DegenerateFormError) as err:
        diagonalize(gram(f5, [[1, 2], [2, 4]]))  # rank 1
    assert err.value.radical_dim == 1


def test_diagonalize_basis_identity_randomized():
    rng = random.Random(31)
    for p, e in [(3, 1), (5, 1), (7, 1), (3, 2)]:
        field = make_field(p, e)
        elems = list(field.elements())
        for n in range(0, 5):
            for _ in range(20):
                m = [[field.zero] * n for _ in range(n)]
                for i in range(n):
                    m[i][i] = rng.choice(elems)
                    for j in range(i):
                        m[i][j] = m[j][i] = rng.choice(elems)
                g = GramForm(field, m)
                try:
                    d, t = diagonalize_with_basis(g)
                except DegenerateFormError as err:
                    assert err.radical_dim == n - _matrix_rank(field, m)
                    continue
                assert _matrix_rank(field, m) == n
                if n == 0:
                    assert d.rank == 0
                    continue
                product = _mat_mul(_transpose([list(r) for r in t]), _mat_mul([list(r) for r in g.matrix], [list(r) for r in t]))
                for i in range(n):
                    for j in range(n):
                        expected = d.entries[i] if i == j else field.zero
                        assert product[i][j] == expected


def test_determinant_class():
    f5, f7 = make_field(5), make_field(7)
    assert determinant_class(df(f5, 1, 4)) is ONE  # product 4 = 2^2
    assert determinant_class(df(f7, 3)) is NS  # 3 is a non-residue mod 7
    assert determinant_class(df(f5)) is ONE


def test_signed_discriminant():
    f5, f7 = make_field(5), make_field(7)
    # rank 1: exponent 1, so class(-a)
    for a in range(1, 5):
        assert signed_discriminant(df(f5, a)) is square_class(f5.element(-a))
    assert signed_discriminant(df(f7, 1, 1)) is NS  # class(-1) mod 7
    assert signed_discriminant(df(f5)) is ONE
    # sign exponent n(n+1)/2 mod 2 cycles 1,1,0,0
    f13 = make_field(13)
    for n, flip in [(1, True), (2, True), (3, False), (4, False), (5, True), (6, True)]:
        form = df(f13, *([1] * n))
        expected = square_class(f13.element(-1)) if flip else ONE
        assert signed_discriminant(form) is expected


def test_witt_invariants_value():
    f7 = make_field(7)
    inv = witt_invariants(df(f7, 1, 1, 1))
    assert inv == WittInvariants(1, ONE)  # exponent 6 even, det 1


def test_witt_invariants_is_an_immutable_value():
    inv = WittInvariants(1, ONE)
    assert inv == WittInvariants(1, ONE) and inv != WittInvariants(1, NS)
    assert hash(inv) == hash(WittInvariants(1, ONE))
    assert repr(inv) == "WittInvariants(rank_parity=1, signed_disc=<SquareClass.ONE: '1'>)"
    with pytest.raises(AttributeError):
        inv.rank_parity = 0


def test_orthogonal_sum_and_tensor():
    f5 = make_field(5)
    assert orthogonal_sum(df(f5, 1), df(f5, 2)) == df(f5, 1, 2)
    assert tensor_product(df(f5, 2), df(f5, 3)) == df(f5, 1)  # 6 mod 5
    assert tensor_product(df(f5, 2, 3), df(f5, 2)) == df(f5, 4, 1)
    assert tensor_product(df(f5), df(f5, 1)) == df(f5)
    with pytest.raises(ValueError):
        orthogonal_sum(df(f5, 1), df(make_field(7), 1))


def test_find_isotropic_hyperbolic_plane():
    for p in [3, 5, 7, 11]:
        field = make_field(p)
        v = find_isotropic_vector(hyperbolic_plane(field))
        assert v == (field.one, field.one)


def test_find_isotropic_anisotropic_cases():
    f5 = make_field(5)
    assert find_isotropic_vector(df(f5, 1)) is None
    assert find_isotropic_vector(df(f5)) is None
    assert find_isotropic_vector(df(f5, 1, 2)) is None  # -2 is a non-residue mod 5


def test_rank_two_isotropy_matches_square_test():
    # <a,b> is isotropic iff -ab is a square
    for p in [3, 5, 7, 11]:
        field = make_field(p)
        for a in range(1, p):
            for b in range(1, p):
                form = df(field, a, b)
                v = find_isotropic_vector(form)
                expected = square_class(field.element(-a * b)) is ONE
                assert (v is not None) == expected


def test_find_isotropic_rank3_always_succeeds():
    for p, e in [(3, 1), (5, 1), (7, 1), (11, 1), (3, 2)]:
        field = make_field(p, e)
        nonzero = list(field.nonzero_elements())
        rng = random.Random(5)
        for _ in range(25):
            entries = tuple(rng.choice(nonzero) for _ in range(3))
            v = find_isotropic_vector(DiagonalForm(field, entries))
            assert v is not None


def test_find_isotropic_scan_order_is_lex():
    # the returned vector is the first isotropic one in plain lex order
    f7 = make_field(7)
    for entries in [(1, 1, 1), (1, 2, 3), (2, 5, 6), (1, 1, 1, 1)]:
        form = df(f7, *entries)
        got = find_isotropic_vector(form)
        brute = None
        for tup in itertools.product(range(7), repeat=len(entries)):
            if not any(tup):
                continue
            v = tuple(f7.element_from_index(i) for i in tup)
            if form.value(v) == f7.zero:
                brute = v
                break
        assert got == brute


def _scan_order(q, n):
    """Index vectors in the documented scan order, one per projective point."""
    for lead in range(n - 1, -1, -1):
        for tail in itertools.product(range(q), repeat=n - 1 - lead):
            yield (0,) * lead + (1,) + tail


def test_find_isotropic_scan_position():
    # the scan tries prefixes, one square test each, not q^rank scan
    # positions: rank 9 over F_7 has its answer at position 26 in scan
    # order, solved by the fourth prefix, (.., 1, d, x) with d = 2, after
    # (.., 1, x) and d = 0, 1
    f7 = make_field(7)
    form = df(f7, *([1] * 9))
    v = find_isotropic_vector(form)
    assert form.value(v) == f7.zero
    indices = tuple(x.index for x in v)
    position = next(i for i, w in enumerate(_scan_order(7, 9), 1) if w == indices)
    assert position == 26
    # an anisotropic search tries every prefix, which at rank 2 is one
    assert find_isotropic_vector(df(f7, 1, 1)) is None


def test_find_isotropic_large_field_python_path():
    # q = 4099 exceeds TABLE_LIMIT, so the scan builds its elements on demand
    field = make_field(4099)
    v = find_isotropic_vector(hyperbolic_plane(field))
    assert v == (field.one, field.one)
    assert find_isotropic_vector(df(field, 1)) is None


def test_witt_decompose_examples():
    f7 = make_field(7)
    h, kernel = witt_decompose(hyperbolic_plane(f7))
    assert (h, kernel.rank) == (1, 0)
    h, kernel = witt_decompose(df(f7, 1, 1, 1, 1))
    assert (h, kernel.rank) == (2, 0)
    f5 = make_field(5)
    h, kernel = witt_decompose(df(f5, 1, 1, 1))
    assert (h, kernel.rank) == (1, 1)
    assert signed_discriminant(kernel) is signed_discriminant(df(f5, 1))
    h, kernel = witt_decompose(df(f5))
    assert (h, kernel.rank) == (0, 0)


def test_scan_and_decompose_near_cardinality_bound():
    # q close to 2^20, one of each residue mod 4: rank-3 scans solve their
    # last coordinate by Tonelli-Shanks (1048573) and by x^((q+1)/4)
    # (1048571); rank-5 decompositions split rank-3 subforms only when
    # q = 3 mod 4, as pair cancellation leaves rank <= 2 when q = 1 mod 4
    rng = random.Random(1048)
    for p in [1048573, 1048571]:
        field = make_field(p)
        for _ in range(20):
            form = DiagonalForm(field, tuple(field.element(rng.randrange(1, p)) for _ in range(3)))
            v = find_isotropic_vector(form)
            assert v is not None and form.value(v) == field.zero
            form = DiagonalForm(field, tuple(field.element(rng.randrange(1, p)) for _ in range(5)))
            h, kernel = witt_decompose(form)
            assert (h, kernel.rank) == (2, 1)
            assert witt_invariants(kernel) == witt_invariants(form)


def test_late_prefix_near_cardinality_bound():
    # <12,1,1> over F_1048571 (q = 3 mod 4, so -1 is a nonsquare): the tail
    # <1,1> is anisotropic and 12 + d^2 is a nonzero square for d = 0..14,
    # so t = -(12 + d^2) is a nonsquare and the first solvable prefix is
    # (1, 15), the 17th prefix tried: (0, 1, x), then d = 0..15
    q = 1048571
    field = make_field(q)
    form = df(field, 12, 1, 1)
    assert all(square_class(field.element(12 + d * d)) is ONE for d in range(15))
    assert square_class(field.element(12 + 15 * 15)) is NS
    v = find_isotropic_vector(form)
    assert form.value(v) == field.zero
    assert (v[0], v[1]) == (field.one, field.element(15))
    h, kernel = witt_decompose(form)
    assert (h, kernel.rank) == (1, 1)
    assert witt_invariants(kernel) == witt_invariants(form)


def test_witt_decompose_structure_randomized():
    rng = random.Random(77)
    for p, e in [(3, 1), (5, 1), (7, 1), (11, 1), (3, 2)]:
        field = make_field(p, e)
        nonzero = list(field.nonzero_elements())
        for _ in range(30):
            n = rng.randrange(1, 7)
            form = DiagonalForm(field, tuple(rng.choice(nonzero) for _ in range(n)))
            h, kernel = witt_decompose(form)
            assert 2 * h + kernel.rank == n
            assert kernel.rank <= 2
            if kernel.rank:
                assert find_isotropic_vector(kernel) is None
            rebuilt = kernel
            for _ in range(h):
                rebuilt = orthogonal_sum(rebuilt, hyperbolic_plane(field))
            assert witt_invariants(rebuilt) == witt_invariants(form)


def _product_rule_reference(form, squares):
    """(signed disc, det class, hyper, kernel entries) by entry products.

    The square-class rules as first written: classes of explicit products,
    looked up in the square set {x*x}, the first pair <a, b> in row-major
    order with -ab a square cancelled each round, and, when none cancels, a
    leading triple <a, b, c> replaced by the explicit product -(a*b*c).
    """
    field = form.field

    def cls(x):
        return ONE if x in squares else NS

    n = form.rank
    det = field.one
    for a in form.entries:
        det = det * a
    det_class = cls(det)
    signed = cls(-det if (n * (n + 1) // 2) % 2 else det) if n else ONE
    entries = list(form.entries)
    hyper = 0
    while True:
        pair = next(
            (
                (i, j)
                for i in range(len(entries))
                for j in range(i + 1, len(entries))
                if -(entries[i] * entries[j]) in squares
            ),
            None,
        )
        if pair is not None:
            del entries[pair[1]], entries[pair[0]]
            hyper += 1
            continue
        if len(entries) < 3:
            break
        a, b, c = entries[:3]
        entries = [-(a * b * c)] + entries[3:]
        hyper += 1
    return signed, det_class, hyper, tuple(entries)


def _assert_matches_product_rules(form, squares):
    signed, det_class, hyper, kernel_entries = _product_rule_reference(form, squares)
    assert signed_discriminant(form) is signed, form
    assert determinant_class(form) is det_class, form
    h, kernel = witt_decompose(form)
    assert (h, kernel.entries) == (hyper, kernel_entries), form


def test_class_bits_match_product_rules_exhaustive_small_rank():
    for p, e in [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1)]:
        field = make_field(p, e)
        squares = {x * x for x in field.nonzero_elements()}
        nonzero = list(field.nonzero_elements())
        for n in range(4):
            for tup in itertools.product(nonzero, repeat=n):
                _assert_matches_product_rules(DiagonalForm(field, tup), squares)


def test_class_bits_match_product_rules_seeded_large_rank():
    rng = random.Random(1913)
    for p, e in [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3)]:
        field = make_field(p, e)
        squares = {x * x for x in field.nonzero_elements()}
        nonzero = list(field.nonzero_elements())
        for _ in range(2000):
            n = rng.randrange(4, 9)
            form = DiagonalForm(field, tuple(rng.choice(nonzero) for _ in range(n)))
            _assert_matches_product_rules(form, squares)


def test_witt_equal_basic():
    f5, f7 = make_field(5), make_field(7)
    form = df(f7, 1, 3, 2)
    assert witt_equal(form, form)
    assert witt_equal(df(f5, 1, 1), df(f5, 2, 2))  # <1,1> = <s,s>, s = 2
    assert not witt_equal(df(f7, 1), df(f7, 3))
    assert witt_equal(form, orthogonal_sum(form, hyperbolic_plane(f7)))
    with pytest.raises(ValueError):
        witt_equal(df(f5, 1), df(f7, 1))


def test_witt_equal_iff_invariants_small():
    for p in [3, 5]:
        field = make_field(p)
        forms = []
        for n in range(0, 4):
            for tup in itertools.product(range(1, p), repeat=n):
                forms.append(df(field, *tup))
        for f in forms:
            for g in forms:
                assert witt_equal(f, g) == (witt_invariants(f) == witt_invariants(g))


def test_rank4_normalization_identity():
    # every <a1,a2,a3,a4> matches both <1,1,1,d> and <-1,d> with d the
    # product of the entries, exhaustively over small fields
    for p in [3, 5, 7]:
        field = make_field(p)
        for tup in itertools.product(range(1, p), repeat=4):
            form = df(field, *tup)
            d = field.one
            for a in form.entries:
                d = d * a
            alt1 = DiagonalForm(field, (field.one, field.one, field.one, d))
            alt2 = DiagonalForm(field, (-field.one, d))
            assert witt_equal(form, alt1)
            assert witt_equal(form, alt2)


def test_isometric_by_invariants():
    f5 = make_field(5)
    assert isometric_by_invariants(df(f5, 1, 1), df(f5, 2, 2))
    assert not isometric_by_invariants(df(f5, 1), df(f5, 2))
    form = df(f5, 1, 2)
    assert not isometric_by_invariants(form, orthogonal_sum(form, df(f5, 1)))


def isometric_bruteforce(f, g):
    """Isometry by explicit change-of-basis search, for tiny instances.

    For q <= 5 and rank <= 3 this searches basis images column by column,
    pruning with the Gram conditions B(t_i, t_j) = g_ij; a full match is an
    invertible T with TᵀfT = g since the target Gram is nondegenerate.
    Larger instances fall back to rank comparison plus witt_equal, which
    classifies isometry over finite fields by Witt cancellation.
    """
    assert f.field == g.field
    if f.rank != g.rank:
        return False
    if f.field.q > 5 or f.rank > 3:
        return witt_equal(f, g)
    return _isometric_by_search(f, g)


def _isometric_by_search(f, g):
    """The change-of-basis search alone, at any size, with no fallback."""
    n = f.rank
    field = f.field
    vectors = list(_all_vectors(field, n))

    def extend(cols):
        i = len(cols)
        if i == n:
            return True
        for v in vectors:
            if f.value(v) != g.entries[i]:
                continue
            if any(f.bilinear(v, c) != field.zero for c in cols):
                continue
            if extend(cols + [v]):
                return True
        return False

    return extend([])


def _all_vectors(field, n):
    for tup in itertools.product(range(field.q), repeat=n):
        if any(tup):
            yield tuple(field.element_from_index(i) for i in tup)


def test_isometric_bruteforce_agrees_exhaustively():
    for p in [3, 5]:
        field = make_field(p)
        for n in [1, 2]:
            forms = [df(field, *tup) for tup in itertools.product(range(1, p), repeat=n)]
            for f in forms:
                for g in forms:
                    assert isometric_bruteforce(f, g) == isometric_by_invariants(f, g)


def test_isometric_bruteforce_rank3_spot():
    f5 = make_field(5)
    assert isometric_bruteforce(df(f5, 1, 1, 1), df(f5, 4, 4, 1))
    assert not isometric_bruteforce(df(f5, 1, 1, 1), df(f5, 1, 1, 2))
    # beyond the exhaustive range it falls back to the invariant test
    f7 = make_field(7)
    assert isometric_bruteforce(df(f7, 1, 1, 1, 1), df(f7, 2, 2, 2, 2))


def test_triple_split_is_an_isometry_bruteforce():
    # witt_decompose splits a triple only when no pair cancels, which over
    # F_3 and F_7 (q = 3 mod 4) means all three entries share a class; it
    # then writes <a, b, c> = H ⊥ <-abc>, here checked by an explicit basis
    checked = 0
    for p in (3, 7):
        field = make_field(p)
        nonzero = list(field.nonzero_elements())
        squares = {x * x for x in nonzero}
        for same in ([x for x in nonzero if x in squares], [x for x in nonzero if x not in squares]):
            for a, b, c in itertools.product(same, repeat=3):
                residual = -(a * b * c)
                form = DiagonalForm(field, (a, b, c))
                split = DiagonalForm(field, (field.one, -field.one, residual))
                assert _isometric_by_search(form, split), form
                assert witt_decompose(form) == (1, DiagonalForm(field, (residual,))), form
                checked += 1
    assert checked == 2 + 54


def test_gram_roundtrip():
    f7 = make_field(7)
    form = df(f7, 1, 3)
    assert diagonalize(form.gram()) == form
    v = (f7.element(2), f7.element(3))
    assert form.value(v) == f7.element(1 * 4 + 3 * 9)


@pytest.mark.parametrize("name", ["witt_equal", "witt_invariants"])
def test_completeness_catches_one_wrong_answer(monkeypatch, name):
    # criterion 5 still asks both questions of every form, so one wrong answer
    # for one rank-4 form over F_11 that is not a pattern fails exactly the
    # F_11 form line
    import wittcurve.verify as verify

    target = df(make_field(11, 1), 3, 4, 5, 9)
    real = getattr(verify, name)

    def wrong(f, *rest):
        answer = real(f, *rest)
        if f != target:
            return answer
        if name == "witt_equal":
            return not answer
        return answer._replace(rank_parity=answer.rank_parity ^ 1)

    monkeypatch.setattr(verify, name, wrong)
    failed = [r.name for r in verify.field_invariant_completeness() if not r.passed]
    assert failed == ["forms match their square-class pattern over F_11"]


def test_witt_equal_matches_isometry_after_padding_by_planes():
    # independent of the splitter: forms of equal rank parity are Witt
    # equivalent exactly when f ⊥ H^a and g ⊥ H^b of one rank are isometric,
    # decided by the basis search; over F_3 also one plane beyond the least
    # common rank (the search takes seconds per pair at rank 4, or at rank 3
    # over F_5)
    checked = 0
    for p in (3, 5):
        field = make_field(p)
        H = hyperbolic_plane(field)

        def padded(form, n):
            while form.rank < n:
                form = orthogonal_sum(form, H)
            return form

        small = [df(field, *tup) for n in range(3) for tup in itertools.product(range(1, p), repeat=n)]
        for f in small:
            for g in small:
                if (f.rank - g.rank) % 2:
                    assert not witt_equal(f, g), (f, g)
                    continue
                least = max(f.rank, g.rank)
                for n in (least, least + 2) if p == 3 and least < 2 else (least,):
                    assert witt_equal(f, g) == _isometric_by_search(padded(f, n), padded(g, n)), (f, g, n)
                    checked += 1
    assert checked == 339


def _reference_decompose(f):
    """witt_decompose as it was before it shared its splitter with
    witt_equal: entries and their square-class bits in step."""
    field = f.field
    entries = list(f.entries)
    cls = [0 if is_square(a) else 1 for a in entries]
    sigma = 1 if field.q % 4 == 3 else 0
    hyper = 0
    while True:
        cancelled = True
        while cancelled:
            cancelled = False
            for i in range(len(entries)):
                for j in range(i + 1, len(entries)):
                    if cls[i] ^ cls[j] == sigma:
                        del entries[j], entries[i], cls[j], cls[i]
                        hyper += 1
                        cancelled = True
                        break
                if cancelled:
                    break
        if len(entries) < 3:
            break
        a, b, c = entries[:3]
        entries = [-(a * b * c)] + entries[3:]
        cls = [sigma ^ cls[0] ^ cls[1] ^ cls[2]] + cls[3:]
        hyper += 1
    return hyper, DiagonalForm(field, tuple(entries))


def _reference_witt_equal(f, g):
    """witt_equal as it was: decompose f ⊥ -g and test for an empty kernel."""
    return _reference_decompose(orthogonal_sum(f, g.negate()))[1].rank == 0


@pytest.mark.parametrize("p, e", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_witt_decompose_matches_reference_exhaustively(p, e):
    # same planes and the same kernel, entries and order included, for every
    # entry tuple of rank <= 5
    field = make_field(p, e)
    nonzero = list(field.nonzero_elements())
    for n in range(6):
        for tup in itertools.product(nonzero, repeat=n):
            form = DiagonalForm(field, tup)
            assert witt_decompose(form) == _reference_decompose(form), form


@pytest.mark.parametrize("p, e", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_witt_equal_matches_reference_on_patterns(p, e):
    # every pair of {1, s} patterns whose sum f ⊥ -g has rank <= 8
    field = make_field(p, e)
    values = (field.one, canonical_nonsquare(field))
    patterns = [DiagonalForm(field, tup) for n in range(9) for tup in itertools.product(values, repeat=n)]
    for f in patterns:
        for g in patterns:
            if f.rank + g.rank <= 8:
                assert witt_equal(f, g) == _reference_witt_equal(f, g), (f, g)


def test_witt_equal_negates_nothing_and_builds_no_form(monkeypatch):
    cases = []
    for p, e in ((5, 1), (13, 1), (7, 1), (3, 3), (3, 2)):
        field = make_field(p, e)
        nonzero = list(field.nonzero_elements())
        rng = random.Random(p * 10 + e)
        for _ in range(40):
            f = DiagonalForm(field, tuple(rng.choice(nonzero) for _ in range(rng.randrange(5))))
            g = DiagonalForm(field, tuple(rng.choice(nonzero) for _ in range(rng.randrange(5))))
            cases.append((f, g, witt_invariants(f) == witt_invariants(g)))
    assert {want for *_, want in cases} == {True, False}

    def refuse(*args):
        raise AssertionError("witt_equal negated an entry or built a form")

    monkeypatch.setattr(FieldElement, "__neg__", refuse)
    monkeypatch.setattr(forms, "_diagonal", refuse)
    monkeypatch.setattr(DiagonalForm, "__init__", refuse)
    for f, g, want in cases:
        assert witt_equal(f, g) == want, (f, g)
