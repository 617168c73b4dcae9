"""Tests for the isotropy scan kernel, `find_isotropic_vector`.

The oracle is an independent enumeration of every nonzero vector in plain
lexicographic order with exact FieldElement arithmetic; the scan's first
isotropic vector must be the oracle's.  The small cases pin the
hand-derived answers at ranks 0, 1 and 2, where the scan makes at most one
square test.
"""

import itertools
import random

from wittcurve.fields import make_field
from wittcurve.forms import DiagonalForm, find_isotropic_vector


def _lex_first_isotropic(form):
    """First isotropic vector over all nonzero vectors in plain lex order."""
    field = form.field
    for tup in itertools.product(range(field.q), repeat=form.rank):
        if any(tup):
            v = tuple(field.element_from_index(i) for i in tup)
            if form.value(v) == field.zero:
                return v
    return None


def test_first_isotropic_matches_oracle():
    # every form of rank <= 3 (ranks 0 and 1 give None), then seeded rank 4
    for p, e in [(3, 1), (5, 1), (7, 1), (3, 2)]:
        field = make_field(p, e)
        nonzero = list(field.nonzero_elements())
        for n in range(4):
            for tup in itertools.product(nonzero, repeat=n):
                form = DiagonalForm(field, tup)
                assert find_isotropic_vector(form) == _lex_first_isotropic(form), form
        rng = random.Random(p * e)
        for _ in range(30):
            form = DiagonalForm(field, tuple(rng.choice(nonzero) for _ in range(4)))
            assert find_isotropic_vector(form) == _lex_first_isotropic(form), form


def test_hyperbolic_plane_first_vector():
    # <1,-1>: the scan passes (0,1) without a square test, and its one
    # prefix (1, x) solves x = 1
    for p in [3, 5, 7, 11]:
        f = make_field(p)
        form = DiagonalForm(f, (f.one, -f.one))
        assert find_isotropic_vector(form) == (f.one, f.one)


def test_anisotropic_rank_one():
    # rank 1 has one projective point, e_0, and it is not isotropic; the
    # scan knows that without a square test
    for p, e in [(5, 1), (7, 1), (3, 2)]:
        f = make_field(p, e)
        for a in f.nonzero_elements():
            form = DiagonalForm(f, (a,))
            assert find_isotropic_vector(form) is None


def test_rank_zero():
    # the zero space has no nonzero vector, so the scan makes no square test
    f = make_field(5)
    assert find_isotropic_vector(DiagonalForm(f, ())) is None
