"""Symmetric bilinear forms over F_q: diagonalization, invariants, isotropy,
and Witt decomposition.

Forms come in two shapes: GramForm wraps an arbitrary symmetric matrix,
DiagonalForm wraps a nondegenerate diagonal <a_1,...,a_n>.  diagonalize
bridges the two with a deterministic congruence reduction and reports the
radical dimension when the input is degenerate.

Over F_q a diagonal form's Witt class depends only on its entries' square
classes, so the invariants and the splitter work on square-class bits (0
square, 1 nonsquare), read once per form through fields.square_class_bits.

Witt decomposition peels hyperbolic planes off a diagonal form until the
anisotropic kernel remains (rank <= 2 over a finite field).  The splitter
first cancels any entry pair <a, b> with -ab a square, that is, whose bits
differ by sigma, the bit of -1 (such a pair is already a hyperbolic
plane).  When no pair cancels and rank >= 3, it uses the classical fact
that rank and determinant class classify forms over F_q: the leading
<a, b, c> is isometric to H ⊥ <-abc>, so no vector is searched for.  That
split runs only when q = 3 mod 4 and every remaining entry has one square
class: when q = 1 mod 4, two of any three entries share a class and cancel
as a pair.  The entries follow the bits only when a kernel is asked for:
witt_equal(f, g) splits the bits of f ⊥ -g, f's followed by g's flipped by
sigma, builds no form, and answers whether no bits remain.

The isotropy scan, find_isotropic_vector, solves its last coordinate from a
square test and a square root instead of trying every value, so any scan
makes at most q + 1 square tests.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .fields import (
    FieldElement,
    FiniteField,
    SquareClass,
    is_square,
    square_class_bits,
    square_root,
)

class DegenerateFormError(ValueError):
    """Raised when an operation requires a nondegenerate form.

    radical_dim is the dimension of the radical (kernel of the Gram matrix).
    """

    def __init__(self, radical_dim: int):
        self.radical_dim = radical_dim
        super().__init__(f"degenerate form: radical has dimension {radical_dim}")


class GramForm:
    """A symmetric bilinear form given by its Gram matrix, possibly degenerate."""

    __slots__ = ("field", "matrix")

    def __init__(self, field: FiniteField, matrix: Sequence[Sequence[FieldElement]]):
        rows = tuple(tuple(row) for row in matrix)
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise ValueError("Gram matrix must be square")
            for x in row:
                if not isinstance(x, FieldElement) or x.field != field:
                    raise ValueError("Gram entries must be elements of the given field")
        for i in range(n):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise ValueError(f"Gram matrix not symmetric at ({i},{j})")
        self.field = field
        self.matrix = rows

    @property
    def rank(self) -> int:
        return len(self.matrix)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GramForm):
            return NotImplemented
        return self.field == other.field and self.matrix == other.matrix

    def __hash__(self) -> int:
        return hash((self.field, self.matrix))

    def __repr__(self) -> str:
        body = "; ".join(",".join(str(x) for x in row) for row in self.matrix)
        return f"GramForm({self.field!r}, [{body}])"


class DiagonalForm:
    """A nondegenerate diagonal form <a_1,...,a_n>; every entry nonzero."""

    __slots__ = ("field", "entries")

    def __init__(self, field: FiniteField, entries: Sequence[FieldElement]):
        entries = tuple(entries)
        for a in entries:
            if not isinstance(a, FieldElement) or (a.field is not field and a.field != field):
                raise ValueError("entries must be elements of the given field")
            if not a:
                raise ValueError("diagonal entries must be nonzero (nondegenerate)")
        self.field = field
        self.entries = entries

    @property
    def rank(self) -> int:
        return len(self.entries)

    def negate(self) -> "DiagonalForm":
        return _diagonal(self.field, tuple(-a for a in self.entries))

    def bilinear(self, v: Sequence[FieldElement], w: Sequence[FieldElement]) -> FieldElement:
        total = self.field.zero
        for a, x, y in zip(self.entries, v, w):
            total = total + a * x * y
        return total

    def value(self, v: Sequence[FieldElement]) -> FieldElement:
        return self.bilinear(v, v)

    def gram(self) -> GramForm:
        n = self.rank
        z = self.field.zero
        rows = [[self.entries[i] if i == j else z for j in range(n)] for i in range(n)]
        return GramForm(self.field, rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiagonalForm):
            return NotImplemented
        return self.field == other.field and self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.field, self.entries))

    def __repr__(self) -> str:
        return f"<{','.join(str(a) for a in self.entries)}> over {self.field!r}"


def _diagonal(field: FiniteField, entries: tuple[FieldElement, ...]) -> DiagonalForm:
    # unchecked constructor, only for nonzero entries of `field` taken or
    # computed from validated forms
    f = object.__new__(DiagonalForm)
    f.field = field
    f.entries = entries
    return f


class WittInvariants(NamedTuple):
    """The complete pair of Witt-class invariants over a finite field."""

    rank_parity: int
    signed_disc: SquareClass


def orthogonal_sum(f: DiagonalForm, g: DiagonalForm) -> DiagonalForm:
    _same_field(f, g)
    return _diagonal(f.field, f.entries + g.entries)


def tensor_product(f: DiagonalForm, g: DiagonalForm) -> DiagonalForm:
    _same_field(f, g)
    return _diagonal(f.field, tuple(a * b for a in f.entries for b in g.entries))


def hyperbolic_plane(field: FiniteField) -> DiagonalForm:
    return DiagonalForm(field, (field.one, -field.one))


def _same_field(f, g) -> None:
    if f.field != g.field:
        raise ValueError(f"forms over distinct fields: {f.field!r} vs {g.field!r}")


def _discriminant(f: DiagonalForm, signed: bool) -> SquareClass:
    # the determinant's class is the parity of the nonsquare entries; the
    # sign (-1)^(n(n+1)/2) adds one more nonsquare exactly when q = 3 mod 4
    odd = sum(square_class_bits(f.entries)) & 1
    n = f.rank
    if signed and f.field.q % 4 == 3 and (n * (n + 1) // 2) % 2:
        odd ^= 1
    return SquareClass.NONSQUARE if odd else SquareClass.ONE


def determinant_class(f: DiagonalForm) -> SquareClass:
    return _discriminant(f, signed=False)


def signed_discriminant(f: DiagonalForm) -> SquareClass:
    """Square class of (-1)^(n(n+1)/2) times the determinant."""
    return _discriminant(f, signed=True)


def witt_invariants(f: DiagonalForm) -> WittInvariants:
    return WittInvariants(f.rank % 2, signed_discriminant(f))


def diagonalize(g: GramForm) -> DiagonalForm:
    return diagonalize_with_basis(g)[0]


def diagonalize_with_basis(g: GramForm) -> tuple[DiagonalForm, tuple[tuple[FieldElement, ...], ...]]:
    """Congruence-reduce g to diagonal shape, returning (form, T) with TᵀgT diagonal.

    Pivot rule: at each step take the first index with nonzero diagonal in the
    remaining block; if the whole remaining diagonal is zero, add basis vector
    j to basis vector i for the first off-diagonal nonzero (i, j), which makes
    the (i, i) entry 2g[i][j], nonzero away from characteristic 2.
    Degenerate input raises DegenerateFormError naming the radical dimension.
    """
    field = g.field
    n = g.rank
    m = [list(row) for row in g.matrix]
    t = [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]

    def add_basis(i: int, j: int, c: FieldElement) -> None:
        # basis_i <- basis_i + c * basis_j, i.e. row/col i gain c * row/col j
        for k in range(n):
            m[i][k] = m[i][k] + c * m[j][k]
        for k in range(n):
            m[k][i] = m[k][i] + c * m[k][j]
        for k in range(n):
            t[k][i] = t[k][i] + c * t[k][j]

    def swap_basis(i: int, j: int) -> None:
        m[i], m[j] = m[j], m[i]
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in t:
            row[i], row[j] = row[j], row[i]

    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][i]), None)
        if piv is None:
            off = next(((i, j) for i in range(k, n) for j in range(i + 1, n) if m[i][j]), None)
            if off is None:
                break  # remaining block is zero: the radical
            add_basis(off[0], off[1], field.one)
            piv = off[0]
        if piv != k:
            swap_basis(k, piv)
        inv = m[k][k].inverse()
        for i in range(k + 1, n):
            if m[i][k]:
                add_basis(i, k, -(m[i][k] * inv))

    diag = [m[i][i] for i in range(n)]
    radical = sum(1 for d in diag if not d)
    if radical:
        raise DegenerateFormError(radical)
    return DiagonalForm(field, diag), tuple(tuple(row) for row in t)


def find_isotropic_vector(f: DiagonalForm) -> Optional[tuple[FieldElement, ...]]:
    """First nonzero v with f(v, v) = 0 in the deterministic scan order, or None.

    One representative per projective point is visited: vectors grouped by the
    position of their first nonzero coordinate (from last position to first),
    that coordinate normalized to 1, later coordinates in ascending
    lexicographic order.  The last coordinate is solved for, not scanned:
    each prefix needs x^2 = t with t = -(a_lead + sum a_i x_i^2) / a_last, so x
    is 0 when t = 0, the square root of t with the smaller index when t is a
    square, and otherwise the prefix has no isotropic vector.

    Each prefix costs one square test.  An anisotropic form tries every
    prefix, which at rank 2 is one; ranks 0 and 1 try none; no scan tries
    more than q + 1.
    """
    field = f.field
    q = field.q
    entries = f.entries
    n = len(entries)
    zero = field.zero

    if n < 2:
        return None  # the empty space, or e_0 alone, which is not isotropic

    def prefixes():
        # (lead, middle coordinates, a_lead + sum a_i x_i^2) in scan order;
        # a rank-3 form over a finite field is isotropic, so the scan never
        # passes lead n-3, whose one middle coordinate runs over the field
        yield n - 2, (), entries[-2]
        if n >= 3:
            a_lead, a_mid = entries[-3], entries[-2]
            for d in range(q):
                x_mid = field.element_from_index(d)
                yield n - 3, (x_mid,), a_lead + a_mid * x_mid * x_mid

    scale = -entries[-1].inverse()
    for lead, middle, total in prefixes():
        t = total * scale
        if not t or is_square(t):
            v = (zero,) * lead + (field.one, *middle, square_root(t))
            assert f.value(v) == zero
            return v
    assert n == 2, "forms of rank >= 3 over a finite field are isotropic"
    return None


def _split(cls: list[int], sigma: int, entries: Optional[list[FieldElement]] = None) -> int:
    """Peel hyperbolic planes off the square-class bits cls, in place.

    Returns the number of planes; cls keeps the kernel's bits, and entries,
    when given, the kernel's entries.  -ab is a square exactly when the bits
    of a and b differ by sigma, the bit of -1.
    """
    hyper = 0
    while True:
        # cancel pairs that already form hyperbolic planes, first pair in
        # row-major order each round
        cancelled = True
        while cancelled:
            cancelled = False
            for i in range(len(cls)):
                for j in range(i + 1, len(cls)):
                    if cls[i] ^ cls[j] == sigma:
                        del cls[j], cls[i]
                        if entries is not None:
                            del entries[j], entries[i]
                        hyper += 1
                        cancelled = True
                        break
                if cancelled:
                    break
        if len(cls) < 3:
            return hyper
        # <a, b, c> = H ⊥ <d>, and the determinant fixes d's class: d = -abc
        if entries is not None:
            a, b, c = entries[:3]
            entries[:3] = [-(a * b * c)]
        cls[:3] = [sigma ^ cls[0] ^ cls[1] ^ cls[2]]
        hyper += 1


def witt_decompose(f: DiagonalForm) -> tuple[int, DiagonalForm]:
    """Witt decomposition: (number of hyperbolic planes, anisotropic kernel).

    Entry pairs <a, b> with -ab a square split off directly; once no such
    pair remains and rank >= 3, the leading entries <a, b, c> become
    H ⊥ <-abc>.  The kernel always ends with rank <= 2.
    """
    field = f.field
    entries = list(f.entries)
    sigma = 1 if field.q % 4 == 3 else 0  # the square-class bit of -1
    hyper = _split(square_class_bits(entries), sigma, entries)
    kernel = _diagonal(field, tuple(entries))
    assert 2 * hyper + kernel.rank == f.rank
    return hyper, kernel


def witt_equal(f: DiagonalForm, g: DiagonalForm) -> bool:
    """Whether f and g represent the same Witt class: f ⊥ -g is hyperbolic.

    Decided on square-class bits: the bits of f ⊥ -g are f's followed by g's
    flipped by sigma, the bit of -1; they go through witt_decompose's
    splitter, and f and g are equal when no bits remain.  No form is built
    and no entry is negated.
    """
    _same_field(f, g)
    sigma = 1 if f.field.q % 4 == 3 else 0  # the square-class bit of -1
    cls = square_class_bits(f.entries + g.entries)
    if sigma:  # -g's bits are g's flipped
        n = f.rank
        cls[n:] = [b ^ 1 for b in cls[n:]]
    _split(cls, sigma)
    return not cls


def isometric_by_invariants(f: DiagonalForm, g: DiagonalForm) -> bool:
    """Isometry test by the classification over finite fields: rank and det class."""
    _same_field(f, g)
    return f.rank == g.rank and determinant_class(f) == determinant_class(g)
