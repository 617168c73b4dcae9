"""The four-element Witt ring of a nondyadic finite field.

W(k) is the rank-0 ring of curve classes (see curve.py): an element is an
odd or even class with a unit twist u and the trivial line bundle, packed
into the class code odd | u_bit << 1, and the operators are the class
operators.  The context q mod 4 fixes the ring structure; the two contexts
give non-isomorphic rings (additive group Z/4 versus exponent 2), so
arithmetic across contexts is rejected, and so is arithmetic with an r = 0
curve class, which has the same code but another type.  The inherited odd
and from_json return W(k) values from r = 0 bundles and refuse any other.

The four elements, in every context: zero, the nontrivial even class E,
and the two odd classes <1> and <s>.  E is represented by <1,s> when
q = 1 mod 4 and by <1,1> when q = 3 mod 4.  The complete invariant pair
(rank parity, signed discriminant) of a concrete representative is read
back through the rank_parity and disc properties; the two differ from the
code only on odd classes when q = 3 mod 4, where disc = sigma * u.
"""

from __future__ import annotations

from .curve import WittClass, _ring
from .fields import FiniteField, SquareClass, canonical_nonsquare
from .forms import DiagonalForm, signed_discriminant, witt_decompose, witt_equal

_ONE, _NS = SquareClass.ONE, SquareClass.NONSQUARE

# per code: 0 = zero, 1 = <1>, 2 = E, 3 = <s>
_LETTERS = ("0", "1", "e", "s")
_NAMES = ("0", "<1>", "E", "<s>")


def _values(context: int) -> list["WittK"]:
    """The four interned values of a context, indexed by code."""
    return _ring(0, context, WittK).classes


class WittK(WittClass):
    """An element of W(k): a class of the rank-0 ring of a context."""

    __slots__ = ()

    def __init__(self, rank_parity: int, disc: SquareClass, context: int):
        values = _values(context)
        if rank_parity not in (0, 1):
            raise ValueError(f"rank parity must be 0 or 1, got {rank_parity}")
        if not isinstance(disc, SquareClass):
            raise TypeError("disc must be a SquareClass")
        self.ring = values[0].ring
        code = rank_parity | (disc is _NS) << 1
        self.code = code ^ self.ring.flip if rank_parity else code

    # the four elements

    @staticmethod
    def zero(context: int) -> "WittK":
        return _values(context)[0]

    @staticmethod
    def even(context: int) -> "WittK":
        """The nontrivial even-rank class E."""
        return _values(context)[2]

    @staticmethod
    def one(context: int) -> "WittK":
        """The class <1>."""
        return _values(context)[1]

    @staticmethod
    def s(context: int) -> "WittK":
        """The class <s> of the nonsquare unit."""
        return _values(context)[3]

    @staticmethod
    def of_unit(u: SquareClass, context: int) -> "WittK":
        """The odd class <u>."""
        if not isinstance(u, SquareClass):
            raise TypeError("u must be a SquareClass")
        return _values(context)[1 | (u is _NS) << 1]

    @staticmethod
    def elements(context: int) -> tuple["WittK", "WittK", "WittK", "WittK"]:
        zero, one, even, s = _values(context)
        return (zero, one, s, even)

    # structure

    @property
    def rank_parity(self) -> int:
        return self.code & 1

    @property
    def disc(self) -> SquareClass:
        """The signed discriminant: u for even classes, sigma * u for odd ones."""
        code = self.code
        if code & 1:
            code ^= self.ring.flip
        return _NS if code & 2 else _ONE

    def unit(self) -> SquareClass:
        """For an odd class <u>, the square class u."""
        if not self.code & 1:
            raise ValueError("only odd classes are represented by a single unit")
        return self.u

    def unit_diagonal(self) -> list[SquareClass]:
        """Square classes of the diagonal of the minimal-rank representative."""
        if self.code == 0:
            return []
        if self.code & 1:
            return [self.u]
        return [_ONE, _NS] if self.context == 1 else [_ONE, _ONE]

    def to_form(self, field: FiniteField) -> DiagonalForm:
        """A concrete representative over a field with the matching residue."""
        if field.q % 4 != self.context:
            raise ValueError(f"{field!r} has residue {field.q % 4}, not {self.context}")
        s = canonical_nonsquare(field)
        return DiagonalForm(
            field, tuple(field.one if c is _ONE else s for c in self.unit_diagonal())
        )

    @property
    def letter(self) -> str:
        """One-letter code: 0, 1, s, or e."""
        return _LETTERS[self.code]

    @staticmethod
    def from_letter(letter: str, context: int) -> "WittK":
        if letter not in _LETTERS:
            raise ValueError(f"unknown class letter {letter!r}, expected one of 0, 1, s, e")
        return _values(context)[_LETTERS.index(letter)]

    # the ring operations are the class operators; only the messages differ

    def _compatible(self, other: "WittK") -> None:
        if type(other) is WittK and other.context != self.context:
            raise ValueError(f"mixed contexts: q = {self.context} vs {other.context} mod 4")
        super()._compatible(other)

    def __str__(self) -> str:
        return _NAMES[self.code]

    def __repr__(self) -> str:
        return f"{self} in W(k), q = {self.context} mod 4"


def from_concrete_form(f: DiagonalForm) -> WittK:
    """The W(k) class of a concrete nondegenerate diagonal form."""
    ring = _ring(0, f.field.q % 4, WittK)
    odd = f.rank & 1
    code = odd | (signed_discriminant(f) is _NS) << 1
    return ring.classes[code ^ ring.flip if odd else code]


def verify_bullets(field: FiniteField) -> list[tuple[str, bool, str]]:
    """Check the four W(k) identities through concrete forms over field.

    Returns (name, passed, detail) triples.  The identity whose residue
    premise does not match q mod 4 is reported as vacuously true.
    """
    context = field.q % 4
    one = field.one
    s = canonical_nonsquare(field)

    def d(*entries):
        return DiagonalForm(field, entries)

    report = []
    ok = witt_equal(d(one, one), d(s, s))
    report.append(("<1,1> = <s,s>", ok, f"over {field!r}"))

    if context == 1:
        ok = witt_equal(d(one, one, one), d(one)) and witt_equal(d(one), d(-one))
        report.append(("<1,1,1> = <1> = <-1> for q = 1 mod 4", ok, f"over {field!r}"))
        report.append(("<1,1,1> = <s> = <-1> for q = 3 mod 4", True, "vacuous: q = 1 mod 4"))
    else:
        report.append(("<1,1,1> = <1> = <-1> for q = 1 mod 4", True, "vacuous: q = 3 mod 4"))
        ok = witt_equal(d(one, one, one), d(s)) and witt_equal(d(s), d(-one))
        report.append(("<1,1,1> = <s> = <-1> for q = 3 mod 4", ok, f"over {field!r}"))

    _, kernel = witt_decompose(d(one, one, one, one))
    report.append(("<1,1,1,1> = 0", kernel.rank == 0, f"over {field!r}"))
    return report
