"""The four-element Witt ring of a nondyadic finite field.

Elements are stored as the complete invariant pair (rank parity, signed
discriminant) together with the context q mod 4 that fixes the ring
structure.  The two contexts give non-isomorphic rings (additive group Z/4
versus exponent 2), so arithmetic across contexts is rejected.

The four elements, in every context: zero = (0, One), the nontrivial even
class E = (0, NonSquare), and the two odd classes <1> and <s>.  E is
represented by <1,s> when q = 1 mod 4 and by <1,1> when q = 3 mod 4.

Each element also carries the 2-bit code rank_parity | disc_bit << 1, the
coefficient code the group-ring closure uses; the operators are bit rules
on codes and return the four values of each context, built once.
"""

from __future__ import annotations

from typing import Optional

from .fields import (
    FiniteField,
    SquareClass,
    canonical_nonsquare,
    make_field,
    minus_one_class,
    residue_class_mod4,
)
from .forms import DiagonalForm, signed_discriminant, witt_decompose, witt_equal

_ONE, _NS = SquareClass.ONE, SquareClass.NONSQUARE


class WittK:
    """An element of W(k), identified by (rank_parity, disc) in a context."""

    __slots__ = ("rank_parity", "disc", "context", "code")

    def __init__(self, rank_parity: int, disc: SquareClass, context: int):
        if context not in (1, 3):
            raise ValueError(f"context must be q mod 4, one of 1 or 3, got {context}")
        if rank_parity not in (0, 1):
            raise ValueError(f"rank parity must be 0 or 1, got {rank_parity}")
        if not isinstance(disc, SquareClass):
            raise TypeError("disc must be a SquareClass")
        self.rank_parity = rank_parity
        self.disc = disc
        self.context = context
        self.code = rank_parity | (disc is _NS) << 1

    # the four elements

    @staticmethod
    def zero(context: int) -> "WittK":
        return WittK(0, _ONE, context)

    @staticmethod
    def even(context: int) -> "WittK":
        """The nontrivial even-rank class E."""
        return WittK(0, _NS, context)

    @staticmethod
    def one(context: int) -> "WittK":
        """The class <1>."""
        return WittK(1, minus_one_class(context), context)

    @staticmethod
    def s(context: int) -> "WittK":
        """The class <s> of the nonsquare unit."""
        return WittK(1, minus_one_class(context) * _NS, context)

    @staticmethod
    def of_unit(u: SquareClass, context: int) -> "WittK":
        """The odd class <u>."""
        return WittK(1, minus_one_class(context) * u, context)

    @staticmethod
    def elements(context: int) -> tuple["WittK", "WittK", "WittK", "WittK"]:
        return (WittK.zero(context), WittK.one(context), WittK.s(context), WittK.even(context))

    # structure

    def is_zero(self) -> bool:
        return self.code == 0

    def unit(self) -> SquareClass:
        """For an odd class <u>, the square class u."""
        if self.rank_parity != 1:
            raise ValueError("only odd classes are represented by a single unit")
        return minus_one_class(self.context) * self.disc

    def unit_diagonal(self) -> list[SquareClass]:
        """Square classes of the diagonal of the minimal-rank representative."""
        if self.is_zero():
            return []
        if self.rank_parity == 1:
            return [self.unit()]
        return [_ONE, _NS] if self.context == 1 else [_ONE, _ONE]

    def to_form(self, field: FiniteField) -> DiagonalForm:
        """A concrete representative over a field with the matching residue."""
        if residue_class_mod4(field) != self.context:
            raise ValueError(f"{field!r} has residue {residue_class_mod4(field)}, not {self.context}")
        s = canonical_nonsquare(field)
        return DiagonalForm(
            field, tuple(field.one if c is _ONE else s for c in self.unit_diagonal())
        )

    @property
    def letter(self) -> str:
        """One-letter code: 0, 1, s, or e."""
        if self.rank_parity == 0:
            return "0" if self.disc is _ONE else "e"
        return "1" if self.unit() is _ONE else "s"

    @staticmethod
    def from_letter(letter: str, context: int) -> "WittK":
        table = {"0": WittK.zero, "1": WittK.one, "s": WittK.s, "e": WittK.even}
        if letter not in table:
            raise ValueError(f"unknown class letter {letter!r}, expected one of 0, 1, s, e")
        return table[letter](context)

    # ring operations: bit rules on codes, where sigma enters only as a flip
    # of the disc bit, context & 2 (2 when q = 3 mod 4, else 0)

    def _same_context(self, other: "WittK") -> None:
        # the raising path of the operators, which test the operand inline first
        if not isinstance(other, WittK):
            raise TypeError(f"expected WittK, got {type(other).__name__}")
        if self.context != other.context:
            raise ValueError(f"mixed contexts: q = {self.context} vs {other.context} mod 4")

    def __add__(self, other: "WittK") -> "WittK":
        context = self.context
        if type(other) is not WittK or other.context != context:
            self._same_context(other)
        a = self.code
        b = other.code
        if a & b & 1:
            return _BY_CODE[context][a ^ b ^ context & 2]  # rank cross-term in the sign
        return _BY_CODE[context][a ^ b]

    def __neg__(self) -> "WittK":
        if self.code & 1:
            return _BY_CODE[self.context][self.code ^ self.context & 2]
        return self

    def __sub__(self, other: "WittK") -> "WittK":
        return self + (-other)

    def __mul__(self, other: "WittK") -> "WittK":
        context = self.context
        if type(other) is not WittK or other.context != context:
            self._same_context(other)
        a = self.code
        b = other.code
        if a & b & 1:
            return _BY_CODE[context][1 | ((a ^ b) & 2) ^ context & 2]
        if a & 1:
            return other  # odd times even: the even survives
        if b & 1:
            return self
        return _BY_CODE[context][0]  # even times even vanishes

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, WittK):
            return NotImplemented
        return self.code == other.code and self.context == other.context

    def __hash__(self) -> int:
        return hash((self.rank_parity, self.disc, self.context))

    def __str__(self) -> str:
        return {"0": "0", "1": "<1>", "s": "<s>", "e": "E"}[self.letter]

    def __repr__(self) -> str:
        return f"{self} in W(k), q = {self.context} mod 4"


# context -> the four values, indexed by code
_BY_CODE = {
    context: tuple(WittK(code & 1, _NS if code & 2 else _ONE, context) for code in range(4))
    for context in (1, 3)
}


def from_concrete_form(f: DiagonalForm) -> WittK:
    """The W(k) class of a concrete nondegenerate diagonal form."""
    return WittK(f.rank % 2, signed_discriminant(f), residue_class_mod4(f.field))


_DEFAULT_SAMPLE = {1: (5, 1), 3: (3, 1)}


def verify_bullets(context: int, field: Optional[FiniteField] = None) -> list[tuple[str, bool, str]]:
    """Check the four W(k) identities through concrete forms.

    Returns (name, passed, detail) triples.  The identity whose residue
    premise does not match the context is reported as vacuously true.
    """
    if field is None:
        field = make_field(*_DEFAULT_SAMPLE[context])
    if residue_class_mod4(field) != context:
        raise ValueError(f"{field!r} does not have residue {context} mod 4")
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
