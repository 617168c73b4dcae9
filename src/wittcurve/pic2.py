"""The 2-torsion line bundle class group of a curve, as an abstract (Z/2)^r.

The group is supplied by its rank r alone; only the group structure is used
downstream, so elements are bit vectors under XOR and the identity is the
structure sheaf class.  The geometric hypothesis behind the model (the curve
has a rational point) is an assumption of the caller, not checkable here.
"""

from __future__ import annotations

from typing import Iterator, Sequence

ENUMERATION_BOUND = 20


class PicElement:
    """An order-2 line bundle class: r bits under XOR."""

    __slots__ = ("rank", "code")

    def __init__(self, rank: int, code: int):
        if rank < 0:
            raise ValueError("rank must be non-negative")
        if not 0 <= code < (1 << rank):
            raise ValueError(f"code {code} out of range for rank {rank}")
        self.rank = rank
        self.code = code

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple((self.code >> (self.rank - 1 - i)) & 1 for i in range(self.rank))

    def is_identity(self) -> bool:
        return self.code == 0

    def __mul__(self, other: "PicElement") -> "PicElement":
        if not isinstance(other, PicElement):
            return NotImplemented
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")
        return PicElement(self.rank, self.code ^ other.code)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PicElement):
            return NotImplemented
        return self.rank == other.rank and self.code == other.code

    def __hash__(self) -> int:
        return hash((self.rank, self.code))

    def __str__(self) -> str:
        return format(self.code, f"0{self.rank}b") if self.rank else ""

    def __repr__(self) -> str:
        return f"PicElement({str(self) or 'O'})"


class Pic2Group:
    """(Z/2)^r with n = 2^r elements, all of order dividing 2."""

    __slots__ = ("r", "n")

    def __init__(self, r: int):
        if not isinstance(r, int) or r < 0:
            raise ValueError(f"rank must be a non-negative integer, got {r}")
        self.r = r
        self.n = 1 << r

    @property
    def identity(self) -> PicElement:
        return PicElement(self.r, 0)

    def element(self, value: int | str | Sequence[int]) -> PicElement:
        """Build an element from an integer code, a bit string, or a bit vector."""
        if isinstance(value, int):
            return PicElement(self.r, value)
        if isinstance(value, str):
            if len(value) != self.r or any(c not in "01" for c in value):
                raise ValueError(f"expected {self.r} characters of 0/1, got {value!r}")
            return PicElement(self.r, int(value, 2) if value else 0)
        bits = list(value)
        if len(bits) != self.r or any(b not in (0, 1) for b in bits):
            raise ValueError(f"expected {self.r} bits, got {value!r}")
        code = 0
        for b in bits:
            code = (code << 1) | b
        return PicElement(self.r, code)

    def enumerate(self) -> list[PicElement]:
        """All 2^r elements in lexicographic bit order, identity first."""
        if self.r > ENUMERATION_BOUND:
            raise ValueError(f"rank {self.r} exceeds enumeration bound {ENUMERATION_BOUND}")
        return [PicElement(self.r, code) for code in range(self.n)]

    def __iter__(self) -> Iterator[PicElement]:
        return iter(self.enumerate())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Pic2Group):
            return NotImplemented
        return self.r == other.r

    def __hash__(self) -> int:
        return hash(("Pic2Group", self.r))

    def __repr__(self) -> str:
        return f"Pic2Group(r={self.r})"
