"""Canonical Witt classes of a smooth projective curve over F_q, q odd.

Every class is determined by a parity, a square-class twist u, and an
order-2 line bundle class L: odd (u, L) is the rank-1 class carried by L
with its fixed base form twisted by u, and even (u, L) is the rank-2 class
<1, -(u-twisted form on L)>.  The zero class is exactly even (One, identity),
the hyperbolic plane on the structure sheaf; no separate zero variant is
needed because the arithmetic tables already normalize to it.

The twist lives in the square classes of the base field by the order-2
structure of L (its fixed squaring isomorphism), so only q mod 4 enters the
tables, through sigma, the square class of -1.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Literal, Sequence

from .fields import SquareClass, minus_one_class
from .pic2 import Pic2Group, PicElement

_ONE, _NS = SquareClass.ONE, SquareClass.NONSQUARE

Parity = Literal["odd", "even"]

_new = object.__new__

# ranks up to this bound keep every class of a ring in one table, 4·2^r
# objects built once; at r = 16 that table would take about 17 MB, so
# higher ranks allocate each result
INTERN_RANK = 10


class _Ring:
    """The classes of one rank r in one context q mod 4, of one element type.

    flip is the u bit of sigma shifted into place (2 when q = 3 mod 4, else
    0), kind is the element type (WittClass, or WittK for the r = 0 ring of
    W(k)), classes maps each code to its one interned element and bundles
    each bundle code to its one interned PicElement, both for
    r <= INTERN_RANK and None above.
    """

    __slots__ = ("r", "context", "flip", "kind", "classes", "bundles")

    def __init__(self, r: int, context: int, kind: type):
        self.r = r
        self.context = context
        self.flip = 2 if context == 3 else 0
        self.kind = kind
        self.classes = self.bundles = None
        if r <= INTERN_RANK:
            self.classes = [_of_code(code, self) for code in range(4 << r)]
            self.bundles = [PicElement(r, code) for code in range(1 << r)]

    def __reduce__(self):
        # copies and unpickled elements must share the cached ring, which
        # equality compares by identity
        return (_ring, (self.r, self.context, self.kind))


@lru_cache(maxsize=None)
def _ring(r: int, context: int, kind: type) -> _Ring:
    """The one ring of rank r in a context; the context must be 1 or 3.

    Pass all three arguments positionally: the cache keys a keyword call
    apart from a positional one, which would build a second, unequal ring.
    """
    if context not in (1, 3):
        raise ValueError(f"context must be 1 or 3, got {context}")
    if r and kind is not WittClass:
        raise TypeError(f"{kind.__name__} has only the r = 0 ring, got r = {r}")
    return _Ring(r, context, kind)


class WittClass:
    """A canonical Witt class: (parity, u, L) in a fixed context q mod 4.

    The class is packed into one int, code = odd | u_bit << 1 | L.code << 2,
    kept beside its ring (the rank r and the context), so the ring
    operations are bit operations on codes; parity, u and L are read-only
    views of the code.
    """

    __slots__ = ("code", "ring")

    def __init__(self, parity: Parity, u: SquareClass, L: PicElement, context: int):
        if parity not in ("odd", "even"):
            raise ValueError(f"parity must be 'odd' or 'even', got {parity!r}")
        if not isinstance(u, SquareClass):
            raise TypeError("u must be a SquareClass")
        if not isinstance(L, PicElement):
            raise TypeError("L must be a PicElement")
        self.ring = _ring(L.rank, context, WittClass)  # validates the context
        self.code = (parity == "odd") | (u is _NS) << 1 | L.code << 2

    # constructors

    @classmethod
    def odd(cls, u: SquareClass, L: PicElement, context: int) -> "WittClass":
        """The odd class <u> on L, as an element of cls (a WittK needs r = 0)."""
        return _of_code(WittClass("odd", u, L, context).code, _ring(L.rank, context, cls))

    @staticmethod
    def even(u: SquareClass, L: PicElement, context: int) -> "WittClass":
        return WittClass("even", u, L, context)

    @staticmethod
    def zero(context: int, group: Pic2Group) -> "WittClass":
        return WittClass("even", _ONE, group.identity, context)

    @staticmethod
    def one(context: int, group: Pic2Group) -> "WittClass":
        return WittClass("odd", _ONE, group.identity, context)

    @property
    def r(self) -> int:
        return self.ring.r

    @property
    def context(self) -> int:
        return self.ring.context

    @property
    def parity(self) -> Parity:
        return "odd" if self.code & 1 else "even"

    @property
    def u(self) -> SquareClass:
        return _NS if self.code & 2 else _ONE

    @property
    def L(self) -> PicElement:
        bundles = self.ring.bundles
        if bundles is not None:
            return bundles[self.code >> 2]
        # unchecked, as in _of_code: the code comes from a validated class
        L = _new(PicElement)
        L.rank = self.ring.r
        L.code = self.code >> 2
        return L

    def is_zero(self) -> bool:
        return self.code == 0

    @property
    def sigma(self) -> SquareClass:
        return minus_one_class(self.context)

    # ring structure: sigma enters only as a flip of the u bit when q = 3 mod 4

    def _compatible(self, other: "WittClass") -> None:
        # the raising path of the operators, which first test inline that
        # other is an element of the same type and ring
        if type(other) is not type(self):
            raise TypeError(f"expected {type(self).__name__}, got {type(other).__name__}")
        if self.context != other.context:
            raise ValueError(f"mixed contexts: {self.context} vs {other.context}")
        if self.r != other.r:
            raise ValueError(f"mixed group ranks: {self.r} vs {other.r}")

    def __add__(self, other: "WittClass") -> "WittClass":
        ring = self.ring
        if type(other) is not type(self) or other.ring is not ring:
            self._compatible(other)
        a = self.code
        b = other.code
        code = a ^ b ^ ring.flip if a & b & 1 else a ^ b
        classes = ring.classes
        if classes is not None:
            return classes[code]
        return _of_code(code, ring)

    def __neg__(self) -> "WittClass":
        if self.code & 1 and self.ring.flip:
            return _of_code(self.code ^ 2, self.ring)
        return self

    def __sub__(self, other: "WittClass") -> "WittClass":
        return self + (-other)

    def __mul__(self, other: "WittClass") -> "WittClass":
        ring = self.ring
        if type(other) is not type(self) or other.ring is not ring:
            self._compatible(other)
        a = self.code
        b = other.code
        if a & b & 1:
            code = (a ^ b) | 1
        elif a & 1:
            return other  # odd units act trivially on the even ideal
        elif b & 1:
            return self
        else:
            code = 0
        classes = ring.classes
        if classes is not None:
            return classes[code]
        return _of_code(code, ring)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, WittClass):
            return NotImplemented
        return self.code == other.code and self.ring is other.ring

    def __hash__(self) -> int:
        return hash((self.code, self.ring.r, self.ring.context))

    def __str__(self) -> str:
        # unit letter, then the bundle bits when nontrivial; bits alone would
        # collide with the unit letter at r = 1
        tag = "s" if self.code & 2 else "1"
        if self.code >> 2:
            tag = f"{tag}.{self.L}"
        if self.code & 1:
            return f"<{tag}>"
        if self.is_zero():
            return "0"
        return f"<1,-{tag}>"

    def __repr__(self) -> str:
        return f"{self} (q = {self.context} mod 4, r = {self.r})"

    # serialization

    def to_json(self) -> dict:
        return {"parity": self.parity, "u": str(self.u), "L": str(self.L)}

    @classmethod
    def from_json(cls, data: dict, context: int, group: Pic2Group) -> "WittClass":
        u, L = SquareClass.from_string(data["u"]), group.element(data["L"])
        return _of_code(WittClass(data["parity"], u, L, context).code, _ring(group.r, context, cls))


def _of_code(code: int, ring: _Ring) -> WittClass:
    # unchecked constructor, only for codes computed from validated classes
    classes = ring.classes
    if classes is not None:
        return classes[code]
    c = _new(ring.kind)
    c.code = code
    c.ring = ring
    return c


def signed_discriminant_class(a: WittClass) -> tuple[SquareClass, PicElement]:
    """The invariant pair (square-class twist, line bundle class) of d±.

    For even (w, N) the defining representative is built from its own signed
    discriminant, so the pair is (w, N) directly; for odd (u, L) the rank-1
    sign flip contributes sigma.
    """
    if a.parity == "even":
        return (a.u, a.L)
    return (a.sigma * a.u, a.L)


def enumerate_classes(context: int, group: Pic2Group) -> list[WittClass]:
    """All 4·2^r classes: the odd block (u = 1 then u = s), then the even block."""
    bundles = group.enumerate()
    ring = _ring(group.r, context, WittClass)  # validates the context
    return [
        _of_code(odd | u_bit << 1 | L.code << 2, ring)
        for odd in (1, 0)
        for u_bit in (0, 1)
        for L in bundles
    ]


def reduce_word(
    word: Iterable[tuple[SquareClass, PicElement]] | Sequence[tuple[SquareClass, PicElement]],
    context: int,
    group: Pic2Group,
) -> WittClass:
    """Fold a word of rank-1 letters (u, L) into its canonical class.

    The word denotes the orthogonal sum of the twisted rank-1 forms; folding
    left-to-right with the addition table yields a class whose parity is the
    word length mod 2 and whose line bundle part is the product of the
    letters' L components.
    """
    ring = _ring(group.r, context, WittClass)  # validates the context
    letters = []
    for u, L in word:
        if L.rank != group.r:
            raise ValueError(f"letter rank {L.rank} does not match group rank {group.r}")
        if not isinstance(u, SquareClass):
            raise TypeError("u must be a SquareClass")
        letters.append(1 | (u is _NS) << 1 | L.code << 2)
    return _fold(letters, ring)


def _fold(letter_codes: Iterable[int], ring: _Ring) -> WittClass:
    """The sum of odd letters, given by their codes, in a ring of classes."""
    flip = ring.flip
    code = 0
    for letter in letter_codes:
        # add the odd letter: odd + odd flips the u bit when q = 3 mod 4
        code ^= letter
        if not code & 1:
            code ^= flip
    return _of_code(code, ring)
