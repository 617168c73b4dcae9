"""Exact arithmetic in finite fields F_q of odd characteristic.

A field is specified by an odd prime p and an extension degree e >= 1.
Elements are residues of F_p[x] modulo a fixed monic irreducible modulus of
degree e, found by deterministic enumeration so that identical (p, e) inputs
always produce identical fields.  On top of the plain field operations the
module classifies nonzero elements into the two square classes of F_q^x and
fixes a canonical non-square, which is all the quadratic-form machinery
downstream needs from the base field.

q = 2 is rejected everywhere: the square-class group degenerates and the
form theory built on top of this module requires division by 2.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from typing import Iterator, Sequence

CARDINALITY_BOUND = 1 << 20

# Largest q whose elements are cached as objects once elements() is called;
# larger fields build each element on demand.
TABLE_LIMIT = 4096


class SquareClass(Enum):
    """Square class of a nonzero element: the multiplicative group {1, s}."""

    ONE = "1"
    NONSQUARE = "s"

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        if not isinstance(other, SquareClass):
            return NotImplemented
        return SquareClass.ONE if self is other else SquareClass.NONSQUARE

    def __str__(self) -> str:
        return self.value

    @staticmethod
    def from_string(s: str) -> "SquareClass":
        if s == "1":
            return SquareClass.ONE
        if s == "s":
            return SquareClass.NONSQUARE
        raise ValueError(f"square class must be '1' or 's', got {s!r}")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def _digits(m: int, p: int, k: int) -> list[int]:
    """Base-p digits of m, little-endian, padded to length k."""
    out = []
    for _ in range(k):
        out.append(m % p)
        m //= p
    return out


def _poly_rem(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """Remainder of a modulo the monic polynomial b over F_p."""
    a = [c % p for c in a]
    db = len(b) - 1
    for k in range(len(a) - 1, db - 1, -1):
        t = a[k]
        if t:
            a[k] = 0
            for i in range(db):
                a[k - db + i] = (a[k - db + i] - t * b[i]) % p
    return a[:db]


def _is_irreducible(f: Sequence[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg(f)/2."""
    e = len(f) - 1
    for d in range(1, e // 2 + 1):
        for m in range(p**d):
            g = _digits(m, p, d) + [1]
            if not any(_poly_rem(f, g, p)):
                return False
    return True


class FieldElement:
    """An element of a FiniteField, stored as a reduced coefficient vector.

    coeffs[i] is the coefficient of x^i, each in [0, p).  Elements are
    immutable and hashable; arithmetic between elements of distinct fields
    raises ValueError.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: "FiniteField", coeffs: tuple[int, ...]):
        self.field = field
        self.coeffs = coeffs

    @property
    def index(self) -> int:
        """Position of this element in the field's enumeration order."""
        p = self.field.p
        out = 0
        for c in reversed(self.coeffs):
            out = out * p + c
        return out

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def _same_field(self, other: "FieldElement") -> None:
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {type(other).__name__}")
        if self.field != other.field:
            raise ValueError(f"elements of distinct fields: {self.field!r} vs {other.field!r}")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._same_field(other)
        p = self.field.p
        return FieldElement(self.field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._same_field(other)
        p = self.field.p
        return FieldElement(self.field, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "FieldElement":
        f = self.field
        if f.e == 1:
            return FieldElement(f, (-self.coeffs[0] % f.p,))
        p = f.p
        return FieldElement(f, tuple(-a % p for a in self.coeffs))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._same_field(other)
        f = self.field
        if f.e == 1:
            return FieldElement(f, ((self.coeffs[0] * other.coeffs[0]) % f.p,))
        conv = [0] * (2 * f.e - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    conv[i + j] += a * b
        return FieldElement(f, tuple(_poly_rem(conv, f.modulus, f.p)))

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        self._same_field(other)
        return self * other.inverse()

    def __pow__(self, n: int) -> "FieldElement":
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "FieldElement":
        if not self:
            raise ZeroDivisionError(f"division by zero in {self.field!r}")
        return self ** (self.field.q - 2)

    def __str__(self) -> str:
        if self.field.e == 1:
            return str(self.coeffs[0])
        terms = []
        for i in range(self.field.e - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                xpow = "x" if i == 1 else f"x^{i}"
                terms.append(xpow if c == 1 else f"{c}{xpow}")
        return " + ".join(terms) if terms else "0"

    def __repr__(self) -> str:
        return f"<{self} in {self.field!r}>"


class FiniteField:
    """The field F_q with q = p^e odd; constructed through make_field.

    Two instances are equal iff they share (p, e, modulus), so elements built
    from independent make_field calls with the same arguments interoperate.
    """

    __slots__ = ("p", "e", "q", "modulus", "_element_cache", "_nonsquare", "_squares")

    def __init__(self, p: int, e: int, modulus: tuple[int, ...]):
        self.p = p
        self.e = e
        self.q = p**e
        self.modulus = modulus
        self._element_cache: list[FieldElement] | None = None
        self._nonsquare: FieldElement | None = None
        # Euler-criterion answers by element index: 0 unknown, 1 square, 2 nonsquare
        self._squares: bytearray | None = None

    def __eq__(self, other: object) -> bool:
        if self is other:  # the common case: make_field caches its fields
            return True
        if not isinstance(other, FiniteField):
            return NotImplemented
        return (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)

    def __hash__(self) -> int:
        return hash((self.p, self.e, self.modulus))

    def __repr__(self) -> str:
        return f"F_{self.q}"

    @property
    def zero(self) -> FieldElement:
        return self.element_from_index(0)

    @property
    def one(self) -> FieldElement:
        return self.element_from_index(1)

    def element(self, value: int | Sequence[int]) -> FieldElement:
        """Build an element from an integer (image of Z -> F_q) or coefficients.

        Integers map through the canonical ring homomorphism, so -1 is the
        additive inverse of 1 in every field.  A sequence is read as
        coefficients of increasing powers of x and reduced mod the modulus.
        """
        if isinstance(value, int):
            coeffs = (value % self.p,) + (0,) * (self.e - 1)
            return FieldElement(self, coeffs)
        coeffs = tuple(_poly_rem(list(value), self.modulus, self.p)) if len(value) > self.e else tuple(
            c % self.p for c in value
        )
        coeffs = coeffs + (0,) * (self.e - len(coeffs))
        return FieldElement(self, coeffs)

    def element_from_index(self, i: int) -> FieldElement:
        """The i-th element in enumeration order (base-p digit vectors)."""
        if not 0 <= i < self.q:
            raise ValueError(f"index {i} out of range for {self!r}")
        if self._element_cache is not None:
            return self._element_cache[i]
        return FieldElement(self, tuple(_digits(i, self.p, self.e)))

    def elements(self) -> Iterator[FieldElement]:
        """All q elements in enumeration order, zero first."""
        if self._element_cache is None and self.q <= TABLE_LIMIT:
            self._element_cache = [
                FieldElement(self, tuple(_digits(i, self.p, self.e))) for i in range(self.q)
            ]
        for i in range(self.q):
            yield self.element_from_index(i)

    def nonzero_elements(self) -> Iterator[FieldElement]:
        it = self.elements()
        next(it)
        return it


@lru_cache(maxsize=None)
def _make_field_cached(p: int, e: int) -> FiniteField:
    if e == 1:
        return FiniteField(p, 1, (0, 1))
    for m in range(p**e):
        candidate = tuple(_digits(m, p, e) + [1])
        if _is_irreducible(candidate, p):
            return FiniteField(p, e, candidate)
    raise AssertionError("no irreducible modulus found")  # unreachable: they exist for every (p, e)


def make_field(p: int, e: int = 1) -> FiniteField:
    """Construct F_{p^e} for an odd prime p.

    The modulus is the identity polynomial x for e = 1, and otherwise the
    first irreducible monic polynomial of degree e when the non-leading
    coefficient vectors are enumerated as base-p integers (constant
    coefficient fastest).  The choice is deterministic across runs.  p^e
    may not exceed CARDINALITY_BOUND, the domain every layer is built for.
    """
    if not isinstance(p, int) or not isinstance(e, int):
        raise TypeError("p and e must be integers")
    if p == 2:
        raise ValueError("characteristic 2 is not supported")
    # the bound goes before the trial division, which takes O(sqrt(p)); as
    # p >= 3, any e above the bound's bit length exceeds it without p**e
    if p >= 3 and e >= 1 and (e > CARDINALITY_BOUND.bit_length() or p**e > CARDINALITY_BOUND):
        raise ValueError(f"cardinality {p}^{e} exceeds the bound {CARDINALITY_BOUND}")
    if not _is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if e < 1:
        raise ValueError(f"extension degree must be >= 1, got {e}")
    return _make_field_cached(p, e)


def is_square(x: FieldElement) -> bool:
    """Euler criterion: x is a square iff x^((q-1)/2) = 1.  Rejects zero.

    Each answer is memoized on the field by element index, so the power is
    taken at most once per element; the memo is filled only on demand.
    Index 0 is zero's and is never written, so zero always misses the memo.
    """
    field = x.field
    memo = field._squares
    if memo is None:
        memo = field._squares = bytearray(field.q)
    i = x.coeffs[0] if field.e == 1 else x.index
    known = memo[i]
    if not known:
        if not i:
            raise ValueError("zero has no square class")
        known = memo[i] = 1 if x ** ((field.q - 1) // 2) == field.one else 2
    return known == 1


def square_class_bits(xs: Sequence[FieldElement]) -> list[int]:
    """Square-class bits of nonzero elements of one field: 0 square, 1 not.

    Reads is_square's memo once for the whole sequence and asks is_square
    only for the elements it has not classified yet; zero raises as there.
    """
    if not xs:
        return []
    field = xs[0].field
    memo = field._squares
    if memo is None:
        memo = field._squares = bytearray(field.q)
    prime = field.e == 1
    bits = []
    for x in xs:
        known = memo[x.coeffs[0] if prime else x.index]
        if not known:
            known = 1 if is_square(x) else 2
        bits.append(known - 1)
    return bits


def square_root(x: FieldElement) -> FieldElement:
    """The square root of x with the smaller element index; zero for zero.

    Computed as x^((q+1)/4) when q = 3 mod 4 and by Tonelli-Shanks with the
    canonical non-square otherwise.  Raises ValueError when x is not a
    square.
    """
    if not x:
        return x
    if not is_square(x):
        raise ValueError(f"{x} is not a square in {x.field!r}")
    root = _some_root(x)
    neg = -root
    return neg if neg.index < root.index else root


def _some_root(x: FieldElement) -> FieldElement:
    # one of the two roots of a nonzero square x
    field = x.field
    q = field.q
    if q % 4 == 3:
        return x ** ((q + 1) // 4)
    # Tonelli-Shanks with q - 1 = odd * 2^s; the loop keeps r^2 = x t, with t
    # of order 2^i for shrinking i, and c of order 2^s
    odd, s = q - 1, 0
    while not odd & 1:
        odd >>= 1
        s += 1
    one = field.one
    c = canonical_nonsquare(field) ** odd
    t = x**odd
    r = x ** ((odd + 1) // 2)
    while t != one:
        i, t2 = 1, t * t
        while t2 != one:
            t2 = t2 * t2
            i += 1
        b = c
        for _ in range(s - i - 1):
            b = b * b
        s, c = i, b * b
        t = t * c
        r = r * b
    return r


def square_class(x: FieldElement) -> SquareClass:
    return SquareClass.ONE if is_square(x) else SquareClass.NONSQUARE


def canonical_nonsquare(field: FiniteField) -> FieldElement:
    """The first non-square in the field's enumeration order.

    For prime fields this is the least quadratic non-residue; for extensions
    the scan follows the base-p coefficient enumeration.
    """
    if field._nonsquare is None:
        for x in field.nonzero_elements():
            if not is_square(x):
                field._nonsquare = x
                break
    return field._nonsquare


def minus_one_class(context: int) -> SquareClass:
    """Square class of -1 in any field with q = context mod 4."""
    if context == 1:
        return SquareClass.ONE
    if context == 3:
        return SquareClass.NONSQUARE
    raise ValueError(f"context must be 1 or 3, got {context}")
