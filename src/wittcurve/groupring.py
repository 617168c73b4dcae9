"""The group ring of the 2-torsion class group over the four-element Witt
ring, its relation ideal, and the normal-form map onto canonical classes.

An element is a finitely supported coefficient map from the group to the
base Witt ring; addition is coefficient-wise and multiplication is
convolution.  The relation ideal is generated by the elements
<1> - <u>L - <v>M + <uv>LM over all unit square classes u, v and group
elements L, M.  At rank r <= 3 the whole ring is small enough (4^(2^r)
elements) that the ideal can be materialized by brute-force closure, giving
an unimpeachable membership oracle; normal_form gives the O(support)
arithmetic answer that the oracle certifies.

An element stores its coefficients as a map from group slot (the bundle
code of L) to interned W(k) values, so the product of slots L and M is the
slot L ^ M; PicElement appears only at the API boundary (construction,
coefficient, terms).  Elements are encoded for the closure as one base-4
digit per group slot (the coefficient's class code, odd | u_bit << 1), so
the additive closure runs as table lookups over small numpy arrays.  Only
this brute-force certification uses numpy, so it is imported inside the
functions that run it: importing the package, and with it every CLI run
that does not certify, stays free of numpy's import cost.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from typing import TYPE_CHECKING, NamedTuple

from .curve import WittClass, _fold, _ring
from .fields import SquareClass
from .pic2 import Pic2Group, PicElement
from .wittk import WittK

if TYPE_CHECKING:
    import numpy as np

_ONE, _NS = SquareClass.ONE, SquareClass.NONSQUARE

# the largest r whose whole ring, 4^(2^r) elements, the brute force covers
CLOSURE_RANK_BOUND = 3

_new = object.__new__


class GroupRingElement:
    """A W(k)-coefficient map on the 2-torsion group; zero terms are dropped."""

    __slots__ = ("context", "group", "_coeffs")

    def __init__(
        self,
        context: int,
        group: Pic2Group,
        coeffs: Mapping[PicElement, WittK] | Iterable[tuple[PicElement, WittK]] = (),
    ):
        if context not in (1, 3):
            raise ValueError(f"context must be 1 or 3, got {context}")
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        clean: dict[int, WittK] = {}
        for L, c in items:
            if not isinstance(L, PicElement) or L.rank != group.r:
                raise ValueError(f"support element {L!r} does not belong to {group!r}")
            if not isinstance(c, WittK):
                raise TypeError("coefficients must be WittK values")
            if c.context != context:
                raise ValueError(f"coefficient context {c.context} != element context {context}")
            if L.code in clean:
                raise ValueError(f"duplicate support element {L!r}")
            if not c.is_zero():
                clean[L.code] = c.ring.classes[c.code]
        self.context = context
        self.group = group
        self._coeffs = clean

    @staticmethod
    def zero(context: int, group: Pic2Group) -> "GroupRingElement":
        return GroupRingElement(context, group)

    @staticmethod
    def monomial(c: WittK, L: PicElement, group: Pic2Group) -> "GroupRingElement":
        return GroupRingElement(c.context, group, [(L, c)])

    def coefficient(self, L: PicElement) -> WittK:
        zero = WittK.zero(self.context)
        if not isinstance(L, PicElement) or L.rank != self.group.r:
            return zero
        return self._coeffs.get(L.code, zero)

    def terms(self) -> list[tuple[PicElement, WittK]]:
        """Support terms ordered by group element code."""
        r = self.group.r
        return [(PicElement(r, slot), self._coeffs[slot]) for slot in sorted(self._coeffs)]

    def support_size(self) -> int:
        return len(self._coeffs)

    def is_zero(self) -> bool:
        return not self._coeffs

    def _compatible(self, other: "GroupRingElement") -> None:
        if not isinstance(other, GroupRingElement):
            raise TypeError(f"expected GroupRingElement, got {type(other).__name__}")
        if self.context != other.context:
            raise ValueError(f"mixed contexts: {self.context} vs {other.context}")
        if self.group != other.group:
            raise ValueError(f"mixed groups: {self.group!r} vs {other.group!r}")

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._compatible(other)
        out = dict(self._coeffs)
        for L, c in other._coeffs.items():
            acc = out.get(L)
            total = c if acc is None else acc + c
            if total.is_zero():
                out.pop(L, None)
            else:
                out[L] = total
        return _of_terms(self.context, self.group, out)

    def __neg__(self) -> "GroupRingElement":
        return _of_terms(self.context, self.group, {L: -c for L, c in self._coeffs.items()})

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self + (-other)

    def __mul__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._compatible(other)
        out: dict[int, WittK] = {}
        for L, c in self._coeffs.items():
            for M, d in other._coeffs.items():
                N = L ^ M
                prod = c * d
                acc = out.get(N)
                total = prod if acc is None else acc + prod
                if total.is_zero():
                    out.pop(N, None)
                else:
                    out[N] = total
        return _of_terms(self.context, self.group, out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return (
            self.context == other.context
            and self.group == other.group
            and self._coeffs == other._coeffs
        )

    def __hash__(self) -> int:
        return hash((self.context, self.group, frozenset(self._coeffs.items())))

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for L, c in self.terms():
            coef = str(c)
            parts.append(coef if L.is_identity() else f"{coef}*{L}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"{self} (q = {self.context} mod 4, r = {self.group.r})"

    # serialization

    def to_json(self) -> list[dict]:
        return [{"coef": c.letter, "L": str(L)} for L, c in self.terms()]

    @staticmethod
    def from_json(data: Iterable[dict], context: int, group: Pic2Group) -> "GroupRingElement":
        terms = [
            (group.element(item["L"]), WittK.from_letter(item["coef"], context)) for item in data
        ]
        return GroupRingElement(context, group, terms)


def _of_terms(context: int, group: Pic2Group, coeffs: dict[int, WittK]) -> GroupRingElement:
    # unchecked constructor, only for nonzero coefficients computed from
    # validated elements
    f = _new(GroupRingElement)
    f.context = context
    f.group = group
    f._coeffs = coeffs
    return f


class RelationGenerator(NamedTuple):
    """The datum (u, v, L, M) of the relation <1> - <u>L - <v>M + <uv>LM."""

    u: SquareClass
    v: SquareClass
    L: PicElement
    M: PicElement

    def element(self, context: int, group: Pic2Group) -> GroupRingElement:
        terms = [
            GroupRingElement.monomial(WittK.one(context), group.identity, group),
            -GroupRingElement.monomial(WittK.of_unit(self.u, context), self.L, group),
            -GroupRingElement.monomial(WittK.of_unit(self.v, context), self.M, group),
            GroupRingElement.monomial(WittK.of_unit(self.u * self.v, context), self.L * self.M, group),
        ]
        total = terms[0]
        for t in terms[1:]:
            total = total + t
        return total

    def __str__(self) -> str:
        def mono(u: SquareClass, L: PicElement) -> str:
            head = "<1>" if u is _ONE else "<s>"
            return head if L.is_identity() else f"{head}{L}"

        return (
            f"<1> - {mono(self.u, self.L)} - {mono(self.v, self.M)}"
            f" + {mono(self.u * self.v, self.L * self.M)}"
        )


def relation_tuples(group: Pic2Group) -> list[RelationGenerator]:
    return [
        RelationGenerator(u, v, L, M)
        for u in (_ONE, _NS)
        for v in (_ONE, _NS)
        for L in group
        for M in group
    ]


def relation_generators(context: int, group: Pic2Group) -> list[GroupRingElement]:
    """All 4·(2^r)^2 relation elements, one per (u, v, L, M)."""
    return [t.element(context, group) for t in relation_tuples(group)]


# encoded arithmetic: one base-4 digit per group slot

def _code_tables(context: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[WittK]]:
    """(add, mul, neg) tables over the 4 coefficient codes, plus the W(k) table by code."""
    import numpy as np

    by_code = _ring(0, context, WittK).classes
    add = np.zeros((4, 4), dtype=np.uint8)
    mul = np.zeros((4, 4), dtype=np.uint8)
    neg = np.zeros(4, dtype=np.uint8)
    for i, a in enumerate(by_code):
        neg[i] = (-a).code
        for j, b in enumerate(by_code):
            add[i, j] = (a + b).code
            mul[i, j] = (a * b).code
    return add, mul, neg, by_code


def _encode(f: GroupRingElement) -> list[int]:
    out = [0] * f.group.n
    for slot, c in f._coeffs.items():
        out[slot] = c.code
    return out


def _decode(
    codes: Iterable[int], context: int, group: Pic2Group, by_code: list[WittK]
) -> GroupRingElement:
    terms = {slot: by_code[int(code)] for slot, code in enumerate(codes) if code}
    return _of_terms(context, group, terms)


def ideal_closure(
    gens: Iterable[GroupRingElement], context: int, group: Pic2Group
) -> set[GroupRingElement]:
    """The ideal generated by gens, materialized as a set of ring elements.

    Only feasible for r <= 3 (the whole ring has 4^(2^r) elements).  The
    ideal is the additive span of monomial multiples <u>N · g, because every
    ring element is a sum of such monomials and multiplication distributes;
    the span is computed as a breadth-first additive closure over encoded
    elements.
    """
    if group.r > CLOSURE_RANK_BOUND:
        raise ValueError(f"ideal closure needs r <= {CLOSURE_RANK_BOUND}, got {group.r}")
    import numpy as np

    gens = list(gens)
    for g in gens:
        if g.context != context or g.group != group:
            raise ValueError("generator context/group mismatch")
    add_table, _, _, by_code = _code_tables(context)
    nslots = group.n
    weights = (4 ** np.arange(nslots, dtype=np.int64)).astype(np.int64)

    monomials = [
        GroupRingElement.monomial(WittK.of_unit(u, context), N, group)
        for u in (_ONE, _NS)
        for N in group
    ]
    translator_rows = {tuple(_encode(m * g)) for m in monomials for g in gens}
    translator_rows.discard(tuple([0] * nslots))
    if not translator_rows:
        return {GroupRingElement.zero(context, group)}
    trans = np.array(sorted(translator_rows), dtype=np.uint8)

    seen: dict[int, np.ndarray] = {0: np.zeros(nslots, dtype=np.uint8)}
    frontier = np.zeros((1, nslots), dtype=np.uint8)
    while frontier.shape[0]:
        cand = add_table[frontier[:, None, :], trans[None, :, :]].reshape(-1, nslots)
        keys = cand.astype(np.int64) @ weights
        fresh_rows = []
        for key, row in zip(keys.tolist(), cand):
            if key not in seen:
                seen[key] = row
                fresh_rows.append(row)
        frontier = np.array(fresh_rows, dtype=np.uint8) if fresh_rows else np.empty((0, nslots), np.uint8)
    return {_decode(row, context, group, by_code) for row in seen.values()}


def normal_form(f: GroupRingElement) -> WittClass:
    """The canonical Witt class of a group ring element.

    Each coefficient is split into rank-1 letters (<1> -> [1], <s> -> [s],
    the nontrivial even class -> [1, s] or [1, 1] by context), every letter
    is attached to its support element, and the word is folded by the curve
    addition table.  This is constant on cosets of the relation ideal.
    """
    letters = [
        1 | (u is _NS) << 1 | slot << 2 for slot, c in f._coeffs.items() for u in c.unit_diagonal()
    ]
    return _fold(letters, _ring(f.group.r, f.context, WittClass))


def all_elements(context: int, group: Pic2Group) -> list[GroupRingElement]:
    """Every ring element; index in the list equals its packed base-4 code."""
    if group.r > CLOSURE_RANK_BOUND:
        raise ValueError(f"full ring enumeration needs r <= {CLOSURE_RANK_BOUND}, got {group.r}")
    _, _, _, by_code = _code_tables(context)
    out = []
    for packed in range(4**group.n):
        codes = []
        x = packed
        for _ in range(group.n):
            codes.append(x & 3)
            x >>= 2
        out.append(_decode(codes, context, group, by_code))
    return out


def verify_isomorphism(context: int, group: Pic2Group) -> list[tuple[str, bool, str]]:
    """Certify the presentation: quotient by the relation ideal = canonical classes.

    For r <= 2 the checks are exhaustive over all element pairs; at r = 3 the
    pairwise checks are replaced by the cardinality identity alone.  Each
    report line is (name, passed, detail), with a counterexample in the
    detail on failure.
    """
    from .curve import enumerate_classes

    if group.r > CLOSURE_RANK_BOUND:
        raise ValueError(f"verification needs r <= {CLOSURE_RANK_BOUND}, got {group.r}")
    import numpy as np

    report = []
    gens = relation_generators(context, group)
    zero_class = WittClass.zero(context, group)

    bad = next((g for g in gens if normal_form(g) != zero_class), None)
    report.append(
        (
            "relation generators map to zero",
            bad is None,
            f"all {len(gens)} generators" if bad is None else f"counterexample: {bad}",
        )
    )

    ideal = ideal_closure(gens, context, group)
    ring_size = 4**group.n
    classes = enumerate_classes(context, group)
    quotient_ok = ring_size % len(ideal) == 0 and ring_size // len(ideal) == len(classes)
    report.append(
        (
            "quotient cardinality matches class count",
            quotient_ok,
            f"|ring| = {ring_size}, |ideal| = {len(ideal)}, classes = {len(classes)}",
        )
    )

    if group.r > 2:
        return report

    # pairwise checks run on encoded elements: each element is one base-4
    # digit per group slot, and its packed integer equals its index in
    # all_elements, so pair tables are plain numpy gathers
    elements = all_elements(context, group)
    add_t, mul_t, neg_t, _ = _code_tables(context)
    nslots = group.n
    weights = 4 ** np.arange(nslots, dtype=np.int64)
    enc = np.array([_encode(f) for f in elements], dtype=np.uint8)
    nf_list = [normal_form(f) for f in elements]
    class_index = {c: i for i, c in enumerate(classes)}
    nfc = np.array([class_index[c] for c in nf_list], dtype=np.int64)

    surjective = set(nf_list) == set(classes)
    report.append(
        (
            "normal form is surjective onto the classes",
            surjective,
            f"{len(set(nf_list))} of {len(classes)} classes hit",
        )
    )

    def first_bad(matrix: np.ndarray) -> str:
        i, j = np.argwhere(matrix)[0]
        return f"counterexample: f = {elements[i]}, g = {elements[j]}"

    ideal_keys = np.sort(np.array([_encode(x) for x in ideal], dtype=np.int64) @ weights)
    diff_codes = add_t[enc[:, None, :], neg_t[enc][None, :, :]]
    diff_keys = diff_codes.astype(np.int64) @ weights
    in_ideal = np.isin(diff_keys, ideal_keys)
    nf_equal = nfc[:, None] == nfc[None, :]
    mismatch = in_ideal != nf_equal
    report.append(
        (
            "ideal membership matches equal normal forms",
            not mismatch.any(),
            f"all {len(elements)}^2 pairs" if not mismatch.any() else first_bad(mismatch),
        )
    )

    class_add = np.array(
        [[class_index[a + b] for b in classes] for a in classes], dtype=np.int64
    )
    class_mul = np.array(
        [[class_index[a * b] for b in classes] for a in classes], dtype=np.int64
    )
    sum_keys = (add_t[enc[:, None, :], enc[None, :, :]].astype(np.int64) @ weights)
    add_bad = nfc[sum_keys] != class_add[nfc[:, None], nfc[None, :]]
    prod_codes = np.zeros((len(elements), len(elements), nslots), dtype=np.uint8)
    for i in range(nslots):
        for j in range(nslots):
            contrib = mul_t[enc[:, i][:, None], enc[None, :, j]]
            prod_codes[:, :, i ^ j] = add_t[prod_codes[:, :, i ^ j], contrib]
    prod_keys = prod_codes.astype(np.int64) @ weights
    mul_bad = nfc[prod_keys] != class_mul[nfc[:, None], nfc[None, :]]
    hom_bad = add_bad | mul_bad
    report.append(
        (
            "normal form is a ring homomorphism",
            not hom_bad.any(),
            f"all {len(elements)}^2 pairs, + and *" if not hom_bad.any() else first_bad(hom_bad),
        )
    )
    return report
