"""Command line front end.

Subcommands, with the flags each one requires:
  field-info         --q                  p, e, modulus, canonical nonsquare, q mod 4
  wittk-table        --q                  base Witt ring tables and identity checks
  form-diag          --q --gram           congruence-diagonalize a Gram matrix
  form-witt          --q (--diag|--gram)  Witt decomposition and invariants of a form
  curve-table        --q --r              curve class tables for 2-torsion rank r
  curve-eval         --q --r --word       fold a word of rank-one classes to its class
  curve-normal-form  --q --r --word       normal form of a group ring element given by a word
  verify                                  run the whole verification battery

Each also takes --json.  A missing or unknown flag, like any other bad
input, gets one 'error: ...' line on stderr and exit code 2.

Gram matrices are entered row-major, rows separated by ';' and entries by
',' with extension-field entries written as parenthesized coefficient
tuples, e.g. --gram "(1,0),(0,1);(0,1),(2,0)".  Words are ';'-separated
pairs "(u,bits)" with u in {1, s} and bits a base-2 line bundle label of
length r, e.g. --word "(1,01);(s,11)".
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import TYPE_CHECKING, Optional, Sequence

# every subcommand parses --q and words name Pic2Group elements, so only
# these two layers load with the module; each cmd_* imports the layers it
# calls, and a cold start pays for no other
from .fields import (
    CARDINALITY_BOUND,
    FieldElement,
    FiniteField,
    SquareClass,
    canonical_nonsquare,
    make_field,
)
from .pic2 import Pic2Group

if TYPE_CHECKING:
    from .forms import DiagonalForm, GramForm

MAX_TABLE_RANK = 4
MAX_WORD_RANK = 20


class CLIError(Exception):
    pass


def _parse_q(text: str) -> FiniteField:
    m = re.fullmatch(r"(\d+)(?:\^(\d+))?", text.strip())
    if not m:
        raise CLIError(f"q must look like 'p' or 'p^e', got {text!r}")
    p, e = int(m.group(1)), int(m.group(2) or 1)
    if e == 1 and 4 < p <= CARDINALITY_BOUND:
        # accept a literal prime power such as 9 or 27; above the bound
        # make_field refuses p anyway, and the search would take O(sqrt(p))
        for base in range(2, int(p**0.5) + 1):
            k, power = 0, 1
            while power < p:
                power *= base
                k += 1
            if power == p:
                p, e = base, k
                break
    try:
        return make_field(p, e)
    except ValueError as exc:
        raise CLIError(str(exc)) from None


def _split_top(text: str, sep: str) -> list[str]:
    """Split on sep at paren depth zero only."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise CLIError(f"unbalanced parentheses in {text!r}")
        elif ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    if depth:
        raise CLIError(f"unbalanced parentheses in {text!r}")
    parts.append(text[start:])
    return parts


def _parse_entry(field: FiniteField, text: str) -> FieldElement:
    text = text.strip()
    try:
        if text.startswith("("):
            if not text.endswith(")"):
                raise ValueError
            coeffs = [int(c) for c in text[1:-1].split(",")]
            return field.element(coeffs)
        return field.element(int(text))
    except ValueError:
        raise CLIError(f"bad field entry {text!r} for q = {field.q}") from None


def _parse_gram(field: FiniteField, text: str) -> GramForm:
    from .forms import GramForm

    rows = []
    for row_text in _split_top(text, ";"):
        row = [_parse_entry(field, cell) for cell in _split_top(row_text, ",")]
        rows.append(tuple(row))
    try:
        return GramForm(field, tuple(rows))
    except ValueError as exc:
        raise CLIError(f"malformed gram matrix: {exc}") from None


def _parse_diag(field: FiniteField, text: str) -> DiagonalForm:
    from .forms import DiagonalForm

    # an empty text is the rank-0 form; an empty cell is a bad entry
    cells = _split_top(text, ",") if text.strip() else []
    entries = [_parse_entry(field, cell) for cell in cells]
    try:
        return DiagonalForm(field, tuple(entries))
    except ValueError as exc:
        raise CLIError(f"malformed diagonal form: {exc}") from None


def _parse_word(text: str, group: Pic2Group) -> list[tuple[SquareClass, object]]:
    word = []
    for part in _split_top(text.strip(), ";"):
        part = part.strip()
        if not part:
            continue
        m = re.fullmatch(r"\(\s*(1|s)\s*,\s*([01]*)\s*\)", part)
        if not m:
            raise CLIError(f"bad word letter {part!r}; expected '(u,bits)' with u in {{1,s}}")
        u = SquareClass.from_string(m.group(1))
        bits = m.group(2)
        if len(bits) != group.r:
            raise CLIError(f"line bundle label {bits!r} has length {len(bits)}, expected r = {group.r}")
        word.append((u, group.element(bits) if bits else group.identity))
    return word


def _el_json(a: FieldElement):
    return a.coeffs[0] if a.field.e == 1 else list(a.coeffs)


def _emit(payload: dict, as_json: bool, text_lines: list[str]) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _check_rank(r: int, bound: int, what: str) -> None:
    if r < 0:
        raise CLIError(f"r must be nonnegative, got {r}")
    if r > bound:
        raise CLIError(f"{what} supports r <= {bound}, got {r}")


def cmd_field_info(args) -> int:
    field = _parse_q(args.q)
    s = canonical_nonsquare(field)
    payload = {
        "p": field.p,
        "e": field.e,
        "q": field.q,
        "modulus": list(field.modulus),
        "nonsquare": _el_json(s),
        "q_mod_4": field.q % 4,
    }
    _emit(
        payload,
        args.json,
        [
            f"q = {field.q} = {field.p}^{field.e}",
            f"modulus coefficients (low to high): {list(field.modulus)}",
            f"canonical nonsquare: {s}",
            f"q mod 4 = {field.q % 4}",
        ],
    )
    return 0


def _wittk_tables(context: int):
    from .wittk import WittK

    elems = WittK.elements(context)
    labels = [str(a) for a in elems]
    add = [[str(a + b) for b in elems] for a in elems]
    mul = [[str(a * b) for b in elems] for a in elems]
    return labels, add, mul


def _render_table(labels: Sequence[str], cells: Sequence[Sequence[str]], op: str) -> list[str]:
    width = max(len(s) for row in cells for s in row)
    width = max(width, max(len(s) for s in labels), len(op))
    head = " | ".join([op.rjust(width)] + [s.rjust(width) for s in labels])
    lines = [head, "-" * len(head)]
    for label, row in zip(labels, cells):
        lines.append(" | ".join([label.rjust(width)] + [s.rjust(width) for s in row]))
    return lines


def cmd_wittk_table(args) -> int:
    from .wittk import verify_bullets

    field = _parse_q(args.q)
    context = field.q % 4
    labels, add, mul = _wittk_tables(context)
    report = verify_bullets(field)
    payload = {
        "q": field.q,
        "context": context,
        "classes": labels,
        "add": add,
        "mul": mul,
        "identities": [{"name": n, "passed": p, "detail": d} for n, p, d in report],
    }
    lines = [f"base Witt ring over F_{field.q} (q = {context} mod 4)", ""]
    lines += _render_table(labels, add, "+")
    lines.append("")
    lines += _render_table(labels, mul, "*")
    lines.append("")
    lines += [f"{'PASS' if p else 'FAIL'}  {n}  ({d})" for n, p, d in report]
    _emit(payload, args.json, lines)
    return 0 if all(p for _, p, _ in report) else 1


def cmd_form_diag(args) -> int:
    from .forms import DegenerateFormError, diagonalize_with_basis

    field = _parse_q(args.q)
    gram = _parse_gram(field, args.gram)
    try:
        diag, transform = diagonalize_with_basis(gram)
    except DegenerateFormError as exc:
        raise CLIError(str(exc)) from None
    payload = {
        "q": field.q,
        "entries": [_el_json(a) for a in diag.entries],
        "transform": [[_el_json(a) for a in row] for row in transform],
    }
    lines = [f"diagonal entries: {', '.join(str(a) for a in diag.entries)}"]
    lines.append("change of basis (columns are the new basis vectors):")
    lines += ["  " + "  ".join(str(a) for a in row) for row in transform]
    _emit(payload, args.json, lines)
    return 0


def cmd_form_witt(args) -> int:
    from .forms import (
        DegenerateFormError,
        diagonalize_with_basis,
        signed_discriminant,
        witt_decompose,
    )
    from .wittk import from_concrete_form

    field = _parse_q(args.q)
    if args.diag is not None:
        form = _parse_diag(field, args.diag)
    else:
        try:
            form = diagonalize_with_basis(_parse_gram(field, args.gram))[0]
        except DegenerateFormError as exc:
            raise CLIError(str(exc)) from None
    hyper, kernel = witt_decompose(form)
    cls = from_concrete_form(form)
    payload = {
        "q": field.q,
        "rank": form.rank,
        "hyperbolic_count": hyper,
        "anisotropic_kernel": [_el_json(a) for a in kernel.entries],
        "rank_parity": form.rank % 2,
        "signed_discriminant": "0" if form.rank == 0 else str(signed_discriminant(form)),
        "witt_class": str(cls),
    }
    lines = [
        f"rank {form.rank} = 2*{hyper} + {kernel.rank}",
        f"anisotropic kernel: <{', '.join(str(a) for a in kernel.entries)}>",
        f"rank parity: {form.rank % 2}",
        f"signed discriminant: {payload['signed_discriminant']}",
        f"class in the base Witt ring: {cls}",
    ]
    _emit(payload, args.json, lines)
    return 0


def cmd_curve_table(args) -> int:
    from .curve import enumerate_classes

    field = _parse_q(args.q)
    r = args.r
    _check_rank(r, MAX_TABLE_RANK, "curve-table")
    context = field.q % 4
    group = Pic2Group(r)
    classes = enumerate_classes(context, group)
    index = {c: i for i, c in enumerate(classes)}
    labels = [str(c) for c in classes]
    add = [[index[a + b] for b in classes] for a in classes]
    mul = [[index[a * b] for b in classes] for a in classes]
    payload = {
        "q": field.q,
        "context": context,
        "r": r,
        "classes": [c.to_json() for c in classes],
        "labels": labels,
        "add": add,
        "mul": mul,
    }
    lines = [f"curve Witt classes over F_{field.q}, r = {r}: {len(classes)} classes", ""]
    lines += _render_table(labels, [[labels[j] for j in row] for row in add], "+")
    lines.append("")
    lines += _render_table(labels, [[labels[j] for j in row] for row in mul], "*")
    _emit(payload, args.json, lines)
    return 0


def cmd_curve_eval(args) -> int:
    from .curve import reduce_word, signed_discriminant_class

    field = _parse_q(args.q)
    r = args.r
    _check_rank(r, MAX_WORD_RANK, "curve-eval")
    context = field.q % 4
    group = Pic2Group(r)
    word = _parse_word(args.word, group)
    cls = reduce_word(word, context, group)
    u, L = signed_discriminant_class(cls)
    payload = {
        "q": field.q,
        "context": context,
        "r": r,
        "class": cls.to_json(),
        "label": str(cls),
        "rank_parity": 1 if cls.parity == "odd" else 0,
        "signed_discriminant": {"u": str(u), "L": str(L)},
    }
    lines = [
        f"word of {len(word)} letters folds to: {cls}",
        f"rank parity: {payload['rank_parity']}",
        f"signed discriminant: ({u}, {str(L) or 'O'})",
    ]
    _emit(payload, args.json, lines)
    return 0


def cmd_curve_normal_form(args) -> int:
    from .groupring import GroupRingElement, normal_form
    from .wittk import WittK

    field = _parse_q(args.q)
    r = args.r
    _check_rank(r, MAX_WORD_RANK, "curve-normal-form")
    context = field.q % 4
    group = Pic2Group(r)
    word = _parse_word(args.word, group)
    elem = GroupRingElement.zero(context, group)
    for u, L in word:
        elem = elem + GroupRingElement.monomial(WittK.of_unit(u, context), L, group)
    cls = normal_form(elem)
    payload = {
        "q": field.q,
        "context": context,
        "r": r,
        "element": elem.to_json(),
        "normal_form": cls.to_json(),
        "label": str(cls),
        "in_relation_ideal": cls.is_zero(),
    }
    lines = [
        f"group ring element: {elem}",
        f"normal form: {cls}",
        f"in relation ideal: {'yes' if cls.is_zero() else 'no'}",
    ]
    _emit(payload, args.json, lines)
    return 0


def cmd_verify(args) -> int:
    from .verify import run_all

    results = run_all()
    passed = sum(1 for r in results if r.passed)
    payload = {
        "results": [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results],
        "passed": passed,
        "total": len(results),
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for r in results:
            print(r.line())
        print(f"{passed}/{len(results)} checks passed")
        for r in results:
            if not r.passed:
                print(f"counterexample: {r.name}: {r.detail}")
    return 0 if passed == len(results) else 1


# the argparse settings of each valued flag
FLAGS = {
    "--q": {"help": "odd prime power, 'p' or 'p^e'"},
    "--r": {"type": int, "help": "2-torsion rank of the class group"},
    "--gram": {"help": "Gram matrix, rows ';'-separated, entries ','-separated"},
    "--diag": {"help": "diagonal form entries, ','-separated"},
    "--word": {"help": "word of rank-one classes, e.g. '(1,01);(s,11)'"},
}

# subcommand -> (handler, the valued flags it reads); each flag is required,
# and a tuple of flags is a required choice of exactly one of them
COMMANDS = {
    "field-info": (cmd_field_info, ["--q"]),
    "wittk-table": (cmd_wittk_table, ["--q"]),
    "form-diag": (cmd_form_diag, ["--q", "--gram"]),
    "form-witt": (cmd_form_witt, ["--q", ("--diag", "--gram")]),
    "curve-table": (cmd_curve_table, ["--q", "--r"]),
    "curve-eval": (cmd_curve_eval, ["--q", "--r", "--word"]),
    "curve-normal-form": (cmd_curve_normal_form, ["--q", "--r", "--word"]),
    "verify": (cmd_verify, []),
}


class _Parser(argparse.ArgumentParser):
    """Raises each usage error as a CLIError, which main prints as one line."""

    def error(self, message: str):
        raise CLIError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wittcurve",
        description="Exact Witt ring arithmetic for curves over odd finite fields.",
    )
    # subparsers are built with the parent's class, so they raise CLIError too
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=name.replace("-", " "))
        for flag in flags:
            if isinstance(flag, tuple):
                choice = p.add_mutually_exclusive_group(required=True)
                for one in flag:
                    choice.add_argument(one, **FLAGS[one])
            else:
                p.add_argument(flag, required=True, **FLAGS[flag])
        p.add_argument("--json", action="store_true", help="emit a JSON document")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = COMMANDS[args.command][0](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (e.g. `| head`); send the rest to devnull
        # so the interpreter's final flush does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except (CLIError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
