"""Workload `cli`: seeded `python -m wittcurve.cli` invocations, one at a time.

Each invocation pays the interpreter, the import, field construction and the
lazy tables, so this is the cold-start use of the layers that `forms`
exercises warm; a change that moves cost into import or set-up shows here.
A round runs each of the seven non-`verify` subcommands twice with `--json`
plus two malformed invocations, whose expected outcome is exit 2 with a
one-line diagnostic.  Set-up is only the generation of the invocation list.

The library is imported here only by the oracle, after the timed phase, to
recompute every answer the CLI printed.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from common import Op

SUBCOMMANDS = [
    "field-info", "wittk-table", "form-diag", "form-witt",
    "curve-table", "curve-eval", "curve-normal-form",
]
PER_ROUND = 2
MALFORMED_PER_ROUND = 2

# (p, e, text the CLI accepts); q <= 211 wherever a rank-3 split may happen
SMALL_FIELDS = [(3, 1, "3"), (5, 1, "5"), (7, 1, "7"), (13, 1, "13"), (101, 1, "101"),
                (211, 1, "211"), (3, 2, "9"), (5, 2, "5^2"), (3, 3, "27")]
LARGE_FIELDS = [(1019, 1, "1019"), (3001, 1, "3001"), (3, 5, "3^5"), (7, 3, "343"), (11, 3, "11^3")]

MALFORMED = [
    ["field-info", "--q", "15"],
    ["field-info", "--q", "abc"],
    ["form-diag", "--q", "7", "--gram", "1,2;3,4"],
    ["form-diag", "--q", "7", "--gram", "1,0;0,0"],
    ["form-witt", "--q", "7", "--diag", "1,0,2"],
    ["curve-table", "--q", "7", "--r", "9"],
    ["curve-eval", "--q", "7", "--r", "2", "--word", "(1,011)"],
    ["curve-normal-form", "--q", "5", "--r", "1", "--word", "(x,1)"],
    ["wittk-table", "--q", "2"],
]

TAIL_PCT = 80.0
TIMEOUT_S = 60

# A child process does each op's work, so the runner takes no timer-driven
# kernel probes; after each op it times a fixed child that starts an
# interpreter and imports stdlib modules.  On a 2-core x86_64 VM, over three
# runs whose CLI op times differed by up to 31 %, the ratio of op time to
# this probe's time moved 3.5 %, and to the in-process kernel's time 26 %.
IN_CHILD = True
SPEED_PROBE = [sys.executable, "-c", "import json, decimal, argparse, email.parser, fractions"]
REFERENCE_PROBE_S = 0.07


def speed_probe(reps: int) -> float:
    """Seconds for the fixed child; `reps` is ignored (one child is ~70 ms)."""
    t = time.perf_counter()
    subprocess.run(SPEED_PROBE, capture_output=True, timeout=TIMEOUT_S, check=True)
    return time.perf_counter() - t


@dataclass
class Invocation:
    subcommand: str
    argv: list
    spec: tuple  # what the oracle needs to recompute the answer; None if malformed


def _entry_text(coeffs) -> str:
    return str(coeffs[0]) if len(coeffs) == 1 else "(" + ",".join(map(str, coeffs)) + ")"


def _rand_coeffs(rng, p, e, nonzero=True):
    while True:
        c = [rng.randrange(p) for _ in range(e)]
        if any(c) or not nonzero:
            return c


def _word(rng, r: int, n: int):
    letters = [(rng.choice("1s"), format(rng.randrange(1 << r), f"0{r}b") if r else "") for _ in range(n)]
    return letters, ";".join(f"({u},{bits})" for u, bits in letters)


def _well_formed(rng, sub: str) -> Invocation:
    p, e, qtext = rng.choice(SMALL_FIELDS + LARGE_FIELDS)
    if sub == "field-info":
        return Invocation(sub, ["--q", qtext], (p, e))
    if sub == "wittk-table":
        # its identity checks decompose rank-4 forms, so q stays small
        p, e, qtext = rng.choice(SMALL_FIELDS)
        return Invocation(sub, ["--q", qtext], (p, e))
    if sub == "form-diag":
        return _form_diag(rng)
    if sub == "form-witt":
        small = rng.random() < 0.6
        p, e, qtext = rng.choice(SMALL_FIELDS if small else LARGE_FIELDS)
        n = rng.randint(1, 5) if small else rng.randint(1, 2)
        entries = [_rand_coeffs(rng, p, e) for _ in range(n)]
        text = ",".join(_entry_text(c) for c in entries)
        return Invocation(sub, ["--q", qtext, "--diag", text], (p, e, text))
    if sub == "curve-table":
        r = rng.randint(0, 3)
        return Invocation(sub, ["--q", qtext, "--r", str(r)], (p, e, r))
    r = rng.choice((0, 1, 2, 4, 8, 16))
    letters, text = _word(rng, r, rng.randint(1, 12))
    return Invocation(sub, ["--q", qtext, "--r", str(r), "--word", text], (p, e, r, letters))


def _form_diag(rng) -> Invocation:
    """A nondegenerate Gram matrix in CLI syntax.

    Over a prime field it is L diag(d) L^T for a unit lower-triangular L;
    over an extension it is diagonal, with a hyperbolic block [[0, c], [c, 0]]
    in front half the time, so the zero-diagonal pivot rule is walked too.
    """
    p, e, qtext = rng.choice(SMALL_FIELDS)
    n = rng.randint(1, 3)
    if e == 1:
        d = [rng.randrange(1, p) for _ in range(n)]
        lower = [[1 if i == j else (rng.randrange(p) if i > j else 0) for j in range(n)] for i in range(n)]
        cells = [[[sum(lower[i][k] * d[k] * lower[j][k] for k in range(n)) % p] for j in range(n)]
                 for i in range(n)]
    else:
        cells = [[_rand_coeffs(rng, p, e) if i == j else [0] * e for j in range(n)] for i in range(n)]
        if n >= 2 and rng.random() < 0.5:
            cells[0][0] = cells[1][1] = [0] * e
            cells[0][1] = cells[1][0] = _rand_coeffs(rng, p, e)
    text = ";".join(",".join(_entry_text(c) for c in row) for row in cells)
    return Invocation("form-diag", ["--q", qtext, "--gram", text], (p, e, text))


def setup(seed: int, tracer):
    """The invocation list for one round; the seed picks fields, forms and words."""
    rng = random.Random(seed)
    invocations = [_well_formed(rng, sub) for sub in SUBCOMMANDS for _ in range(PER_ROUND)]
    for argv in rng.sample(MALFORMED, MALFORMED_PER_ROUND):
        invocations.append(Invocation(argv[0], argv[1:], None))
    rng.shuffle(invocations)
    return [_op(inv) for inv in invocations]


def child_env() -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv: list) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "wittcurve.cli", *argv],
        capture_output=True, text=True, env=child_env(), timeout=TIMEOUT_S,
    )


def _op(inv: Invocation) -> Op:
    argv = [inv.subcommand, *inv.argv] + ([] if inv.spec is None else ["--json"])

    def call(tr):
        proc = run_cli(argv)
        if inv.spec is None and proc.returncode == 2:
            tr.count("cli.expected_exit2")
        return proc

    def check(proc, exc):
        if exc is not None:
            return 1, [f"{' '.join(argv)}: {type(exc).__name__}: {exc}"]
        if inv.spec is None:
            lines = proc.stderr.splitlines()
            ok = proc.returncode == 2 and not proc.stdout and len(lines) == 1 and lines[0].startswith("error: ")
            want = f"{' '.join(argv)}: want exit 2 and one line, got {proc.returncode}: {proc.stderr!r}"
            return 1, [] if ok else [want]
        if proc.returncode != 0:
            return 1, [f"{' '.join(argv)}: exit {proc.returncode}: {proc.stderr.strip()}"]
        try:
            payload = json.loads(proc.stdout)
        except ValueError as err:
            return 1, [f"{' '.join(argv)}: output is not JSON: {err}"]
        diff = _disagreement(inv, payload)
        return 1, [] if diff is None else [f"{' '.join(argv)}: {diff}"]

    return Op(f"cli.{inv.subcommand}", call, check)


# ---------------------------------------------------------------- oracle

def _el(a):
    return a.coeffs[0] if a.field.e == 1 else list(a.coeffs)


def _disagreement(inv: Invocation, out: dict):
    """None when the CLI's JSON agrees with the library, else what differs."""
    import wittcurve as wc

    sub, spec = inv.subcommand, inv.spec
    field = wc.make_field(spec[0], spec[1])
    ctx = field.q % 4
    if sub == "field-info":
        want = {"p": field.p, "e": field.e, "q": field.q, "q_mod_4": ctx,
                "nonsquare": _el(wc.canonical_nonsquare(field)), "modulus": list(field.modulus)}
    elif sub == "wittk-table":
        elems = wc.WittK.elements(ctx)
        want = {"q": field.q, "context": ctx, "classes": [str(a) for a in elems],
                "add": [[str(a + b) for b in elems] for a in elems],
                "mul": [[str(a * b) for b in elems] for a in elems]}
        if not all(item["passed"] for item in out.get("identities", [{"passed": False}])):
            return "an identity failed"
    elif sub == "form-diag":
        rows = [[_entry(field, x) for x in _split(row, ",")] for row in _split(spec[2], ";")]
        diag, t = wc.diagonalize_with_basis(wc.GramForm(field, rows))
        want = {"q": field.q, "entries": [_el(a) for a in diag.entries],
                "transform": [[_el(a) for a in row] for row in t]}
    elif sub == "form-witt":
        form = wc.DiagonalForm(field, [_entry(field, x) for x in _split(spec[2], ",")])
        h, kernel = wc.witt_decompose(form)
        want = {"q": field.q, "rank": form.rank, "hyperbolic_count": h,
                "anisotropic_kernel": [_el(a) for a in kernel.entries], "rank_parity": form.rank % 2,
                "signed_discriminant": str(wc.signed_discriminant(form)) if form.rank else "0",
                "witt_class": str(wc.from_concrete_form(form))}
    elif sub == "curve-table":
        group = wc.Pic2Group(spec[2])
        classes = wc.enumerate_classes(ctx, group)
        index = {c: i for i, c in enumerate(classes)}
        want = {"q": field.q, "context": ctx, "r": group.r, "labels": [str(c) for c in classes],
                "add": [[index[a + b] for b in classes] for a in classes],
                "mul": [[index[a * b] for b in classes] for a in classes]}
    else:
        group = wc.Pic2Group(spec[2])
        word = [(wc.SquareClass.from_string(u), group.element(bits) if bits else group.identity)
                for u, bits in spec[3]]
        if sub == "curve-eval":
            cls = wc.reduce_word(word, ctx, group)
            want = {"label": str(cls), "class": cls.to_json(), "rank_parity": int(cls.parity == "odd")}
        else:
            elem = wc.GroupRingElement.zero(ctx, group)
            for u, L in word:
                elem = elem + wc.GroupRingElement.monomial(wc.WittK.of_unit(u, ctx), L, group)
            cls = wc.normal_form(elem)
            want = {"label": str(cls), "normal_form": cls.to_json(), "in_relation_ideal": cls.is_zero()}
    bad = [k for k, v in want.items() if out.get(k) != v]
    return None if not bad else f"disagrees with the library on {bad}"


def _split(text: str, sep: str) -> list:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += ch == "("
        depth -= ch == ")"
        if ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    return parts + [text[start:]]


def _entry(field, text: str):
    if text.startswith("("):
        return field.element([int(c) for c in text[1:-1].split(",")])
    return field.element(int(text))
