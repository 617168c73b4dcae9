"""Workload `verify`: one full battery per op, each criterion in its own span.

This is what `wittcurve verify` and the acceptance tests run.  Its inputs
are fixed by the library, so the seed does not change them.  Forms
(criterion 5) and curve arithmetic (criterion 7) dominate it, and it uses
only q <= 27, so a change to the isotropy scan should not move it.

The op is the battery, because the battery is what a caller waits for: its
time is the time to a certified battery.  The traced run times the ten
criteria one by one (verify.c01 .. verify.c10).  The oracle is that every
CheckResult passed; the check count is the number of CheckResults.
"""

from __future__ import annotations

import wittcurve as wc
from common import Op
from wittcurve.verify import CRITERIA

# the fields the battery builds, so make_field and the lazy tables are warm
# before the first battery is timed
BATTERY_FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (5, 2), (3, 3)]

TAIL_PCT = 50.0  # a run holds only a few batteries


def setup(seed: int, tracer, criteria=CRITERIA):
    """The one op, a battery of `criteria`; the seed is not used."""
    for p, e in BATTERY_FIELDS:
        with tracer.span("fields.make_field"):
            field = wc.make_field(p, e)
        with tracer.span("fields.canonical_nonsquare"):
            wc.canonical_nonsquare(field)

    def battery(tr):
        out = []
        for i, (name, fn) in enumerate(criteria, 1):
            with tr.span(f"verify.c{i:02d}"):
                out.append((name, fn()))
        return out

    return [Op("verify.battery", battery, check)]


def check(answer, exc):
    if exc is not None:
        return 1, [f"battery raised {type(exc).__name__}: {exc}"]
    results = [r for _, rs in answer for r in rs]
    bad = [f"{name}: no checks" for name, rs in answer if not rs]
    bad += [r.line() for r in results if not r.passed]
    return max(len(results), 1), bad
