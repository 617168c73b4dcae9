"""Pieces every workload shares: the operation record, the span tracer, the
machine-speed calibration and the timing statistics.

A workload turns its seed into rounds of `Op`s.  The runner (run.py) times
each op from outside the library and then hands the answer to the op's
oracle, outside the timed region.  Nothing in this module imports wittcurve,
so the runner can refuse to start before the library is found.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Optional


@dataclass
class Op:
    """One closed-loop operation.

    `kind` names the span the runner opens around the call; for an op that
    is a single library call it is the layer metric prefix, e.g.
    "forms.witt_decompose".  `call(tracer)` does the timed work and returns
    the answer.  `check(answer, exc)` runs right after, outside the timed
    region, and returns (checks made, failure messages); an exception the
    call raised arrives in `exc`, so the oracle can accept the expected ones.
    """

    kind: str
    call: Callable[["Tracer"], Any]
    check: Callable[[Any, Optional[BaseException]], tuple[int, list[str]]]


# Kernel time that defines the reference speed: about the kernel's time on an
# idle 2-core x86_64 machine under CPython 3.11.
REFERENCE_KERNEL_S = 1.0e-3
PROBE_INTERVAL_S = 0.05  # wall time between two timer-driven speed probes
PROBE_NEIGHBOURS = 2  # probes on each side of an op that also describe its speed


def _kernel() -> int:
    """Fixed pure-Python work (tuples, a dict, hashing, int arithmetic), ~1 ms."""
    table: dict = {}
    acc = 0
    for i in range(4000):
        t = (i, i * 7 % 13)
        table[t[1]] = table.get(t[1], 0) + t[0]
        acc ^= hash(t) & 0xFFFF
    return acc


def kernel_seconds(reps: int) -> float:
    """Median time of `reps` runs of the kernel."""
    runs = []
    for _ in range(reps):
        t = time.perf_counter()
        _kernel()
        runs.append(time.perf_counter() - t)
    return statistics.median(runs)


class Speed:
    """How fast the machine runs, sampled all through the run.

    On a shared machine (a 2-core x86_64 VM, CPython 3.11) the same work
    took 20 % longer from one minute to the next, and a fixed kernel slowed
    by the same share: its ratio to library work varied by under 1 % between
    runs whose raw times varied by 19 %.  So while the benchmark runs, an
    interval timer interrupts it every PROBE_INTERVAL_S and times the kernel
    (a probe).  The probes during an op and PROBE_NEIGHBOURS on each side of
    it give the machine's speed then, and `scale` turns the op's seconds into
    seconds at the reference speed, where a probe reads `reference`.
    `clock` leaves out the time the probes take, so an op is not charged for
    them.  A workload whose work runs in child processes probes with its own
    `measure` instead, between ops.
    """

    def __init__(self, measure: Callable[[int], float] = kernel_seconds,
                 reference: float = REFERENCE_KERNEL_S):
        self.measure = measure
        self.reference = reference
        self.times: list[float] = []
        self.values: list[float] = []
        self.busy = 0.0
        self._probing = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _on_alarm(self, signum, frame) -> None:
        if not self._probing:  # a probe is running already
            self.probe()

    def probe(self, reps: int = 3) -> None:
        self._probing = True
        try:
            begin = time.perf_counter()
            value = self.measure(reps)
            self.times.append(begin)
            self.values.append(value)
            self.busy += time.perf_counter() - begin
        finally:
            self._probing = False

    def clock(self) -> float:
        """perf_counter minus the time spent in probes so far."""
        while True:
            busy = self.busy
            now = time.perf_counter()
            if busy == self.busy:
                return now - busy

    def scale(self, start: float, end: float) -> float:
        """Factor from seconds measured over [start, end] (perf_counter times)
        to seconds at the reference speed."""
        lo = max(bisect.bisect_left(self.times, start) - PROBE_NEIGHBOURS, 0)
        hi = bisect.bisect_right(self.times, end) + PROBE_NEIGHBOURS
        return self.reference / statistics.fmean(self.values[lo:hi])

    def run_scale(self) -> float:
        """Factor for the run as a whole, from its median probe."""
        return self.reference / statistics.median(self.values)


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        parent = tracer._stack[-1] if tracer._stack else -1
        self.index = len(tracer.spans)
        tracer.spans.append([name, 0.0, 0.0, parent, tracer.op_id])

    def __enter__(self):
        self.tracer._stack.append(self.index)
        self.tracer.spans[self.index][1] = self.tracer.clock()
        return self

    def __exit__(self, *exc):
        self.tracer.spans[self.index][2] = self.tracer.clock()
        self.tracer._stack.pop()
        return False


class Tracer:
    """Spans and counters kept in memory; a disabled tracer records nothing.

    A span is [name, start, end, parent index or -1, op id or -1].  Counters
    are added at the same boundaries as the spans, so a ratio such as
    vectors scanned per call is taken where the work happens.
    """

    def __init__(self, enabled: bool, clock: Callable[[], float] = time.perf_counter):
        self.enabled = enabled
        self.clock = clock
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL_SPAN

    def count(self, name: str, n: float = 1) -> None:
        if self.enabled:
            self.counters[name] += n


def quantile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile of `values` (pct in 0..100)."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)


def tail_percentile(n: int) -> float:
    """Highest percentile on the ladder with at least ten samples beyond it."""
    for pct in TAIL_LADDER:
        if n * (100.0 - pct) / 100.0 >= 10:
            return pct
    return 50.0


def beyond(values: list[float], threshold: float) -> int:
    return sum(1 for v in values if v > threshold)


@dataclass
class Phase:
    """What the timed phase produced: round times, op latencies and checks.

    Times are at the reference speed (see Speed); `raw_seconds` is the op
    time as the clock read it, which decides when the phase ends.
    """

    round_seconds: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    seconds: float = 0.0
    raw_seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
