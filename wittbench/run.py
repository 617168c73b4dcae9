"""wittcurve benchmark: four closed-loop workloads, one client each.

    python3 wittbench/run.py                      # every workload, tracing off
    python3 wittbench/run.py --trace 1            # every workload, per-layer metrics
    python3 wittbench/run.py --workload forms --seed 7 --seconds 15 --trace 0

Run from the root of a checkout; the library is imported from ./src.  Every
workload is set up, then timed round by round for --seconds; each op's answer
goes to its oracle right after the op, outside the timed region, and op times
are taken to a reference machine speed (see common.Speed).  The last line of
standard output is one JSON object: correct, attempted, failed and the
metrics (end-to-end with --trace 0, per-layer with --trace 1).  Lines before
it give the environment record and a readable report.  A traced run keeps
its spans in memory and writes them to .wittbench_out/ when it ends.

Exit codes: 0 when the run completed (also when answers were wrong; see
`correct`), 2 when the library cannot be found or the run could not start.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import wl_cli  # noqa: E402
from common import Phase, Speed, Tracer, beyond, quantile, tail_percentile  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".wittbench_out"

WORKLOADS = ["verify", "forms", "algebra", "cli"]
SETUP_PROBE_REPS = 30  # kernel runs in the speed probe that closes set-up
SETUP_RUNS = 3  # set-ups per run whose median is setup_s: this one and two fresh interpreters
FAILURES_SHOWN = 5


def fail(message: str) -> None:
    print(f"wittbench: {message}", file=sys.stderr)
    sys.exit(2)


def find_library() -> None:
    """Put ./src first on the import path, or stop when the checkout has no library."""
    if not (SRC / "wittcurve" / "__init__.py").is_file():
        fail(f"no wittcurve package under {SRC}; run from the root of a wittcurve checkout")
    sys.path.insert(0, str(SRC))


def load_workload(name: str):
    module = importlib.import_module(f"wl_{name}")
    lib = sys.modules.get("wittcurve")
    if lib is not None and Path(lib.__file__).resolve().parent != (SRC / "wittcurve").resolve():
        fail(f"imported wittcurve from {lib.__file__}, not from {SRC}")
    return module


# ---------------------------------------------------------------- environment

def environment() -> dict:
    """Where the numbers came from; the isotropy scan backend moves `forms`."""
    from importlib import metadata

    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    try:
        import numba  # noqa: F401

        numba_imports = True
    except ImportError:
        numba_imports = False
    no_numba = os.environ.get("WITTCURVE_NO_NUMBA", "")
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "numba_imports": numba_imports,
        "WITTCURVE_NO_NUMBA": no_numba,
        "scan_backend": "numba" if numba_imports and no_numba != "1" else "numpy",
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "git_commit": commit,
    }


# ---------------------------------------------------------------- timed phase

def run_round(ops, tracer: Tracer, first_id: int, phase: Phase, speed: Speed, in_child: bool = False) -> None:
    """Each op timed alone, then checked by its oracle outside the timed region.

    Answers are dropped once checked, so the benchmark holds no growing heap
    that would lengthen the program's garbage-collection pauses.  When the
    round ends, each op's time is taken to the reference speed by the speed
    probes around it; the round's time is the sum of those op times.
    """
    timed = []
    for i, op in enumerate(ops):
        tracer.op_id = first_id + i
        start, t = time.perf_counter(), tracer.clock()
        try:
            with tracer.span(op.kind):
                answer = op.call(tracer)
            exc = None
        except Exception as err:  # judged by the op's oracle, which knows the expected errors
            answer, exc = None, err
        seconds = tracer.clock() - t
        timed.append((start, time.perf_counter(), seconds))
        if in_child:
            speed.probe()
        phase.raw_seconds += seconds
        try:
            n, bad = op.check(answer, exc)
        except Exception as err:  # an answer of the wrong shape is a wrong answer
            n, bad = 1, [f"{op.kind}: unreadable answer {answer!r:.200}: {type(err).__name__}: {err}"]
        phase.attempted += n
        phase.failed += len(bad)
        phase.failures += bad
    speed.probe()  # so the last ops have a probe after them
    round_seconds = 0.0
    for start, end, seconds in timed:
        seconds *= speed.scale(start, end)
        phase.latencies.append(seconds)
        round_seconds += seconds
    phase.round_seconds.append(round_seconds)
    phase.seconds += round_seconds


def timed_phase(ops, seconds: float, tracer: Tracer, speed: Speed, in_child: bool = False) -> tuple[Phase, Phase]:
    """Whole rounds until `seconds` of op time, as the clock reads it, have passed.

    Untraced, every round is plain.  Traced, rounds alternate plain and
    traced on the same ops, so their time ratio is the tracing overhead.
    Returns (plain, traced); the traced phase is empty when untraced.
    """
    plain, traced = Phase(), Phase()
    off = Tracer(False, tracer.clock)
    next_id = 0
    order = [(plain, off), (traced, tracer)] if tracer.enabled else [(plain, off)]
    while plain.raw_seconds + traced.raw_seconds < seconds:
        for phase, tr in order:
            run_round(ops, tr, next_id, phase, speed, in_child)
            next_id += len(ops)
        order.reverse()  # ABBA: neither kind of round always runs first
    return plain, traced


# ---------------------------------------------------------------- metrics

def peak_rss_mb(name: str) -> float:
    """Peak resident memory so far: of this process, or of the CLI children."""
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def end_to_end(name: str, plain: Phase, setups: list[float], peak_mb: float,
               tail_pct: float) -> tuple[dict, list[str]]:
    lat = plain.latencies
    n = len(lat)
    tail = quantile(lat, tail_pct)
    values = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(plain.round_seconds), "s"),
        "ops_per_s": (n / plain.seconds, "1/s"),
        "op_p50_ms": (quantile(lat, 50) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups: " + ", ".join(f"{s:.4f}" for s in setups),
        "wall_s": f"median of {len(plain.round_seconds)} rounds of {n // len(plain.round_seconds)} ops"
        + (" (one battery each)" if name == "verify" else ""),
        "op_tail_ms": f"p{tail_pct:g} of {n} ops, {beyond(lat, tail)} beyond it",
        "peak_rss_mb": "peak of the CLI child processes" if name == "cli" else "peak of this process",
    }
    report = [f"{k} = {v:.6g} {u}" + (f"  ({notes[k]})" if k in notes else "") for k, (v, u) in values.items()]
    ratio = plain.failed / plain.attempted if plain.attempted else 1.0
    report.append(f"fail_ratio = {ratio:.6g}  ({plain.failed} of {plain.attempted} checks failed)")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, report


def per_layer(name: str, plain: Phase, traced: Phase, tracer: Tracer, scale: float, extra: dict) -> dict:
    """Layer metrics from the traced rounds; span times are taken to the
    reference speed with the run's median speed probe (`scale`)."""
    c = tracer.counters
    spans: dict[str, list[float]] = {}
    for span_name, start, end, _, _ in tracer.spans:
        spans.setdefault(span_name, []).append((end - start) * scale)

    def sp(span):
        return spans.get(span, [])

    def p50(span, unit):
        return quantile(sp(span), 50) * unit

    def tail(span, unit):
        d = sp(span)
        return quantile(d, tail_percentile(len(d))) * unit

    def per(counter, span):
        calls = len(sp(span))
        return c[counter] / calls if calls else 0.0

    batteries = len(traced.round_seconds) if name == "verify" else 0
    class_ops = c["curve.class_ops"]
    m = {
        "fields.make_field.s": (sum(sp("fields.make_field")), "s"),
        "fields.op_tables.s": (sum(sp("fields.op_tables")), "s"),
        "fields.op_tables.bytes": (c["fields.op_tables.bytes"], "bytes"),
        "fields.square_class.calls": (len(sp("fields.square_class")), "count"),
        "fields.square_class.p50_us": (p50("fields.square_class", 1e6), "us"),
        "fields.canonical_nonsquare.s": (sum(sp("fields.canonical_nonsquare")), "s"),
        "forms.diagonalize.calls": (len(sp("forms.diagonalize")), "count"),
        "forms.diagonalize.p50_ms": (p50("forms.diagonalize", 1e3), "ms"),
        "forms.diagonalize.degenerate": (c["forms.diagonalize.degenerate"], "count"),
        "forms.witt_decompose.calls": (len(sp("forms.witt_decompose")), "count"),
        "forms.witt_decompose.p50_ms": (p50("forms.witt_decompose", 1e3), "ms"),
        "forms.witt_decompose.tail_ms": (tail("forms.witt_decompose", 1e3), "ms"),
        "forms.hyperbolic_planes": (per("forms.hyperbolic_planes", "forms.witt_decompose"), "count/call"),
        "forms.witt_equal.calls": (len(sp("forms.witt_equal")), "count"),
        "forms.witt_equal.p50_ms": (p50("forms.witt_equal", 1e3), "ms"),
        "forms.witt_equal.tail_ms": (tail("forms.witt_equal", 1e3), "ms"),
        "forms.witt_invariants.p50_us": (p50("forms.witt_invariants", 1e6), "us"),
        "forms.find_isotropic.calls": (len(sp("forms.find_isotropic")), "count"),
        "forms.find_isotropic.p50_ms": (p50("forms.find_isotropic", 1e3), "ms"),
        "forms.find_isotropic.tail_ms": (tail("forms.find_isotropic", 1e3), "ms"),
        "forms.find_isotropic.vectors_scanned": (
            per("forms.find_isotropic.vectors_scanned", "forms.find_isotropic"), "count/call"),
        "forms.find_isotropic.hit_ratio": (per("forms.find_isotropic.hits", "forms.find_isotropic"), "ratio"),
        "wittk.from_concrete_form.p50_us": (p50("wittk.from_concrete_form", 1e6), "us"),
        "curve.class_ops": (class_ops, "count"),
        "curve.class_ops.us_per_op": (sum(sp("curve.class_ops")) / class_ops * 1e6 if class_ops else 0.0, "us"),
        "curve.reduce_word.calls": (len(sp("curve.reduce_word")), "count"),
        "curve.reduce_word.letters": (per("curve.reduce_word.letters", "curve.reduce_word"), "count/call"),
        "curve.reduce_word.p50_us": (p50("curve.reduce_word", 1e6), "us"),
        "groupring.mul.calls": (len(sp("groupring.mul")), "count"),
        "groupring.mul.term_pairs": (per("groupring.mul.term_pairs", "groupring.mul"), "count/call"),
        "groupring.mul.p50_ms": (p50("groupring.mul", 1e3), "ms"),
        "groupring.normal_form.calls": (len(sp("groupring.normal_form")), "count"),
        "groupring.normal_form.p50_ms": (p50("groupring.normal_form", 1e3), "ms"),
        "groupring.ideal_closure.calls": (len(sp("groupring.ideal_closure")), "count"),
        "groupring.ideal_closure.s": (p50("groupring.ideal_closure", 1), "s"),
        "groupring.ideal_size": (per("groupring.ideal_size", "groupring.ideal_closure"), "count"),
        "groupring.verify_isomorphism.s": (p50("groupring.verify_isomorphism", 1), "s"),
    }
    for i in range(1, 11):
        m[f"verify.c{i:02d}.s"] = (p50(f"verify.c{i:02d}", 1), "s")
    m["verify.checks"] = (traced.attempted / batteries if batteries else 0, "count")
    m["cli.import_s"] = (extra.get("cli.import_s", 0.0) * scale, "s")
    for sub in wl_cli.SUBCOMMANDS:
        m[f"cli.{sub}.p50_ms"] = (p50(f"cli.{sub}", 1e3), "ms")
    m["cli.expected_exit2"] = (c["cli.expected_exit2"], "count")
    m["trace.overhead_ratio"] = (traced.seconds / plain.seconds - 1, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def cli_import_seconds(runs: int = 3) -> float:
    """Median time for a fresh interpreter to import wittcurve.cli."""
    code = "import time; t = time.perf_counter(); import wittcurve.cli; print(time.perf_counter() - t)"
    out = []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=wl_cli.child_env(), timeout=60, check=True)
        out.append(float(proc.stdout.strip()))
    return statistics.median(out)


# ---------------------------------------------------------------- entry points

def setup_probe(workload: str, seed: int) -> float:
    """setup_s measured in a fresh interpreter, import included."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
         "--setup-probe"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    if proc.returncode != 0:
        fail(f"set-up probe for {workload} failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def run_one(args) -> int:
    find_library()
    # one CPU for this process and every child it starts, so a speed probe
    # runs on the core the work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    module = load_workload(args.workload)
    in_child = getattr(module, "IN_CHILD", False)
    if in_child:
        speed = Speed(module.speed_probe, module.REFERENCE_PROBE_S)
    else:
        speed = Speed()
        speed.start()
    tracer = Tracer(bool(args.trace), speed.clock)
    ops = module.setup(args.seed, tracer)
    setup_end = time.perf_counter()
    setup_s = setup_end - T0 - speed.busy
    # the pre-built inputs are the benchmark's, not the program's: keep them
    # out of the collector's full passes, which would otherwise scan them all
    gc.freeze()
    speed.probe(SETUP_PROBE_REPS)
    setup_s *= speed.scale(T0, setup_end)
    if args.setup_probe:
        speed.stop()
        print(repr(setup_s))
        return 0

    plain, traced = timed_phase(ops, args.seconds, tracer, speed, in_child)
    speed.stop()
    peak_mb = peak_rss_mb(args.workload)  # before any set-up probe starts a child
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for msg in (plain.failures + traced.failures)[:FAILURES_SHOWN]:
        print(f"FAILED: {msg}")

    if args.trace:
        extra = {"cli.import_s": cli_import_seconds()} if args.workload == "cli" else {}
        metrics = per_layer(args.workload, plain, traced, tracer, speed.run_scale(), extra)
        for k, v in metrics.items():
            print(f"{k} = {v['value']:.6g} {v['unit']}")
        write_trace(args, env, tracer)
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed
    else:
        setups = [setup_s] + [setup_probe(args.workload, args.seed) for _ in range(SETUP_RUNS - 1)]
        metrics, report = end_to_end(args.workload, plain, setups, peak_mb, module.TAIL_PCT)
        report.append(f"machine speed: probe median {statistics.median(speed.values) * 1e3:.4g} ms over "
                      f"{len(speed.values)} probes (reference {speed.reference * 1e3:g} ms); op time "
                      f"{plain.raw_seconds:.4g} s as read, {plain.seconds:.4g} s at the reference speed")
        for line in report:
            print(line)
        attempted, failed = plain.attempted, plain.failed
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def write_trace(args, env: dict, tracer: Tracer) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed, "env": env,
                             "counters": dict(tracer.counters),
                             "span_fields": ["name", "start", "end", "parent", "op_id"]}) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    print(f"trace: {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")


def run_all(args) -> int:
    """Each workload in its own interpreter, so each pays its own import."""
    find_library()
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            fail(f"workload {name} failed: {proc.stderr.strip()}")
        print(f"## {name}")
        for line in lines[:-1]:
            print("   " + line)
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            total["metrics"][f"{name}.{k}"] = v
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
