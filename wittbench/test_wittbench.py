"""Self-test of the benchmark at tiny size.

    python3 -m pytest -q wittbench/test_wittbench.py

Each workload runs one short round in-process; every metric BENCHMARK.json
names must come out with its unit, answers deliberately corrupted here (not
in the library) must raise the fail ratio, and a directory without the
library must make run.py exit non-zero without printing a result.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from common import Speed, Tracer  # noqa: E402

run.find_library()

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny_ops(name: str, tracer: Tracer):
    module = run.load_workload(name)
    if name == "forms":
        return module, module.setup(1, tracer, fields=module.FIELDS[:3])
    if name == "algebra":
        return module, module.setup(1, tracer, scale=20)
    if name == "verify":
        return module, module.setup(1, tracer, criteria=module.CRITERIA[:3])
    return module, module.setup(1, tracer)[:3]  # three invocations


def expect_metrics(metrics: dict, declared: list) -> None:
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(metrics[m["name"]]["value"], (int, float)), m["name"]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(name):
    tracer = Tracer(True)
    module, ops = tiny_ops(name, tracer)
    plain, traced = run.timed_phase(ops, 1e-3, tracer, Speed())
    assert plain.attempted and plain.failed == 0 and traced.failed == 0, plain.failures + traced.failures
    metrics, report = run.end_to_end(name, plain, [0.5, 0.4, 0.6], run.peak_rss_mb(name), module.TAIL_PCT)
    expect_metrics(metrics, SPEC["end_to_end"])
    assert any(line.startswith("fail_ratio = 0 ") for line in report)
    expect_metrics(run.per_layer(name, plain, traced, tracer, 1.0, {}), SPEC["per_layer"])


def corrupt(op):
    """The same op, with an answer the oracle must reject."""
    def wrong(tracer):
        answer = op.call(tracer)
        if op.kind.startswith("cli."):
            return subprocess.CompletedProcess(answer.args, 0, stdout='{"q": -1}', stderr="")
        if op.kind.startswith("verify."):
            return [(name, [dataclasses.replace(r, passed=False) for r in rs]) for name, rs in answer]
        return None

    return dataclasses.replace(op, call=wrong)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_corrupted_answers_raise_the_fail_ratio(name):
    tracer = Tracer(False)
    _, ops = tiny_ops(name, tracer)
    plain, _ = run.timed_phase([corrupt(op) for op in ops], 1e-3, tracer, Speed())
    assert plain.failed >= 1
    assert plain.failed / plain.attempted > 0


def test_without_the_library_the_run_fails_and_prints_no_result():
    bare = run.OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "forms", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
