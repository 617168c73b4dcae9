import json
import os
import subprocess
import sys
import time
from pathlib import Path

import wittcurve
from wittcurve.cli import main
from wittcurve.curve import WittClass, enumerate_classes
from wittcurve.fields import SquareClass, make_field
from wittcurve.forms import DiagonalForm, GramForm, witt_invariants
from wittcurve.groupring import GroupRingElement
from wittcurve.pic2 import Pic2Group
from wittcurve.verify import CheckResult
from wittcurve.wittk import WittK


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def test_field_info_prime(capsys):
    code, out, _ = run(capsys, "field-info", "--q", "7")
    assert code == 0
    assert "q = 7 = 7^1" in out
    assert "canonical nonsquare: 3" in out
    assert "q mod 4 = 3" in out


def test_field_info_json_extension(capsys):
    code, data, _ = run_json(capsys, "field-info", "--q", "27")
    assert code == 0
    assert data["p"] == 3 and data["e"] == 3 and data["q"] == 27
    assert data["modulus"] == [1, 2, 0, 1]
    assert data["q_mod_4"] == 3


def test_field_info_rejects_even_and_garbage(capsys):
    for bad in ("8", "2^5", "6", "x", "0"):
        code, _, err = run(capsys, "field-info", "--q", bad)
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1


def test_field_info_rejects_huge_q_at_once(capsys):
    # the cardinality bound is checked before trial division, before the
    # literal prime-power search and without building 3^100000000
    for q in ("1000000000000000003", "2305843009213693951", "3^100000000"):
        start = time.perf_counter()
        code, out, err = run(capsys, "field-info", "--q", q)
        assert time.perf_counter() - start < 0.5, q
        assert code == 2 and out == ""
        assert err.startswith("error: cardinality ") and err.count("\n") == 1


def test_wittk_table_text(capsys):
    code, out, _ = run(capsys, "wittk-table", "--q", "5")
    assert code == 0
    assert out.count("PASS") == 4
    assert "<s> | <s> |   E |   0 | <1>" in out


def test_wittk_table_json_matches_arithmetic(capsys):
    for q in ("5", "7", "9"):
        code, data, _ = run_json(capsys, "wittk-table", "--q", q)
        assert code == 0
        context = data["context"]
        elems = WittK.elements(context)
        assert data["classes"] == [str(a) for a in elems]
        for i, a in enumerate(elems):
            for j, b in enumerate(elems):
                assert data["add"][i][j] == str(a + b)
                assert data["mul"][i][j] == str(a * b)


def test_form_diag_antidiagonal(capsys):
    code, data, _ = run_json(capsys, "form-diag", "--q", "7", "--gram", "0,1;1,0")
    assert code == 0
    assert data["entries"] == [2, 3]
    field = make_field(7)
    t = data["transform"]
    g = GramForm(field, ((field.zero, field.one), (field.one, field.zero)))
    for i in range(2):
        for j in range(2):
            acc = field.zero
            for a in range(2):
                for b in range(2):
                    acc = acc + field.element(t[a][i]) * g.matrix[a][b] * field.element(t[b][j])
            expect = field.element(data["entries"][i]) if i == j else field.zero
            assert acc == expect


def test_form_diag_extension_entries(capsys):
    code, data, _ = run_json(
        capsys, "form-diag", "--q", "3^2", "--gram", "(1,0),(0,1);(0,1),(1,0)"
    )
    assert code == 0
    assert len(data["entries"]) == 2


def test_form_diag_degenerate_and_malformed(capsys):
    code, _, err = run(capsys, "form-diag", "--q", "5", "--gram", "0,0;0,0")
    assert code == 2 and "radical" in err
    code, _, err = run(capsys, "form-diag", "--q", "5", "--gram", "0,1;1")
    assert code == 2 and err.startswith("error:")
    code, _, err = run(capsys, "form-diag", "--q", "5", "--gram", "0,1;1,0;1,1")
    assert code == 2 and err.startswith("error:")


def test_empty_cells_are_malformed(capsys):
    for argv in (
        ("form-diag", "--q", "7", "--gram", "1,,0;0,1"),
        ("form-diag", "--q", "7", "--gram", "1,0;0,1;"),
        ("form-witt", "--q", "7", "--diag", "1,"),
        ("form-witt", "--q", "7", "--diag", ",1"),
        ("form-witt", "--q", "9", "--diag", "(1,,2)"),
        ("form-witt", "--q", "9", "--diag", "()"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert len(err.splitlines()) == 1 and err.startswith("error: bad field entry "), (argv, err)


def test_empty_diag_is_the_rank_zero_form(capsys):
    code, data, _ = run_json(capsys, "form-witt", "--q", "7", "--diag", "")
    assert code == 0
    assert data["hyperbolic_count"] == 0 and data["anisotropic_kernel"] == []
    assert data["witt_class"] == "0"


def test_form_witt_hyperbolic(capsys):
    # det <1,2,3,4> = 24 = 4, a square mod 5; rank 4 gives an even sign
    # exponent, so the signed discriminant is trivial and the class is zero
    code, data, _ = run_json(capsys, "form-witt", "--q", "5", "--diag", "1,2,3,4")
    assert code == 0
    assert data["hyperbolic_count"] == 2
    assert data["anisotropic_kernel"] == []
    assert data["signed_discriminant"] == "1"
    assert data["witt_class"] == "0"


def test_form_witt_gram_input(capsys):
    code, data, _ = run_json(capsys, "form-witt", "--q", "7", "--gram", "0,1;1,0")
    assert code == 0
    assert data["hyperbolic_count"] == 1 and data["witt_class"] == "0"
    code, _, err = run(capsys, "form-witt", "--q", "7")
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
    assert "--diag" in err and "--gram" in err


def test_form_witt_invariants_agree_with_library(capsys):
    field = make_field(11)
    entries = (1, 5, 7, 2)
    code, data, _ = run_json(capsys, "form-witt", "--q", "11", "--diag", "1,5,7,2")
    assert code == 0
    form = DiagonalForm(field, tuple(field.element(a) for a in entries))
    inv = witt_invariants(form)
    assert data["rank_parity"] == inv.rank_parity
    assert data["signed_discriminant"] == str(inv.signed_disc)


def test_curve_table_consistent(capsys):
    code, data, _ = run_json(capsys, "curve-table", "--q", "7", "--r", "1")
    assert code == 0
    group = Pic2Group(1)
    classes = [WittClass.from_json(c, data["context"], group) for c in data["classes"]]
    assert classes == enumerate_classes(data["context"], group)
    assert len(set(data["labels"])) == 8
    for i, a in enumerate(classes):
        for j, b in enumerate(classes):
            assert classes[data["add"][i][j]] == a + b
            assert classes[data["mul"][i][j]] == a * b


def test_curve_table_rank_bound(capsys):
    code, _, err = run(capsys, "curve-table", "--q", "7", "--r", "5")
    assert code == 2 and "r <= 4" in err


def test_curve_eval_fold(capsys):
    code, data, _ = run_json(
        capsys, "curve-eval", "--q", "13", "--r", "2", "--word", "(1,01);(s,11)"
    )
    assert code == 0
    group = Pic2Group(2)
    cls = WittClass.from_json(data["class"], 1, group)
    # q = 1 mod 4: <L> + <sM> is the even class with twist s on LM = 10
    assert cls == WittClass.even(SquareClass.NONSQUARE, group.element("10"), 1)
    assert data["rank_parity"] == 0
    assert data["signed_discriminant"] == {"u": "s", "L": "10"}


def test_curve_eval_empty_word_rank_zero(capsys):
    code, data, _ = run_json(capsys, "curve-eval", "--q", "7", "--r", "0", "--word", "(1,);(1,)")
    assert code == 0
    assert data["label"] == "<1,-s>"  # <1,1> has signed discriminant -1 = s mod 7


def test_curve_eval_bad_word(capsys):
    code, _, err = run(capsys, "curve-eval", "--q", "7", "--r", "2", "--word", "(1,0)")
    assert code == 2 and "length" in err
    code, _, err = run(capsys, "curve-eval", "--q", "7", "--r", "2", "--word", "(2,01)")
    assert code == 2 and err.startswith("error:")


def test_curve_normal_form_ideal_element(capsys):
    word = "(1,0);(s,0);(1,1);(s,1)"
    code, data, _ = run_json(capsys, "curve-normal-form", "--q", "13", "--r", "1", "--word", word)
    assert code == 0
    assert data["in_relation_ideal"] is True
    assert data["label"] == "0"
    elem = GroupRingElement.from_json(data["element"], data["context"], Pic2Group(1))
    assert elem.support_size() == 2


def test_curve_normal_form_nonideal(capsys):
    code, data, _ = run_json(
        capsys, "curve-normal-form", "--q", "13", "--r", "1", "--word", "(1,0);(s,0)"
    )
    assert code == 0
    assert data["in_relation_ideal"] is False
    assert data["label"] == "<1,-s>"


def test_verify_reporting(monkeypatch, capsys):
    import wittcurve.verify as verify

    fake = [
        CheckResult("alpha", True, "fine"),
        CheckResult("beta", False, "counterexample: x"),
    ]
    monkeypatch.setattr(verify, "run_all", lambda: fake)
    code, out, _ = run(capsys, "verify")
    assert code == 1
    assert "PASS  alpha" in out and "FAIL  beta" in out
    assert "1/2 checks passed" in out
    assert "counterexample: beta" in out

    monkeypatch.setattr(verify, "run_all", lambda: fake[:1])
    code, data, _ = run_json(capsys, "verify")
    assert code == 0
    assert data["passed"] == 1 and data["total"] == 1
    assert data["results"][0]["name"] == "alpha"


def test_form_witt_fields_beyond_dense_scan(capsys):
    # q^3 > 10^7 for each q, yet the rank-3 split visits only a few prefixes
    for q in ["227", "1019", "4099"]:
        code, data, _ = run_json(capsys, "form-witt", "--q", q, "--diag", "1,1,1")
        assert code == 0
        assert data["hyperbolic_count"] == 1


def test_cold_start_does_not_import_numpy():
    # numpy serves only the group-ring certification, so CLI runs outside
    # `verify` must not pay for importing it
    script = (
        "import sys\n"
        "from wittcurve.cli import main\n"
        "assert main(['form-witt', '--q', '3001', '--diag', '1,2']) == 0\n"
        "assert main(['field-info', '--q', '7']) == 0\n"
        "print('numpy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(wittcurve.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


# the library modules each subcommand loads beyond wittcurve, wittcurve.cli,
# wittcurve.fields and wittcurve.pic2
SUBCOMMAND_LAYERS = [
    (["field-info", "--q", "7"], []),
    (["curve-table", "--q", "7", "--r", "2"], ["curve"]),
    (["curve-eval", "--q", "7", "--r", "2", "--word", "(1,01);(s,11)"], ["curve"]),
    (["form-diag", "--q", "7", "--gram", "0,1;1,0"], ["forms"]),
    (["form-witt", "--q", "7", "--diag", "1,2"], ["curve", "forms", "wittk"]),
    (["wittk-table", "--q", "5"], ["curve", "forms", "wittk"]),
    (["curve-normal-form", "--q", "13", "--r", "1", "--word", "(1,0);(s,1)"],
     ["curve", "forms", "groupring", "wittk"]),
]


def test_each_subcommand_loads_only_its_layers():
    # a fresh interpreter per subcommand, so no module is left over from
    # another run; dataclasses and numpy serve only `verify`
    script = (
        "import sys\n"
        "from wittcurve.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(code, *sorted(m for m in sys.modules\n"
        "                    if m.startswith('wittcurve') or m in ('dataclasses', 'numpy')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(wittcurve.__file__).parents[1]))
    for argv, layers in SUBCOMMAND_LAYERS:
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        loaded = proc.stdout.splitlines()[-1].split()
        expected = ["wittcurve", "wittcurve.cli", "wittcurve.fields", "wittcurve.pic2"]
        expected += [f"wittcurve.{layer}" for layer in layers]
        assert loaded == ["0", *sorted(expected)], argv[0]


def test_form_witt_splits_a_rank_8_form(capsys):
    # over F_11 (q = 3 mod 4) two pairs cancel, the square triple <3, 1, 1>
    # splits as H ⊥ <-3>, and <-3, 9> cancels: four planes, zero kernel
    code, out, _ = run(capsys, "form-witt", "--q", "11", "--diag", "1,5,7,2,3,1,1,9")
    assert code == 0 and "rank 8 = 2*4 + 0" in out


def test_closed_stdout_exits_without_traceback():
    # stdout is a pipe whose reader is already gone, as with `| head` once
    # head has exited, so the first write fails without any timing race
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(wittcurve.__file__).parents[1]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "wittcurve.cli", "curve-table", "--q", "7", "--r", "3"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr
    assert proc.stderr == b""


USAGE_ERRORS = [
    [],
    ["bogus"],
    ["form-witt", "--q", "7", "--diag", "1", "--max-search", "5"],
    ["curve-eval", "--q", "7", "--r", "x", "--word", "(1,)"],
    ["field-info"],
    ["form-witt", "--q", "5"],
    ["form-witt", "--q", "5", "--diag", "1", "--gram", "1,2;2,1"],
]


def test_usage_errors_are_one_line(capsys):
    for argv in USAGE_ERRORS:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert len(err.splitlines()) == 1 and err.startswith("error: "), (argv, err)


def test_usage_error_prints_no_usage_block_and_help_exits_zero():
    env = dict(os.environ, PYTHONPATH=str(Path(wittcurve.__file__).parents[1]))
    cli = [sys.executable, "-m", "wittcurve.cli"]
    argv = ["form-witt", "--q", "7", "--diag", "1", "--max-search", "5"]
    proc = subprocess.run(cli + argv, capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: unrecognized arguments: --max-search 5\n"
    proc = subprocess.run(cli + ["--help"], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0 and proc.stderr == ""
    assert "form-witt" in proc.stdout


# a valid invocation of each subcommand, and the valued flags it reads
VALID = {
    "field-info": (["--q", "7"], {"--q"}),
    "wittk-table": (["--q", "5"], {"--q"}),
    "form-diag": (["--q", "7", "--gram", "0,1;1,0"], {"--q", "--gram"}),
    "form-witt": (["--q", "7", "--diag", "1,2"], {"--q", "--diag", "--gram"}),
    "curve-table": (["--q", "7", "--r", "1"], {"--q", "--r"}),
    "curve-eval": (["--q", "7", "--r", "1", "--word", "(1,0)"], {"--q", "--r", "--word"}),
    "curve-normal-form": (["--q", "7", "--r", "1", "--word", "(1,0)"], {"--q", "--r", "--word"}),
    "verify": ([], set()),
}
FLAG_VALUES = {"--q": "7", "--r": "1", "--gram": "0,1;1,0", "--diag": "1,2", "--word": "(1,0)"}


def test_each_subcommand_refuses_the_flags_of_the_others(monkeypatch, capsys):
    import wittcurve.verify as verify

    def battery():
        raise AssertionError("verify ran its battery despite a usage error")

    monkeypatch.setattr(verify, "run_all", battery)
    refused = 0
    for sub, (argv, reads) in VALID.items():
        if sub != "verify":
            assert run(capsys, sub, *argv)[0] == 0, sub
        for flag, value in FLAG_VALUES.items():
            if flag in reads:
                continue
            code, out, err = run(capsys, sub, *argv, flag, value)
            assert code == 2 and out == "", (sub, flag)
            assert err == f"error: unrecognized arguments: {flag} {value}\n", (sub, flag)
            refused += 1
    assert refused == 8 * 5 - 15
